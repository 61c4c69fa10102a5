"""Kernel abstractions shared by all convolution schemes.

A :class:`ConvShape` names a core-convolution problem the way the
paper does — ``(C, N, H, W)`` with filter ``(R, S)`` — where ``H, W``
is the *output* feature-map extent and the input is implicitly padded
("same" convolution, matching Listing 2's ``(TH+R-1) x (TW+S-1)``
input tile per ``TH x TW`` output tile).

A :class:`ConvKernel` provides two views of one scheme:

- ``launches(shape, device)``: the kernel-launch description(s) fed to
  the GPU simulator (the "measured" latency path), and
- ``run_into(x, weight, out, scratch)``: a functional NumPy execution
  of the same algorithm into preallocated buffers (the compiled hot
  path), validated against the reference convolution in tests.
  ``run(x, weight)`` wraps it with fresh buffers, once, in the base
  class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch, simulate_kernel
from repro.utils.validation import check_positive_int

FLOAT_BYTES = 4  # kernels operate in float32 on the device


def execution_dtype(*arrays: np.ndarray) -> np.dtype:
    """The dtype a kernel executes in for the given operands.

    Float inputs keep their common float dtype — float32 stays float32
    end to end (the device executes float32; silent float64 promotion
    doubles memory and hides precision issues).  Non-float inputs
    (ints, bools) promote to float64, and sub-float32 floats (float16)
    promote to float32: the modeled device has no half-precision
    accumulate path, and accumulating C*R*S terms in float16 would be
    a silent precision cliff.
    """
    dtype = np.result_type(*arrays)
    if not np.issubdtype(dtype, np.floating):
        return np.dtype(np.float64)  # repro: ignore[dtype-promotion] -- integer inputs deliberately promote to the widest float
    if dtype.itemsize < np.dtype(np.float32).itemsize:
        return np.dtype(np.float32)
    return dtype


@dataclass(frozen=True)
class ConvShape:
    """A core convolution problem, paper notation ``(C, N, H, W, R, S)``."""

    c: int          # input channels
    n: int          # output channels
    h: int          # output height (= logical input height, "same" conv)
    w: int          # output width
    r: int = 3      # filter height
    s: int = 3      # filter width

    def __post_init__(self) -> None:
        for name in ("c", "n", "h", "w", "r", "s"):
            check_positive_int(name, getattr(self, name))

    @property
    def padded_h(self) -> int:
        return self.h + self.r - 1

    @property
    def padded_w(self) -> int:
        return self.w + self.s - 1

    @property
    def pad(self) -> Tuple[int, int]:
        """Zero padding applied on each side (top/left)."""
        return ((self.r - 1) // 2, (self.s - 1) // 2)

    def flops(self) -> int:
        """Useful MAC FLOPs (2 per MAC), excluding any halo overcompute."""
        return 2 * self.h * self.w * self.c * self.n * self.r * self.s

    def input_bytes(self) -> int:
        return self.c * self.h * self.w * FLOAT_BYTES

    def weight_bytes(self) -> int:
        return self.n * self.c * self.r * self.s * FLOAT_BYTES

    def output_bytes(self) -> int:
        return self.n * self.h * self.w * FLOAT_BYTES

    def as_tuple(self) -> Tuple[int, int, int, int, int, int]:
        """The full problem identity, filter extents included — safe to
        use directly as (part of) a cache key."""
        return (self.c, self.n, self.h, self.w, self.r, self.s)

    def __str__(self) -> str:
        return f"({self.c},{self.n},{self.h},{self.w})"


def pad_input(x: np.ndarray, shape: ConvShape) -> np.ndarray:
    """Zero-pad a ``(C, H, W)`` input for "same" convolution.

    Asymmetric for even filters (extra on the bottom/right), symmetric
    for the usual odd filters.
    """
    if x.shape != (shape.c, shape.h, shape.w):
        raise ValueError(
            f"input shape {x.shape} does not match conv shape "
            f"({shape.c},{shape.h},{shape.w})"
        )
    ph, pw = shape.pad
    ph2 = shape.r - 1 - ph
    pw2 = shape.s - 1 - pw
    return np.pad(x, ((0, 0), (ph, ph2), (pw, pw2)))


class ConvKernel:
    """Base class for convolution schemes."""

    name = "base"

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        """Kernel-launch descriptions for this scheme on this problem."""
        raise NotImplementedError

    def latency(
        self, shape: ConvShape, device: DeviceSpec,
        include_launch_overhead: bool = True,
    ) -> float:
        """Simulated latency (seconds) of the full scheme."""
        total = 0.0
        for launch in self.launches(shape, device):
            total += simulate_kernel(
                device, launch, include_launch_overhead=include_launch_overhead
            ).total
        return total

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Functional execution: ``(C,H,W) x (N,C,R,S) -> (N,H,W)``.

        The convenience API: validates the operands, allocates a fresh
        scratch set and a zeroed output, then runs :meth:`run_into` —
        the one copy of each kernel's loop.
        """
        x, weight, shape = self._check_run_args(x, weight)
        out = np.zeros((shape.n, shape.h, shape.w), dtype=x.dtype)
        scratch = self.allocate_scratch(shape, dtype=x.dtype)
        return self.run_into(x, weight, out, scratch)

    # -- preallocated execution (the compiled hot path) -----------------
    def scratch_shapes(self, shape: ConvShape) -> Dict[str, Tuple[int, ...]]:
        """Shapes of the scratch buffers :meth:`run_into` needs.

        Keys are kernel-private names; the compile step allocates one
        zeroed buffer per entry (see :meth:`allocate_scratch`) so the
        hot path performs no per-call allocation.
        """
        return {}

    def allocate_scratch(
        self, shape: ConvShape, dtype: np.dtype = np.dtype(np.float64)  # repro: ignore[dtype-promotion] -- reference-path default; compile_plan always passes the arena dtype
    ) -> Dict[str, np.ndarray]:
        """Allocate the zero-initialized scratch set for ``run_into``.

        Cold path (compile time).  Buffers must be zero-initialized:
        ``run_into`` implementations only ever write interiors and rely
        on padding borders staying zero across calls.
        """
        return {
            name: np.zeros(s, dtype=dtype)
            for name, s in self.scratch_shapes(shape).items()
        }

    def run_into(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        out: np.ndarray,
        scratch: Dict[str, np.ndarray],
    ) -> np.ndarray:
        """Execute into a preallocated ``(N,H,W)`` output buffer.

        ``x``/``weight``/``out`` must already be in the execution dtype
        and ``scratch`` must come from :meth:`allocate_scratch` for this
        problem shape.  Every kernel implements this; on the serving hot
        path it touches no ``np.zeros``/``np.empty``/``np.pad`` per call.
        """
        raise NotImplementedError

    def _check_run_args(
        self, x: np.ndarray, weight: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, ConvShape]:
        x = np.asarray(x)
        weight = np.asarray(weight)
        # Execute in the inputs' common float dtype; see
        # :func:`execution_dtype` for the promotion rules.
        dtype = execution_dtype(x, weight)
        x = np.asarray(x, dtype=dtype)
        weight = np.asarray(weight, dtype=dtype)
        if x.ndim != 3:
            raise ValueError(f"input must be (C,H,W), got {x.shape}")
        if weight.ndim != 4:
            raise ValueError(f"weight must be (N,C,R,S), got {weight.shape}")
        if weight.shape[1] != x.shape[0]:
            raise ValueError(
                f"channel mismatch: input C={x.shape[0]}, weight C={weight.shape[1]}"
            )
        shape = ConvShape(
            c=x.shape[0], n=weight.shape[0], h=x.shape[1], w=x.shape[2],
            r=weight.shape[2], s=weight.shape[3],
        )
        return x, weight, shape


def reference_conv(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Reference "same" convolution for kernel validation.

    ``x`` is ``(C, H, W)``, ``weight`` is ``(N, C, R, S)``; output is
    ``(N, H, W)``.  Cross-correlation (DL convention).  Dtype-
    preserving like the kernel ``run()`` paths: float32 inputs produce
    a float32 reference instead of silently promoting to float64.
    """
    dtype = execution_dtype(np.asarray(x), np.asarray(weight))
    x = np.asarray(x, dtype=dtype)
    weight = np.asarray(weight, dtype=dtype)
    n, c, r, s = weight.shape
    shape = ConvShape(c=c, n=n, h=x.shape[1], w=x.shape[2], r=r, s=s)
    xp = pad_input(x, shape)
    y = np.zeros((n, shape.h, shape.w), dtype=dtype)
    for i in range(r):
        for j in range(s):
            patch = xp[:, i : i + shape.h, j : j + shape.w]
            y += np.einsum("chw,nc->nhw", patch, weight[:, :, i, j], optimize=True)
    return y
