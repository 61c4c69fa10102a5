"""Compile-time specialized kernel runners for the parallel engine.

The serial hot loops issue thousands of tiny ``np.einsum(..., out=...,
optimize=True)`` calls per sample; profiled at batch 16 on the preset
Tucker sites, ~75-80% of the wall time is einsum's *Python* dispatch
(``einsum_path`` re-parsing the subscripts on every call), not the
contraction itself.  NumPy executes every optimized two-operand einsum
through one internal routine (``bmm_einsum``, parse results cached per
``(equation, shapes)``), so calling that routine directly on the same
operands produces bit-identical results by construction while skipping
the per-call parse.

:class:`PreparedTDCRunner` applies this to the dominant kernel
(:class:`~repro.kernels.tdc_direct.TDCDirectKernel`): same tile loop,
same float summation order, same scratch contract, with the tile
geometry and the per-tap weight views precomputed once at compile
time.  Because runners take scratch per call and keep no mutable
state, one runner instance serves every worker lane concurrently.

Every prepared runner is validated bit-exact against its serial kernel
on a probe input before being installed (:func:`prepare_tdc_runner`);
a mismatch — e.g. a future NumPy dropping the internal routine —
falls back to the generic (still thread-safe) ``kernel.run_into``
path rather than shipping wrong bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kernels.base import ConvShape
from repro.kernels.tdc_direct import TDCDirectKernel

try:  # NumPy >= 2.0
    from numpy._core.einsumfunc import bmm_einsum as _bmm_einsum
except ImportError:  # pragma: no cover - older NumPy layouts
    try:
        from numpy.core.einsumfunc import bmm_einsum as _bmm_einsum
    except ImportError:
        _bmm_einsum = None


def fast_pairwise_einsum(eq: str, a: np.ndarray, b: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """``np.einsum(eq, a, b, out=out, optimize=True)`` minus the parse.

    Dispatches to NumPy's internal cached two-operand contraction when
    available (bit-identical: it is the exact routine ``einsum`` runs
    after parsing), else to ``np.einsum`` itself.
    """
    if _bmm_einsum is not None:
        return _bmm_einsum(eq, a, b, out=out)
    return np.einsum(eq, a, b, out=out, optimize=True)


class PreparedTDCRunner:
    """A specialized, thread-safe mirror of ``TDCDirectKernel.run_into``.

    Precomputes the clipped tile walk and the per-tap weight views for
    one ``(kernel, weight, shape)`` binding; :meth:`run_into` then
    replays the serial loop nest — identical tile order, identical
    ``(r, s)`` tap order, identical accumulation order — through
    :func:`fast_pairwise_einsum`.  All mutable state lives in the
    caller-provided scratch dict (the same ``{"xpad", "temp", "prod"}``
    contract as the kernel), so concurrent calls with disjoint scratch
    are safe.
    """

    def __init__(self, kernel: TDCDirectKernel, weight: np.ndarray,
                 shape: ConvShape) -> None:
        t = kernel.tiling.clipped(shape)
        self.shape = shape
        r, s = shape.r, shape.s
        # The tile walk, fully clipped: (c-tile index, c0, c1, h0, hsz,
        # w0, wsz) in the serial kernel's exact iteration order.
        tiles: List[Tuple[int, int, int, int, int, int, int]] = []
        ctiles = range(0, shape.c, t.tc)
        for ci, c0 in enumerate(ctiles):
            c1 = min(c0 + t.tc, shape.c)
            for h0 in range(0, shape.h, t.th):
                hsz = min(t.th, shape.h - h0)
                for w0 in range(0, shape.w, t.tw):
                    wsz = min(t.tw, shape.w - w0)
                    tiles.append((ci, c0, c1, h0, hsz, w0, wsz))
        self.tiles = tiles
        # Per-tap weight views, exactly the strided views the serial
        # loop slices (same operands -> same internal dispatch -> same
        # bits); weights are frozen at compile so views stay valid.
        self.wtaps: List[List[np.ndarray]] = []
        for c0 in ctiles:
            c1 = min(c0 + t.tc, shape.c)
            self.wtaps.append(
                [weight[:, c0:c1, i, j] for i in range(r) for j in range(s)]
            )

    def run_into(self, x: np.ndarray, weight: np.ndarray, out: np.ndarray,
                 scratch: Dict[str, np.ndarray]) -> np.ndarray:
        """Drop-in for ``kernel.run_into(x, weight, out, scratch)``."""
        shape = self.shape
        r, s = shape.r, shape.s
        xpad, temp, prod = scratch["xpad"], scratch["temp"], scratch["prod"]
        ph, pw = shape.pad
        xpad[:, ph:ph + shape.h, pw:pw + shape.w] = x
        out.fill(0.0)
        wtaps = self.wtaps
        einsum2 = fast_pairwise_einsum
        for ci, c0, c1, h0, hsz, w0, wsz in self.tiles:
            smem = xpad[c0:c1, h0:h0 + hsz + r - 1, w0:w0 + wsz + s - 1]
            acc = temp[:, :hsz, :wsz]
            p = prod[:, :hsz, :wsz]
            acc.fill(0.0)
            taps = wtaps[ci]
            ti = 0
            for i in range(r):
                for j in range(s):
                    einsum2(
                        "chw,nc->nhw",
                        smem[:, i:i + hsz, j:j + wsz],
                        taps[ti],
                        p,
                    )
                    acc += p
                    ti += 1
            out[:, h0:h0 + hsz, w0:w0 + wsz] += acc
        return out


def prepare_tdc_runner(
    kernel, weight: np.ndarray, shape: ConvShape, dtype: np.dtype,
) -> Optional[PreparedTDCRunner]:
    """Build and bit-validate a prepared runner for a TDC-family kernel.

    Returns ``None`` when the kernel is not a ``TDCDirectKernel`` or
    when the probe run does not reproduce the serial kernel exactly —
    the compile then keeps the generic per-worker ``kernel.run_into``
    path (still thread-safe, just unspecialized).  Cold path: the probe
    allocates freely.
    """
    if not isinstance(kernel, TDCDirectKernel):
        return None
    runner = PreparedTDCRunner(kernel, weight, shape)
    rng = np.random.default_rng(0x7DC)
    x = rng.standard_normal(
        (shape.c, shape.h, shape.w)
    ).astype(dtype, copy=False)
    ref_scratch = kernel.allocate_scratch(shape, dtype=dtype)
    new_scratch = kernel.allocate_scratch(shape, dtype=dtype)
    ref = np.zeros((shape.n, shape.h, shape.w), dtype=dtype)
    got = np.zeros_like(ref)
    kernel.run_into(x, weight, ref, ref_scratch)
    runner.run_into(x, weight, got, new_scratch)
    if not np.array_equal(ref, got):
        return None
    return runner
