"""The compile half of the compile/execute split.

An :class:`~repro.inference.plan.ExecutionPlan` records *decisions*
(which backend, which tiling, what latency) but cannot run.
:func:`compile_plan` turns a plan plus a trainable model into an
:class:`Executable` — the repro-side analogue of the paper's generated
inference program after ``nvcc``:

- every planned ``core``/``conv`` kernel is bound to the concrete
  :class:`~repro.kernels.base.ConvKernel` its backend materializes
  (``KernelBackend.kernel``), with the plan's dispatch decision
  honored per layer;
- the model's core/factor weights are exported into the executable
  (contiguous, in the execution dtype), so later mutation of the
  source model cannot leak into a compiled artifact;
- all activation and scratch buffers are preallocated in a
  :class:`BufferArena`, so the hot path performs zero per-request
  ``np.zeros``/``np.empty``/``np.pad`` allocation — buffers are reused
  across requests, which the test suite asserts by identity.

Each conv site compiles to one of three classes: :class:`CompiledConv2d`
(dense), :class:`CompiledChainConv2d` (every factored format, stage by
stage) or :class:`CompiledFusedSite` (the ``fused`` backend).  Each
computes through a single ``_body``, which the shared
``_CompiledSite.forward`` runs serially or once per batch shard.

Strided/padded layers run through their same-convolution kernels by
executing at the padded input extent and subsampling the output — the
kernel computes a superset of the needed positions (halo overcompute,
like the real TDC kernel) while numerics match ``Module.forward``
exactly up to float tolerance.

``Executable.run`` is single-threaded by design (one arena, one
in-flight request); :mod:`repro.serving` serializes concurrent callers
through a micro-batching queue on top.
"""

from __future__ import annotations

import copy
import time
from functools import partial
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import get_backend
from repro.gpusim.device import DeviceSpec
from repro.inference.plan import ExecutionPlan, PlannedKernel, plan_model
from repro.kernels.base import ConvKernel, ConvShape, execution_dtype
from repro.kernels.depthwise import DepthwiseConvKernel
from repro.kernels.fused import FusedChainExecutor
from repro.models.introspection import (
    LayerSite,
    find_module,
    replace_module,
    trace_layer_sites,
)
from repro.nn.conv import Conv2d
from repro.nn.functional import conv_out_size
from repro.nn.module import Module
from repro.perfmodel.parallel import should_parallelize
from repro.runtime.engine import SiteParallel
from repro.runtime.pool import get_pool, resolve_threads
from repro.runtime.prepared import prepare_tdc_runner
from repro.tensor.formats import get_format

#: Plan kernel kinds that bind to a model conv site.
_CONV_KINDS = ("conv", "pointwise", "core", "dwcore")


class BufferArena:
    """Named pool of preallocated ndarrays (activations + scratch).

    All buffers are zero-initialized once at compile time; hot-path
    code only ever writes interiors (padding borders stay zero), so a
    steady-state request allocates nothing.

    The default dtype is float32 — the device execution dtype
    (``kernels.base.FLOAT_BYTES``); a float64 arena is only warranted
    when the model's weights are float64, which :func:`compile_plan`
    decides per model.
    """

    def __init__(self, dtype: np.dtype = np.dtype(np.float32)) -> None:
        self.dtype = np.dtype(dtype)
        self._buffers: Dict[str, np.ndarray] = {}

    def allocate(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Allocate (zeroed) and register one buffer; names are unique."""
        if name in self._buffers:
            raise ValueError(f"arena buffer {name!r} already allocated")
        buf = np.zeros(shape, dtype=self.dtype)
        self._buffers[name] = buf
        return buf

    def adopt(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register an externally allocated buffer (kernel scratch)."""
        if name in self._buffers:
            raise ValueError(f"arena buffer {name!r} already allocated")
        self._buffers[name] = array
        return array

    def get(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._buffers)

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


def _strided_rows(
    extent: int, kernel: int, stride: int, padding: int
) -> Tuple[slice, int]:
    """Slice selecting the strided conv outputs from a same-conv result
    computed at the padded extent, plus the output size."""
    out = conv_out_size(extent, kernel, stride, padding)
    start = (kernel - 1) // 2
    return slice(start, start + (out - 1) * stride + 1, stride), out


def _adopt_scratch(
    arena: BufferArena, name: str, kernel: ConvKernel, shape: ConvShape
) -> Dict[str, np.ndarray]:
    """Allocate ``kernel``'s scratch for ``shape`` into the arena."""
    scratch = kernel.allocate_scratch(shape, dtype=arena.dtype)
    for sname, buf in scratch.items():
        arena.adopt(f"{name}.scratch.{sname}", buf)
    return scratch


def _chain_weights(site: LayerSite, dtype: np.dtype):
    """One factored site's chain: ``(weights, mid_weight, mid_in,
    mid_out, collapse_to)``, widths from the format's
    :meth:`~repro.tensor.formats.DecompFormat.chain` (a dense site
    raises: ``"dense"`` is no registered format).

    The middle stage is the ``(D2, D1, R, S)`` dense core for Tucker and
    the ``(M, R, S)`` depthwise filter for CP/TT; TT collapses its
    ``r1*r2`` middle channels to ``collapse_to = r1`` before pw2.
    """
    mod = site.module
    fmt = get_format(site.format)
    chain = fmt.chain(mod.ranks)
    weights = mod.export_weights(dtype=dtype)
    mid_weight = weights["dw" if fmt.depthwise else "core"]
    return weights, mid_weight, chain.pw1_out, chain.mid_out, chain.collapse_to


class _CompiledSite(Module):
    """Base for compiled conv sites: inference-only bound kernels.

    Every subclass computes through one method,
    ``_body(x, lo, hi, scratch, kernel)``: samples ``[lo, hi)`` of
    ``x`` into ``out[lo:hi]``, with one lane's scratch and the kernel
    that lane runs.  ``forward`` is the only dispatcher.  ``_parallel``
    is ``None`` unless :func:`compile_plan` decided (via the perf
    model) that this site shards; it then holds the site's
    :class:`~repro.runtime.SiteParallel` state (lane scratch, the
    prepared runner).  A batch that supports two or more shards
    (``SiteParallel.batch_shards``) runs one ``_body`` per shard, one
    lane each; any other batch runs one ``_body`` on lane 0.
    """

    #: Set by compile_plan when the perf model picks parallel (else None).
    _parallel = None
    #: Lane-0 scratch and bound kernel (``None`` where a site has none).
    scratch: Optional[Dict[str, np.ndarray]] = None
    kernel: Optional[ConvKernel] = None

    def __init__(self, name: str, max_batch: int) -> None:
        super().__init__()
        self.site_name = name
        self.max_batch = int(max_batch)

    def _check_batch(self, x: np.ndarray) -> int:
        b = x.shape[0]
        if b > self.max_batch:
            raise ValueError(
                f"batch {b} exceeds the compiled max_batch "
                f"{self.max_batch} at site {self.site_name!r}; recompile "
                f"with a larger max_batch or split the request"
            )
        return b

    def forward(self, x: np.ndarray) -> np.ndarray:
        b = self._check_batch(x)
        par = self._parallel
        if par is None:
            self._body(x, 0, b, self.scratch, self.kernel)
            return self.out[:b]
        # Read per call, not cached at compile: a caller may rebind
        # either one (e.g. to trace it).
        kernel = par.runner or self.kernel
        shards = par.batch_shards(b)
        if len(shards) > 1:
            par.run_tasks([
                partial(self._body, x, lo, hi, par.lane_scratch[lane], kernel)
                for lane, (lo, hi) in enumerate(shards)
            ])
        else:
            self._body(x, 0, b, par.lane_scratch[0], kernel)
        return self.out[:b]

    def _body(self, x, lo, hi, scratch, kernel) -> None:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            f"compiled site {self.site_name!r} is inference-only; "
            f"train on the source model and recompile"
        )


class CompiledConv2d(_CompiledSite):
    """A dense conv site bound to a baseline kernel and arena buffers."""

    def __init__(
        self,
        site: LayerSite,
        kernel: Optional[ConvKernel],
        arena: BufferArena,
        max_batch: int,
    ) -> None:
        super().__init__(site.name, max_batch)
        mod = site.module
        assert isinstance(mod, Conv2d)
        dtype = arena.dtype
        self.kernel_size = mod.kernel_size
        self.stride = mod.stride
        self.padding = mod.padding
        self.weight = np.ascontiguousarray(mod.weight.data, dtype=dtype)
        self.bias = (
            np.ascontiguousarray(mod.bias.data, dtype=dtype)
            if mod.bias is not None else None
        )
        h, w = site.height, site.width
        c, n = mod.in_channels, mod.out_channels
        k, p = mod.kernel_size, mod.padding
        self._rows, oh = _strided_rows(h, k, self.stride, p)
        self._cols, ow = _strided_rows(w, k, self.stride, p)
        self.kernel = kernel
        self.out = arena.allocate(f"{site.name}.out", (max_batch, n, oh, ow))
        if k == 1:
            # Pointwise path: a strided-view GEMM, no staging needed
            # unless the (unusual) padded 1x1 case stages into xpad.
            self.xpad = (
                arena.allocate(
                    f"{site.name}.xpad",
                    (max_batch, c, h + 2 * p, w + 2 * p),
                )
                if p > 0 else None
            )
            self.ysame = None
        else:
            hp, wp = h + 2 * p, w + 2 * p
            self.xpad = arena.allocate(
                f"{site.name}.xpad", (max_batch, c, hp, wp)
            )
            self.ysame = arena.allocate(
                f"{site.name}.ysame", (max_batch, n, hp, wp)
            )
            assert kernel is not None
            self.scratch = _adopt_scratch(
                arena, site.name, kernel,
                ConvShape(c=c, n=n, h=hp, w=wp, r=k, s=k),
            )

    def _body(self, x, lo, hi, scratch, kernel) -> None:
        out = self.out[lo:hi]
        p = self.padding
        if self.kernel_size == 1:
            if self.xpad is None:
                src = x[lo:hi, :, self._rows, self._cols]
            else:
                xpad = self.xpad[lo:hi]
                xpad[:, :, p : p + x.shape[2], p : p + x.shape[3]] = x[lo:hi]
                src = xpad[:, :, self._rows, self._cols]
            np.einsum(
                "nc,bchw->bnhw", self.weight[:, :, 0, 0], src,
                out=out, optimize=True,
            )
        else:
            xpad = self.xpad[lo:hi]
            xpad[:, :, p : p + x.shape[2], p : p + x.shape[3]] = x[lo:hi]
            ysame = self.ysame[lo:hi]
            for i in range(hi - lo):
                kernel.run_into(xpad[i], self.weight, ysame[i], scratch)
            out[...] = ysame[:, :, self._rows, self._cols]
        if self.bias is not None:
            out += self.bias[None, :, None, None]


class CompiledChainConv2d(_CompiledSite):
    """A factored site (Tucker, CP or TT) run stage by stage through
    arena buffers.

    The stages are the paper's chain (Eqs. 2-4): a 1x1 projection into
    the padded middle input, the middle kernel at the padded extent
    (the planned dense core for Tucker, :class:`DepthwiseConvKernel`
    for CP/TT), the strided subsample, TT's group-sum collapse, then
    the 1x1 projection plus bias.
    """

    def __init__(
        self,
        site: LayerSite,
        kernel: ConvKernel,
        backend: str,
        arena: BufferArena,
        max_batch: int,
    ) -> None:
        super().__init__(site.name, max_batch)
        mod = site.module
        weights, mid_weight, mid_in, mid_out, collapse_to = _chain_weights(
            site, arena.dtype
        )
        self.format = site.format
        self.w_in = weights["w_in"]        # (mid_in, C)
        self.mid_weight = mid_weight       # (D2, D1, R, S) or (M, R, S)
        self.w_out = weights["w_out"]      # (N, mid_out or collapse_to)
        self.bias = weights["bias"]        # (N,) or None
        self.backend = backend
        self.kernel = kernel
        self.stride = mod.stride
        self.padding = mod.padding
        h, w = site.height, site.width
        k, p = mod.kernel_size, mod.padding
        self._rows, oh = _strided_rows(h, k, self.stride, p)
        self._cols, ow = _strided_rows(w, k, self.stride, p)
        self._interior = (slice(p, p + h), slice(p, p + w))
        hp, wp = h + 2 * p, w + 2 * p
        name = site.name
        self.z1pad = arena.allocate(
            f"{name}.z1pad", (max_batch, mid_in, hp, wp)
        )
        self.ysame = arena.allocate(
            f"{name}.ysame", (max_batch, mid_out, hp, wp)
        )
        self.z2 = arena.allocate(f"{name}.z2", (max_batch, mid_out, oh, ow))
        self.z3 = None
        if collapse_to is not None:
            self._groups = (collapse_to, mid_out // collapse_to)
            self.z3 = arena.allocate(
                f"{name}.z3", (max_batch, collapse_to, oh, ow)
            )
        self.out = arena.allocate(
            f"{name}.out", (max_batch, mod.out_channels, oh, ow)
        )
        self.scratch = _adopt_scratch(
            arena, name, kernel,
            ConvShape(c=mid_in, n=mid_out, h=hp, w=wp, r=k, s=k),
        )

    def _body(self, x, lo, hi, scratch, kernel) -> None:
        ri, ci = self._interior
        # Stage 1 (Eq. 2): input projection, written straight into the
        # padded middle input (the border stays zero).
        np.einsum(
            "dc,bchw->bdhw", self.w_in, x[lo:hi],
            out=self.z1pad[lo:hi, :, ri, ci], optimize=True,
        )
        # Stage 2 (Eq. 3): the middle kernel at the padded extent.
        for i in range(lo, hi):
            kernel.run_into(
                self.z1pad[i], self.mid_weight, self.ysame[i], scratch
            )
        z = self.z2[lo:hi]
        z[...] = self.ysame[lo:hi, :, self._rows, self._cols]
        if self.z3 is not None:
            # TT group-sum: collapse r1*r2 -> r1 (the memory-bound
            # kernel the plan folds into the dwcore latency).
            z3 = self.z3[lo:hi]
            np.sum(
                z.reshape((hi - lo,) + self._groups + z.shape[2:]),
                axis=2, out=z3,
            )
            z = z3
        # Stage 3 (Eq. 4): output projection plus bias.
        out = self.out[lo:hi]
        np.einsum("nd,bdhw->bnhw", self.w_out, z, out=out, optimize=True)
        if self.bias is not None:
            out += self.bias[None, :, None, None]


class CompiledFusedSite(_CompiledSite):
    """A factored site bound to the fused whole-chain executor.

    Replaces :class:`CompiledChainConv2d` when the planner selects the
    ``fused`` backend: the pw1 / core / pw2 stages (and TT's
    group-sum) run in cache-resident row blocks
    (:class:`~repro.kernels.fused.FusedChainExecutor`), so the full
    ``(C', H, W)`` intermediate buffers the chain site allocates
    (``z1pad`` / ``ysame`` / ``z2`` / ``z3``) never enter the arena —
    only the layer output and the small block scratch do.
    """

    def __init__(
        self,
        site: LayerSite,
        arena: BufferArena,
        max_batch: int,
    ) -> None:
        super().__init__(site.name, max_batch)
        mod = site.module
        dtype = arena.dtype
        weights, mid_weight, mid_in, mid_out, collapse = _chain_weights(
            site, dtype
        )
        self.backend = "fused"
        self.format = site.format
        k, p = mod.kernel_size, mod.padding
        self.executor = FusedChainExecutor(
            site.format,
            weights["w_in"],
            mid_weight,
            weights["w_out"],
            weights["bias"],
            in_hw=(site.height, site.width),
            kernel_size=k,
            stride=mod.stride,
            padding=p,
            max_batch=max_batch,
            collapse_to=collapse,
            dtype=dtype,
        )
        oh, ow = self.executor.oh, self.executor.ow
        self.input_shape = (mod.in_channels, site.height, site.width)
        #: The plan-time core/dwcore shape (calibration keys on it).
        self.core_shape = ConvShape(
            c=mid_in, n=mid_out, h=oh, w=ow, r=k, s=k
        )
        self.out = arena.allocate(
            f"{site.name}.out", (max_batch, mod.out_channels, oh, ow)
        )
        for sname, shape in self.executor.scratch_shapes().items():
            arena.allocate(f"{site.name}.fused.{sname}", shape)
        self.executor.bind({
            sname: arena.get(f"{site.name}.fused.{sname}")
            for sname in self.executor.scratch_shapes()
        })
        # Arena accounting: what the chain site would have allocated
        # for this site's intermediates (activation buffers; per-stage
        # kernel scratch would only widen the gap).
        hp, wp = site.height + 2 * p, site.width + 2 * p
        per_stage = mid_in * hp * wp + mid_out * hp * wp \
            + mid_out * oh * ow
        if collapse is not None:
            per_stage += collapse * oh * ow
        itemsize = np.dtype(dtype).itemsize
        self.per_stage_intermediate_bytes = max_batch * per_stage * itemsize
        self.fused_scratch_bytes = self.executor.scratch_nbytes

    def _body(self, x, lo, hi, scratch, kernel) -> None:
        # All fused block scratch is per-sample along the leading axis,
        # so a sample range owns disjoint views of the bound buffers:
        # batch shards need no lane scratch and add zero arena bytes.
        bound = self.executor.bound_scratch
        self.executor.run(
            x[lo:hi], self.out[lo:hi],
            scratch={name: buf[lo:hi] for name, buf in bound.items()},
        )


class Executable:
    """A runnable, self-contained compilation of (plan, model, device).

    Produced by :func:`compile_plan`; executes real numeric forward
    passes through the bound kernels and the model's auxiliary modules
    (batch-norm in eval mode, activations, pooling, residual/concat
    topology).  Not thread-safe — one arena means one in-flight
    request; see :class:`repro.serving.InferenceSession` for
    concurrency.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceSpec,
        model: Module,
        arena: BufferArena,
        sites: Sequence[_CompiledSite],
        input_shape: Tuple[int, int, int],
        max_batch: int,
        threads: int = 1,
    ) -> None:
        self.plan = plan
        self.device = device
        self.model_name = plan.model_name
        self.arena = arena
        self.input_shape = tuple(input_shape)
        self.max_batch = int(max_batch)
        #: Worker lanes this executable was compiled for (1 = serial).
        self.threads = int(threads)
        self._model = model
        self._sites = list(sites)
        # The plan is immutable for this executable's lifetime; the
        # serving worker reads the prediction every batch, so sum once.
        self._predicted_latency = plan.total_latency()
        self.requests_served = 0
        # Inputs arriving in a different dtype than the arena force a
        # hot-path cast (a full copy).  The counter lets serving assert
        # the steady state performs none: the session's staging buffer
        # is allocated in the arena dtype, so every worker batch
        # arrives pre-converted.
        self.hot_casts = 0

    @property
    def dtype(self) -> np.dtype:
        return self.arena.dtype

    def sites(self) -> List[_CompiledSite]:
        return list(self._sites)

    def backend_counts(self) -> Dict[str, int]:
        """Core-conv backend wins recorded on the compiled plan."""
        return self.plan.backend_counts()

    def predicted_latency(self) -> float:
        """The plan's simulated per-request latency (seconds)."""
        return self._predicted_latency

    def arena_report(self) -> Dict[str, int]:
        """Arena footprint, and what the fused sites saved.

        ``saved_bytes`` is the per-stage intermediate allocation each
        :class:`CompiledFusedSite` displaced, net of the block scratch
        it added; ``per_stage_equiv_bytes`` is what the arena would
        hold had every fused site compiled per-stage instead.
        """
        fused = [
            s for s in self._sites if isinstance(s, CompiledFusedSite)
        ]
        saved = sum(
            s.per_stage_intermediate_bytes - s.fused_scratch_bytes
            for s in fused
        )
        # Per-worker scratch the parallel lanes added: those buffers
        # were adopted into the arena at compile (named
        # ``<site>.scratch.w<lane>.<name>``), so ``arena_bytes``
        # already counts them; this key breaks the total down so the
        # report stays truthful under threads > 1.
        per_worker = sum(
            s._parallel.per_worker_scratch_bytes
            for s in self._sites if s._parallel is not None
        )
        return {
            "arena_bytes": self.arena.nbytes,
            "fused_sites": len(fused),
            "saved_bytes": saved,
            "per_stage_equiv_bytes": self.arena.nbytes + saved,
            "workers": self.threads,
            "per_worker_scratch_bytes": per_worker,
        }

    def parallel_report(self) -> Dict[str, object]:
        """Compile-time parallel decisions, per site.

        ``sites`` maps site name -> the perf model's verdict: estimated
        speedup, the planned site latency it was based on, and the lane
        scratch the site added to the arena.  Serial sites (or a ``threads=1``
        compile) simply do not appear.
        """
        sites: Dict[str, Dict[str, object]] = {}
        for s in self._sites:
            par = s._parallel
            if par is None:
                continue
            sites[s.site_name] = {
                "est_speedup": par.est_speedup,
                "site_latency_s": par.site_latency_s,
                "per_worker_scratch_bytes": par.per_worker_scratch_bytes,
            }
        return {
            "threads": self.threads,
            "parallel_sites": len(sites),
            "serial_sites": len(self._sites) - len(sites),
            "sites": sites,
        }

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute one request: ``(B, C, H, W)`` (or ``(C, H, W)``).

        Numerically equivalent to ``model.eval().forward(x)`` on the
        source model; the batch must not exceed ``max_batch``.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input (B, {', '.join(map(str, self.input_shape))})"
                f" with B <= {self.max_batch}, got {x.shape}"
            )
        if x.shape[0] > self.max_batch:
            raise ValueError(
                f"batch {x.shape[0]} exceeds compiled max_batch "
                f"{self.max_batch}; recompile with a larger max_batch or "
                f"let an InferenceSession micro-batch the requests"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)  # repro: ignore[hot-path-alloc] -- cold-path dtype cast, counted via hot_casts; serving pre-converts in the staging buffer
            self.hot_casts += 1
        y = self._model.forward(x)
        self.requests_served += 1
        return y

    def measure(
        self, x: np.ndarray, repeats: int = 3, warmup: int = 1
    ) -> float:
        """Best-of-``repeats`` wall-clock seconds for one ``run(x)``."""
        for _ in range(warmup):
            self.run(x)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.run(x)
            best = min(best, time.perf_counter() - t0)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executable({self.model_name!r} on {self.device.name}, "
            f"{len(self._sites)} bound sites, max_batch={self.max_batch}, "
            f"arena {self.arena.nbytes / 1e6:.1f} MB)"
        )


def _index_plan(
    plan: ExecutionPlan, site_names: Sequence[str]
) -> Tuple[Dict[str, PlannedKernel], Dict[str, PlannedKernel]]:
    """Split the plan's conv kernels into per-site core and dense maps.

    Raises when a conv-kind kernel does not bind to any traced site —
    the symptom of pairing a plan with the wrong model (or a
    spec-built plan with a trainable model).
    """
    names = set(site_names)
    cores: Dict[str, PlannedKernel] = {}
    dense: Dict[str, PlannedKernel] = {}
    unbound: List[str] = []
    for k in plan.kernels:
        if k.kind not in _CONV_KINDS:
            continue  # aux kinds execute through the model's own modules
        if k.kind in ("core", "dwcore"):
            site = k.layer[: -len(".core")]
            if site in names:
                cores[site] = k
            else:
                unbound.append(k.layer)
        elif k.layer.endswith(".pw1") or k.layer.endswith(".pw2"):
            site = k.layer[:-4]
            if site not in names:
                unbound.append(k.layer)
        elif k.layer in names:
            dense[k.layer] = k
        else:
            unbound.append(k.layer)
    if unbound:
        raise ValueError(
            f"plan kernels {sorted(unbound)[:8]} do not bind to any conv "
            f"site of the model ({sorted(names)[:8]}...); compile_plan "
            f"needs a plan built by plan_model for this exact model"
        )
    return cores, dense


def _kernel_site(k: PlannedKernel) -> str:
    """The conv site a planned kernel belongs to (aux kinds pass
    through unchanged)."""
    if k.kind in ("core", "dwcore"):
        return k.layer[: -len(".core")]
    if k.kind in _CONV_KINDS and (
        k.layer.endswith(".pw1") or k.layer.endswith(".pw2")
    ):
        return k.layer[:-4]
    return k.layer


def _site_latencies(
    plan: ExecutionPlan, site_names: Sequence[str]
) -> Dict[str, float]:
    """Planned per-request latency per conv site: the sum of the
    site's kernels (pw1 + core + pw2, or the dense conv) — the ``L``
    the fork/join model weighs against lane overhead."""
    names = set(site_names)
    lat = {n: 0.0 for n in names}
    for k in plan.kernels:
        if k.kind not in _CONV_KINDS:
            continue
        site = _kernel_site(k)
        if site in lat:
            lat[site] += k.latency
    return lat


def _parallel_lane_state(
    compiled: _CompiledSite,
    arena: BufferArena,
    threads: int,
    dtype: np.dtype,
):
    """Carve per-lane scratch for one parallel site and specialize its
    runner: ``(lane_scratch, runner)``.

    Lane 0 reuses the site's own (serial) scratch; lanes ``1..T-1``
    are fresh arena buffers named ``<site>.scratch.w<lane>.<name>`` so
    ``arena.nbytes`` (and thus ``arena_report``) stays truthful.
    Sites without kernel scratch (fused chains, 1x1 dense convs) need
    no extra lanes at all.
    """
    if compiled.scratch is None:
        return [None] * threads, None
    lanes: List[Optional[Dict[str, np.ndarray]]] = [compiled.scratch]
    for lane in range(1, threads):
        lanes.append({
            name: arena.allocate(
                f"{compiled.site_name}.scratch.w{lane}.{name}", buf.shape
            )
            for name, buf in compiled.scratch.items()
        })
    if isinstance(compiled, CompiledConv2d):
        weight, staged = compiled.weight, compiled.xpad
    elif compiled.format == "tucker":
        weight, staged = compiled.mid_weight, compiled.z1pad
    else:
        return lanes, None
    hp, wp = staged.shape[2:]
    shape = ConvShape(
        c=weight.shape[1], n=weight.shape[0],
        h=int(hp), w=int(wp), r=weight.shape[2], s=weight.shape[3],
    )
    return lanes, prepare_tdc_runner(compiled.kernel, weight, shape, dtype)


def model_dtype(model: Module) -> np.dtype:
    """The execution dtype a model's own weights imply.

    ``compile_plan(dtype=None)`` compiles the arena in this dtype: a
    float32-trained model gets a float32 arena (half the bytes, no
    hot-path casts on float32 requests — the kernels' ``run``/
    ``run_into`` paths are float32-preserving), while the float64
    training stack keeps its float64 arena and exact-match semantics.
    """
    arrays = [p.data for p in model.parameters()]
    if not arrays:
        return np.dtype(np.float64)
    return execution_dtype(*arrays)


def compile_plan(
    plan: ExecutionPlan,
    model: Module,
    device: DeviceSpec,
    *,
    image_hw: Tuple[int, int] = (32, 32),
    in_channels: int = 3,
    max_batch: int = 1,
    dtype: Optional[np.dtype] = None,
    sites: Optional[Sequence[LayerSite]] = None,
    threads: Optional[int] = None,
) -> Executable:
    """Bind an execution plan to a trainable model: the compile step.

    Traces the model's conv sites, validates that the plan covers each
    of them, materializes every core's :class:`ConvKernel` through its
    planned backend, exports the weights, and preallocates the buffer
    arena.  The model itself is deep-copied (and switched to eval
    mode) with each conv site replaced by its compiled form, so
    auxiliary topology — residual adds, dense concatenation, pooling,
    batch-norm — executes through the model's own modules.

    ``sites`` takes a pre-traced inventory (same ``image_hw`` and
    ``in_channels``) so planning and compilation can share one traced
    forward pass.

    ``dtype=None`` (default) compiles the arena in the *model's* dtype
    (:func:`model_dtype`) — the execution path is dtype-preserving, so
    defaulting to float64 regardless would double the arena and force
    a cast on every float32 request.

    ``threads`` enables the parallel execution engine: ``None``
    resolves through ``REPRO_NUM_THREADS`` / ``min(cores, 8)``
    (:func:`repro.runtime.resolve_threads`), ``1`` compiles exactly
    the serial executable (same plan object, no pool, no lane
    scratch).  With ``threads > 1`` the perf model decides *per site*
    whether sharding beats the fork/join overhead; parallel sites get
    per-lane scratch carved from the arena and the decision is
    recorded on a copy of the plan (``PlannedKernel.parallel``).
    Results are bit-identical to serial either way — the determinism
    suite and ``benchmarks/bench_parallel.py`` pin exact equality.
    """
    threads = resolve_threads(threads)
    if dtype is None:
        dtype = model_dtype(model)
    if sites is None:
        sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    else:
        sites = list(sites)
    if not sites:
        raise ValueError(
            f"model {type(model).__name__} has no conv sites reachable "
            f"from a ({in_channels}, {image_hw[0]}, {image_hw[1]}) input; "
            f"nothing to compile"
        )
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    cores, dense = _index_plan(plan, [s.name for s in sites])

    missing = []
    for site in sites:
        if site.is_factored and site.name not in cores:
            missing.append(f"{site.name}.core")
        elif not site.is_factored and site.name not in dense:
            missing.append(site.name)
    if missing:
        raise ValueError(
            f"plan does not cover conv sites {missing[:8]}; was it built "
            f"by plan_model for this model (same decomposition state)?"
        )

    arena = BufferArena(dtype=dtype)
    compiled_model = copy.deepcopy(model).eval()
    compiled_sites: List[_CompiledSite] = []
    for site in sites:
        # Bind against the *copy*'s module so exported weights come
        # from the same tree the executable runs.
        copied = LayerSite(
            name=site.name,
            module=find_module(compiled_model, site.name),
            height=site.height,
            width=site.width,
        )
        mod = copied.module
        k, p = mod.kernel_size, mod.padding
        hp, wp = site.height + 2 * p, site.width + 2 * p
        if site.is_factored:
            planned = cores[site.name]
            if planned.backend == "fused":
                # Whole-chain executor: the per-stage intermediate
                # buffers never enter the arena.
                compiled: _CompiledSite = CompiledFusedSite(
                    copied, arena, max_batch
                )
            elif site.format == "tucker":
                exec_shape = ConvShape(
                    c=mod.rank_in, n=mod.rank_out, h=hp, w=wp, r=k, s=k
                )
                kernel = get_backend(planned.backend).kernel(
                    exec_shape, device, tiling=planned.tiling
                )
                compiled = CompiledChainConv2d(
                    copied, kernel, planned.backend, arena, max_batch
                )
            else:
                # CP/TT middles bypass the dense-core registry: their
                # 3-D depthwise weight only the depthwise kernel
                # understands.
                compiled = CompiledChainConv2d(
                    copied, DepthwiseConvKernel(), "depthwise", arena,
                    max_batch,
                )
        else:
            planned = dense[site.name]
            if k == 1:
                kernel: Optional[ConvKernel] = None
            else:
                backend = get_backend(planned.backend or "cudnn")
                exec_shape = ConvShape(
                    c=mod.in_channels, n=mod.out_channels,
                    h=hp, w=wp, r=k, s=k,
                )
                kernel = backend.kernel(
                    exec_shape, device, tiling=planned.tiling
                )
            compiled = CompiledConv2d(copied, kernel, arena, max_batch)
        replace_module(compiled_model, site.name, compiled)
        compiled_sites.append(compiled)

    if threads > 1:
        site_lat = _site_latencies(plan, [s.name for s in sites])
        parallel_names = set()
        pool = None
        for site, compiled in zip(sites, compiled_sites):
            go, est = should_parallelize(site_lat[site.name], threads)
            if not go:
                continue
            if pool is None:
                # threads lanes = the caller + (threads - 1) workers.
                pool = get_pool(threads - 1)
            lane_scratch, runner = _parallel_lane_state(
                compiled, arena, threads, dtype
            )
            compiled._parallel = SiteParallel(
                threads=threads,
                pool=pool,
                lane_scratch=lane_scratch,
                runner=runner,
                site_latency_s=site_lat[site.name],
                est_speedup=est,
            )
            parallel_names.add(site.name)
        if parallel_names:
            # Record the decision on a *copy*: the planner's plan (and
            # any cache holding it) stays untouched.
            plan = ExecutionPlan(
                model_name=plan.model_name,
                device_name=plan.device_name,
                variant=plan.variant,
                kernels=[
                    dc_replace(k, parallel=True)
                    if k.kind in _CONV_KINDS
                    and _kernel_site(k) in parallel_names
                    else k
                    for k in plan.kernels
                ],
            )

    return Executable(
        plan=plan,
        device=device,
        model=compiled_model,
        arena=arena,
        sites=compiled_sites,
        input_shape=(in_channels, image_hw[0], image_hw[1]),
        max_batch=max_batch,
        threads=threads,
    )


def compile_model(
    model: Module,
    device: DeviceSpec,
    *,
    image_hw: Tuple[int, int] = (32, 32),
    in_channels: int = 3,
    core_backend: str = "auto",
    max_batch: int = 1,
    dtype: Optional[np.dtype] = None,
    model_name: Optional[str] = None,
    threads: Optional[int] = None,
) -> Executable:
    """Plan + compile in one call (the common cold-path entry); the
    model is traced once and shared between the two phases."""
    sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    plan = plan_model(
        model, device, image_hw, in_channels=in_channels,
        core_backend=core_backend, model_name=model_name, sites=sites,
    )
    return compile_plan(
        plan, model, device, image_hw=image_hw, in_channels=in_channels,
        max_batch=max_batch, dtype=dtype, sites=sites, threads=threads,
    )
