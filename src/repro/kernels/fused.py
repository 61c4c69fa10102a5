"""Fused factored-conv execution: the whole chain in one kernel.

The paper's code generator emits *one* specialized kernel per
decomposed layer — the 1x1 input projection, the core conv, and the
1x1 output projection never round-trip through global memory.  Our
per-stage executor (``CompiledChainConv2d``) instead
materializes every intermediate at full ``(C', H, W)`` extent in the
arena, which is exactly the traffic the paper eliminates.

This module provides the fused counterpart for all three factored
formats (Tucker / CP / TT):

- :class:`FusedTiling` + :func:`select_fused_tiling`: the shared-memory
  tiling scheme of the generated fused kernel (a ``TB x TW`` output
  tile, the projected ``z1`` slab staged ``TC`` channels at a time, the
  core accumulator tile resident until the output projection consumes
  it).  :func:`fused_smem_bytes` is the single accounting used by the
  launch description, the code generator, and feasibility checks.
- :class:`FusedCoreKernel`: a :class:`ConvKernel` whose launch
  description carries *no intermediate activation traffic* — the core
  stage of the fused chain reads only its weights (the ``z1`` slab is
  produced in shared memory by the pw1 stage and the accumulator is
  consumed in place by pw2).
- :class:`FusedChainExecutor`: the functional NumPy mirror.  It runs
  the chain in output-row blocks sized for cache residency
  (:func:`select_block_rows`): each block projects just the input rows
  its outputs need, accumulates the core conv over strided views of
  that slab (computing only the strided output positions — no full
  same-conv + subsample), and folds the output projection and bias
  epilogue in while the block is hot.  Strided and padded layers are
  handled directly in the block geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape
from repro.nn.functional import conv_out_size

# --------------------------------------------------------------------------
# Tiling: the generated fused kernel's shared-memory scheme.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class FusedTiling:
    """Shared-memory tiling of the fused chain kernel.

    Each block owns a ``tb x tw`` output tile.  The pw1 stage projects
    the input into a ``z1`` slab of ``tc`` core-input channels at a
    time (looped ``ceil(c / tc)`` times), the core stage accumulates
    into a smem tile holding *all* core-output channels for the block's
    positions, and the pw2 + bias epilogue drains that tile straight to
    the layer output — intermediates never touch global memory.
    """

    tb: int   # output rows per block
    tw: int   # output cols per block
    tc: int   # core-input channels staged per iteration

    def __str__(self) -> str:
        return f"fused(tb={self.tb},tw={self.tw},tc={self.tc})"


def fused_smem_bytes(shape: ConvShape, tiling: FusedTiling) -> int:
    """Shared memory of one fused block: the staged ``z1`` chunk plus
    the core accumulator tile.  This single accounting backs the launch
    description, :func:`select_fused_tiling` feasibility, and the
    generated source's static smem declaration."""
    z1 = tiling.tc * (tiling.tb + shape.r - 1) * (tiling.tw + shape.s - 1)
    acc = shape.n * tiling.tb * tiling.tw
    return (z1 + acc) * FLOAT_BYTES


_TILE_CANDIDATES = (32, 16, 8, 4, 2, 1)
_TC_CANDIDATES = (64, 32, 16, 8, 4, 2, 1)

_TILING_MEMO: Dict[tuple, Optional[FusedTiling]] = {}


def select_fused_tiling(
    shape: ConvShape, device: DeviceSpec
) -> Optional[FusedTiling]:
    """Largest feasible fused tiling for ``shape`` on ``device``.

    Feasible means the block's shared memory fits and at least one
    block is resident.  Preference order: biggest output tile first
    (``tb * tw``), then the biggest channel chunk (fewer staging
    iterations).  Returns None when even the ``1x1x1`` tile does not
    fit — only possible for pathologically wide core outputs.
    """
    key = shape.as_tuple() + (device.fingerprint(),)
    if key in _TILING_MEMO:
        return _TILING_MEMO[key]
    smem_cap = device.shared_mem_per_block
    best: Optional[FusedTiling] = None
    best_rank: Tuple[int, int] = (-1, -1)
    for tb in _TILE_CANDIDATES:
        if tb > shape.h and tb != 1:
            continue
        for tw in _TILE_CANDIDATES:
            if tw > shape.w and tw != 1:
                continue
            for tc in _TC_CANDIDATES:
                if tc > shape.c and tc != 1:
                    continue
                t = FusedTiling(tb=tb, tw=tw, tc=tc)
                if fused_smem_bytes(shape, t) > smem_cap:
                    continue
                rank = (tb * tw, tc)
                if rank > best_rank:
                    best, best_rank = t, rank
                break  # tc candidates descend; first fit is the best
    _TILING_MEMO[key] = best
    return best


def fused_core_launch(
    shape: ConvShape, device: DeviceSpec, tiling: FusedTiling
) -> KernelLaunch:
    """Launch description of the fused chain's *core stage*.

    The defining property vs. every per-stage core kernel: the
    intermediate activation traffic terms (Eqs. 16/18 input re-reads
    and output writes) are gone.  The stage reads only the core weights
    (once per spatial tile — the same tile-redundancy the TDC volume
    model charges) and writes nothing; the ``z1`` slab arrives through
    shared memory from the in-block pw1 stage and the accumulator tile
    is consumed in place by pw2.
    """
    tiles_h = ceil(shape.h / tiling.tb)
    tiles_w = ceil(shape.w / tiling.tw)
    stages = ceil(shape.c / tiling.tc)
    blocks = tiles_h * tiles_w
    flops_blk = 2.0 * tiling.tb * tiling.tw * shape.c * shape.n \
        * shape.r * shape.s
    weight_bytes = shape.c * shape.n * shape.r * shape.s * FLOAT_BYTES
    return KernelLaunch(
        n_blocks=blocks,
        threads_per_block=min(
            max(shape.n, 32), device.max_threads_per_block
        ),
        flops_per_block=flops_blk,
        read_bytes=float(blocks) * weight_bytes,
        write_bytes=0.0,
        smem_per_block=fused_smem_bytes(shape, tiling),
        regs_per_thread=shape.r * shape.s + 24,
        syncs_per_block=2 * stages,
        global_stalls_per_block=stages,
        name=f"fused_core{shape}",
    )


class FusedCoreKernel(ConvKernel):
    """The fused chain's core stage as a standalone :class:`ConvKernel`.

    ``launches`` carries the zero-intermediate-traffic description
    above; ``run``/``run_into`` execute the same row-blocked shifted
    accumulation the chain executor uses, so the backend's kernel
    factory validates against :func:`reference_conv` like every other
    registered scheme.
    """

    name = "fused-core"

    def __init__(self, tiling: Optional[FusedTiling] = None) -> None:
        self.tiling = tiling

    def _tiling_for(self, shape: ConvShape) -> FusedTiling:
        if self.tiling is not None:
            return self.tiling
        return FusedTiling(
            tb=min(8, shape.h), tw=min(32, shape.w), tc=min(16, shape.c)
        )

    def launches(
        self, shape: ConvShape, device: DeviceSpec
    ) -> List[KernelLaunch]:
        tiling = self.tiling or select_fused_tiling(shape, device)
        if tiling is None:
            raise ValueError(
                f"no feasible fused tiling for {shape} on {device.name}"
            )
        return [fused_core_launch(shape, device, tiling)]

    def scratch_shapes(self, shape: ConvShape) -> Dict[str, Tuple[int, ...]]:
        tb = self._tiling_for(shape).tb
        return {
            "xpad": (shape.c, shape.padded_h, shape.padded_w),
            "prod": (shape.n, tb, shape.w),
        }

    def run_into(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        out: np.ndarray,
        scratch: Dict[str, np.ndarray],
    ) -> np.ndarray:
        c, h, w = x.shape
        n, _, r, s = weight.shape
        xpad = scratch["xpad"]
        prod = scratch["prod"]
        ph, pw = (r - 1) // 2, (s - 1) // 2
        xpad[:, ph : ph + h, pw : pw + w] = x
        tb = prod.shape[1]
        for o0 in range(0, h, tb):
            o1 = min(o0 + tb, h)
            ov = out[:, o0:o1, :]
            pv = prod[:, : o1 - o0, :]
            for ri in range(r):
                for si in range(s):
                    src = xpad[:, o0 + ri : o1 + ri, si : si + w]
                    if ri == 0 and si == 0:
                        np.einsum(
                            "nc,chw->nhw", weight[:, :, ri, si], src,
                            out=ov, optimize=True,
                        )
                    else:
                        np.einsum(
                            "nc,chw->nhw", weight[:, :, ri, si], src,
                            out=pv, optimize=True,
                        )
                        ov += pv
        return out


# --------------------------------------------------------------------------
# The whole-chain executor (functional mirror of the fused kernel).
# --------------------------------------------------------------------------

#: Per-sample scratch budget for one fused site's row block (bytes).
#: Sized L2-ish: the block's z1 slab + accumulator should stay cache
#: resident, which is the point of fusing.
BLOCK_CACHE_BUDGET = 1 << 19


def select_block_rows(
    mid_in: int,
    mid_out: int,
    oh: int,
    ow: int,
    ext_w: int,
    kernel: int,
    stride: int,
    itemsize: int,
    collapse_to: Optional[int] = None,
    budget: int = BLOCK_CACHE_BUDGET,
) -> int:
    """Output rows per executor block: the largest count whose
    per-sample scratch fits ``budget``, clamped to ``[min(4, oh), oh]``
    (below 4 rows the Python-level loop overhead dominates any cache
    win)."""
    best = 1
    for rows in range(1, oh + 1):
        span = (rows - 1) * stride + kernel
        bytes_needed = mid_in * span * ext_w + 2 * mid_out * rows * ow
        if collapse_to is not None:
            bytes_needed += collapse_to * rows * ow
        if bytes_needed * itemsize > budget:
            break
        best = rows
    return max(min(4, oh), best)


class FusedChainExecutor:
    """Run one factored conv chain fused, in output-row blocks.

    Formats: ``"tucker"`` (``mid_weight`` is the ``(D2, D1, R, S)``
    core), ``"cp"``/``"tt"`` (``mid_weight`` is the ``(M, R, S)``
    depthwise filter; TT additionally collapses ``r1*r2 -> r1`` groups
    before the output projection).

    Per block ``[o0, o1)`` of output rows:

    1. **pw1** projects exactly the input rows the block's outputs
       touch into the ``z1`` slab, laid out in *extended* coordinates
       (same-conv offset + explicit padding folded into one border of
       ``start + padding``), so stride and padding reduce to strided
       views in stage 2.
    2. **core** accumulates the ``R x S`` taps over strided views of
       the slab — only the block's strided output positions are ever
       computed (the per-stage path computes a full same-conv and
       subsamples).
    3. **TT group-sum** collapses the ``r2`` groups in the block tile.
    4. **pw2 + bias epilogue** drains the block tile into the layer
       output while it is cache-hot.

    All scratch comes from ``bind`` (arena-backed): the hot path
    allocates nothing.
    """

    def __init__(
        self,
        fmt: str,
        w_in: np.ndarray,
        mid_weight: np.ndarray,
        w_out: np.ndarray,
        bias: Optional[np.ndarray],
        *,
        in_hw: Tuple[int, int],
        kernel_size: int,
        stride: int,
        padding: int,
        max_batch: int,
        collapse_to: Optional[int] = None,
        dtype: np.dtype = np.dtype(np.float64),  # repro: ignore[dtype-promotion] -- reference-path default; compile_plan always passes the arena dtype
    ) -> None:
        if fmt not in ("tucker", "cp", "tt"):
            raise ValueError(f"unknown fused chain format {fmt!r}")
        if fmt == "tt" and collapse_to is None:
            raise ValueError("tt chains need collapse_to (= rank1)")
        self.fmt = fmt
        self.w_in = w_in
        self.mid_weight = mid_weight
        self.w_out = w_out
        self.bias = bias
        self.mid_in = int(w_in.shape[0])
        self.mid_out = (
            int(mid_weight.shape[0])  # tucker: D2; cp/tt: M (diagonal)
        )
        self.out_channels = int(w_out.shape[0])
        self.collapse_to = collapse_to
        h, w = in_hw
        k, p = int(kernel_size), int(padding)
        self.h, self.w = int(h), int(w)
        self.k, self.stride, self.padding = k, int(stride), p
        self.oh = conv_out_size(h, k, self.stride, p)
        self.ow = conv_out_size(w, k, self.stride, p)
        # Extended coordinates: the same-conv offset (k-1)//2 and the
        # layer padding fold into a single left/top border.
        self.start = (k - 1) // 2
        self.origin = self.start + p
        self.ext_w = w + 2 * p + (k - 1)
        self.max_batch = int(max_batch)
        self.dtype = np.dtype(dtype)
        self.block_rows = select_block_rows(
            self.mid_in, self.mid_out, self.oh, self.ow, self.ext_w,
            k, self.stride, self.dtype.itemsize, collapse_to=collapse_to,
        )
        self._scratch: Optional[Dict[str, np.ndarray]] = None

    # -- scratch ---------------------------------------------------------
    def scratch_shapes(self) -> Dict[str, Tuple[int, ...]]:
        span = (self.block_rows - 1) * self.stride + self.k
        shapes = {
            "z1blk": (self.max_batch, self.mid_in, span, self.ext_w),
            "yblk": (self.max_batch, self.mid_out, self.block_rows, self.ow),
            "prod": (self.max_batch, self.mid_out, self.block_rows, self.ow),
        }
        if self.fmt == "tt":
            assert self.collapse_to is not None
            shapes["gsum"] = (
                self.max_batch, self.collapse_to, self.block_rows, self.ow
            )
        return shapes

    def bind(self, scratch: Dict[str, np.ndarray]) -> None:
        """Attach (zero-initialized) scratch buffers; shapes must match
        :meth:`scratch_shapes`.

        The bound set becomes the *default* scratch for :meth:`run` —
        which makes argument-free ``run`` calls non-reentrant: two
        concurrent calls on the same executor would interleave writes
        into one block slab.  Concurrent callers must pass ``run`` an
        explicit per-caller ``scratch`` (e.g. disjoint batch-sliced
        views of the bound buffers, which is what the parallel engine's
        batch shards do); the regression test
        ``test_fused_concurrent_run_disjoint_scratch`` pins this
        contract.
        """
        for name, shape in self.scratch_shapes().items():
            if scratch[name].shape != shape:
                raise ValueError(
                    f"scratch {name!r} has shape {scratch[name].shape}, "
                    f"expected {shape}"
                )
        self._scratch = scratch

    @property
    def bound_scratch(self) -> Optional[Dict[str, np.ndarray]]:
        """The scratch dict attached by :meth:`bind` (or ``None``)."""
        return self._scratch

    @property
    def scratch_nbytes(self) -> int:
        return sum(
            int(np.prod(s)) * self.dtype.itemsize
            for s in self.scratch_shapes().values()
        )

    # -- execution -------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        out: np.ndarray,
        scratch: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Execute the fused chain: ``x (B, C, H, W) -> out (B, N, OH, OW)``.

        ``scratch=None`` uses the buffers attached by :meth:`bind` —
        that default path is **non-reentrant** (one slab, one in-flight
        call).  Concurrent callers pass their own ``scratch`` dict
        (same keys as :meth:`scratch_shapes`; batch-sliced views of the
        bound buffers suffice, since all block scratch is per-sample
        along the leading axis).
        """
        if scratch is None:
            scratch = self._scratch
        if scratch is None:
            raise RuntimeError("FusedChainExecutor.run before bind()")
        b = x.shape[0]
        z1buf = scratch["z1blk"]
        ybuf = scratch["yblk"]
        pbuf = scratch["prod"]
        k, stride, start = self.k, self.stride, self.start
        origin, h, w = self.origin, self.h, self.w
        for o0 in range(0, self.oh, self.block_rows):
            o1 = min(o0 + self.block_rows, self.oh)
            nrows = o1 - o0
            a0 = start + o0 * stride          # extended row of (o0, tap 0)
            span = (nrows - 1) * stride + k
            z1 = z1buf[:b, :, :span, :]
            # ---- stage 1: project the needed input rows ----------------
            i_lo = min(max(origin - a0, 0), span)
            i_hi = min(max(origin + h - a0, 0), span)
            if i_lo > 0:
                z1[:, :, :i_lo, :] = 0.0     # rows above the input (padding)
            if i_hi < span:
                z1[:, :, i_hi:, :] = 0.0     # rows below the input
            if i_hi > i_lo:
                g_lo = a0 + i_lo - origin
                g_hi = a0 + i_hi - origin
                np.einsum(
                    "mc,bchw->bmhw", self.w_in,
                    x[:, :, g_lo:g_hi, :],
                    out=z1[:, :, i_lo:i_hi, origin : origin + w],
                    optimize=True,
                )
            # ---- stage 2: core conv on strided views -------------------
            yv = ybuf[:b, :, :nrows, :]
            pv = pbuf[:b, :, :nrows, :]
            first = True
            for ri in range(k):
                rs = slice(ri, ri + (nrows - 1) * stride + 1, stride)
                for si in range(k):
                    cs = slice(
                        start + si,
                        start + si + (self.ow - 1) * stride + 1,
                        stride,
                    )
                    src = z1[:, :, rs, cs]
                    tgt = yv if first else pv
                    if self.fmt == "tucker":
                        np.einsum(
                            "em,bmhw->behw",
                            self.mid_weight[:, :, ri, si], src,
                            out=tgt, optimize=True,
                        )
                    else:
                        np.multiply(
                            src,
                            self.mid_weight[None, :, ri, si, None, None],
                            out=tgt,
                        )
                    if not first:
                        yv += pv
                    first = False
            # ---- stage 3: TT group-sum ---------------------------------
            if self.fmt == "tt":
                gv = scratch["gsum"][:b, :, :nrows, :]
                r1 = self.collapse_to
                r2 = self.mid_out // r1
                np.sum(
                    yv.reshape(b, r1, r2, nrows, self.ow), axis=2, out=gv
                )
                drain = gv
            else:
                drain = yv
            # ---- stage 4: pw2 + bias epilogue --------------------------
            ov = out[:b, :, o0:o1, :]
            np.einsum(
                "nm,bmhw->bnhw", self.w_out, drain, out=ov, optimize=True
            )
            if self.bias is not None:
                ov += self.bias[None, :, None, None]
        return out[:b]
