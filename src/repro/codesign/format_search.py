"""Format x rank candidate enumeration for Algorithm 1.

Generalizes the per-layer performance table: every requested
decomposition format contributes its rank candidates, each costed as
the sum of its kernel chain's analytical latencies on the target
device.  The chain comes from the format's
:meth:`~repro.tensor.formats.DecompFormat.chain` geometry:

- a dense-core chain (Tucker: 1x1 + TDC core + 1x1) is a row of
  :func:`repro.codesign.table.build_performance_table`, read in place,
  so the core tilings and the persistent table cache are shared with
  every other table consumer;
- a depthwise chain (CP, TT) is 1x1 + depthwise [+ group-sum] + 1x1,
  priced by one builder for every such format.

All stage latencies are evaluated at the layer's core-conv extent
(``LayerShape.h/w`` = output resolution), matching the Tucker-table
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.backends import get_backend
from repro.codesign.table import build_performance_table
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.depthwise import depthwise_latency
from repro.kernels.pointwise import pointwise_latency
from repro.planning.cache import PlanCache
from repro.tensor.formats import DecompFormat, get_format, resolve_formats

if TYPE_CHECKING:  # rank_selection imports this module
    from repro.codesign.rank_selection import LayerShape


@dataclass(frozen=True)
class FormatCandidate:
    """One (format, ranks) point in the generalized performance table.

    Dense-core (Tucker) points are the table's
    :class:`~repro.codesign.table.TableEntry` rows, which carry the same
    fields.
    """

    format: str
    ranks: Tuple[int, ...]
    pw1_latency: float       # 1x1 input projection
    core_latency: float      # middle stage (depthwise [+ group-sum])
    pw2_latency: float       # 1x1 output projection
    flops: int
    params: int

    @property
    def total_latency(self) -> float:
        return self.pw1_latency + self.core_latency + self.pw2_latency


# (format, shape, device fingerprint, rank_step) -> depthwise-chain
# candidates.  Memory-only and registered, so clear_plan_caches() makes
# a cold start cold and ``repro cache stats`` counts it.
_CANDIDATE_CACHE = PlanCache("format_candidates", maxsize=4096)


def _depthwise_candidates(
    fmt: DecompFormat, layer: "LayerShape", device: DeviceSpec, rank_step: int
) -> List[FormatCandidate]:
    """Depthwise chains; stage latencies are memoized per width since
    many rank tuples share them."""
    pw1: Dict[int, float] = {}
    mid: Dict[Tuple[int, Optional[int]], float] = {}
    pw2: Dict[int, float] = {}
    out: List[FormatCandidate] = []
    for ranks in fmt.rank_candidates(layer.c, layer.n, layer.r, layer.s, rank_step):
        chain = fmt.chain(ranks)
        width, collapse = chain.pw1_out, chain.collapse_to
        if width not in pw1:
            pw1[width] = pointwise_latency(layer.c, width, layer.h, layer.w, device)
        if (width, collapse) not in mid:
            mid[(width, collapse)] = depthwise_latency(
                width, layer.h, layer.w, layer.r, layer.s, device,
                collapse_to=collapse,
            )
        if chain.pw2_in not in pw2:
            pw2[chain.pw2_in] = pointwise_latency(
                chain.pw2_in, layer.n, layer.h, layer.w, device
            )
        out.append(
            FormatCandidate(
                format=fmt.name,
                ranks=ranks,
                pw1_latency=pw1[width],
                core_latency=mid[(width, collapse)],
                pw2_latency=pw2[chain.pw2_in],
                flops=fmt.flops(
                    layer.c, layer.n, layer.h, layer.w, ranks, layer.r, layer.s
                ),
                params=fmt.n_params(layer.c, layer.n, layer.r, layer.s, ranks),
            )
        )
    return out


def layer_format_candidates(
    layer: "LayerShape",
    device: DeviceSpec,
    formats: Sequence[str],
    rank_step: int = 32,
    method: str = "model",
) -> Tuple[float, List[FormatCandidate]]:
    """All (format, ranks) candidates for one layer, plus the dense
    layer's cuDNN latency for the θ rule.

    ``formats`` is anything :func:`repro.tensor.formats.resolve_formats`
    accepts.  Depthwise-chain lists are memoized per (format, shape,
    device, step) in a registered :class:`~repro.planning.cache.PlanCache`;
    dense-core rows come from the (cached) performance table T.
    """
    shape_key = (layer.c, layer.n, layer.h, layer.w, layer.r, layer.s)
    fingerprint = device.fingerprint()

    candidates: List[FormatCandidate] = []
    for name in resolve_formats(formats):
        fmt = get_format(name)
        if not fmt.depthwise:
            # Dense-core rows are the performance table's own entries,
            # memoized by the table cache.
            candidates.extend(build_performance_table(
                layer.c, layer.n, layer.h, layer.w, device,
                r=layer.r, s=layer.s, rank_step=rank_step, method=method,
            ).entries)
            continue
        key = (name, shape_key, fingerprint, rank_step)
        cached = _CANDIDATE_CACHE.get(key)
        if cached is None:
            cached = _CANDIDATE_CACHE.put(
                key, _depthwise_candidates(fmt, layer, device, rank_step)
            )
        candidates.extend(cached)

    dense_shape = ConvShape(
        c=layer.c, n=layer.n, h=layer.h, w=layer.w, r=layer.r, s=layer.s
    )
    original = get_backend("cudnn").core_latency(dense_shape, device)
    return original, candidates


def best_format_under_budget(
    candidates: Sequence[FormatCandidate],
    max_flops: float,
    latency_tolerance: float = 0.12,
) -> Optional[FormatCandidate]:
    """Alg. 1 line 3: ``max{argmin_{P(ranks)<=B} T(ranks)}`` per format,
    then the formats' picks compete on latency alone.

    The latency staircase (Fig. 4) makes many rank tuples share the
    same effective latency, so each format's argmin set is the plateau
    of feasible candidates within ``latency_tolerance`` of its fastest.
    The format resolves its own plateau with
    :meth:`~repro.tensor.formats.DecompFormat.plateau_key`: Tucker
    prefers balanced then largest ranks, CP/TT the most retained
    parameters.  The cross-format comparison is strict min-latency
    (ties toward more parameters) over those picks, so per site the
    mixed search returns exactly the fastest single-format choice and
    a mixed plan is never slower than the best single-format plan
    under the same budget shares.  Returns ``None`` when no candidate
    meets ``max_flops``.
    """
    per_format: Dict[str, List[FormatCandidate]] = {}
    for c in candidates:
        if c.flops <= max_flops:
            per_format.setdefault(c.format, []).append(c)
    if not per_format:
        return None
    picks = []
    for name, group in per_format.items():
        fastest = min(c.total_latency for c in group)
        plateau = [
            c for c in group
            if c.total_latency <= fastest * (1.0 + latency_tolerance)
        ]
        picks.append(max(plateau, key=get_format(name).plateau_key))
    return min(picks, key=lambda c: (c.total_latency, -c.params))
