"""Decomposition formats as first-class, pluggable objects.

The paper plans one format (Tucker-2); Tensor Yard and HOTCAKE show
the *right* format is layer-dependent, so the co-design treats the
format itself as a planning axis.  A :class:`DecompFormat` packages
everything the rest of the stack needs to reason about one compressed
conv representation without knowing its math:

- ``factorize(weight, ranks)`` / ``reconstruct(factors)`` — the tensor
  algebra, implemented by the existing Tucker/CP/TT code;
- ``n_params`` / ``flops`` — the analytical cost model of the factored
  conv chain (2 FLOPs per MAC, matching :mod:`repro.codesign.flops`);
- ``rank_candidates`` — the per-layer rank grid Algorithm 1 sweeps;
- ``depthwise`` and ``chain(ranks)`` — whether the middle stage is
  depthwise or a dense core, and the :class:`ChainGeometry` (channel
  widths) of the executed chain ``1x1 -> middle -> [group-sum ->] 1x1``;
  candidate pricing, the planners and the compiler all read them;
- ``plateau_key`` — how Algorithm 1 resolves this format's latency
  plateau (Alg. 1 line 3's "largest ranks" for this format).

Rank conventions per format (all passed as tuples):

- ``tucker``: ``(d1, d2)`` — input-/output-channel Tucker-2 ranks;
  chain 1x1 ``C->D1`` -> KxK dense core ``D1->D2`` -> 1x1 ``D2->N``.
- ``cp``: ``(q,)`` — the shared CP rank; chain 1x1 ``C->Q`` ->
  depthwise KxK over ``Q`` -> 1x1 ``Q->N``.
- ``tt``: ``(r1, r2)`` — the two internal TT ranks of the ``(N, C,
  R*S)`` reshaping; chain 1x1 ``C->r1*r2`` -> depthwise KxK ->
  group-sum ``r1*r2 -> r1`` -> 1x1 ``r1->N``.

A new format (e.g. higher-order Tucker per HOTCAKE) with a depthwise
middle stage plugs in through :func:`register_format` and becomes
visible to rank selection, planning, and compilation without touching
those layers.  A dense-core middle is priced through the performance
table T, whose grid is Tucker's ``(D1, D2)``; a second dense-core
format would need its own table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.cp import CPTensor, cp_conv_kernel
from repro.tensor.tt import TTTensor, tt_conv_kernel
from repro.tensor.tucker import tucker2_conv_kernel
from repro.utils.validation import check_positive_int

#: The formats Algorithm 1 may pick for a decomposed layer (the dense
#: fallback is a *decision*, not a format).
FACTORED_FORMATS = ("tucker", "cp", "tt")


def mode_rank_candidates(extent: int, step: int) -> List[int]:
    """Rank grid for one mode: multiples of ``step`` strictly below the
    original extent (reducing by ``step`` at a time, Sec. 6), with an
    ``extent // 2`` floor candidate for slim models.

    An extent of 1 yields an *empty* grid: the only "rank" would be 1,
    i.e. the original extent — zero reduction plus two extra 1x1
    launches — so such a mode is not decomposable at all.
    """
    step = check_positive_int("step", step)
    extent = check_positive_int("extent", extent)
    cands = [d for d in range(step, extent, step)]
    if not cands and extent > 1:
        cands = [max(1, extent // 2)]
    return cands


@dataclass(frozen=True)
class ChainGeometry:
    """Channel widths of one factored conv's executed kernel chain:
    1x1 ``C -> pw1_out``, middle ``pw1_out -> mid_out``, an optional
    group-sum ``mid_out -> collapse_to``, 1x1 ``pw2_in -> N``."""

    pw1_out: int                        # pw1 width = middle input channels
    mid_out: int                        # middle output channels
    collapse_to: Optional[int] = None   # group-sum target before pw2 (TT)

    @property
    def pw2_in(self) -> int:
        return self.mid_out if self.collapse_to is None else self.collapse_to


class DecompFormat:
    """One compressed conv representation, viewed abstractly.

    ``c, n, r, s`` arguments follow the paper's kernel notation:
    ``(N, C, R, S)`` = (out-channels, in-channels, filter height,
    filter width); ``h, w`` are the core-stage spatial extent.
    """

    name = "base"
    #: Number of integers in a rank tuple for this format.
    rank_arity = 0
    #: Whether the chain's middle stage is a depthwise conv over
    #: ``pw1_out`` channels (``mid_out == pw1_out``) or a dense core.
    depthwise = True

    # -- tensor math ----------------------------------------------------
    def factorize(self, weight: np.ndarray, ranks: Sequence[int]):
        """Decompose a 4-D conv kernel ``(N, C, R, S)``; returns the
        format's factor object/tuple (consumed by :meth:`reconstruct`
        and the matching ``repro.nn`` module's ``from_conv``)."""
        raise NotImplementedError

    def reconstruct(self, factors) -> np.ndarray:
        """Dense ``(N, C, R, S)`` kernel equivalent to ``factors``."""
        raise NotImplementedError

    # -- analytical costs ----------------------------------------------
    def n_params(self, c: int, n: int, r: int, s: int,
                 ranks: Sequence[int]) -> int:
        """Stored weight parameters of the factored layer."""
        raise NotImplementedError

    def flops(self, c: int, n: int, h: int, w: int, ranks: Sequence[int],
              r: int = 3, s: int = 3, out_h: int = 0, out_w: int = 0) -> int:
        """FLOPs of the executed factored conv chain (2 per MAC)."""
        raise NotImplementedError

    # -- the search grid ------------------------------------------------
    def rank_candidates(
        self, c: int, n: int, r: int, s: int, step: int
    ) -> List[Tuple[int, ...]]:
        """Rank tuples Algorithm 1 should consider for one layer."""
        raise NotImplementedError

    def chain(self, ranks: Sequence[int]) -> ChainGeometry:
        """Channel widths of the executed kernel chain for ``ranks``."""
        raise NotImplementedError

    def plateau_key(self, candidate) -> tuple:
        """Alg. 1 line 3 within this format: the maximal key wins among
        candidates on one latency plateau.  The default prefers the
        most retained parameters (the per-format analog of "largest
        ranks"), then the lower latency.  ``candidate`` carries
        ``ranks``, ``params`` and ``total_latency``."""
        return (candidate.params, -candidate.total_latency)

    def check_ranks(self, ranks: Sequence[int]) -> Tuple[int, ...]:
        ranks = tuple(int(x) for x in ranks)
        if len(ranks) != self.rank_arity:
            raise ValueError(
                f"format {self.name!r} takes {self.rank_arity} rank(s), "
                f"got {ranks}"
            )
        for x in ranks:
            check_positive_int("rank", x)
        return ranks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecompFormat({self.name!r})"


class TuckerFormat(DecompFormat):
    """Tucker-2 on the channel modes (the paper's format, Eqs. 2-4)."""

    name = "tucker"
    rank_arity = 2
    depthwise = False

    def __init__(self, n_iter: int = 10) -> None:
        self.n_iter = int(n_iter)

    def factorize(self, weight: np.ndarray, ranks: Sequence[int]):
        d1, d2 = self.check_ranks(ranks)
        # (u_out, core, u_in) with shapes (N, D2), (D2, D1, R, S), (C, D1)
        return tucker2_conv_kernel(
            weight, rank_out=d2, rank_in=d1, n_iter=self.n_iter
        )

    def reconstruct(self, factors) -> np.ndarray:
        u_out, core, u_in = factors
        return np.einsum(
            "nd,defg,ce->ncfg", u_out, core, u_in, optimize=True
        )

    def n_params(self, c, n, r, s, ranks) -> int:
        d1, d2 = self.check_ranks(ranks)
        return c * d1 + r * s * d1 * d2 + n * d2

    def flops(self, c, n, h, w, ranks, r=3, s=3, out_h=0, out_w=0) -> int:
        d1, d2 = self.check_ranks(ranks)
        out_h = out_h or h
        out_w = out_w or w
        return (
            2 * h * w * c * d1
            + 2 * out_h * out_w * r * s * d1 * d2
            + 2 * out_h * out_w * n * d2
        )

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        return [
            (d1, d2)
            for d1 in mode_rank_candidates(c, step)
            for d2 in mode_rank_candidates(n, step)
        ]

    def chain(self, ranks) -> ChainGeometry:
        d1, d2 = self.check_ranks(ranks)
        return ChainGeometry(pw1_out=d1, mid_out=d2)

    def plateau_key(self, candidate) -> tuple:
        # Balanced rank pairs first (a tiny D1 or D2 bottlenecks the
        # whole layer's information flow and is what "over rank
        # reduction" looks like in practice), then the largest total
        # rank, then the lower latency.
        d1, d2 = candidate.ranks
        return (min(d1, d2), d1 + d2, -candidate.total_latency)


class CPFormat(DecompFormat):
    """CP with one shared rank; executes as a depthwise-separable chain
    (Lebedev et al. style: 1x1 -> depthwise KxK -> 1x1)."""

    name = "cp"
    rank_arity = 1

    def __init__(self, n_iter: int = 60) -> None:
        self.n_iter = int(n_iter)

    def factorize(self, weight: np.ndarray, ranks: Sequence[int]) -> CPTensor:
        (q,) = self.check_ranks(ranks)
        return cp_conv_kernel(weight, rank=q, n_iter=self.n_iter)

    def reconstruct(self, factors: CPTensor) -> np.ndarray:
        return factors.to_full()

    def n_params(self, c, n, r, s, ranks) -> int:
        (q,) = self.check_ranks(ranks)
        return q * c + q * r * s + n * q

    def flops(self, c, n, h, w, ranks, r=3, s=3, out_h=0, out_w=0) -> int:
        (q,) = self.check_ranks(ranks)
        out_h = out_h or h
        out_w = out_w or w
        return (
            2 * h * w * c * q
            + 2 * out_h * out_w * q * r * s
            + 2 * out_h * out_w * q * n
        )

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        # CP's rank is not bounded by a mode extent; sweep up to the
        # larger channel count (beyond that the chain stops compressing
        # in every regime the budget filter would accept anyway).
        return [(q,) for q in mode_rank_candidates(max(c, n), step)]

    def chain(self, ranks) -> ChainGeometry:
        (q,) = self.check_ranks(ranks)
        return ChainGeometry(pw1_out=q, mid_out=q)


class TTFormat(DecompFormat):
    """TT of the ``(N, C, R*S)`` reshaping (Tensor Yard style).

    Executes as 1x1 ``C -> r1*r2`` -> depthwise KxK (channel ``(a, b)``
    carries spatial core ``G2[b]``) -> group-sum over ``b`` -> 1x1
    ``r1 -> N``.  The final projection is narrow (``r1`` instead of
    ``r1*r2`` inputs), which is where TT wins latency over CP when the
    output-channel count dominates.
    """

    name = "tt"
    rank_arity = 2

    def factorize(self, weight: np.ndarray, ranks: Sequence[int]) -> TTTensor:
        r1, r2 = self.check_ranks(ranks)
        return tt_conv_kernel(weight, max_ranks=(r1, r2))

    def reconstruct(self, factors: TTTensor) -> np.ndarray:
        n, c, rs = factors.full_shape
        full = factors.to_full()
        # The conv kernel was reshaped (N, C, R, S) -> (N, C, R*S);
        # callers reshape back with the original spatial extents.
        return full.reshape(n, c, rs)

    def n_params(self, c, n, r, s, ranks) -> int:
        r1, r2 = self.check_ranks(ranks)
        # Executed-form storage: the depthwise stage stores its kernel
        # per channel (r1*r2 spatial filters), the projections store
        # G1 and G0.
        return r1 * r2 * c + r1 * r2 * r * s + n * r1

    def flops(self, c, n, h, w, ranks, r=3, s=3, out_h=0, out_w=0) -> int:
        r1, r2 = self.check_ranks(ranks)
        out_h = out_h or h
        out_w = out_w or w
        q = r1 * r2
        group_sum = out_h * out_w * q if r2 > 1 else 0
        return (
            2 * h * w * c * q
            + 2 * out_h * out_w * q * r * s
            + group_sum
            + 2 * out_h * out_w * r1 * n
        )

    def rank_candidates(self, c, n, r, s, step) -> List[Tuple[int, ...]]:
        # TT-SVD of (N, C, R*S) bounds r1 by N and r2 by min(r1*C, R*S).
        return [
            (r1, r2)
            for r1 in mode_rank_candidates(n, step)
            for r2 in range(1, min(r * s, r1 * c) + 1)
        ]

    def chain(self, ranks) -> ChainGeometry:
        r1, r2 = self.check_ranks(ranks)
        return ChainGeometry(pw1_out=r1 * r2, mid_out=r1 * r2, collapse_to=r1)


_FORMATS: Dict[str, DecompFormat] = {}


def register_format(fmt: DecompFormat) -> DecompFormat:
    """Register (or replace) a decomposition format by name."""
    if not fmt.name or fmt.name == "base":
        raise ValueError("format needs a concrete name")
    _FORMATS[fmt.name] = fmt
    return fmt


def get_format(name: str) -> DecompFormat:
    """Look up a registered format (raises with the known names)."""
    try:
        return _FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown decomposition format {name!r}; registered formats: "
            f"{format_names()}"
        ) from None


def format_names() -> Tuple[str, ...]:
    """Registered format names, in registration order."""
    return tuple(_FORMATS)


def resolve_formats(formats) -> Tuple[str, ...]:
    """Normalize a ``formats`` argument to a validated name tuple.

    Accepts a single name, an iterable of names, or the aliases
    ``"all"`` / ``"auto"`` (every registered factored format).  Order
    is preserved and duplicates dropped.
    """
    if formats is None:
        formats = ("tucker",)
    if isinstance(formats, str):
        if formats in ("all", "auto"):
            formats = format_names()
        else:
            formats = (formats,)
    resolved: List[str] = []
    for name in formats:
        get_format(name)
        if name not in resolved:
            resolved.append(name)
    if not resolved:
        raise ValueError("at least one decomposition format is required")
    return tuple(resolved)


register_format(TuckerFormat())
register_format(CPFormat())
register_format(TTFormat())
