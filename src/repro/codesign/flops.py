"""FLOPs / parameter accounting for dense and Tucker-format convs.

Implements the complexity formulas of Sec. 3 and the reduction ratios
of Eqs. (5)-(6).  All FLOPs counts use 2 FLOPs per MAC, matching the
layer methods in :mod:`repro.nn`.  The CP/TT chain formulas live on
their :class:`~repro.tensor.formats.DecompFormat` (``flops`` /
``n_params``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive_int


def conv_flops(c: int, n: int, h: int, w: int, r: int = 3, s: int = 3,
               out_h: int = 0, out_w: int = 0) -> int:
    """Dense conv FLOPs; output extent defaults to the input extent
    ("same" convolution, the paper's core-conv setting)."""
    out_h = out_h or h
    out_w = out_w or w
    return 2 * out_h * out_w * c * n * r * s


def conv_params(c: int, n: int, r: int = 3, s: int = 3) -> int:
    """Dense conv parameter count."""
    return c * n * r * s


def tucker_flops(
    c: int, n: int, h: int, w: int, d1: int, d2: int,
    r: int = 3, s: int = 3, out_h: int = 0, out_w: int = 0,
) -> int:
    """Tucker-format layer FLOPs (Sec. 3):

        H*W*C*D1  +  H'*W'*R*S*D1*D2  +  H'*W'*N*D2   (x2 for MACs)
    """
    out_h = out_h or h
    out_w = out_w or w
    stage1 = 2 * h * w * c * d1
    stage2 = 2 * out_h * out_w * r * s * d1 * d2
    stage3 = 2 * out_h * out_w * n * d2
    return stage1 + stage2 + stage3


def tucker_params(c: int, n: int, d1: int, d2: int, r: int = 3, s: int = 3) -> int:
    """Tucker-format parameter count: C*D1 + R*S*D1*D2 + N*D2."""
    return c * d1 + r * s * d1 * d2 + n * d2


def param_reduction_ratio(c: int, n: int, d1: int, d2: int,
                          r: int = 3, s: int = 3) -> float:
    """Eq. 5: dense params over Tucker params (gamma_P)."""
    return conv_params(c, n, r, s) / tucker_params(c, n, d1, d2, r, s)


def flops_reduction_ratio(
    c: int, n: int, h: int, w: int, d1: int, d2: int,
    r: int = 3, s: int = 3, out_h: int = 0, out_w: int = 0,
) -> float:
    """Eq. 6: dense FLOPs over Tucker FLOPs (gamma_F)."""
    return conv_flops(c, n, h, w, r, s, out_h, out_w) / tucker_flops(
        c, n, h, w, d1, d2, r, s, out_h, out_w
    )


@dataclass(frozen=True)
class LayerBudget:
    """FLOPs bookkeeping for one conv layer under a reduction budget."""

    dense_flops: int
    target_reduction: float  # fraction of dense FLOPs to remove

    def __post_init__(self) -> None:
        if self.dense_flops <= 0:
            raise ValueError("dense_flops must be positive")
        if not 0.0 <= self.target_reduction < 1.0:
            raise ValueError(
                f"target_reduction must be in [0, 1), got {self.target_reduction}"
            )

    @property
    def max_tucker_flops(self) -> float:
        """Largest Tucker FLOPs that still meets the layer's budget."""
        return self.dense_flops * (1.0 - self.target_reduction)


def achieved_reduction(dense_flops: int, compressed_flops: int) -> float:
    """Fraction of FLOPs removed (the paper's 'FLOPs down' column)."""
    if dense_flops <= 0:
        raise ValueError("dense_flops must be positive")
    return 1.0 - compressed_flops / dense_flops
