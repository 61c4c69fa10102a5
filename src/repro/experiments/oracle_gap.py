"""Sec. 5.5: oracle vs analytical-model tiling selection quality.

The paper reports that code generated from the analytical model runs
~25% slower than the exhaustive-search "oracle" on both GPUs, while
remaining ~1.5x faster than TVM on average.  This experiment measures
both quantities on the 18 evaluation shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.tvm_direct import TVMDirectKernel
from repro.models.arch_specs import PAPER_CONV_SHAPES
from repro.perfmodel.tiling import select_tiling
from repro.utils.tables import Table


@dataclass(frozen=True)
class GapRow:
    shape: Tuple[int, int, int, int]
    oracle_latency: float
    model_latency: float
    tvm_latency: float

    @property
    def model_over_oracle(self) -> float:
        return self.model_latency / self.oracle_latency

    @property
    def tvm_over_model(self) -> float:
        return self.tvm_latency / self.model_latency


def measure_rows(
    device: DeviceSpec,
    shapes: Sequence[Tuple[int, int, int, int]] = tuple(PAPER_CONV_SHAPES),
) -> List[GapRow]:
    rows = []
    for (c, n, h, w) in shapes:
        shape = ConvShape(c=c, n=n, h=h, w=w)
        rows.append(
            GapRow(
                shape=(shape.c, shape.n, shape.h, shape.w),
                oracle_latency=select_tiling(shape, device, "oracle").simulated_latency,
                model_latency=select_tiling(shape, device, "model").simulated_latency,
                tvm_latency=TVMDirectKernel.tuned(shape, device).latency(shape, device),
            )
        )
    return rows


def mean_gap(rows: Sequence[GapRow]) -> float:
    """Mean model/oracle latency ratio (paper: ~1.25)."""
    return float(np.mean([r.model_over_oracle for r in rows]))


def mean_tvm_advantage(rows: Sequence[GapRow]) -> float:
    """Mean TVM/model latency ratio (paper: ~1.5)."""
    return float(np.mean([r.tvm_over_model for r in rows]))


def run(device: DeviceSpec) -> Table:
    rows = measure_rows(device)
    table = Table(
        ["shape (C,N,H,W)", "oracle (ms)", "model (ms)", "model/oracle",
         "TVM/model"],
        title=f"Sec. 5.5: tiling-selection quality ({device.name})",
    )
    for r in rows:
        table.add_row([
            str(r.shape), r.oracle_latency * 1e3, r.model_latency * 1e3,
            f"{r.model_over_oracle:.2f}x", f"{r.tvm_over_model:.2f}x",
        ])
    table.add_row([
        "MEAN", "", "", f"{mean_gap(rows):.2f}x",
        f"{mean_tvm_advantage(rows):.2f}x",
    ])
    return table
