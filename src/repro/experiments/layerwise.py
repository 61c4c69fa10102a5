"""Figures 6 and 7: layerwise kernel comparison on the 18 core shapes.

For every core-convolution shape appearing in the TKD-compressed
versions of the five tested CNNs, run all six schemes — cuDNN-FFT,
cuDNN-WINOGRAD, cuDNN-GEMM, TVM (tuned), TDC-ORACLE, TDC-MODEL — and
report latencies plus the average TDC speedups the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.cudnn import CuDNNFFTKernel, CuDNNGemmKernel, CuDNNWinogradKernel
from repro.kernels.tvm_direct import TVMDirectKernel
from repro.models.arch_specs import PAPER_CONV_SHAPES
from repro.perfmodel.tiling import select_tiling
from repro.utils.tables import Table

RIVALS = ("cudnn_fft", "cudnn_winograd", "cudnn_gemm", "tvm")


@dataclass(frozen=True)
class LayerwiseRow:
    """All six scheme latencies (seconds) for one conv shape."""

    shape: Tuple[int, int, int, int]
    cudnn_fft: float
    cudnn_winograd: float
    cudnn_gemm: float
    tvm: float
    tdc_oracle: float
    tdc_model: float

    def rival_latency(self, rival: str) -> float:
        return getattr(self, rival)

    def tdc_wins(self) -> bool:
        best_rival = min(
            self.cudnn_fft, self.cudnn_winograd, self.cudnn_gemm, self.tvm
        )
        return self.tdc_oracle <= best_rival


def measure_shape(shape: ConvShape, device: DeviceSpec) -> LayerwiseRow:
    """Latencies of all six schemes for one shape on one device."""
    return LayerwiseRow(
        shape=(shape.c, shape.n, shape.h, shape.w),
        cudnn_fft=CuDNNFFTKernel().latency(shape, device),
        cudnn_winograd=CuDNNWinogradKernel().latency(shape, device),
        cudnn_gemm=CuDNNGemmKernel().latency(shape, device),
        tvm=TVMDirectKernel.tuned(shape, device).latency(shape, device),
        tdc_oracle=select_tiling(shape, device, "oracle").simulated_latency,
        tdc_model=select_tiling(shape, device, "model").simulated_latency,
    )


def measure_rows(
    device: DeviceSpec,
    shapes: Sequence[Tuple[int, int, int, int]] = tuple(PAPER_CONV_SHAPES),
) -> List[LayerwiseRow]:
    """Measure every shape of the figure."""
    return [
        measure_shape(ConvShape(c=c, n=n, h=h, w=w), device)
        for (c, n, h, w) in shapes
    ]


def average_speedups(rows: Sequence[LayerwiseRow]) -> Dict[str, Tuple[float, float]]:
    """Mean TDC speedup over each rival: (oracle, model)."""
    out: Dict[str, Tuple[float, float]] = {}
    for rival in RIVALS:
        oracle = float(np.mean([r.rival_latency(rival) / r.tdc_oracle for r in rows]))
        model = float(np.mean([r.rival_latency(rival) / r.tdc_model for r in rows]))
        out[rival] = (oracle, model)
    return out


def run(device: DeviceSpec) -> Table:
    """Regenerate Fig. 6 (A100) / Fig. 7 (2080Ti) as a table."""
    rows = measure_rows(device)
    fig = "Figure 6" if device.name == "A100" else "Figure 7"
    table = Table(
        ["shape (C,N,H,W)", "cuDNN-FFT", "cuDNN-WINO", "cuDNN-GEMM",
         "TVM", "TDC-ORACLE", "TDC-MODEL"],
        title=f"{fig}: per-shape conv latency in ms ({device.name})",
    )
    for r in rows:
        table.add_row([
            str(r.shape),
            r.cudnn_fft * 1e3, r.cudnn_winograd * 1e3, r.cudnn_gemm * 1e3,
            r.tvm * 1e3, r.tdc_oracle * 1e3, r.tdc_model * 1e3,
        ])
    return table


def summary(device: DeviceSpec) -> Table:
    """Average speedups (the figure captions' headline numbers)."""
    speedups = average_speedups(measure_rows(device))
    table = Table(
        ["rival", "TDC-ORACLE speedup", "TDC-MODEL speedup"],
        title=f"Average TDC speedups over rivals ({device.name})",
    )
    for rival, (oracle, model) in speedups.items():
        table.add_row([rival, f"{oracle:.2f}x", f"{model:.2f}x"])
    return table
