"""Figure 6: layerwise kernel comparison on the simulated A100.

Prints per-shape latencies of cuDNN-FFT/WINOGRAD/GEMM, TVM, TDC-ORACLE
and TDC-MODEL over the paper's 18 core shapes, plus the average-speedup
summary the figure caption quotes.
"""

from repro.experiments import layerwise
from repro.experiments.common import PAPER_LAYERWISE_SPEEDUPS
from repro.gpusim.device import A100
from repro.perfmodel.tiling import clear_tiling_cache


def test_fig6_layerwise_a100(once):
    def run():
        clear_tiling_cache()
        return layerwise.measure_rows(A100)

    rows = once(run)
    print()
    print(layerwise.run(A100).render())
    print()
    print(layerwise.summary(A100).render())
    print()
    print("paper-reported averages (oracle/model):")
    for rival in layerwise.RIVALS:
        paper = PAPER_LAYERWISE_SPEEDUPS[("A100", rival)]
        print(f"  {rival}: {paper[0]:.2f}x / {paper[1]:.2f}x")

    assert len(rows) == 18
    speedups = layerwise.average_speedups(rows)
    # Headline claims: TDC-ORACLE beats every rival on average.
    for rival, (oracle, _model) in speedups.items():
        assert oracle > 1.0, f"TDC-ORACLE does not beat {rival}"
