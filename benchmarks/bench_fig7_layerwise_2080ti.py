"""Figure 7: layerwise kernel comparison on the simulated RTX 2080Ti."""

from repro.experiments import layerwise
from repro.experiments.common import PAPER_LAYERWISE_SPEEDUPS
from repro.gpusim.device import RTX2080TI
from repro.perfmodel.tiling import clear_tiling_cache


def test_fig7_layerwise_2080ti(once):
    def run():
        clear_tiling_cache()
        return layerwise.measure_rows(RTX2080TI)

    rows = once(run)
    print()
    print(layerwise.run(RTX2080TI).render())
    print()
    print(layerwise.summary(RTX2080TI).render())
    print()
    print("paper-reported averages (oracle/model):")
    for rival in layerwise.RIVALS:
        paper = PAPER_LAYERWISE_SPEEDUPS[("2080Ti", rival)]
        print(f"  {rival}: {paper[0]:.2f}x / {paper[1]:.2f}x")

    assert len(rows) == 18
    speedups = layerwise.average_speedups(rows)
    for rival, (oracle, _model) in speedups.items():
        assert oracle > 1.0, f"TDC-ORACLE does not beat {rival}"
