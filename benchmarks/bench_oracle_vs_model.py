"""Sec. 5.5: analytical-model vs oracle tiling selection.

The paper: model-selected code is ~25% slower than the exhaustive
oracle yet still ~1.5x faster than TVM on average.  Prints the
per-shape comparison on both devices.
"""

from repro.experiments import oracle_gap
from repro.gpusim.device import A100, RTX2080TI
from repro.perfmodel.tiling import clear_tiling_cache


def test_oracle_vs_model(once):
    def run():
        clear_tiling_cache()
        return {
            dev.name: oracle_gap.measure_rows(dev) for dev in (A100, RTX2080TI)
        }

    rows_by_device = once(run)
    for dev in (A100, RTX2080TI):
        rows = rows_by_device[dev.name]
        print()
        print(oracle_gap.run(dev).render())
        gap = oracle_gap.mean_gap(rows)
        adv = oracle_gap.mean_tvm_advantage(rows)
        print(f"{dev.name}: mean model/oracle {gap:.2f}x (paper ~1.25x), "
              f"mean TVM/model {adv:.2f}x (paper ~1.5x)")
        # Reproduced claims: the model never beats the oracle, lands
        # within 2x of it on average, and stays ahead of TVM.
        assert 1.0 <= gap < 2.0
        assert adv > 1.0
