"""Integration tests: every experiment harness runs and reproduces the
paper's qualitative claims on scaled-down configurations."""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    budget_sweep,
    e2e,
    fig4,
    layerwise,
    oracle_gap,
    table2,
    table3,
)
from repro.experiments.common import MODEL_BUDGETS, PAPER_E2E_SPEEDUPS
from repro.gpusim.device import A100, RTX2080TI


class TestFig4:
    def test_curves_monotone_nondecreasing(self):
        for hw in (28, 14):
            pts = fig4.staircase_curve(hw, hw, device=RTX2080TI)
            lats = [p.latency for p in pts]
            for a, b in zip(lats, lats[1:]):
                assert b >= a - 1e-9  # monotone staircase (Fig. 4)

    def test_smaller_map_faster(self):
        p28 = fig4.staircase_curve(28, 28, n_values=[64], device=RTX2080TI)
        p14 = fig4.staircase_curve(14, 14, n_values=[64], device=RTX2080TI)
        assert p14[0].latency < p28[0].latency

    def test_table_renders(self):
        t = fig4.run()
        assert len(t) == 8
        assert "Figure 4" in t.render()

    def test_plateau_counter(self):
        pts = fig4.staircase_curve(14, 14, device=RTX2080TI)
        assert 1 <= fig4.plateau_count(pts) <= len(pts)


SMALL_SHAPES = [
    (32, 32, 28, 28), (64, 32, 28, 28), (32, 32, 14, 14),
    (64, 32, 14, 14), (96, 64, 7, 7), (192, 160, 7, 7),
]


class TestLayerwise:
    @pytest.fixture(scope="class")
    def rows_a100(self):
        return layerwise.measure_rows(A100, shapes=SMALL_SHAPES)

    def test_tdc_oracle_wins_small_shapes(self, rows_a100):
        wins = sum(1 for r in rows_a100 if r.tdc_wins())
        assert wins >= len(rows_a100) - 1

    def test_average_speedups_over_one(self, rows_a100):
        speedups = layerwise.average_speedups(rows_a100)
        for rival, (oracle, model) in speedups.items():
            assert oracle > 1.0, f"TDC-ORACLE loses to {rival} on average"

    def test_oracle_never_slower_than_model(self, rows_a100):
        for r in rows_a100:
            assert r.tdc_oracle <= r.tdc_model + 1e-12

    def test_table_renders(self):
        t = layerwise.run(A100)
        assert len(t) == 18

    def test_summary_table(self):
        t = layerwise.summary(RTX2080TI)
        assert len(t) == 4


class TestOracleGap:
    def test_gap_in_paper_band(self):
        rows = oracle_gap.measure_rows(A100, shapes=SMALL_SHAPES)
        gap = oracle_gap.mean_gap(rows)
        assert 1.0 <= gap < 2.6  # paper ~1.25; simulator lands <2.6

    def test_model_faster_than_tvm_on_average(self):
        rows = oracle_gap.measure_rows(RTX2080TI, shapes=SMALL_SHAPES)
        assert oracle_gap.mean_tvm_advantage(rows) > 1.0

    def test_table_has_mean_row(self):
        t = oracle_gap.run(RTX2080TI)
        assert t.to_dicts()[-1]["shape (C,N,H,W)"] == "MEAN"


class TestE2E:
    @pytest.fixture(scope="class")
    def resnet18_result(self):
        return e2e.run_models(A100, models=["resnet18"])["resnet18"]

    def test_bar_ordering(self, resnet18_result):
        res = resnet18_result
        assert res.original > res.tucker_tdc_oracle
        assert res.tucker_cudnn > res.tucker_tdc_oracle
        assert res.tucker_tvm >= res.tucker_tdc_oracle

    def test_speedups_in_band(self, resnet18_result):
        """Reproduced factors within a 2.5x band of the paper's."""
        paper = PAPER_E2E_SPEEDUPS[("A100", "resnet18")]
        got = (
            resnet18_result.speedup_over_original("tdc-oracle"),
            resnet18_result.speedup_over_tucker_cudnn("tdc-oracle"),
            resnet18_result.speedup_over_tucker_tvm("tdc-oracle"),
        )
        for g, p in zip(got, paper):
            assert g > 1.0
            assert g / p < 2.5 and p / g < 2.5

    def test_budgets_table_complete(self):
        assert set(MODEL_BUDGETS) == {
            "resnet18", "resnet50", "vgg16", "densenet121", "densenet201",
        }

    def test_table_renders(self):
        t = e2e.run(A100, models=["resnet18"])
        assert len(t) == 1


class TestAblations:
    def test_crsn_table(self):
        t = ablations.crsn_layout_ablation(A100, shapes=SMALL_SHAPES[:3])
        assert t.to_dicts()[-1]["shape"] == "MEAN"

    def test_theta_rule_table(self):
        t = ablations.theta_rule_ablation(A100, model="resnet18", budget=0.65)
        rows = t.to_dicts()
        assert len(rows) == 2
        # θ=0 decomposes at least as many layers as θ=0.15.
        n0 = int(rows[0]["decomposed layers"].split("/")[0])
        n15 = int(rows[1]["decomposed layers"].split("/")[0])
        assert n0 >= n15

    def test_top_fraction_table(self):
        t = ablations.top_fraction_ablation(
            A100, fractions=(0.05, 1.0), shapes=SMALL_SHAPES[:4]
        )
        assert len(t) == 2

    def test_c_split_helps_on_small_shapes(self):
        t = ablations.c_split_ablation(A100, shapes=SMALL_SHAPES)
        mean_row = t.to_dicts()[-1]
        assert float(mean_row["penalty"].rstrip("x")) > 1.0


@pytest.mark.slow
class TestTrainingExperiments:
    """Scaled-down versions of the accuracy experiments (minutes)."""

    def test_table2_ordering(self):
        config = table2.Table2Config(
            model="resnet_tiny", image_size=8, n_train=128, n_test=64,
            num_classes=4, pretrain_epochs=4, compress_epochs=3,
        )
        result = table2.run_experiment(config)
        # The paper's Table 2 claim: ADMM recovers more accuracy than
        # direct compression at the same FLOPs reduction.
        assert result.admm_accuracy >= result.direct_compress_accuracy - 0.05
        assert result.flops_reduction > 0.5
        assert result.baseline_accuracy > 0.3

    def test_budget_sweep_runs(self):
        config = budget_sweep.BudgetSweepConfig(
            model="resnet_tiny", image_size=8, n_train=96, n_test=48,
            num_classes=4, budgets=(0.5, 0.8), pretrain_epochs=3,
            compress_epochs=2,
        )
        points = budget_sweep.run_experiment(config)
        assert len(points) == 2
        assert points[1].achieved_reduction > points[0].achieved_reduction

    def test_table3_subset(self):
        from repro.compression.comparators import (
            StdTKDComparator,
            TDCComparator,
        )

        config = table3.Table3Config(
            model="resnet_tiny", image_size=8, n_train=96, n_test=48,
            num_classes=4, budget=0.5, pretrain_epochs=3, compress_epochs=2,
        )
        reports = table3.run_experiment(
            config, comparators=[StdTKDComparator, TDCComparator]
        )
        assert len(reports) == 2
        for r in reports:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.flops_reduction > 0.3
