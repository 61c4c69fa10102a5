"""The benchmark's own tests: the correctness gate fires, and the exact
counts repeat.

    PYTHONPATH=src python -m pytest perfbench/selftest_perfbench.py -q

(The file name keeps it out of the default test collection: it runs
short workloads and takes about a minute.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.inference.executable import Executable  # noqa: E402

EXACT = (
    "kernels.core_macs_per_sample", "kernels.core_bytes_per_sample",
    "exec.arena_mb", "gpusim.plan_us", "gpusim.dense_cudnn_us",
    "runtime.parallel_sites",
) + tuple(f"plan.sites.{b}" for b in run.BACKENDS)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(wl, "ONLINE_SETUPS", 1)
    monkeypatch.setattr(wl, "OFFLINE_SETUPS", 1)


def bench(capsys, workload, seed, trace, seconds=2):
    code = run.main([
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    return code, result, {k: v["value"] for k, v in result["metrics"].items()}


def test_gate_accepts_match_and_rejects_mismatch():
    ref = np.linspace(-3.0, 3.0, 10)
    assert wl.outputs_match(ref + 1e-12, ref)
    assert not wl.outputs_match(ref + 1e-3, ref)
    assert not wl.outputs_match(np.where(ref > 0, np.nan, ref), ref)
    assert not wl.outputs_match(ref[:9], ref)


def test_gate_fires_on_seeded_wrong_output(capsys, monkeypatch):
    original = Executable.run
    calls = {"n": 0}

    def corrupt_third_batch(self, x):
        y = original(self, x)
        if len(x) == wl.OFFLINE_BATCH:
            calls["n"] += 1
            if calls["n"] == 3:
                y = y.copy()
                y[5, 2] += 1e-3
        return y

    monkeypatch.setattr(Executable, "run", corrupt_third_batch)
    code, result, _ = bench(capsys, "offline_mixed", 7, trace=0)
    assert calls["n"] >= 3
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1


def test_online_serves_every_request_correctly(capsys):
    code, result, m = bench(capsys, "online_tucker", 3, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + round(wl.ONLINE_RATE * 2)
    assert set(m) == {"setup_s", "throughput_sps", "sim_speedup_vs_cudnn",
                      "peak_rss_mb"}
    assert all(v > 0 for v in m.values())


@pytest.mark.parametrize("workload", ["online_tucker", "offline_mixed"])
def test_exact_counts_repeat_across_runs(capsys, workload):
    first = bench(capsys, workload, 1, trace=1)[2]
    second = bench(capsys, workload, 2, trace=1)[2]
    for name in EXACT:
        assert first[name] == second[name], name
    assert first["kernels.core_macs_per_sample"] > 0
    speedups = [bench(capsys, workload, s, trace=0)[2]["sim_speedup_vs_cudnn"]
                for s in (1, 2)]
    assert speedups[0] == speedups[1]
