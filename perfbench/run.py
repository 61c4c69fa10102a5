"""The repo's benchmark: serving latency, batch throughput and cold
deploy of TDC-factored CNNs, with per-layer spans.

    python3 perfbench/run.py --workload online_tucker --seed 1 \\
        --seconds 38 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` re-runs the workload with spans recorded around
every layer's public calls and prints the per-layer metrics.  The last
stdout line is the JSON result; the line before it is the envelope
(host, versions, parameters, per-phase counts, sample counts).  The
full record, spans included, goes to ``perfbench/out/``.  Exit code 0
only when every operation succeeded and every output matched the
``Module.forward`` reference; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no program sources at {ROOT / 'src' / 'repro'}; run from a "
             f"checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, instrument_executable, perf, run_breakdown  # noqa: E402

BACKENDS = (
    "tdc-model", "tdc-oracle", "tvm", "cudnn", "cudnn-winograd",
    "cudnn-fft", "fused", "depthwise", "pointwise",
)
SETUP_SPANS = {
    "models.build_s": "models.build",
    "models.trace_s": "models.trace",
    "codesign.select_ranks_s": "codesign.select_ranks",
    "tensor.factorize_s": "tensor.factorize",
    "planning.warm_s": "planning.warm",
    "inference.plan_s": "inference.plan",
    "inference.compile_s": "inference.compile",
    "serving.session_start_s": "serving.session_start",
}
OVERHEAD_PAIRS = 5


def median(values) -> float:
    return wl.quantile(list(values), 0.5)


def git_revision() -> str:
    """HEAD from ``.git`` inside the checkout, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def envelope(args, res: wl.Result) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_revision(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": wl.THREADS,
        "params": res.params,
        "phases": res.phases,
        "samples": {
            "setup_s": wl.summary(res.setup_s),
            "latency_ms": wl.summary(res.latency_ms),
            "loadgen_late_ms": wl.summary(res.late_ms),
        },
        "latency_ms": res.latency_ms,
    }


def end_to_end(res: wl.Result) -> dict:
    return {
        "setup_s": (median(res.setup_s), "s"),
        "throughput_sps": (res.throughput_sps, "samples/s"),
        "sim_speedup_vs_cudnn": (res.facts["sim_speedup"], "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def setup_groups(tracer: Tracer, workload: str) -> list:
    """Set-up span totals per set-up: one deploy on online/offline, one
    round of five deploys on deploy_paper5."""
    deploys = sorted(tracer.named("deploy"), key=lambda s: s[2])
    size = len(wl.PAPER5) if workload == "deploy_paper5" else 1
    by_id = {s[0]: s for s in tracer.spans}

    def root(s):
        while s[4] is not None:
            s = by_id[s[4]]
        return s[0]

    owner = {d[0]: i // size for i, d in enumerate(deploys)}
    groups = [dict.fromkeys(SETUP_SPANS.values(), 0.0)
              for _ in range(math.ceil(len(deploys) / size))]
    for s in tracer.spans:
        if s[1] in groups[0] and s[4] is not None:
            groups[owner[root(s)]][s[1]] += s[3] - s[2]
    return groups


def queue_waits(res: wl.Result, tracer: Tracer):
    """Queue wait of each served request: from enqueue to the start of
    the traced batch that answered it (the last run ending before the
    request finished), plus each such batch's duration."""
    runs = sorted((s[3], s[2]) for s in tracer.named("exec.run"))
    ends = np.array([r[0] for r in runs])
    waits, batches = [], {}
    for p in res.served:
        if p.done_at is None:
            continue
        j = int(np.searchsorted(ends, p.done_at, side="right")) - 1
        if j < 0:
            continue
        end, start = runs[j]
        waits.append((start - p.enqueued_at) * 1e3)
        batches[j] = (end - start) * 1e3
    return waits, list(batches.values())


def tracing_overhead(probe) -> float:
    """Median run time of a traced executable over an untraced one,
    both compiled fresh from the same plan, alternating pairs."""
    dep, x = probe
    exes = []
    for traced in (False, True):
        ex = wl.compile_plan(
            dep.plan, dep.model, wl.A100, image_hw=wl.IMAGE_HW,
            in_channels=wl.IN_CHANNELS, max_batch=dep.executable.max_batch,
            sites=dep.sites, threads=wl.THREADS,
        )
        if traced:
            instrument_executable(ex, Tracer())
        ex.run(x)
        exes.append(ex)
    times = ([], [])
    for _ in range(OVERHEAD_PAIRS):
        for i, ex in enumerate(exes):
            t0 = perf()
            ex.run(x)
            times[i].append(perf() - t0)
    return median(times[1]) / median(times[0]) - 1.0


def per_layer(args, res: wl.Result, tracer: Tracer) -> dict:
    m = {}
    groups = setup_groups(tracer, args.workload)
    for metric, span in SETUP_SPANS.items():
        m[metric] = (median(g[span] for g in groups), "s")
    m["planning.cache_hits"] = (median(res.cache_hits), "count")
    m["planning.cache_misses"] = (median(res.cache_misses), "count")

    runs = run_breakdown(tracer.spans[res.mark:])
    for key in ("run", "sites", "aux"):
        m[f"exec.{key}_ms"] = (median(r[f"{key}_ms"] for r in runs), "ms")
    m["sites.factored_ms"] = (median(r["factored_ms"] for r in runs), "ms")
    m["sites.dense_ms"] = (median(r["dense_ms"] for r in runs), "ms")
    m["kernels.core_ms"] = (median(r["core_ms"] for r in runs), "ms")
    samples = sum(r["batch"] for r in runs)
    m["kernels.core_macs_per_sample"] = (
        sum(r["macs"] for r in runs) // samples, "count")
    m["kernels.core_bytes_per_sample"] = (
        sum(r["bytes"] for r in runs) // samples, "count")

    facts = res.facts
    for b in BACKENDS:
        m[f"plan.sites.{b}"] = (facts["backends"].get(b, 0), "count")
    m["exec.arena_mb"] = (facts["arena_mb"], "MB")
    m["gpusim.plan_us"] = (facts["plan_us"], "us")
    m["gpusim.dense_cudnn_us"] = (facts["dense_cudnn_us"], "us")
    m["runtime.parallel_sites"] = (facts["parallel_sites"], "count")
    m["runtime.pool_tasks_per_run"] = (
        res.pool_tasks / max(1, res.measured_runs), "count")

    waits, batch_ms = queue_waits(res, tracer)
    serving = res.serving
    m["serving.queue_wait_p50_ms"] = (wl.quantile(waits, 0.5), "ms")
    m["serving.queue_wait_p95_ms"] = (wl.quantile(waits, 0.95), "ms")
    m["serving.batch_exec_ms"] = (median(batch_ms), "ms")
    m["serving.batch_size_mean"] = (
        serving["requests"] / max(1, serving["batches"]), "count")
    m["serving.batches"] = (serving["batches"], "count")
    m["serving.failures"] = (serving["failures"], "count")
    m["serving.cancelled"] = (serving["cancelled"], "count")
    m["latency.p50_ms"] = (wl.quantile(res.latency_ms, 0.5), "ms")
    m["latency.p95_ms"] = (wl.quantile(res.latency_ms, 0.95), "ms")
    m["loadgen.late_p95_ms"] = (wl.quantile(res.late_ms, 0.95), "ms")
    m["trace.overhead_frac"] = (tracing_overhead(res.probe), "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else wl.NullTracer()
    try:
        res = wl.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    except wl.LoadgenLate as exc:
        print(f"run rejected: {exc}", file=sys.stderr)
        return 3
    metrics = per_layer(args, res, tracer) if args.trace else end_to_end(res)
    env = envelope(args, res)
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = dict(env, result=result, spans=tracer.to_json() if args.trace else [])
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
