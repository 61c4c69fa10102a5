"""The three workloads: one deploy chain, three ways of loading it.

Every workload deploys through the same public calls, timed one by
one: ``models.build_model`` -> ``codesign.pipeline.decompose_for_device``
-> ``models.introspection.trace_layer_sites`` ->
``planning.warm_model_backends`` -> ``inference.plan.plan_model`` ->
``inference.executable.compile_plan`` -> ``serving.InferenceSession``
and one served first request.  ``SessionRegistry.create`` is not used:
it does not expose ``theta``, and at its default (0.15) ``resnet_tiny``
at 32x32 decomposes nothing and would be served dense.

Model weights are always ``seed=0``; the workload seed sets only the
inputs and the arrival schedule.  Every output is compared against the
decomposed model's own ``Module.forward`` (the independent ``nn``
path).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.codesign import pipeline
from repro.gpusim.device import A100
from repro.inference.executable import CompiledConv2d, compile_plan
from repro.inference.plan import plan_model
from repro.models import build_model
from repro.models.introspection import trace_layer_sites
from repro.perfmodel import clear_fused_latency_cache
from repro.planning import cache_stats, clear_plan_caches, warm_model_backends
from repro.runtime import pool_stats
from repro.serving import InferenceSession

from spans import NullTracer, Tracer, instrument_executable, perf

IMAGE_HW = (32, 32)
IN_CHANNELS = 3
#: Worker lanes for every compiled executable; pinned, never read from
#: the environment, so runs on any host execute the same schedule.
THREADS = 2
BATCH_WINDOW_S = 0.002
#: Relative tolerance of the correctness gate (float64 end to end; the
#: compiled paths agree with ``Module.forward`` to ~1e-14).
TOLERANCE = 1e-8
#: Seconds a request may take before it counts as failed (timed out).
REQUEST_TIMEOUT_S = 60.0

#: online_tucker: Poisson arrivals at a fixed rate, about half the
#: session's saturated capacity at this commit (~17 req/s with
#: micro-batches of up to 8).
ONLINE_RATE = 8.5
ONLINE_MAX_BATCH = 8
#: Reject an online run whose generator issued its p95 request later
#: than this after it was due (a third of the mean arrival gap): its
#: offered load was not the schedule.  Seen: 7-15 ms.
LATE_BOUND_MS = 40.0
#: Cold deploys per run; setup_s is their median.  An online set-up is
#: ~0.5 s, mostly a few cold ``tdc-oracle`` runs whose time swings
#: +-30%, so it takes more samples than the ~1 s offline one.
ONLINE_SETUPS = 9
OFFLINE_SETUPS = 5
OFFLINE_BATCH = 16
OFFLINE_POOL = 8
PAPER5 = (
    "resnet18_slim", "vgg16_slim", "resnet50_slim",
    "densenet121_slim", "densenet201_slim",
)
#: Nominal length of one deploy_paper5 round on the reference host.  The
#: round count follows from ``seconds`` alone, never from how fast this
#: host runs, so the peak RSS and the warm-process share of set-up stay
#: comparable between runs.
ROUND_S = 19.0


class LoadgenLate(RuntimeError):
    """The open-loop generator fell behind its schedule."""


def outputs_match(y: np.ndarray, ref: np.ndarray) -> bool:
    """The correctness gate: same shape, finite, within tolerance."""
    y = np.asarray(y)
    if y.shape != ref.shape or not np.all(np.isfinite(y)):
        return False
    scale = 1.0 + float(np.max(np.abs(ref)))
    return float(np.max(np.abs(y - ref))) <= TOLERANCE * scale


def reference(model, xs: np.ndarray, chunk: int = 32) -> np.ndarray:
    """``Module.forward`` of the decomposed (uncompiled) model."""
    return np.concatenate([
        model.forward(xs[i:i + chunk]) for i in range(0, len(xs), chunk)
    ])


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def summary(values) -> Dict[str, float]:
    """Sample count beside the quantiles it supports."""
    v = list(values)
    if not v:
        return {"n": 0}
    return {"n": len(v), "p50": quantile(v, 0.5), "p95": quantile(v, 0.95),
            "min": float(min(v)), "max": float(max(v))}


@dataclass
class Deployment:
    name: str
    model: object
    plan: object
    sites: list
    executable: object
    session: InferenceSession
    setup_s: float
    first_ok: bool
    first_pending: object
    #: From the session being ready to the first request's enqueue.
    first_late_ms: float
    cache_hits: int
    cache_misses: int


def reset_planner_caches() -> None:
    """Empty every PlanCache and the fused-latency memo (a cold start)."""
    clear_plan_caches()
    clear_fused_latency_cache()


def deploy(name: str, formats, max_batch: int, first_input: np.ndarray,
           tracer=NullTracer()) -> Deployment:
    """Deploy one preset through the public chain and serve one request.

    The first request's output is checked against ``Module.forward``;
    an exception or timeout propagates (the caller counts it failed).
    """
    t0 = perf()
    with tracer.span("deploy", request=name):
        with tracer.span("models.build"):
            model = build_model(name, seed=0)
        with tracer.patched(pipeline, "select_ranks",
                            "codesign.select_ranks"), \
                tracer.patched(pipeline, "decompose_model_formats",
                               "tensor.factorize"), \
                tracer.span("codesign.decompose"):
            pipeline.decompose_for_device(
                model, A100, IMAGE_HW, in_channels=IN_CHANNELS,
                budget=0.5, rank_step=2, theta=0.0, formats=formats,
            )
        model.eval()
        with tracer.span("models.trace"):
            sites = trace_layer_sites(model, IMAGE_HW, in_channels=IN_CHANNELS)
        with tracer.span("planning.warm"):
            warm_model_backends(model, A100, IMAGE_HW, in_channels=IN_CHANNELS,
                                backends=("auto",), sites=sites)
        with tracer.span("inference.plan"):
            plan = plan_model(model, A100, IMAGE_HW, in_channels=IN_CHANNELS,
                              core_backend="auto", model_name=name, sites=sites)
        with tracer.span("inference.compile"):
            ex = compile_plan(plan, model, A100, image_hw=IMAGE_HW,
                              in_channels=IN_CHANNELS, max_batch=max_batch,
                              sites=sites, threads=THREADS)
        if tracer.enabled:
            instrument_executable(ex, tracer, name)
        with tracer.span("serving.session_start"):
            session = InferenceSession(ex, batch_window_s=BATCH_WINDOW_S)
        ready = perf()
        with tracer.span("serving.first_request"):
            pending = session.submit(first_input)
            try:
                y = pending.result(REQUEST_TIMEOUT_S)
            except BaseException:
                session.close()
                raise
    setup_s = perf() - t0
    stats = cache_stats().values()
    ok = outputs_match(y, reference(model, first_input[None])[0])
    return Deployment(
        name=name, model=model, plan=plan, sites=sites, executable=ex,
        session=session, setup_s=setup_s, first_ok=ok,
        first_pending=pending, first_late_ms=(pending.enqueued_at - ready) * 1e3,
        cache_hits=sum(s.hits for s in stats),
        cache_misses=sum(s.misses for s in stats),
    )


# ----------------------------------------------------------------------
# Deterministic plan facts (exact counts)
# ----------------------------------------------------------------------
def site_backends(ex) -> Dict[str, int]:
    """Compiled sites per bound backend (1x1 dense convs: pointwise)."""
    dense_backend = {k.layer: k.backend for k in ex.plan.kernels
                     if k.kind == "conv"}
    counts: Dict[str, int] = {}
    for site in ex.sites():
        if isinstance(site, CompiledConv2d):
            b = dense_backend.get(site.site_name) or "pointwise"
        else:
            b = site.backend
        counts[b] = counts.get(b, 0) + 1
    return counts


def dense_cudnn_latency(name: str) -> float:
    """Simulated A100 latency of the undecomposed preset, all convs on
    the cuDNN baseline (the paper's Figs. 8/9 denominator)."""
    dense = build_model(name, seed=0).eval()
    return plan_model(dense, A100, IMAGE_HW, in_channels=IN_CHANNELS,
                      core_backend="cudnn", model_name=name).total_latency()


def plan_facts(deps: List[Deployment]) -> Dict[str, float]:
    """Exact per-deployment-set counts: sites per backend, arena,
    parallel sites, and simulated latencies (geometric means, so the
    speedup is the geomean of per-model ratios)."""
    backends: Dict[str, int] = {}
    for d in deps:
        for b, n in site_backends(d.executable).items():
            backends[b] = backends.get(b, 0) + n
    plan_s = [d.executable.predicted_latency() for d in deps]
    dense_s = [dense_cudnn_latency(d.name) for d in deps]

    def geomean(v):
        return math.exp(sum(math.log(x) for x in v) / len(v))

    return {
        "backends": backends,
        "arena_mb": sum(d.executable.arena.nbytes for d in deps) / 2**20,
        "parallel_sites": sum(
            d.executable.parallel_report()["parallel_sites"] for d in deps
        ),
        "plan_us": geomean(plan_s) * 1e6,
        "dense_cudnn_us": geomean(dense_s) * 1e6,
        "sim_speedup": geomean([a / b for a, b in zip(dense_s, plan_s)]),
    }


# ----------------------------------------------------------------------
# Workload results
# ----------------------------------------------------------------------
@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: Per-phase request/run/deploy counts.
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    latency_ms: List[float] = field(default_factory=list)
    throughput_sps: float = 0.0
    late_ms: List[float] = field(default_factory=list)
    cache_hits: List[int] = field(default_factory=list)
    cache_misses: List[int] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)
    #: Requests that feed the serving metrics (queue wait is matched to
    #: the traced batch that ran each one).
    served: List[object] = field(default_factory=list)
    #: Session counters over those requests.
    serving: Dict[str, float] = field(default_factory=lambda: {
        "requests": 0, "batches": 0, "failures": 0, "cancelled": 0})
    pool_tasks: int = 0
    measured_runs: int = 0
    #: Span index where the measured phase starts (traced runs).
    mark: int = 0
    #: A deployment to re-measure for the tracing overhead.
    probe: Optional[tuple] = None
    params: Dict[str, object] = field(default_factory=dict)


def _phase(res: Result, name: str, attempted: int, failed: int,
           cancelled: int = 0) -> None:
    res.phases[name] = {
        "attempted": attempted, "succeeded": attempted - failed,
        "failed": failed, "cancelled": cancelled,
    }
    res.attempted += attempted
    res.failed += failed


def _count_served(res: Result, before, after) -> None:
    """Add one session's counters between two ``stats()`` snapshots."""
    c = res.serving
    c["requests"] += after.requests - (before.requests if before else 0)
    c["batches"] += after.batches - (before.batches if before else 0)
    c["failures"] += after.failures - (before.failures if before else 0)
    c["cancelled"] += after.cancelled - (before.cancelled if before else 0)


def _setups(res: Result, count: int, name: str, formats, max_batch: int,
            first_input: np.ndarray, tracer) -> Deployment:
    """``count`` cold deploys; the last one is kept for measuring."""
    failed = 0
    dep = None
    for i in range(count):
        reset_planner_caches()
        try:
            dep = deploy(name, formats, max_batch, first_input, tracer)
        except Exception:
            failed += 1
            continue
        res.setup_s.append(dep.setup_s)
        res.cache_hits.append(dep.cache_hits)
        res.cache_misses.append(dep.cache_misses)
        res.served.append(dep.first_pending)
        _count_served(res, None, dep.session.stats())
        failed += not dep.first_ok
        if i < count - 1:
            dep.session.close()
    _phase(res, "setup", count, failed)
    if dep is None:
        raise RuntimeError(f"every deploy of {name} failed")
    return dep


def online_tucker(seed: int, seconds: float, tracer=NullTracer()) -> Result:
    """Open loop: Poisson single-sample arrivals through the session."""
    rng = np.random.default_rng(seed)
    n = int(round(ONLINE_RATE * seconds))
    # Poisson arrivals conditioned on their count are sorted uniforms:
    # the run has exactly n requests spread over the window.
    offsets = np.sort(rng.uniform(0.0, seconds, n))
    xs = rng.standard_normal((n, IN_CHANNELS) + IMAGE_HW)
    first = rng.standard_normal((IN_CHANNELS,) + IMAGE_HW)
    res = Result(params={"rate_rps": ONLINE_RATE, "requests": n,
                         "max_batch": ONLINE_MAX_BATCH,
                         "batch_window_s": BATCH_WINDOW_S,
                         "late_bound_ms": LATE_BOUND_MS})
    dep = _setups(res, ONLINE_SETUPS, "resnet_tiny", ("tucker",),
                  ONLINE_MAX_BATCH, first, tracer)
    session = dep.session
    # One full batch touches every arena page before the measured window.
    with session.paused() as ex:
        ex.run(xs[:ONLINE_MAX_BATCH].astype(ex.dtype))
    res.mark = len(tracer.spans)
    before = session.stats()
    tasks0 = pool_stats()["tasks_executed"]

    pendings: List[object] = [None] * n
    late = np.zeros(n)
    submit_errors = [0]
    base = perf() + 0.05
    dues = base + offsets

    def generate() -> None:
        for i in range(n):
            delay = dues[i] - perf()
            if delay > 0:
                time.sleep(delay)
            late[i] = perf() - dues[i]
            try:
                pendings[i] = session.submit(xs[i])
            except Exception:
                submit_errors[0] += 1

    gen = threading.Thread(target=generate, name="loadgen", daemon=True)
    gen.start()
    gen.join(seconds + REQUEST_TIMEOUT_S)
    if gen.is_alive():
        session.close()
        raise RuntimeError("load generator did not finish")
    deadline = perf() + REQUEST_TIMEOUT_S
    outputs: Dict[int, np.ndarray] = {}
    failed = submit_errors[0]
    for i, p in enumerate(pendings):
        if p is None:
            continue
        try:
            outputs[i] = p.result(max(0.0, deadline - perf()))
        except Exception:
            failed += 1
    after = session.stats()
    session.close()
    res.pool_tasks = pool_stats()["tasks_executed"] - tasks0
    res.measured_runs = after.batches - before.batches
    res.late_ms = list(late * 1e3)

    refs = reference(dep.model, xs)
    for i, y in outputs.items():
        if not outputs_match(y, refs[i]):
            failed += 1
    done = [p for i, p in enumerate(pendings) if i in outputs]
    res.latency_ms = [(pendings[i].done_at - dues[i]) * 1e3 for i in outputs]
    if done:
        res.throughput_sps = len(done) / (max(p.done_at for p in done) - base)
    _phase(res, "measure", n, failed, after.cancelled - before.cancelled)
    res.served.extend(p for p in pendings if p is not None)
    _count_served(res, before, after)
    res.facts = plan_facts([dep])
    res.probe = (dep, xs[:1])
    if quantile(res.late_ms, 0.95) > LATE_BOUND_MS:
        raise LoadgenLate(
            f"generator p95 lateness {quantile(res.late_ms, 0.95):.2f} ms "
            f"exceeds the {LATE_BOUND_MS} ms bound; latencies rejected"
        )
    return res


def offline_mixed(seed: int, seconds: float, tracer=NullTracer()) -> Result:
    """Closed loop: one caller runs ``Executable.run`` back to back."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal(
        (OFFLINE_POOL, OFFLINE_BATCH, IN_CHANNELS) + IMAGE_HW
    )
    first = rng.standard_normal((IN_CHANNELS,) + IMAGE_HW)
    res = Result(params={"batch": OFFLINE_BATCH, "distinct_batches":
                         OFFLINE_POOL, "formats": "all"})
    dep = _setups(res, OFFLINE_SETUPS, "resnet20_slim", "all", OFFLINE_BATCH,
                  first, tracer)
    dep.session.close()
    ex = dep.executable
    batches = pool.astype(ex.dtype)
    ex.run(batches[0])
    res.mark = len(tracer.spans)
    tasks0 = pool_stats()["tasks_executed"]

    outputs = []
    failed = 0
    prev_end = None
    start = perf()
    end = start + seconds
    i = 0
    while perf() < end:
        k = i % OFFLINE_POOL
        t0 = perf()
        if prev_end is not None:
            res.late_ms.append((t0 - prev_end) * 1e3)
        try:
            y = ex.run(batches[k])
            t1 = perf()
            outputs.append((k, y.copy()))
            res.latency_ms.append((t1 - t0) * 1e3)
        except Exception:
            failed += 1
        prev_end = perf()
        i += 1
    elapsed = perf() - start
    res.pool_tasks = pool_stats()["tasks_executed"] - tasks0
    res.measured_runs = i
    res.throughput_sps = len(outputs) * OFFLINE_BATCH / elapsed

    refs = [reference(dep.model, b) for b in pool]
    failed += sum(not outputs_match(y, refs[k]) for k, y in outputs)
    _phase(res, "measure", i, failed)
    res.facts = plan_facts([dep])
    res.probe = (dep, batches[0])
    return res


def deploy_paper5(seed: int, seconds: float, tracer=NullTracer()) -> Result:
    """Cold sequential deploys of the paper's five CNN families.

    One round empties the planner caches and deploys all five through
    their first served request; ``seconds / ROUND_S`` rounds (at least
    one) fill the window.
    """
    rng = np.random.default_rng(seed)
    res = Result(params={"models": list(PAPER5), "formats": "tucker"})
    start = perf()
    rounds = max(1, round(seconds / ROUND_S))
    tasks0 = pool_stats()["tasks_executed"]
    runs = 0
    failed = 0
    last: List[Deployment] = []
    for _ in range(rounds):
        reset_planner_caches()
        total = 0.0
        last = []
        for name in PAPER5:
            first = rng.standard_normal((IN_CHANNELS,) + IMAGE_HW)
            try:
                dep = deploy(name, ("tucker",), ONLINE_MAX_BATCH, first,
                             tracer)
            except Exception:
                failed += 1
                continue
            dep.session.close()
            runs += dep.executable.requests_served
            failed += not dep.first_ok
            total += dep.setup_s
            # Cold time to first response: deploy start to answer.
            res.latency_ms.append(dep.setup_s * 1e3)
            res.late_ms.append(dep.first_late_ms)
            res.served.append(dep.first_pending)
            _count_served(res, None, dep.session.stats())
            last.append(dep)
        stats = cache_stats().values()
        res.cache_hits.append(sum(s.hits for s in stats))
        res.cache_misses.append(sum(s.misses for s in stats))
        res.setup_s.append(total)
    elapsed = perf() - start
    _phase(res, "deploy", rounds * len(PAPER5), failed)
    res.throughput_sps = len(res.latency_ms) / elapsed
    res.pool_tasks = pool_stats()["tasks_executed"] - tasks0
    res.measured_runs = runs
    if len(last) == len(PAPER5):
        res.facts = plan_facts(last)
        fastest = min(last, key=lambda d: d.first_pending.latency)
        res.probe = (fastest, np.zeros((1, IN_CHANNELS) + IMAGE_HW))
    res.params["rounds"] = rounds
    return res


WORKLOADS = {
    "online_tucker": online_tucker,
    "offline_mixed": offline_mixed,
    "deploy_paper5": deploy_paper5,
}
