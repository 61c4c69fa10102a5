"""Shared worker-pool execution engine (the parallel runtime).

The executor half of the compile/execute split is single-threaded by
construction — one arena, one in-flight request.  This package adds
thread-level batch sharding inside each compiled site, without giving
up either invariant the executor is built on:

- **zero steady-state allocation** — every worker lane executes out of
  scratch carved from the same :class:`~repro.inference.executable.
  BufferArena` at compile time, and
- **bit-identical results** — parallel execution reproduces the serial
  float summation order exactly (the concurrent-determinism suite and
  ``benchmarks/bench_parallel.py`` gate max deviation at exactly 0.0).

Layout:

- :mod:`repro.runtime.pool` — one bounded :class:`WorkerPool` per
  process (``REPRO_NUM_THREADS`` / ``--threads``, default
  ``min(cores, 8)``); every executable, session, and fleet replica
  shares it, so fleet-scale deployments cannot explode thread counts.
- :mod:`repro.runtime.engine` — per-site shard planning: contiguous
  sample ranges of at least 2 samples, one lane each.  A batch too
  small to shard runs the site's one ``_body`` on lane 0, through the
  same bound kernel the serial path runs.
"""

from repro.runtime.pool import (
    MAX_WORKERS,
    WorkerPool,
    default_threads,
    get_pool,
    pool_stats,
    resolve_threads,
)
from repro.runtime.engine import SiteParallel, plan_batch_shards

__all__ = [
    "MAX_WORKERS",
    "WorkerPool",
    "default_threads",
    "get_pool",
    "pool_stats",
    "resolve_threads",
    "SiteParallel",
    "plan_batch_shards",
]
