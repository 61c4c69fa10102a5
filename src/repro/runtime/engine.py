"""Shard planning and per-site parallel execution state.

``Executable.run`` parallelism happens *inside* each compiled site's
forward (the inter-site topology — residuals, pooling, batch-norm —
stays on the caller thread): the site splits the batch into
contiguous sample ranges, runs its one ``_body`` per range on a worker
lane, joins, and returns the same arena buffer the serial path
returns.  Every shard holds at least :data:`MIN_BATCH_SHARD` samples —
NumPy's cached two-operand einsum specializes a batch of 1 differently
from a batch of n, so singleton shards are never produced and sliced
stage einsums stay bit-identical to the full-batch call (the
determinism suite pins this).  A batch too small to shard runs one
``_body`` on lane 0.  Every lane runs the site's own bound kernel, the
same loop the serial path runs.

The per-site parallel/serial decision is *not* made here — the perf
model makes it at compile time (:mod:`repro.perfmodel.parallel`) and
:func:`repro.inference.executable.compile_plan` records it on the
plan; this module only executes what was decided.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.pool import WorkerPool

#: Minimum samples per batch shard; see the module docstring.
MIN_BATCH_SHARD = 2


def plan_batch_shards(
    batch: int, threads: int, min_shard: int = MIN_BATCH_SHARD,
) -> List[Tuple[int, int]]:
    """Split ``[0, batch)`` into at most ``threads`` contiguous shards.

    Every shard has at least ``min_shard`` samples; returns fewer than
    two shards (meaning: batch sharding is off) when the batch cannot
    support two such shards.
    """
    if threads < 2 or batch < 2 * min_shard:
        return []
    n = min(threads, batch // min_shard)
    base, extra = divmod(batch, n)
    shards: List[Tuple[int, int]] = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < extra else 0)
        shards.append((lo, hi))
        lo = hi
    return shards


class SiteParallel:
    """Everything one compiled site needs to fan out: decided at
    compile time, immutable at run time.

    ``lane_scratch[0]`` is the site's own (serial) scratch set; lanes
    ``1..threads-1`` are compile-time copies carved from the arena, so
    the hot path allocates nothing.  Every lane runs the site's own
    bound kernel.  ``runner`` is always ``None``: the site has no second
    copy of its kernel loop.  The attribute stays for callers that
    probe it (``perfbench/spans.py``).
    """

    def __init__(
        self,
        *,
        threads: int,
        pool: WorkerPool,
        lane_scratch: Sequence[Optional[Dict[str, np.ndarray]]],
        site_latency_s: float = 0.0,
        est_speedup: float = 1.0,
    ) -> None:
        if threads < 2:
            raise ValueError("SiteParallel needs threads >= 2")
        self.threads = int(threads)
        self.pool = pool
        self.lane_scratch = list(lane_scratch)
        self.runner = None
        self.site_latency_s = float(site_latency_s)
        self.est_speedup = float(est_speedup)

    def batch_shards(self, batch: int) -> List[Tuple[int, int]]:
        return plan_batch_shards(batch, self.threads)

    @property
    def per_worker_scratch_bytes(self) -> int:
        """Bytes the extra lanes (1..) added to the arena."""
        total = 0
        for scratch in self.lane_scratch[1:]:
            if scratch:
                total += sum(b.nbytes for b in scratch.values())
        return total

    def run_tasks(self, tasks) -> None:
        self.pool.run_tasks(tasks)
