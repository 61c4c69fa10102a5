"""In-memory spans recorded around the public calls of each layer.

A span is ``(id, name, start, end, parent, request, attrs)`` with
``perf_counter`` seconds.  Spans stay in a list while the workload
runs and are written out once it ends.  Nothing here touches
``src/repro``: set-up calls are wrapped by the caller through
:meth:`Tracer.span` / :meth:`Tracer.patched`, and a compiled
executable is wrapped per instance by :func:`instrument_executable`
(its ``run``, every compiled site's ``forward`` and every bound
kernel's ``run_into``), so an untraced run executes the library
unchanged.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

perf = time.perf_counter


class Tracer:
    """Collects spans; ``parent`` links a span to the one that caused it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, sid, name, start, end, parent=None, request=None, **attrs):
        # list.append is atomic, so worker-pool lanes may record too.
        self.spans.append((sid, name, start, end, parent, request, attrs))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request=None) -> Iterator[int]:
        """Time a block; nested blocks on one thread become children."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = self.new_id()
        stack.append(sid)
        t0 = perf()
        try:
            yield sid
        finally:
            stack.pop()
            self.add(sid, name, t0, perf(), parent, request)

    @contextmanager
    def patched(self, module, attr: str, name: str) -> Iterator[None]:
        """Wrap ``module.attr`` in a span for the duration of the block
        (reaches calls made inside a public function, e.g. the rank
        selection inside ``decompose_for_device``)."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def named(self, name: str) -> List[tuple]:
        return [s for s in self.spans if s[1] == name]

    def to_json(self) -> List[dict]:
        keys = ("id", "name", "start", "end", "parent", "request")
        return [dict(zip(keys, s[:6]), **s[6]) for s in self.spans]


class NullTracer:
    """The untraced run: every hook is a no-op."""

    enabled = False
    spans: List[tuple] = []

    @contextmanager
    def span(self, name: str, request=None) -> Iterator[None]:
        yield None

    @contextmanager
    def patched(self, module, attr: str, name: str) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Executable instrumentation
# ----------------------------------------------------------------------
class _SiteState:
    __slots__ = ("name", "kind", "span", "request")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.span: Optional[int] = None
        self.request = None


def _core_counts(out_elems: int, w, x_elems: int) -> Tuple[int, int]:
    """MACs and compulsory bytes (input + weight + output) of one
    per-sample core invocation, from the buffers it executes over.
    ``w[0].size`` is the MACs per output element for both dense
    ``(N, C, R, S)`` and depthwise ``(C, R, S)`` weights."""
    macs = out_elems * int(w[0].size)
    nbytes = (x_elems + int(w.size) + out_elems) * w.itemsize
    return macs, nbytes


class _TracedKernel:
    """Per-site proxy of a bound kernel (or prepared runner).

    ``run_into`` is one per-sample core invocation.  The row-block path
    stages a sample once (``stage``) and fans ``run_rows`` over lanes;
    the staged sample is counted as the invocation so MAC and byte
    counts are the same whichever path a batch size takes.
    """

    def __init__(self, inner, tracer: Tracer, state: _SiteState) -> None:
        self._inner = inner
        self._tracer = tracer
        self._state = state

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _record(self, t0, macs=0, nbytes=0) -> None:
        st = self._state
        self._tracer.add(
            self._tracer.new_id(), "kernels.core", t0, perf(), st.span,
            st.request, macs=macs, bytes=nbytes,
        )

    def run_into(self, x, weight, out, scratch):
        t0 = perf()
        y = self._inner.run_into(x, weight, out, scratch)
        self._record(t0, *_core_counts(int(out.size), weight, int(x.size)))
        return y

    def stage(self, x, scratch):
        t0 = perf()
        self._inner.stage(x, scratch)
        shape = self._inner.shape
        self._record(t0, *_core_counts(
            shape.n * shape.h * shape.w, self._inner.weight, int(x.size)
        ))

    def run_rows(self, xpad, out, h_lo, h_hi, scratch):
        t0 = perf()
        self._inner.run_rows(xpad, out, h_lo, h_hi, scratch)
        self._record(t0)


def instrument_executable(ex, tracer: Tracer, label: str = "") -> None:
    """Record spans on one executable instance: ``exec.run`` per call,
    ``sites.forward`` per compiled site (child of the run), and
    ``kernels.core`` per bound-kernel call (child of the site)."""
    from repro.inference.executable import CompiledConv2d

    run_state = {"span": None, "n": 0}
    states: List[_SiteState] = []
    for site in ex.sites():
        kind = "dense" if isinstance(site, CompiledConv2d) else "factored"
        st = _SiteState(site.site_name, kind)
        states.append(st)
        forward = site.forward

        def traced_forward(x, forward=forward, st=st):
            sid = tracer.new_id()
            st.span, st.request = sid, run_state["n"]
            t0 = perf()
            try:
                return forward(x)
            finally:
                tracer.add(sid, "sites.forward", t0, perf(),
                           run_state["span"], st.request,
                           site=st.name, kind=st.kind)

        site.forward = traced_forward
        if site.kernel is not None:
            site.kernel = _TracedKernel(site.kernel, tracer, st)
        par = site._parallel
        if par is not None and par.runner is not None:
            par.runner = _TracedKernel(par.runner, tracer, st)

    run = ex.run

    def traced_run(x):
        sid = tracer.new_id()
        run_state["n"] += 1
        run_state["span"] = sid
        t0 = perf()
        try:
            return run(x)
        finally:
            tracer.add(sid, "exec.run", t0, perf(), None, run_state["n"],
                       batch=int(len(x)), model=label)

    ex.run = traced_run


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Wall time covered by possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def run_breakdown(spans: Sequence[tuple]) -> List[Dict[str, float]]:
    """Per ``exec.run``: wall, auxiliary (run minus its sites), site self
    time by kind, bound-kernel time, and per-sample core MACs/bytes.

    A site's self time is its span minus the part of it its kernel
    spans cover; concurrent lanes count once.
    """
    runs = {s[0]: s for s in spans if s[1] == "exec.run"}
    sites: Dict[int, tuple] = {}
    kernels: Dict[int, list] = {}
    for s in spans:
        if s[1] == "sites.forward" and s[4] in runs:
            sites[s[0]] = s
    for s in spans:
        if s[1] == "kernels.core" and s[4] in sites:
            kernels.setdefault(s[4], []).append(s)
    rows: Dict[int, Dict[str, float]] = {
        rid: {
            "start": r[2], "run_ms": (r[3] - r[2]) * 1e3,
            "batch": r[6]["batch"], "sites_ms": 0.0, "core_ms": 0.0,
            "factored_ms": 0.0, "dense_ms": 0.0, "macs": 0, "bytes": 0,
        }
        for rid, r in runs.items()
    }
    site_total: Dict[int, float] = {rid: 0.0 for rid in runs}
    for sid, s in sites.items():
        row = rows[s[4]]
        dur = s[3] - s[2]
        ks = kernels.get(sid, [])
        core = _covered([(max(k[2], s[2]), min(k[3], s[3])) for k in ks])
        self_ms = (dur - core) * 1e3
        site_total[s[4]] += dur
        row["core_ms"] += core * 1e3
        row["sites_ms"] += self_ms
        row[s[6]["kind"] + "_ms"] += self_ms
        row["macs"] += sum(k[6]["macs"] for k in ks)
        row["bytes"] += sum(k[6]["bytes"] for k in ks)
    out = []
    for rid in sorted(rows, key=lambda r: rows[r]["start"]):
        row = rows[rid]
        row["aux_ms"] = row["run_ms"] - site_total[rid] * 1e3
        out.append(row)
    return out
