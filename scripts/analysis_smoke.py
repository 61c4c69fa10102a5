"""CI smoke for the invariant-checking subsystem (``repro.analysis``).

Three gates, exercising both halves of the analyzer:

1. **Static**: ``python -m repro.cli analyze --json`` over the real
   tree must report zero non-baselined findings — any hot-path
   allocation, silent float64 promotion, unguarded cross-thread write,
   backend-protocol drift or private NumPy import introduced by a
   change fails here before any runtime test would catch it (and a
   suppression without a reason string fails the same way).
2. **Self-check**: every registered rule must still catch a seeded
   violation (a deliberately broken fixture module linted in-process)
   — a rule that silently stopped firing is itself a regression.
3. **Dynamic**: the allocation tracer and arena-aliasing probe run
   over the quick backend x format sweep (``--dynamic``): a steady
   state ``Executable.run`` that allocates, or two arena buffers that
   share memory, fails the build.

Run:  PYTHONPATH=src python scripts/analysis_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis import run_rules
from repro.analysis.rules import build_rules, rule_names

#: One seeded violation per rule; rule -> (relpath, source) that must
#: trip it (the dtype rule is path-scoped, hence the kernels/ prefix).
SEEDED = {
    "hot-path-alloc": ("seed_hot.py", (
        "import numpy as np\n"
        "class CompiledThing:\n"
        "    def forward(self, x):\n"
        "        return np.zeros(x.shape)\n"
    )),
    "dtype-promotion": ("kernels/seed_dtype.py", (
        "import numpy as np\n"
        "W = np.array([[1.0, 2.0]])\n"
    )),
    "lock-discipline": ("seed_lock.py", (
        "import threading\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
    )),
    "backend-conformance": ("seed_backend.py", (
        "class KernelBackend: ...\n"
        "def register_backend(cls): return cls\n"
        "@register_backend\n"
        "class BadBackend(KernelBackend):\n"
        "    name = 'bad'\n"
        "    def core_latency(self, shape): return 0.0\n"
    )),
    "private-numpy": ("seed_private.py", (
        "from numpy._core.einsumfunc import bmm_einsum\n"
    )),
}


def run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"FAIL: 'repro.cli {' '.join(args)}' exited {proc.returncode}"
        )
    return proc.stdout


def main() -> None:
    root = Path(__file__).resolve().parent.parent

    # Gate 1+3: the real tree is clean and the dynamic probes hold.
    out = run_cli("analyze", "--root", str(root), "--json", "--dynamic")
    report = json.loads(out)
    if report["findings"]:
        raise SystemExit(f"FAIL: non-baselined findings: {report['findings']}")
    if report["dynamic_error"]:
        raise SystemExit(f"FAIL: dynamic probe: {report['dynamic_error']}")
    n_probes = len(report["dynamic"] or [])
    print(f"ok: static tree clean; {n_probes} dynamic probes passed")

    # Gate 2: every rule still fires on its seeded violation.
    missing = set(rule_names()) - set(SEEDED)
    if missing:
        raise SystemExit(f"FAIL: no seeded violation for rule(s) {missing}")
    with tempfile.TemporaryDirectory() as tmp:
        for rule, (relpath, source) in SEEDED.items():
            path = Path(tmp) / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
            findings = run_rules(
                paths=[path], rules=build_rules([rule]), root=Path(tmp),
            )
            if not any(f.rule == rule for f in findings):
                raise SystemExit(
                    f"FAIL: rule {rule!r} did not fire on its seeded "
                    f"violation"
                )
            print(f"ok: rule {rule} caught its seeded violation")

    print("analysis smoke: all gates passed")


if __name__ == "__main__":
    main()
