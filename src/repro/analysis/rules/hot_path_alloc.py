"""hot-path-alloc: no allocating numpy calls in steady-state hot paths.

The compile/execute split (PR 4) promises zero steady-state allocation:
``Executable.run`` and everything it reaches — compiled sites, kernel
``run_into`` bodies, the fused row-block walker — must write into
preallocated :class:`BufferArena` buffers only.  The dynamic tracer in
``tests`` samples this for a few backends; this rule enforces it
statically for *every* hot method in the tree.

Hot classes are matched by naming convention (``Compiled*``,
``*Kernel``, ``*Executor``, ``*Runner``, ``Executable``); hot entry
points differ by kind — a kernel's ``run`` is the *convenience*
allocating API by design, so only ``run_into`` is hot there, while
compiled sites/executors/runners are hot through ``run``/``forward``/
``run_into`` and the ``_body`` every compiled site computes through
(its base class's ``forward`` dispatches into it).  The rule then
takes the transitive closure of ``self.method()`` calls so helpers
reached from a hot entry are checked too.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set

from repro.analysis.lint import Finding, ParsedModule, Rule
from repro.analysis.rules import register_rule

#: numpy module-level allocators that must not appear in a hot body.
ALLOC_FUNCS = frozenset({
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "pad", "concatenate", "stack", "vstack", "hstack", "dstack",
    "column_stack", "tile", "repeat", "copy",
    "array", "ascontiguousarray", "asfortranarray",
    "fromiter", "arange", "linspace", "outer", "kron",
})

#: ndarray methods that allocate a fresh array.
ALLOC_METHODS = frozenset({"astype", "copy", "flatten", "tolist"})

#: Entry methods for kernel classes: ``run`` allocates by design (it is
#: the convenience API that materializes an output), ``run_into`` is
#: the hot contract.
KERNEL_ENTRIES = frozenset({"run_into"})

#: Entry methods for compiled sites / executors / runners.
SITE_ENTRIES = frozenset({"run", "forward", "run_into", "_body"})


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    aliases.add(a.asname or "numpy")
    return aliases


def _hot_class_kind(name: str) -> str:
    """'' if not hot; 'kernel' or 'site' otherwise."""
    if name.endswith("Kernel"):
        return "kernel"
    stripped = name.lstrip("_")
    if (
        stripped.startswith("Compiled")
        or stripped == "Executable"
        or name.endswith("Executor")
        or name.endswith("Runner")
    ):
        return "site"
    return ""


def _self_calls(fn: ast.FunctionDef) -> Set[str]:
    calls = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _hot_methods(
    cls: ast.ClassDef, entries: Sequence[str]
) -> Dict[str, ast.FunctionDef]:
    methods = {
        n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
    }
    frontier = [m for m in entries if m in methods]
    hot: Dict[str, ast.FunctionDef] = {}
    while frontier:
        name = frontier.pop()
        if name in hot:
            continue
        hot[name] = methods[name]
        for callee in _self_calls(methods[name]):
            if callee in methods and callee not in hot:
                frontier.append(callee)
    return hot


@register_rule
class HotPathAllocRule(Rule):
    name = "hot-path-alloc"
    description = (
        "no allocating numpy calls (np.zeros/empty/pad/astype/...) in "
        "run/forward/run_into bodies of Compiled*/kernel/executor "
        "classes or their self-call closure"
    )

    def check(self, module: ParsedModule) -> List[Finding]:
        np_aliases = _numpy_aliases(module.tree)
        findings: List[Finding] = []
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            kind = _hot_class_kind(cls.name)
            if not kind:
                continue
            entries = KERNEL_ENTRIES if kind == "kernel" else SITE_ENTRIES
            for mname, fn in sorted(_hot_methods(cls, sorted(entries)).items()):
                findings.extend(
                    self._check_method(module, cls.name, mname, fn, np_aliases)
                )
        return findings

    def _check_method(
        self,
        module: ParsedModule,
        cls: str,
        mname: str,
        fn: ast.FunctionDef,
        np_aliases: Set[str],
    ) -> List[Finding]:
        findings = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in np_aliases
            ):
                if func.attr in ALLOC_FUNCS:
                    findings.append(Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=node.lineno,
                        symbol=f"{cls}.{mname}",
                        message=(
                            f"allocating call np.{func.attr}() in hot "
                            f"path {cls}.{mname}"
                        ),
                    ))
            elif func.attr in ALLOC_METHODS:
                # Exclude self.method() calls — those are dispatch, and
                # any allocating ones are caught when their body is
                # visited (or they live on another object entirely).
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    continue
                findings.append(Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    symbol=f"{cls}.{mname}",
                    message=(
                        f"allocating method .{func.attr}() in hot "
                        f"path {cls}.{mname}"
                    ),
                ))
        return findings
