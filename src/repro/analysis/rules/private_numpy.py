"""private-numpy: no imports from NumPy's private modules.

NumPy's public API is ``numpy`` and its documented submodules
(``numpy.linalg``, ``numpy.lib.stride_tricks``...).  Anything under an
underscore-prefixed module (``numpy._core``, ``numpy.lib._...``) or the
deprecated ``numpy.core`` alias can change or vanish in any release,
so a kernel that reaches into it ships a speed or a result that the
next NumPy may silently take away.  This rule flags every such import,
``import numpy._core.x`` and ``from numpy._core.x import y`` alike,
and ``from numpy import _core`` (or ``core``).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.lint import Finding, ParsedModule, Rule
from repro.analysis.rules import register_rule


def _is_private(segment: str) -> bool:
    return segment.startswith("_") and not segment.startswith("__")


def _private_part(module: str) -> Optional[str]:
    """The first private segment of a dotted ``numpy`` module path."""
    parts = module.split(".")
    if parts[0] != "numpy":
        return None
    for i, seg in enumerate(parts[1:], start=1):
        if _is_private(seg) or (i == 1 and seg == "core"):
            return ".".join(parts[: i + 1])
    return None


@register_rule
class PrivateNumpyRule(Rule):
    name = "private-numpy"
    description = (
        "no imports from numpy._core, numpy.core or any other "
        "underscore-prefixed NumPy module"
    )

    def check(self, module: ParsedModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}"
                                  for alias in node.names]
            else:
                continue
            for name in names:
                private = _private_part(name)
                if private is None:
                    continue
                findings.append(Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    symbol=private,
                    message=(
                        f"import from private NumPy module {private}; "
                        f"use the public numpy API"
                    ),
                ))
                break
        return findings
