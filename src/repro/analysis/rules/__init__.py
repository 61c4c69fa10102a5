"""Registry of repo-specific lint rules.

Each rule module registers its class with :func:`register_rule`;
:func:`build_rules` instantiates the requested subset for one
``run_rules`` invocation (rules may carry per-run state from
``begin``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from repro.analysis.lint import Rule

_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _RULES:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _RULES[cls.name] = cls
    return cls


def rule_names() -> List[str]:
    return sorted(_RULES)


def rule_catalog() -> List[Rule]:
    """Fresh instances of every registered rule (for listings)."""
    return [_RULES[name]() for name in rule_names()]


def build_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    if names is None:
        names = rule_names()
    rules = []
    for name in names:
        if name not in _RULES:
            raise KeyError(
                f"unknown rule {name!r}; known: {', '.join(rule_names())}"
            )
        rules.append(_RULES[name]())
    return rules


# Import for side effect: each module registers its rule class.
from repro.analysis.rules import backend_conformance  # noqa: E402,F401
from repro.analysis.rules import dtype_promotion  # noqa: E402,F401
from repro.analysis.rules import hot_path_alloc  # noqa: E402,F401
from repro.analysis.rules import lock_discipline  # noqa: E402,F401
from repro.analysis.rules import private_numpy  # noqa: E402,F401
