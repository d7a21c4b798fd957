"""lintkit — two-phase AST invariant linter for the reproduction.

One shared walk, many passes: every ``*.py`` file is parsed exactly
once (phase 1 also builds the shared
:class:`~tools.lintkit.index.ProjectIndex` — symbol tables, resolved
imports, telemetry call sites), then each registered
:class:`~tools.lintkit.base.Rule` inspects the shared tree (per-file
rules), the whole set (project rules such as the layer-DAG check), or
the index (cross-module contract rules). Run it via
``make lint`` or::

    python -m tools.lintkit src            # text report, exit 1 on findings
    python -m tools.lintkit src --json     # machine-readable report
    python -m tools.lintkit --list-rules   # registered passes

Suppress a finding at its line with ``# lint: ignore[RPxxx] -- why``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .base import (
    REGISTRY,
    FileRule,
    IndexRule,
    ProjectRule,
    Rule,
    Violation,
    register,
)
from .index import ProjectIndex
from .walker import run_rules, walk_paths

# Importing registers every pass.
from . import rules as _rules  # noqa: F401

__all__ = [
    "REGISTRY",
    "FileRule",
    "IndexRule",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "Violation",
    "register",
    "lint",
]


def lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Violation], int]:
    """Lint ``paths``; returns (violations, files_checked).

    Parse failures surface as ``RP000`` violations so a syntactically
    broken tree can never lint clean.
    """
    contexts, errors = walk_paths(paths, root=root)
    rules = REGISTRY.select(select)
    violations = errors + run_rules(contexts, rules)
    violations.sort(key=lambda v: (str(v.path), v.line, v.rule_id))
    return violations, len(contexts) + len(errors)
