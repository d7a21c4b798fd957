"""RP401/RP402 — the ``repro`` layer DAG.

The reproduction is layered so that the packet model knows nothing of
the simulator, the simulator knows nothing of the measurement tools,
and the tools know nothing of the experiment harness. The declared map
(``LAYER_DEPS``) is the single source of truth: each top-level
``repro`` subpackage lists the subpackages it may import.

* RP401 — an import edge not allowed by the map. This encodes the
  repo's standing rules: ``netmodel`` imports nothing from repro;
  ``netsim``/``devices``/``geo`` never import
  ``core``/``experiments``/``analysis``; ``analysis`` never reaches
  into ``netsim`` internals; nothing imports ``cli``.
* RP402 — an import cycle among repro modules, detected over
  *module-level* imports only (a function-local import is the
  sanctioned way to break a would-be cycle at runtime, so it joins the
  RP401 edge check but not the cycle graph).

Relative imports are resolved against the importing module's dotted
name, so ``from ...netmodel.dns import X`` inside
``repro.core.cenfuzz.dns_fuzz`` correctly registers the edge
``core -> netmodel``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..base import FileContext, ProjectRule, Violation, register
from ..index import resolve_relative

#: The telemetry sink and the declared telemetry names: every layer
#: that emits telemetry imports its name constants from the registry.
TELEMETRY = {"telemetry", "telemetry_registry"}

#: package -> packages it may import. ``*`` means "anything but the
#: packages everyone is banned from" (see NEVER_IMPORTED).
LAYER_DEPS: Dict[str, Set[str]] = {
    "telemetry": set(),
    # The declared telemetry names: imports nothing from repro.
    "telemetry_registry": set(),
    "netmodel": set(),
    "netsim": {"netmodel"} | TELEMETRY,
    "services": {"netmodel", "netsim"},
    "devices": {"netmodel", "netsim", "services"},
    "geo": {"netmodel", "netsim", "devices", "services"},
    "core": {"netmodel", "netsim", "devices", "services", "geo"} | TELEMETRY,
    # Localization consumes measurement primitives and world routing but
    # must never be imported back by them: the CenTrace classifier's
    # voting seam lives in core/centrace/attribution.py precisely so the
    # edge points localize -> core only.
    "localize": {"core", "geo", "netmodel", "netsim"} | TELEMETRY,
    "persist": {"core", "localize", "netmodel", "netsim"} | TELEMETRY,
    "analysis": {"core", "netmodel"},
    "baselines": {"core", "netmodel"},
    "viz": {"core", "geo", "netmodel"},
    "experiments": {
        "analysis",
        "baselines",
        "core",
        "devices",
        "geo",
        "localize",
        "netmodel",
        "netsim",
        "persist",
        "services",
        "viz",
    } | TELEMETRY,
    # The campaign service (job queue) sits ABOVE the engine: it may
    # drive the executor and report telemetry, but the engine must
    # never grow a dependency on its own front end.
    "service": {
        "core",
        "experiments",
        "geo",
        "netmodel",
        "netsim",
        "persist",
    } | TELEMETRY,
    # The fact store reads campaigns (persist/experiments layers) and
    # drift plans (geo) to extract longitudinal records; nothing below
    # the CLI drives it.
    "store": {
        "core",
        "experiments",
        "geo",
        "netmodel",
        "netsim",
        "persist",
    } | TELEMETRY,
    "cli": {"*"},
    # The package root imports nothing, so `import repro` stays cheap
    # (DESIGN.md, "Import surface").
    "<root>": set(),
}

#: No layer may import these, ever (entry points only).
NEVER_IMPORTED = {"cli"}

#: package -> the only layers allowed to import it. Checked before the
#: per-importer allowance and regardless of a ``*`` wildcard, so even
#: ``cli``-like layers and the package root are bound by it.
RESTRICTED_IMPORTERS: Dict[str, Set[str]] = {
    "service": {"cli"},
    "store": {"cli"},
    # Localizers are an analysis product: the harness and the CLI drive
    # them, persist serializes their dataclasses — measurement layers
    # (core, netsim, geo) must stay free of localization knowledge.
    "localize": {"cli", "experiments", "persist"},
}

PACKAGE = "repro"


def _layer_of(module: str) -> Optional[str]:
    """Top-level repro subpackage of ``module``, or ``<root>``/None."""
    if module == PACKAGE:
        return "<root>"
    if not module.startswith(PACKAGE + "."):
        return None
    return module.split(".")[1]


def _expand_targets(base: str, names: Tuple[str, ...]) -> List[str]:
    """Resolve ``from <base> import <names>`` to layer-bearing modules.

    ``from .. import viz`` targets the root package, but the thing being
    imported is the ``viz`` subpackage — the edge that matters. For any
    deeper base the first component after ``repro`` already decides the
    layer, so the base alone suffices.
    """
    if base != PACKAGE or not names:
        return [base]
    return [f"{PACKAGE}.{name}" for name in names]


class _ImportCollector(ast.NodeVisitor):
    """All repro-internal imports of one module, with nesting depth.

    Each entry is ``(base_module, alias_names, lineno, module_level)``;
    ``from .. import viz`` records base ``repro`` with names
    ``("viz",)`` so the checker can resolve the alias to the actual
    subpackage being pulled in.
    """

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module or ""
        self.is_package = ctx.path.name == "__init__.py"
        self.imports: List[Tuple[str, Tuple[str, ...], int, bool]] = []
        self._depth = 0

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, (), node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = resolve_relative(
            self.module, self.is_package, node.level, node.module
        )
        if target is not None:
            names = tuple(alias.name for alias in node.names)
            self._add(target, names, node.lineno)

    def _add(self, target: str, names: Tuple[str, ...], lineno: int) -> None:
        if target == PACKAGE or target.startswith(PACKAGE + "."):
            self.imports.append((target, names, lineno, self._depth == 0))

    def _descend(self, node) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    def visit_FunctionDef(self, node):  # noqa: N802
        self._descend(node)

    def visit_AsyncFunctionDef(self, node):  # noqa: N802
        self._descend(node)


@register
class LayerMapRule(ProjectRule):
    id = "RP401"
    name = "layer-map"
    description = (
        "Every repro-internal import must be an edge the declared layer "
        "map allows (netmodel imports nothing; netsim/devices/geo never "
        "import core/experiments/analysis; nothing imports cli)."
    )

    #: Overridable in tests.
    layer_deps = LAYER_DEPS
    never_imported = NEVER_IMPORTED
    restricted_importers = RESTRICTED_IMPORTERS

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterable[Violation]:
        violations: List[Violation] = []
        for ctx in contexts:
            if not ctx.module:
                continue
            src_layer = _layer_of(ctx.module)
            if src_layer is None:
                continue
            collector = _ImportCollector(ctx)
            collector.visit(ctx.tree)
            for target, names, lineno, _ in collector.imports:
                for resolved in _expand_targets(target, names):
                    dst_layer = _layer_of(resolved)
                    if dst_layer is None or dst_layer == src_layer:
                        continue
                    allowed = self.layer_deps.get(src_layer, set())
                    if dst_layer in self.never_imported:
                        violations.append(
                            self._violation(
                                ctx,
                                lineno,
                                f"{ctx.module} imports {resolved} — "
                                f"{dst_layer!r} is an entry point no layer "
                                "may import",
                            )
                        )
                    elif (
                        dst_layer in self.restricted_importers
                        and src_layer
                        not in self.restricted_importers[dst_layer]
                    ):
                        violations.append(
                            self._violation(
                                ctx,
                                lineno,
                                f"{ctx.module} imports {resolved} — "
                                f"{dst_layer!r} may only be imported by "
                                f"{sorted(self.restricted_importers[dst_layer])}",
                            )
                        )
                    elif (
                        dst_layer in self.layer_deps
                        and "*" not in allowed
                        and dst_layer not in allowed
                    ):
                        violations.append(
                            self._violation(
                                ctx,
                                lineno,
                                f"{ctx.module} imports {resolved} — layer "
                                f"{src_layer!r} may only import "
                                f"{sorted(allowed) or 'nothing'}",
                            )
                        )
        return violations

    def _violation(self, ctx, lineno: int, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            path=ctx.relative,
            line=lineno,
            message=message,
        )


@register
class ImportCycleRule(ProjectRule):
    id = "RP402"
    name = "import-cycle"
    description = (
        "No module-level import cycles among repro modules (function-local "
        "imports are the sanctioned runtime cycle-breaker)."
    )

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterable[Violation]:
        # Module-level import graph, with edge -> first import line.
        by_module = {ctx.module: ctx for ctx in contexts if ctx.module}
        graph: Dict[str, Dict[str, int]] = {}
        for ctx in by_module.values():
            collector = _ImportCollector(ctx)
            collector.visit(ctx.tree)
            edges = graph.setdefault(ctx.module, {})
            for target, names, lineno, module_level in collector.imports:
                if not module_level:
                    continue
                # Normalise `from pkg import name`: when pkg.name is itself
                # a module we know, the edge targets the submodule (this is
                # how `from . import x` in __init__.py files joins the
                # graph); otherwise the edge targets pkg.
                candidates = [target] + [f"{target}.{name}" for name in names]
                for resolved in candidates:
                    if resolved in by_module and resolved != ctx.module:
                        edges.setdefault(resolved, lineno)

        violations: List[Violation] = []
        seen_cycles: Set[Tuple[str, ...]] = set()
        # Iterative DFS cycle detection, deterministic order.
        WHITE, GREY, BLACK = 0, 1, 2
        color = {m: WHITE for m in graph}
        stack: List[str] = []

        def dfs(start: str) -> None:
            path: List[str] = []

            def visit(module: str) -> None:
                color[module] = GREY
                path.append(module)
                for target in sorted(graph.get(module, ())):
                    if target not in color:
                        continue
                    if color[target] == GREY:
                        cycle = tuple(path[path.index(target):] + [target])
                        key = tuple(sorted(set(cycle)))
                        if key not in seen_cycles:
                            seen_cycles.add(key)
                            ctx = by_module[cycle[0]]
                            lineno = graph[cycle[0]][cycle[1]]
                            violations.append(
                                Violation(
                                    rule_id=self.id,
                                    path=ctx.relative,
                                    line=lineno,
                                    message=(
                                        "import cycle: "
                                        + " -> ".join(cycle)
                                    ),
                                )
                            )
                    elif color[target] == WHITE:
                        visit(target)
                color[module] = BLACK
                path.pop()

            visit(start)

        for module in sorted(graph):
            if color[module] == WHITE:
                dfs(module)
        return violations
