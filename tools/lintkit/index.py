"""Phase 1 of the two-phase analyzer: the shared :class:`ProjectIndex`.

``walk_paths`` parses every file once; ``ProjectIndex.build`` then
sweeps the parsed trees once more and materializes everything the
phase-2 cross-module passes need:

* per-module **symbol tables** — top-level classes, functions, and
  literal constants, plus an import table mapping every local binding
  to the absolute dotted name it refers to (relative imports resolved
  against the module's own dotted name);
* **telemetry call sites** — every ``count(...)`` / ``span(...)`` /
  ``event(kind=...)`` / ``add_virtual(...)`` / ``add_wall(...)`` call
  on a telemetry-shaped receiver, with its name literal(s) when the
  name is statically known and the enclosing function otherwise.

The index is deterministic: two builds over the same tree produce
identical :meth:`ProjectIndex.to_dict` payloads (covered by tests), so
passes may iterate it without sorting defensively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .base import FileContext

#: Telemetry APIs whose first argument (or ``kind=`` keyword for
#: ``event``) is a registry-checked name.
TELEMETRY_APIS = ("count", "span", "event", "add_virtual", "add_wall")

#: Receivers that mark a call as telemetry: the bare conventional names
#: or any attribute access ending in them (``self.telemetry.count``).
TELEMETRY_RECEIVERS = ("tel", "telemetry")


def resolve_relative(
    module: str, is_package: bool, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute dotted name for a ``from ...target import x`` statement."""
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        if level - 1 > len(parts):
            return None
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


@dataclass(frozen=True)
class ClassInfo:
    """One top-level class and its bases as written."""

    name: str
    module: str
    lineno: int
    bases: Tuple[str, ...]  # dotted source text of each base


@dataclass(frozen=True)
class TelemetryCall:
    """One telemetry emission site.

    ``names`` holds the statically-known name literal(s): one entry for
    a plain string, both branches for a constant-folded conditional
    (``"a" if fast else "b"``), and empty when the name is computed at
    runtime (an f-string, an attribute) — those sites must be
    whitelisted in the registry.
    """

    module: str
    path: str  # relative posix path
    lineno: int
    api: str  # count | span | event | add_virtual | add_wall
    names: Tuple[str, ...]
    function: str  # dotted enclosing scope ("Class.method") or "<module>"
    expr: str  # source text of the name argument, for diagnostics


@dataclass
class ModuleInfo:
    """Symbol table for one module."""

    module: str
    relative: str
    imports: Dict[str, str]
    classes: Dict[str, ClassInfo]
    functions: Dict[str, int]  # top-level function name -> lineno
    constants: Dict[str, object]  # literal-evaluable top-level assigns


def _dotted(node: ast.AST) -> Optional[str]:
    """Source-dotted name for Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _is_telemetry_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in TELEMETRY_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in TELEMETRY_RECEIVERS
    return False


def _name_literals(arg: Optional[ast.AST]) -> Tuple[str, ...]:
    """Literal name candidates of a telemetry name argument."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return (arg.value,)
    if isinstance(arg, ast.IfExp):
        branches = []
        for branch in (arg.body, arg.orelse):
            if isinstance(branch, ast.Constant) and isinstance(
                branch.value, str
            ):
                branches.append(branch.value)
            else:
                return ()
        return tuple(branches)
    return ()


class _ModuleIndexer(ast.NodeVisitor):
    """One pass over a module: symbols, imports, telemetry calls."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module or ""
        self.is_package = ctx.path.name == "__init__.py"
        self.info = ModuleInfo(
            module=self.module,
            relative=ctx.relative.as_posix(),
            imports={},
            classes={},
            functions={},
            constants={},
        )
        self.calls: List[TelemetryCall] = []
        self._scope: List[str] = []

    # -- imports ----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.imports.setdefault(local, target)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = resolve_relative(
            self.module, self.is_package, node.level, node.module
        )
        if base is not None:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.info.imports.setdefault(local, f"{base}.{alias.name}")
        self.generic_visit(node)

    # -- top-level symbols ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._scope:
            bases = tuple(
                name for name in (_dotted(b) for b in node.bases) if name
            )
            self.info.classes[node.name] = ClassInfo(
                name=node.name,
                module=self.module,
                lineno=node.lineno,
                bases=bases,
            )
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _visit_func(self, node) -> None:
        if not self._scope:
            self.info.functions.setdefault(node.name, node.lineno)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def _record_constant(self, target: ast.AST, value_node: ast.AST) -> None:
        if not isinstance(target, ast.Name):
            return
        try:
            value = ast.literal_eval(value_node)
        except (ValueError, SyntaxError, TypeError):
            return
        if value is not None:
            self.info.constants.setdefault(target.id, value)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._scope and len(node.targets) == 1:
            self._record_constant(node.targets[0], node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._scope and node.value is not None:
            self._record_constant(node.target, node.value)
        self.generic_visit(node)

    # -- telemetry call sites ---------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in TELEMETRY_APIS
            and _is_telemetry_receiver(func.value)
        ):
            arg: Optional[ast.AST] = node.args[0] if node.args else None
            if func.attr == "event":
                for kw in node.keywords:
                    if kw.arg == "kind":
                        arg = kw.value
            self.calls.append(
                TelemetryCall(
                    module=self.module,
                    path=self.ctx.relative.as_posix(),
                    lineno=node.lineno,
                    api=func.attr,
                    names=_name_literals(arg),
                    function=".".join(self._scope) or "<module>",
                    expr=ast.unparse(arg) if arg is not None else "<none>",
                )
            )
        self.generic_visit(node)


class ProjectIndex:
    """The shared phase-1 index consumed by every :class:`IndexRule`."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.telemetry_calls: List[TelemetryCall] = []

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectIndex":
        index = cls()
        for ctx in sorted(contexts, key=lambda c: c.relative.as_posix()):
            if not ctx.module:
                continue
            indexer = _ModuleIndexer(ctx)
            indexer.visit(ctx.tree)
            index.modules[ctx.module] = indexer.info
            index.telemetry_calls.extend(indexer.calls)
        index.telemetry_calls.sort(key=lambda c: (c.path, c.lineno, c.api))
        return index

    # -- symbol resolution ------------------------------------------

    def resolve_symbol(self, module: str, dotted: str) -> Optional[str]:
        """Absolute dotted name a local reference points at.

        ``resolve_symbol("repro.store.facts", "PersistError")`` follows
        the module's import table (and up to 8 re-export hops) to
        ``repro.persist.PersistError``. Locally-defined symbols resolve
        to ``<module>.<name>``; unresolvable references return None.
        """
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if not rest and (
            head in info.classes
            or head in info.functions
            or head in info.constants
        ):
            return f"{module}.{head}"
        if head not in info.imports:
            return None
        target = info.imports[head]
        if rest:
            target = f"{target}.{rest}"
        # Follow re-export chains: `from .persist import PersistError`
        # re-exported through a package __init__ and imported from there.
        for _ in range(8):
            owner, _, symbol = target.rpartition(".")
            owner_info = self.modules.get(owner)
            if owner_info is None or not symbol:
                break
            if (
                symbol in owner_info.classes
                or symbol in owner_info.functions
                or symbol in owner_info.constants
            ):
                return target
            if symbol in owner_info.imports:
                target = owner_info.imports[symbol]
                continue
            break
        return target

    # -- determinism ------------------------------------------------

    def to_dict(self) -> Dict:
        """Deterministic JSON-able snapshot (index stability tests)."""
        return {
            "modules": {
                name: {
                    "relative": info.relative,
                    "imports": dict(sorted(info.imports.items())),
                    "functions": dict(sorted(info.functions.items())),
                    "constants": {
                        k: repr(v)
                        for k, v in sorted(info.constants.items())
                    },
                    "classes": {
                        cname: {
                            "lineno": c.lineno,
                            "bases": list(c.bases),
                        }
                        for cname, c in sorted(info.classes.items())
                    },
                }
                for name, info in sorted(self.modules.items())
            },
            "telemetry_calls": [
                {
                    "module": c.module,
                    "path": c.path,
                    "lineno": c.lineno,
                    "api": c.api,
                    "names": list(c.names),
                    "function": c.function,
                    "expr": c.expr,
                }
                for c in self.telemetry_calls
            ],
        }
