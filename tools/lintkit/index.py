"""Phase 1 of the two-phase analyzer: the shared :class:`ProjectIndex`.

``walk_paths`` parses every file once; ``ProjectIndex.build`` then
sweeps the parsed trees once more and materializes the per-module
**symbol tables** the phase-2 cross-module passes need: top-level
classes, functions, and literal constants, plus an import table mapping
every local binding to the absolute dotted name it refers to (relative
imports resolved against the module's own dotted name).

The index is deterministic: two builds over the same tree produce
identical :meth:`ProjectIndex.to_dict` payloads (covered by tests), so
passes may iterate it without sorting defensively.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .base import FileContext


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


class _ModuleIndexer(ast.NodeVisitor):
    """One pass over a module: symbols and imports."""

    def __init__(self, ctx: FileContext) -> None:
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


class ProjectIndex:
    """The shared phase-1 index consumed by every :class:`IndexRule`."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "ProjectIndex":
        index = cls()
        for ctx in sorted(contexts, key=lambda c: c.relative.as_posix()):
            if not ctx.module:
                continue
            indexer = _ModuleIndexer(ctx)
            indexer.visit(ctx.tree)
            index.modules[ctx.module] = indexer.info
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
        }
