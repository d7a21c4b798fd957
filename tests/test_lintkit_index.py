"""Phase 1 of the two-phase analyzer: the ProjectIndex (symbol
resolution across relative imports and re-exports, telemetry call-site
collection, build determinism) — plus the walker's unparseable-file
diagnostics and the --baseline diff contract the CI job relies on.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.lintkit.__main__ import main as lintkit_main  # noqa: E402
from tools.lintkit.index import ProjectIndex, resolve_relative  # noqa: E402
from tools.lintkit.walker import walk_paths  # noqa: E402

from tests.test_lintkit import write_module  # noqa: E402


def build_index(root: Path) -> ProjectIndex:
    contexts, errors = walk_paths([root], root=root)
    assert errors == []
    return ProjectIndex.build(contexts)


# ---------------------------------------------------------------------------
# symbol resolution


class TestSymbolResolution:
    def test_local_symbol(self, tmp_path):
        write_module(tmp_path, "repro.persist", "class PersistError(Exception):\n    pass\n")
        index = build_index(tmp_path)
        assert (
            index.resolve_symbol("repro.persist", "PersistError")
            == "repro.persist.PersistError"
        )

    def test_relative_import_resolved(self, tmp_path):
        # `from ..persist import PersistError` inside repro.store.facts
        # resolves against the importer's own dotted name.
        write_module(tmp_path, "repro.persist", "class PersistError(Exception):\n    pass\n")
        write_module(
            tmp_path,
            "repro.store.facts",
            "from ..persist import PersistError\n",
        )
        index = build_index(tmp_path)
        assert (
            index.resolve_symbol("repro.store.facts", "PersistError")
            == "repro.persist.PersistError"
        )

    def test_aliased_import_resolved(self, tmp_path):
        write_module(tmp_path, "repro.persist", "class PersistError(Exception):\n    pass\n")
        write_module(
            tmp_path,
            "repro.mod",
            "from repro.persist import PersistError as PErr\n",
        )
        index = build_index(tmp_path)
        assert (
            index.resolve_symbol("repro.mod", "PErr")
            == "repro.persist.PersistError"
        )

    def test_reexport_hop_followed(self, tmp_path):
        # persist defines it, the package __init__ re-exports it, and a
        # consumer imports it from the package — three modules, one
        # canonical name.
        write_module(tmp_path, "repro.persist", "class PersistError(Exception):\n    pass\n")
        (tmp_path / "repro" / "__init__.py").write_text(
            "from .persist import PersistError\n"
        )
        write_module(
            tmp_path, "repro.mod", "from repro import PersistError\n"
        )
        index = build_index(tmp_path)
        assert (
            index.resolve_symbol("repro.mod", "PersistError")
            == "repro.persist.PersistError"
        )

    def test_unknown_symbol_is_none(self, tmp_path):
        write_module(tmp_path, "repro.mod", "X = 1\n")
        index = build_index(tmp_path)
        assert index.resolve_symbol("repro.mod", "Nope") is None

    def test_resolve_relative(self):
        assert (
            resolve_relative("repro.store.facts", False, 2, "persist")
            == "repro.persist"
        )
        assert resolve_relative("repro.store", True, 1, "facts") == (
            "repro.store.facts"
        )
        assert resolve_relative("repro.mod", False, 0, "os.path") == "os.path"
        # Relative level reaching above the package root is unresolvable.
        assert resolve_relative("repro", False, 3, "x") is None


# ---------------------------------------------------------------------------
# telemetry call-site collection


class TestTelemetryCollection:
    def test_literal_and_computed_names(self, tmp_path):
        write_module(
            tmp_path,
            "repro.mod",
            "def run(tel, n):\n"
            "    tel.count('sim.packets', n)\n"
            "    tel.count(f'faults.{n}')\n"
            "    tel.event(kind='stage', label='x')\n"
            "    tel.span('campaign')\n",
        )
        index = build_index(tmp_path)
        by_api = {(c.api, c.names) for c in index.telemetry_calls}
        assert ("count", ("sim.packets",)) in by_api
        assert ("count", ()) in by_api  # computed name -> no literals
        assert ("event", ("stage",)) in by_api  # kind= keyword
        assert ("span", ("campaign",)) in by_api

    def test_conditional_literal_yields_both_branches(self, tmp_path):
        write_module(
            tmp_path,
            "repro.mod",
            "def run(self, fast):\n"
            "    self.telemetry.count('a.fast' if fast else 'a.slow')\n",
        )
        index = build_index(tmp_path)
        (call,) = index.telemetry_calls
        assert call.names == ("a.fast", "a.slow")
        assert call.function == "run"

    def test_non_telemetry_receiver_ignored(self, tmp_path):
        write_module(
            tmp_path,
            "repro.mod",
            "def run(counter):\n    counter.count('x')\n",
        )
        index = build_index(tmp_path)
        assert index.telemetry_calls == []


# ---------------------------------------------------------------------------
# determinism


class TestIndexStability:
    def test_two_builds_identical(self, tmp_path):
        write_module(
            tmp_path,
            "repro.b",
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class B:\n"
            "    x: int\n"
            "def emit(tel):\n    tel.count('b.x')\n",
        )
        write_module(tmp_path, "repro.a", "from repro.b import B\nK = {'k': 1}\n")
        contexts, _ = walk_paths([tmp_path], root=tmp_path)
        first = ProjectIndex.build(contexts).to_dict()
        second = ProjectIndex.build(list(reversed(contexts))).to_dict()
        assert first == second
        # And the snapshot JSON-serializes deterministically.
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


# ---------------------------------------------------------------------------
# unparseable files (satellite: the walker never tracebacks)


class TestWalkerRobustness:
    def test_syntax_error_file_diagnosed(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def broken(:\n    pass\n")
        assert lintkit_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP000" in out and "syntax error" in out
        assert "bad.py:1" in out

    def test_non_utf8_file_diagnosed(self, tmp_path, capsys):
        (tmp_path / "latin.py").write_bytes(b"# caf\xe9\nX = 1\n")
        assert lintkit_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP000" in out and "UTF-8" in out

    def test_nul_bytes_diagnosed(self, tmp_path, capsys):
        (tmp_path / "nul.py").write_bytes(b"X = 1\x00\n")
        assert lintkit_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        # ast.parse reports NUL bytes as SyntaxError on 3.11+ and as a
        # bare ValueError on older interpreters; both route to RP000.
        assert "RP000" in out
        assert "null bytes" in out or "cannot parse" in out

    def test_good_files_still_linted_alongside_bad(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        write_module(
            tmp_path, "repro.mod", "import time\nx = time.time()\n"
        )
        assert lintkit_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP000" in out and "RP101" in out


# ---------------------------------------------------------------------------
# --baseline diff (the CI ratchet)


class TestBaselineDiff:
    def _baseline_for(self, tmp_path, capsys, source):
        write_module(tmp_path, "repro.mod", source)
        lintkit_main([str(tmp_path), "--json"])
        payload = capsys.readouterr().out
        baseline = tmp_path / "baseline.json"
        baseline.write_text(payload)
        return baseline

    def test_no_delta_exits_zero(self, tmp_path, capsys):
        baseline = self._baseline_for(
            tmp_path, capsys, "import time\nx = time.time()\n"
        )
        assert lintkit_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "no delta" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        baseline = self._baseline_for(tmp_path, capsys, "X = 1\n")
        write_module(
            tmp_path, "repro.mod", "import time\nx = time.time()\n"
        )
        assert lintkit_main([str(tmp_path), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "NEW" in out and "RP101" in out

    def test_fixed_finding_exits_zero_with_reminder(self, tmp_path, capsys):
        baseline = self._baseline_for(
            tmp_path, capsys, "import time\nx = time.time()\n"
        )
        write_module(tmp_path, "repro.mod", "X = 1\n")
        assert lintkit_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "FIXED" in out

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        write_module(tmp_path, "repro.mod", "X = 1\n")
        missing = tmp_path / "nope.json"
        assert lintkit_main([str(tmp_path), "--baseline", str(missing)]) == 2

    def test_committed_baseline_matches_tree(self):
        # The ratchet CI runs: src vs tools/lintkit/baseline.json.
        baseline = REPO_ROOT / "tools" / "lintkit" / "baseline.json"
        assert baseline.exists(), "commit tools/lintkit/baseline.json"
        assert (
            lintkit_main(
                [str(REPO_ROOT / "src"), "--baseline", str(baseline)]
            )
            == 0
        )
