"""The invariant lint framework: every pass catches its fixture
violation, clean code stays clean, pragmas suppress, the JSON reporter
keeps its schema — and the real src/ tree lints clean (the tier-1
wrapper that makes CI fail on new violations without a separate job).
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import lintkit  # noqa: E402
from tools.lintkit.__main__ import main as lintkit_main  # noqa: E402
from tools.lintkit.base import FileContext  # noqa: E402
from tools.lintkit.rules.layering import resolve_relative  # noqa: E402
from tools.lintkit.walker import load_context, module_name  # noqa: E402


def write_module(root: Path, dotted: str, source: str) -> Path:
    """Materialise ``repro.netsim.mod`` as a real package tree."""
    parts = dotted.split(".")
    directory = root
    for part in parts[:-1]:
        directory = directory / part
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("")
    path = directory / f"{parts[-1]}.py"
    path.write_text(source)
    return path


def lint_module(tmp_path, dotted, source, select=None):
    """Lint one synthetic module; returns the violations list."""
    write_module(tmp_path, dotted, source)
    violations, _ = lintkit.lint([tmp_path], root=tmp_path, select=select)
    return violations


def rule_ids(violations):
    return [v.rule_id for v in violations]


# ---------------------------------------------------------------------------
# RP101 wall-clock


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "import time\nx = time.time()\n",
            select=["RP101"],
        )
        assert rule_ids(found) == ["RP101"]
        assert found[0].line == 2

    def test_aliased_module_import_flagged(self, tmp_path):
        # The retired standalone determinism linter matched the literal
        # name `time` and let this walk straight past it.
        found = lint_module(
            tmp_path, "repro.mod", "import time as t\nx = t.time()\n",
            select=["RP101"],
        )
        assert rule_ids(found) == ["RP101"]
        assert "time.time()" in found[0].message

    def test_aliased_datetime_class_flagged(self, tmp_path):
        # The second half of the blind spot: aliasing the class.
        found = lint_module(
            tmp_path,
            "repro.mod",
            "from datetime import datetime as dt\nx = dt.now()\n",
            select=["RP101"],
        )
        assert rule_ids(found) == ["RP101"]

    def test_aliased_datetime_module_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import datetime as d\nx = d.datetime.utcnow()\n",
            select=["RP101"],
        )
        assert rule_ids(found) == ["RP101"]

    def test_direct_from_import_alias_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "from time import perf_counter as pc\nx = pc()\n",
            select=["RP101"],
        )
        assert rule_ids(found) == ["RP101"]

    def test_sleep_and_strings_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import time\ntime.sleep(0)\nx = 'time.time()'\n# time.time()\n",
            select=["RP101"],
        )
        assert found == []

    def test_telemetry_module_exempt(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.telemetry",
            "import time\nwall_now = time.time\nx = time.time()\n",
            select=["RP101"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RP201/RP202/RP203 RNG discipline


class TestRngDiscipline:
    def test_global_draw_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "import random\nx = random.random()\n"
        )
        assert "RP201" in rule_ids(found)

    def test_aliased_global_draw_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "import random as rnd\nx = rnd.choice([1])\n"
        )
        assert "RP201" in rule_ids(found)

    def test_direct_import_draw_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "from random import choice\nx = choice([1])\n"
        )
        assert "RP201" in rule_ids(found)

    def test_unseeded_random_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "import random\nr = random.Random()\n"
        )
        assert "RP202" in rule_ids(found)

    def test_global_seed_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.mod", "import random\nrandom.seed(42)\n"
        )
        assert "RP203" in rule_ids(found)

    def test_seeded_random_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import random\n"
            "r = random.Random(7)\n"
            "r2 = random.Random(r.random())\n"  # drawing from an instance is fine
            "x = r.choice([1, 2])\n",
        )
        assert found == []


# ---------------------------------------------------------------------------
# RP301/RP302 iteration order


class TestIterationOrder:
    def test_set_literal_iteration_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netsim.mod",
            "for x in {3, 1, 2}:\n    print(x)\n",
        )
        assert "RP301" in rule_ids(found)

    def test_set_bound_name_iteration_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "s = {c for c in 'abc'}\nout = [c for c in s]\n",
        )
        assert "RP301" in rule_ids(found)

    def test_sorted_wrapper_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.analysis.mod",
            "s = set('abc')\n"
            "for x in sorted(s):\n    print(x)\n"
            "out = sorted(c for c in s)\n"  # genexp feeding sorted is pinned
            "n = len(s)\n"
            "ok = 'a' in s\n",
        )
        assert found == []

    def test_dictcomp_keys_iteration_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.experiments.mod",
            "d = {k: 1 for k in 'abc'}\nfor k in d.keys():\n    print(k)\n",
        )
        assert "RP302" in rule_ids(found)

    def test_out_of_scope_module_not_flagged(self, tmp_path):
        # geo is not a result-producing module for this pass.
        found = lint_module(
            tmp_path,
            "repro.geo.mod",
            "for x in {3, 1, 2}:\n    print(x)\n",
            select=["RP301", "RP302"],
        )
        assert found == []

    def test_reassignment_clears_tracking(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "s = {1, 2}\ns = [1, 2]\nfor x in s:\n    print(x)\n",
            select=["RP301", "RP302"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RP401/RP402 layering


class TestLayering:
    def test_netsim_importing_core_flagged(self, tmp_path):
        write_module(tmp_path, "repro.core.tool", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.netsim.mod",
            "from repro.core.tool import X\n",
            select=["RP401"],
        )
        assert rule_ids(found) == ["RP401"]
        assert "netsim" in found[0].message

    def test_relative_import_resolved(self, tmp_path):
        # `from ...analysis import x` inside repro.netsim.sub.mod is an
        # netsim -> analysis edge even though the text never says so.
        write_module(tmp_path, "repro.analysis.stats", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.netsim.sub.mod",
            "from ...analysis import stats\n",
            select=["RP401"],
        )
        assert rule_ids(found) == ["RP401"]

    def test_nothing_imports_cli(self, tmp_path):
        write_module(tmp_path, "repro.cli", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.experiments.mod",
            "from repro import cli\n",
            select=["RP401"],
        )
        assert rule_ids(found) == ["RP401"]
        assert "entry point" in found[0].message

    def test_allowed_edge_clean(self, tmp_path):
        write_module(tmp_path, "repro.netmodel.ip", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.netsim.mod",
            "from repro.netmodel.ip import X\n",
            select=["RP401"],
        )
        assert found == []

    def test_cycle_flagged(self, tmp_path):
        write_module(tmp_path, "repro.netsim.a", "from repro.netsim.b import Y\nX = 1\n")
        found = lint_module(
            tmp_path,
            "repro.netsim.b",
            "from repro.netsim.a import X\nY = 1\n",
            select=["RP402"],
        )
        assert rule_ids(found) == ["RP402"]
        assert "repro.netsim.a -> repro.netsim.b" in found[0].message or (
            "repro.netsim.b -> repro.netsim.a" in found[0].message
        )

    def test_function_local_import_breaks_cycle(self, tmp_path):
        # A function-level import is the sanctioned runtime cycle-breaker.
        write_module(
            tmp_path,
            "repro.netsim.a",
            "def f():\n    from repro.netsim.b import Y\n    return Y\nX = 1\n",
        )
        found = lint_module(
            tmp_path,
            "repro.netsim.b",
            "from repro.netsim.a import X\nY = 1\n",
            select=["RP402"],
        )
        assert found == []

    def test_service_only_importable_from_cli(self, tmp_path):
        # The job-queue front end sits above the engine: experiments
        # (or anything else engine-side) importing it inverts the DAG.
        write_module(tmp_path, "repro.service.queue", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.experiments.mod",
            "from repro.service.queue import X\n",
            select=["RP401"],
        )
        assert rule_ids(found) == ["RP401"]
        assert "may only be imported by" in found[0].message

    def test_restricted_importers_bind_wildcard_layers(self, tmp_path):
        # The package root holds a "*" allowance, but RESTRICTED_IMPORTERS
        # is checked regardless of wildcards: only cli may touch service,
        # so the root must not re-export it.
        write_module(tmp_path, "repro.service.queue", "X = 1\n")
        (tmp_path / "repro" / "__init__.py").write_text(
            "from repro.service.queue import X\n"
        )
        violations, _ = lintkit.lint(
            [tmp_path], root=tmp_path, select=["RP401"]
        )
        assert rule_ids(violations) == ["RP401"]

    def test_cli_importing_service_clean(self, tmp_path):
        write_module(tmp_path, "repro.service.queue", "X = 1\n")
        found = lint_module(
            tmp_path,
            "repro.cli",
            "from repro.service.queue import X\n",
            select=["RP401"],
        )
        assert found == []

    def test_service_imports_engine_clean(self, tmp_path):
        # The allowed downward edges: service -> experiments/telemetry.
        write_module(tmp_path, "repro.experiments.executor", "X = 1\n")
        write_module(tmp_path, "repro.telemetry", "T = 1\n")
        found = lint_module(
            tmp_path,
            "repro.service.queue",
            "from repro.experiments.executor import X\n"
            "from repro.telemetry import T\n",
            select=["RP401"],
        )
        assert found == []

    def test_resolve_relative(self):
        assert (
            resolve_relative("repro.core.cenfuzz.dns_fuzz", False, 3, "netmodel.dns")
            == "repro.netmodel.dns"
        )
        assert resolve_relative("repro.netsim", True, 1, "faults") == (
            "repro.netsim.faults"
        )
        assert resolve_relative("repro.mod", False, 0, "os.path") == "os.path"


# ---------------------------------------------------------------------------
# RP501/RP502 shared mutable state


class TestMutableState:
    def test_mutable_class_default_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.devices.mod",
            "class C:\n    shared = []\n",
        )
        assert "RP501" in rule_ids(found)

    def test_field_default_mutable_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netsim.mod",
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = field(default=[])\n",
        )
        assert "RP501" in rule_ids(found)

    def test_default_factory_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netsim.mod",
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = field(default_factory=list)\n"
            "    _TABLE = {1: 'a'}\n",  # constant-cased lookup table
        )
        assert found == []

    def test_module_mutable_global_flagged(self, tmp_path):
        found = lint_module(
            tmp_path, "repro.devices.mod", "_cursor = [0]\n"
        )
        assert "RP502" in rule_ids(found)

    def test_global_rebind_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netmodel.mod",
            "_COUNTER = 0\n"
            "def bump():\n    global _COUNTER\n    _COUNTER += 1\n",
        )
        assert "RP502" in rule_ids(found)

    def test_constant_table_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netmodel.mod",
            "_NAMES = {1: 'a'}\nWORDS = ['x', 'y']\n",
        )
        assert found == []

    def test_cold_module_not_flagged(self, tmp_path):
        # experiments is outside the hot-path scope for RP502.
        found = lint_module(
            tmp_path,
            "repro.experiments.mod",
            "_cache = {}\n",
            select=["RP501", "RP502"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RP503 NetContext-owned allocator modules


class TestNetContextCounters:
    """The guard that keeps module-global counters from creeping back
    into the modules whose allocation state moved onto NetContext."""

    def test_itertools_count_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netmodel.packet",
            "import itertools\n_ip_id_counter = itertools.count(1)\n",
            select=["RP503"],
        )
        assert rule_ids(found) == ["RP503"]
        assert "NetContext" in found[0].message

    def test_cursor_list_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.devices.actions",
            "_dns_fake_cursor = [0]\n",
            select=["RP503"],
        )
        assert rule_ids(found) == ["RP503"]

    def test_global_rebind_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netsim.tcpstack",
            "_port = 0\ndef nxt():\n    global _port\n    _port += 1\n",
            select=["RP503"],
        )
        assert rule_ids(found) == ["RP503"]

    def test_batch_engine_module_in_scope(self, tmp_path):
        # The batched packet plane caches PathPlans per engine instance;
        # a module-level plan cache would be shared across simulators
        # (and across worker replicas), so batch.py joined the guarded
        # set.
        found = lint_module(
            tmp_path,
            "repro.netsim.batch",
            "_plan_cache = {}\n",
            select=["RP503"],
        )
        assert rule_ids(found) == ["RP503"]
        assert "NetContext" in found[0].message

    def test_constant_cased_singleton_clean(self, tmp_path):
        # netctx's own module-level default context is a sanctioned
        # constant-cased singleton.
        found = lint_module(
            tmp_path,
            "repro.netmodel.netctx",
            "class NetContext:\n    pass\n_DEFAULT_CONTEXT = NetContext()\n",
            select=["RP503"],
        )
        assert found == []

    def test_other_modules_out_of_scope(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.netsim.simulator",
            "import itertools\n_counter = itertools.count()\n",
            select=["RP503"],
        )
        assert found == []

    def test_real_allocator_modules_are_clean(self):
        targets = [
            REPO_ROOT / "src" / "repro" / "netmodel" / "netctx.py",
            REPO_ROOT / "src" / "repro" / "netmodel" / "packet.py",
            REPO_ROOT / "src" / "repro" / "netsim" / "batch.py",
            REPO_ROOT / "src" / "repro" / "netsim" / "tcpstack.py",
            REPO_ROOT / "src" / "repro" / "devices" / "actions.py",
        ]
        violations, checked = lintkit.lint(
            targets, root=REPO_ROOT, select=["RP503"]
        )
        assert checked == len(targets)
        assert violations == []


# ---------------------------------------------------------------------------
# pragmas


class TestPragma:
    def test_trailing_pragma_suppresses(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import time\n"
            "x = time.time()  # lint: ignore[RP101] -- test fixture\n",
        )
        assert found == []

    def test_preceding_line_pragma_suppresses(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.devices.mod",
            "# lint: ignore[RP502] -- reset per unit by reset_cursor()\n"
            "_cursor = [0]\n",
        )
        assert found == []

    def test_pragma_is_per_rule(self, tmp_path):
        # Suppressing RP502 must not hide an RP101 on the same line —
        # and the wrong-rule pragma is itself reported stale (RP001).
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import time\n"
            "x = time.time()  # lint: ignore[RP502] -- wrong rule\n",
        )
        assert rule_ids(found) == ["RP001", "RP101"]
        assert found[0].severity == "warning"
        assert found[1].severity == "error"

    def test_multi_rule_pragma(self, tmp_path):
        # RP301 fires and is suppressed; the RP302 arm never fires, so
        # it surfaces as a stale-pragma warning rather than silence.
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "for x in {1, 2}:  # lint: ignore[RP301, RP302] -- fixture\n"
            "    print(x)\n",
        )
        assert rule_ids(found) == ["RP001"]
        assert found[0].severity == "warning"
        assert "RP302" in found[0].message

    def test_fully_used_multi_rule_pragma_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "import time\n"
            "def f():\n"
            "    s = {1, 2}\n"
            "    for x in s:  # lint: ignore[RP301] -- fixture\n"
            "        t = time.time()  # lint: ignore[RP101] -- fixture\n",
        )
        assert found == []


# ---------------------------------------------------------------------------
# framework plumbing


class TestFramework:
    def test_rule_inventory(self):
        ids = {rule.id for rule in lintkit.REGISTRY.select()}
        # 16 passes across 8 invariant families, each family owning its
        # own hundred-block.
        assert ids == {
            "RP001",
            "RP101",
            "RP201",
            "RP202",
            "RP203",
            "RP301",
            "RP302",
            "RP401",
            "RP402",
            "RP501",
            "RP502",
            "RP503",
            "RP801",
            "RP802",
            "RP901",
            "RP902",
        }

    def test_syntax_error_is_violation(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        violations, checked = lintkit.lint([tmp_path], root=tmp_path)
        assert [v.rule_id for v in violations] == ["RP000"]
        assert checked == 1

    def test_module_name_resolution(self, tmp_path):
        path = write_module(tmp_path, "repro.netsim.mod", "X = 1\n")
        assert module_name(path) == "repro.netsim.mod"
        assert module_name(path.parent / "__init__.py") == "repro.netsim"
        loose = tmp_path / "script.py"
        loose.write_text("X = 1\n")
        assert module_name(loose) is None

    def test_unknown_rule_select_raises(self, tmp_path):
        with pytest.raises(KeyError):
            lintkit.lint([tmp_path], select=["RP999"])

    def test_parse_once_shared_tree(self, tmp_path):
        # All passes see the same FileContext (one parse per file).
        path = write_module(tmp_path, "repro.mod", "X = 1\n")
        ctx = load_context(path, root=tmp_path)
        assert isinstance(ctx, FileContext)
        assert ctx.module == "repro.mod"


# ---------------------------------------------------------------------------
# CLI + reporters


class TestCli:
    def test_exit_zero_and_text_on_clean_tree(self, tmp_path, capsys):
        write_module(tmp_path, "repro.mod", "X = 1\n")
        assert lintkit_main([str(tmp_path)]) == 0
        assert "lintkit: OK" in capsys.readouterr().out

    def test_exit_one_on_violation(self, tmp_path, capsys):
        write_module(tmp_path, "repro.mod", "import time\nx = time.time()\n")
        assert lintkit_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RP101" in out and "mod.py:2" in out

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        write_module(tmp_path, "repro.mod", "X = 1\n")
        assert lintkit_main([str(tmp_path), "--select", "RP999"]) == 2

    def test_exit_two_on_missing_path(self, tmp_path):
        assert lintkit_main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert lintkit_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RP101", "RP201", "RP301", "RP401", "RP501"):
            assert rule_id in out

    def test_json_schema(self, tmp_path, capsys):
        write_module(
            tmp_path,
            "repro.mod",
            "import time as t\nx = t.time()\n",
        )
        assert lintkit_main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["checked_files"] >= 1
        assert payload["counts"] == {"RP101": 1}
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        assert set(payload["rules"]) >= {"RP101", "RP201", "RP301"}
        (violation,) = payload["violations"]
        assert violation["rule"] == "RP101"
        assert violation["line"] == 2
        assert violation["severity"] == "error"
        assert violation["path"].endswith("mod.py")
        assert "wall-clock" in violation["message"]

    def test_json_warning_keeps_ok_true(self, tmp_path, capsys):
        # A stale pragma is a warning: reported, counted, but ok stays
        # true and the exit code stays 0.
        write_module(
            tmp_path,
            "repro.mod",
            "X = 1  # lint: ignore[RP101] -- stale\n",
        )
        assert lintkit_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["warnings"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "RP001"
        assert violation["severity"] == "warning"

    def test_json_ok_on_clean(self, tmp_path, capsys):
        write_module(tmp_path, "repro.mod", "X = 1\n")
        assert lintkit_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["violations"] == []

# ---------------------------------------------------------------------------
# the tree itself


class TestTree:
    def test_src_tree_lints_clean(self):
        """Tier-1 gate: new violations in src/ fail the test suite."""
        violations, checked = lintkit.lint(
            [REPO_ROOT / "src"], root=REPO_ROOT
        )
        assert checked > 50
        rendered = "\n".join(v.render() for v in violations)
        assert violations == [], f"lintkit violations:\n{rendered}"

    def test_tooling_trees_lint_clean(self):
        """`make lint` also covers tools/ and benchmarks/."""
        violations, checked = lintkit.lint(
            [REPO_ROOT / "tools", REPO_ROOT / "benchmarks"], root=REPO_ROOT
        )
        assert checked > 10
        rendered = "\n".join(v.render() for v in violations)
        assert violations == [], f"lintkit violations:\n{rendered}"
