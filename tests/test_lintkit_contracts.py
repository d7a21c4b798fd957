"""Phase-2 cross-module rule families: async safety in the campaign
service (RP801-RP802), the typed-error contract (RP901-RP902), and
stale-pragma detection (RP001). Each rule has a violating fixture and
the real tree holds a per-family clean gate.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools import lintkit  # noqa: E402

from tests.test_lintkit import lint_module, rule_ids, write_module  # noqa: E402


# ---------------------------------------------------------------------------
# RP801-RP802 async safety


class TestAsyncSafety:
    def test_time_sleep_in_coroutine_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "import time\n"
            "async def run():\n"
            "    time.sleep(1)\n",
            select=["RP801"],
        )
        assert rule_ids(found) == ["RP801"]
        assert "asyncio.sleep" in found[0].message

    def test_sync_file_io_in_coroutine_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "async def run(path):\n"
            "    return path.read_text()\n",
            select=["RP801"],
        )
        assert rule_ids(found) == ["RP801"]

    def test_direct_executor_call_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "async def run(executor, unit):\n"
            "    return executor.run_unit(unit)\n",
            select=["RP801"],
        )
        assert rule_ids(found) == ["RP801"]
        assert "run_in_executor" in found[0].message

    def test_asyncio_sleep_and_sync_helper_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "import asyncio, time\n"
            "async def run():\n"
            "    await asyncio.sleep(0)\n"
            "def sync_helper():\n"
            "    time.sleep(0)\n",  # plain def: sanctioned blocking section
            select=["RP801"],
        )
        assert found == []

    def test_non_service_module_out_of_scope(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "import time\nasync def run():\n    time.sleep(1)\n",
            select=["RP801"],
        )
        assert found == []

    def test_check_then_act_across_await_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "class S:\n"
            "    async def submit(self, coro):\n"
            "        if self._state is None:\n"
            "            await coro\n"
            "            self._state = 1\n",
            select=["RP802"],
        )
        assert rule_ids(found) == ["RP802"]
        assert "check-then-act" in found[0].message

    def test_snapshot_local_guard_flagged(self, tmp_path):
        # The PR 7 admission-race shape: guard on a local snapshot of
        # self._states, mutate the dict after awaiting.
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "class S:\n"
            "    async def submit(self, key, coro):\n"
            "        state = self._states.get(key)\n"
            "        if state is None:\n"
            "            await coro\n"
            "            self._states[key] = 1\n",
            select=["RP802"],
        )
        assert rule_ids(found) == ["RP802"]

    def test_reread_after_await_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "class S:\n"
            "    async def submit(self, coro):\n"
            "        if self._state is None:\n"
            "            await coro\n"
            "            if self._state is None:\n"
            "                self._state = 1\n",
            select=["RP802"],
        )
        assert found == []

    def test_clear_before_await_clean(self, tmp_path):
        # The stop() idiom: snapshot, clear the shared slot, then await
        # the snapshot — no stale write after the await.
        found = lint_module(
            tmp_path,
            "repro.service.mod",
            "class S:\n"
            "    async def stop(self):\n"
            "        task = self._task\n"
            "        self._task = None\n"
            "        if task is not None:\n"
            "            await task\n",
            select=["RP802"],
        )
        assert found == []

    def test_real_tree_clean(self):
        violations, _ = lintkit.lint(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            select=["RP801", "RP802"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RP901-RP902 typed-error contract


class TestErrorContract:
    def test_raw_valueerror_in_persist_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.persist",
            "def load(data):\n"
            "    raise ValueError('bad payload')\n",
            select=["RP901"],
        )
        assert rule_ids(found) == ["RP901"]
        assert "ValueError" in found[0].message

    def test_typed_error_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.persist",
            "class PersistError(ValueError):\n"
            "    pass\n"
            "def load(data):\n"
            "    raise PersistError('bad payload')\n",
            select=["RP901"],
        )
        assert found == []

    def test_imported_typed_error_resolved(self, tmp_path):
        write_module(
            tmp_path,
            "repro.persist",
            "class PersistError(ValueError):\n    pass\n",
        )
        found = lint_module(
            tmp_path,
            "repro.store.facts",
            "from ..persist import PersistError\n"
            "def load(data):\n"
            "    raise PersistError('bad payload')\n",
            select=["RP901"],
        )
        assert found == []

    def test_impostor_error_class_flagged(self, tmp_path):
        # A same-named class from an unrelated module does not satisfy
        # the contract: the CLI handler catches the canonical one.
        write_module(
            tmp_path,
            "repro.other",
            "class PersistError(ValueError):\n    pass\n",
        )
        found = lint_module(
            tmp_path,
            "repro.store.facts",
            "from repro.other import PersistError\n"
            "def load(data):\n"
            "    raise PersistError('bad payload')\n",
            select=["RP901"],
        )
        assert rule_ids(found) == ["RP901"]

    def test_pragma_waives_programmer_contract_raise(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.persist",
            "def dispatch(kind):\n"
            "    raise TypeError(  # lint: ignore[RP901] -- unreachable\n"
            "        kind\n"
            "    )\n",
            select=["RP901"],
        )
        assert found == []

    def test_out_of_scope_module_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.core.mod",
            "def f():\n    raise ValueError('fine here')\n",
            select=["RP901"],
        )
        assert found == []

    def test_missing_handler_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.cli",
            "def main(argv=None):\n"
            "    try:\n"
            "        return 0\n"
            "    except PersistError:\n"
            "        return 2\n",
            select=["RP902"],
        )
        assert rule_ids(found) == ["RP902"]
        assert "DriftError" in found[0].message

    def test_handler_without_exit_two_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.cli",
            "def main(argv=None):\n"
            "    try:\n"
            "        return 0\n"
            "    except (PersistError, DriftError):\n"
            "        return 1\n",
            select=["RP902"],
        )
        assert rule_ids(found) == ["RP902", "RP902"]
        assert all("exit 2" in v.message for v in found)

    def test_tuple_handler_with_exit_two_clean(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.cli",
            "import sys\n"
            "def main(argv=None):\n"
            "    try:\n"
            "        return 0\n"
            "    except (PersistError, DriftError) as exc:\n"
            "        print(exc, file=sys.stderr)\n"
            "        return 2\n",
            select=["RP902"],
        )
        assert found == []

    def test_real_tree_clean(self):
        violations, _ = lintkit.lint(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            select=["RP901", "RP902"],
        )
        assert violations == []


# ---------------------------------------------------------------------------
# RP001 stale pragmas


class TestUnusedPragma:
    def test_stale_pragma_is_warning(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "X = 1  # lint: ignore[RP101] -- suppresses nothing\n",
            select=["RP001", "RP101"],
        )
        assert rule_ids(found) == ["RP001"]
        assert found[0].severity == "warning"
        assert "suppresses nothing" in found[0].message

    def test_used_pragma_not_flagged(self, tmp_path):
        found = lint_module(
            tmp_path,
            "repro.mod",
            "import time\n"
            "x = time.time()  # lint: ignore[RP101] -- fixture\n",
            select=["RP001", "RP101"],
        )
        assert found == []

    def test_select_subset_never_convicts_foreign_pragmas(self, tmp_path):
        # RP101 did not run, so its pragma cannot be proven stale.
        found = lint_module(
            tmp_path,
            "repro.mod",
            "X = 1  # lint: ignore[RP101] -- rule not selected\n",
            select=["RP001"],
        )
        assert found == []

    def test_warning_does_not_fail_exit_code(self, tmp_path, capsys):
        from tools.lintkit.__main__ import main as lintkit_main

        write_module(
            tmp_path,
            "repro.mod",
            "X = 1  # lint: ignore[RP101] -- stale\n",
        )
        assert lintkit_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "RP001" in out and "[warning]" in out

    def test_real_tree_has_no_stale_pragmas(self):
        violations, _ = lintkit.lint(
            [REPO_ROOT / "src", REPO_ROOT / "tools", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert [v for v in violations if v.rule_id == "RP001"] == []
