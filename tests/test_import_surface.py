"""Import surface: each entry point loads only what it runs.

scipy and networkx cost over a second to import and are used only by
``analysis.stats.spearman_pair`` (§7.4) and ``viz.build_path_graph``
(the figures). A short measurement command, a campaign, the service or
localization must not load them, and ``import repro`` loads no
subpackage at all. Every check runs in a fresh interpreter, because the
test process itself has imported everything long before.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ALL_EXPERIMENTS

SRC = Path(repro.__file__).resolve().parents[1]
PERFBENCH_WORKLOADS = SRC.parent / "perfbench" / "workloads.py"

HEAVY = ("scipy", "networkx")


def _perfbench_import_sets():
    """``{workload: IMPORTS}`` as the benchmark's worker imports them."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", PERFBENCH_WORKLOADS
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while loading.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        return {name: module.make(name, 7).IMPORTS for name in module.WORKLOADS}
    finally:
        del sys.modules[spec.name]


def _cold(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after_import(modules) -> set:
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(_cold(code))


def test_import_repro_loads_no_subpackage():
    loaded = _loaded_after_import(["repro"])
    assert sorted(name for name in loaded if name.startswith("repro.")) == []


ENTRY_SETS = {"repro": ("repro",), "repro.cli": ("repro.cli",)}
ENTRY_SETS.update(
    (f"perfbench:{name}", imports)
    for name, imports in _perfbench_import_sets().items()
)
#: Entry sets that must not load numpy either.
NUMPY_FREE = {"repro", "perfbench:localize_xval"}


@pytest.mark.parametrize("entry", sorted(ENTRY_SETS))
def test_entry_point_loads_no_heavy_dependency(entry):
    loaded = _loaded_after_import(ENTRY_SETS[entry])
    forbidden = set(HEAVY) | ({"numpy"} if entry in NUMPY_FREE else set())
    heavy = forbidden & {name.split(".")[0] for name in loaded}
    assert not heavy, sorted(heavy)
    # No entry point here runs a paper table/figure module.
    figures = {f"repro.experiments.{name}" for name in ALL_EXPERIMENTS}
    assert not figures & loaded, sorted(figures & loaded)


def test_deferred_imports_still_work_from_a_cold_process():
    code = (
        "import json, sys\n"
        "from repro.analysis.stats import spearman_pair\n"
        "from repro import viz\n"
        "before = 'scipy' in sys.modules or 'networkx' in sys.modules\n"
        "r, p = spearman_pair([1, 2, 3, 4], [1, 3, 2, 4])\n"
        "graph = viz.build_path_graph([])\n"
        "print(json.dumps({'before': before, 'r': r,\n"
        "                  'nodes': list(graph.nodes),\n"
        "                  'graph': type(graph).__name__}))\n"
    )
    out = _cold(code)
    assert out["before"] is False
    assert out["r"] == pytest.approx(0.8)
    assert out["nodes"] == ["client"]
    assert out["graph"] == "DiGraph"
