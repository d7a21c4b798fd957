"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, with all
output checks on, and asserts that each run succeeds and emits exactly
the metrics BENCHMARK.json declares, each with its declared unit. Also
asserts that a directory holding only BENCHMARK.json and perfbench/
(no program to measure) makes run.py exit non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180,
    )


def _check_metrics(result: dict, declared: list, label: str) -> None:
    assert result["correct"] is True, f"{label}: checks failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics/units differ: {set(got.items()) ^ set(want.items())}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{label}: exit code {proc.returncode}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            _check_metrics(result, spec[kind], label)
            print(f"ok  {label}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0, "run.py succeeded with no program to measure"
        assert not proc.stdout.strip(), "run.py printed a result with no program to measure"
        print("ok  no program -> non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
