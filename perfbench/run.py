"""Benchmark entry point.

    python3 perfbench/run.py --workload campaign_clean --seed 7 \
        --seconds 15 --trace 0

``--workload all`` runs every workload in turn and exits non-zero if
any run does.

Runs from the root of a checkout. Each run starts fresh interpreters:
``SETUP_SAMPLES - 1`` that only set up, then one that sets up and runs
the workload (``worker.py``). ``setup_s`` is the median of the samples.
With ``--trace 0`` the result carries every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` every per-layer metric.

Prints each metric with its unit, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits non-zero, printing no result, when the checkout has no program to
measure, a process fails, or an emitted metric set does not match
BENCHMARK.json; exits 1 after printing ``"correct": false`` when an
output check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The run could not produce a result."""


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="'tiny' shrinks every input (the self-test uses it)",
    )
    return parser.parse_args(argv)


def _child(args, deadline, *extra):
    """Run worker.py once; return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    units = _declared("per_layer" if args.trace else "end_to_end")
    deadline = time.monotonic() + DEADLINE_S
    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(_child(args, deadline, "--setup-only"))
    report = _child(args, deadline)
    samples.append(report)
    metrics = report["metrics"]
    if report["correct"]:
        if not args.trace:
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
        if set(metrics) != set(units):
            raise BenchError(
                f"metrics emitted {sorted(set(metrics) ^ set(units))} do not "
                "match BENCHMARK.json"
            )
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} size={args.size} "
        f"passes={report['passes']} requests/pass={report['samples']['requests_per_pass']} "
        f"claims={report['samples']['claims']} digest={report['digest'][:16]} "
        f"({'recorded' if report['digest_recorded'] else 'seed not recorded'})"
    )
    print(
        f"  measured seconds: wall {report['raw_wall_s']:.6g}, set-up "
        f"{statistics.median(s['raw_setup_s'] for s in samples):.6g}; "
        f"pass scale {report['scale']:.6g} reference s per measured s"
    )
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if report["correct"] else 1


def main(argv=None) -> int:
    args = _args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        args.workload = name
        try:
            status = max(status, run(args))
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
