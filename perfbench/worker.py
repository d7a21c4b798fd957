"""One benchmark process: set up one workload, run it, check it, report.

Started by ``run.py`` in a fresh interpreter per workload, so set-up
time includes the imports and peak RSS belongs to that workload alone.
Prints one JSON object as its last line of standard output.

Durations are reported in reference seconds (see ``speed.py``): a speed
probe runs from the start of set-up to the end. ``--setup-only`` stops
after set-up (run.py takes several set-up samples per run). ``--trace 1``
runs an untraced pass, a traced pass (per-layer
wrappers plus a telemetry sink, removed afterwards) and another untraced
pass; the wrappers are never installed in a ``--trace 0`` process.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import clock, percentile  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SPANS_DIR = HERE / "out" / "spans"


def _args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _setup(args):
    workload = workloads.make(args.workload, args.seed, args.size)
    t0 = clock()
    for module in workload.IMPORTS:
        importlib.import_module(module)
    timings = {"import.s": clock() - t0}
    timings.update(workload.setup())
    # CLOCK_MONOTONIC is system-wide on Linux, so this is comparable
    # with the parent's stamp and includes interpreter start-up.
    setup_s = time.monotonic() - args.spawned_at
    return workload, timings, setup_s


def _timed_pass(workload, probe, telemetry=None):
    begin = clock()
    result = workload.run_pass(telemetry=telemetry)
    result.scale = probe.scale(begin, clock())
    return result


def _run_passes(workload, probe, seconds):
    """Repeat passes while another one is expected to fit in ``seconds``."""
    passes = []
    begin = clock()
    while True:
        passes.append(_timed_pass(workload, probe))
        elapsed = clock() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def _check(args, workload, passes):
    """Output checks; each returned string is one failed check."""
    failures = [f for p in passes for f in p.failures]
    failures += workload.final_checks(passes)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        failures.append(f"passes disagree: {len(digests)} distinct output digests")
    expected = json.loads(EXPECTED_PATH.read_text())
    recorded = expected.get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    if recorded is not None and recorded not in digests:
        failures.append(
            f"output digest {sorted(digests)[0]} != recorded {recorded} "
            f"for seed {args.seed}"
        )
    return failures, recorded is not None


def _e2e_metrics(passes):
    """Every end-to-end metric but ``setup_s`` (run.py adds it)."""
    med = statistics.median
    claims = passes[0].claims
    return {
        "wall_s": med([p.wall_s * p.scale for p in passes]),
        "units_per_s": med([p.units / (p.exec_s * p.scale) for p in passes]),
        "requests_per_s": med([len(p.latencies_s) / (p.wall_s * p.scale) for p in passes]),
        "request_ms_p50": med([percentile(p.latencies_s, 50) * p.scale for p in passes]) * 1000.0,
        "request_ms_p99": med([percentile(p.latencies_s, 99) * p.scale for p in passes]) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "localization_accuracy": passes[0].claims_correct / claims if claims else 0.0,
    }


def _traced_pass(args, workload, probe, timings):
    from repro.telemetry import Telemetry

    import tracing

    tracer = tracing.install(tracing.Tracer())
    telemetry = Telemetry()
    try:
        traced = _timed_pass(workload, probe, telemetry)
    finally:
        tracer.uninstall()
    if args.workload == "serve_burst":
        for index, latency in enumerate(traced.latencies_s):
            tracer.span(
                "service.request",
                traced.started_at,
                traced.started_at + latency,
                f"request-{index}",
            )
    tracer.write_spans(SPANS_DIR / f"{args.workload}-{args.size}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(
        tracer, dict(telemetry.counters), timings, traced
    )
    return traced, metrics


def main(argv=None) -> int:
    args = _args(argv)
    probe = SpeedProbe().start()
    begin = clock()
    workload, timings, raw_setup_s = _setup(args)
    setup_scale = probe.scale(begin, clock())
    setup_s = raw_setup_s * setup_scale
    timings = {name: value * setup_scale for name, value in timings.items()}
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    if args.trace:
        # Untraced passes on both sides of the traced one, so warm-up
        # and any remaining drift cancel in trace.overhead.
        before = _timed_pass(workload, probe)
        traced, metrics = _traced_pass(args, workload, probe, timings)
        after = _timed_pass(workload, probe)
        metrics["trace.overhead"] = (
            2 * traced.wall_s * traced.scale
            / (before.wall_s * before.scale + after.wall_s * after.scale)
        )
        passes = [before, traced, after]
    else:
        passes = _run_passes(workload, probe, args.seconds)
        metrics = _e2e_metrics(passes)
    failures, recorded = _check(args, workload, passes)
    probe.stop()
    attempted = sum(len(p.latencies_s) for p in passes)
    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "metrics": {} if failures else metrics,
        "setup_s": setup_s,
        # Measured seconds and the median pass scale, for the record.
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "scale": statistics.median(p.scale for p in passes),
        "passes": len(passes),
        "samples": {
            "requests_per_pass": len(passes[0].latencies_s),
            "claims": passes[0].claims,
        },
        "digest": passes[0].digest,
        "digest_recorded": recorded,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
