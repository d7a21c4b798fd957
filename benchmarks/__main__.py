"""Perf regression gate: ``python -m benchmarks`` (or ``make bench``).

Measures current probe throughput and serial-vs-parallel campaign
timings, verifies the parallel run is bit-identical to the serial run,
writes the numbers to ``benchmarks/output/BENCH_campaign.json``, and
exits non-zero when probe throughput regressed more than 20% against
the committed ``benchmarks/BENCH_campaign.json`` baseline.

``--update`` rewrites the committed baseline with the fresh numbers
(do this deliberately, on a quiet machine).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "BENCH_campaign.json"
OUTPUT_PATH = Path(__file__).parent / "output" / "BENCH_campaign.json"
REGRESSION_TOLERANCE = 0.20  # fail when >20% slower than baseline


def measure_probe_throughput(probes: int = 3000, telemetry: bool = False) -> float:
    """Probes per second on the canonical 8-hop perf topology.

    Each connection's sends go through the batched packet plane
    (``sim.batch_engine()``) exactly as CenTrace and CenFuzz do.
    ``telemetry=True`` installs an active telemetry sink on the
    simulator, measuring the overhead of the instrumented path relative
    to the NullTelemetry hot path.
    """
    from repro.netmodel.http import HTTPRequest
    from repro.netsim.tcpstack import open_connection

    from benchmarks.test_perf import _world

    sim, client, endpoint = _world(with_device=False)
    if telemetry:
        from repro.telemetry import Telemetry

        sim.set_telemetry(Telemetry())
    engine = sim.batch_engine()
    payload = HTTPRequest.normal("ok.example").build()

    def probe() -> None:
        conn = open_connection(sim, client, endpoint.ip, 80, engine=engine)
        conn.send_payload(payload, ttl=4)
        conn.close()

    for _ in range(200):  # warm caches/allocator before timing
        probe()
    start = time.perf_counter()  # lint: ignore[RP101] -- benchmark harness measures wall time by design
    for _ in range(probes):
        probe()
    elapsed = time.perf_counter() - start  # lint: ignore[RP101] -- benchmark harness measures wall time by design
    return probes / elapsed


def measure_ladder_throughput(probes: int = 6000) -> float:
    """Probes per second for UDP TTL ladders submitted through
    ``BatchEngine.run_udp_ladder`` against a resolver endpoint (one
    batch frame per ladder, each probe a ``send()``).
    """
    from benchmarks.test_perf import _dns_world

    sim, client, endpoint = _dns_world()
    engine = sim.batch_engine()
    ttls = list(range(1, 13))

    def ladder() -> None:
        engine.run_udp_ladder(
            client.ip, endpoint.ip, 53, ttls, lambda sport: b"\x12\x34q"
        )

    for _ in range(20):
        ladder()
    rounds = max(1, probes // len(ttls))
    start = time.perf_counter()  # lint: ignore[RP101] -- benchmark harness measures wall time by design
    for _ in range(rounds):
        ladder()
    elapsed = time.perf_counter() - start  # lint: ignore[RP101] -- benchmark harness measures wall time by design
    return rounds * len(ttls) / elapsed


def measure_campaign(scale: float, repetitions: int) -> dict:
    """Serial vs 4-worker campaign timing, with a bit-identity check."""
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.geo.countries import build_world
    from repro.persist import save_campaign

    import tempfile

    config = CampaignConfig(repetitions=repetitions)

    def timed(workers):
        world = build_world("RU", seed=7, scale=scale)
        start = time.perf_counter()  # lint: ignore[RP101] -- benchmark harness measures wall time by design
        campaign = run_campaign(world, config, workers=workers)
        elapsed = time.perf_counter() - start  # lint: ignore[RP101] -- benchmark harness measures wall time by design
        with tempfile.TemporaryDirectory() as tmp:
            save_campaign(campaign, tmp)
            digest = hashlib.sha256()
            for path in sorted(Path(tmp).iterdir()):
                data = path.read_bytes()
                if path.name == "meta.json":
                    # meta v3's environment section records execution
                    # shape (worker count), not measurement content —
                    # excluded from the identity check.
                    meta = json.loads(data)
                    meta.pop("environment", None)
                    data = json.dumps(meta, sort_keys=True).encode()
                digest.update(path.name.encode())
                digest.update(data)
        return elapsed, digest.hexdigest(), campaign

    serial_s, serial_digest, campaign = timed(None)
    parallel_s, parallel_digest, _ = timed(4)
    if serial_digest != parallel_digest:
        raise SystemExit(
            "FATAL: parallel campaign output differs from serial output"
        )
    cpus = os.cpu_count() or 1
    result = {
        "country": "RU",
        "scale": scale,
        "repetitions": repetitions,
        "trace_measurements": len(campaign.all_trace_results()),
        "fuzz_reports": len(campaign.fuzz_reports),
        "serial_s": round(serial_s, 3),
        "workers_4_s": round(parallel_s, 3),
        # The machine the numbers were taken on: a 4-worker "speedup"
        # is only meaningful with >= 4 cores to spread over.
        "cpus": cpus,
    }
    if cpus >= 4:
        result["speedup_x4"] = round(serial_s / parallel_s, 3)
    else:
        # On a 1-core box 4 workers only add IPC overhead; recording a
        # sub-1.0 "speedup" as if it measured scaling is misleading.
        result["speedup_x4"] = None
        result["speedup_note"] = (
            f"not comparable: only {cpus} cpu(s); "
            "4-worker run kept for the bit-identity check only"
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks")
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed BENCH_campaign.json baseline",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.3")),
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=int(os.environ.get("REPRO_BENCH_REPETITIONS", "2")),
    )
    args = parser.parse_args(argv)

    probes_per_s = measure_probe_throughput()
    print(f"probe throughput (batched): {probes_per_s:,.0f} probes/s")
    metered_per_s = measure_probe_throughput(telemetry=True)
    print(
        f"probe throughput (telemetry on): {metered_per_s:,.0f} probes/s "
        f"({probes_per_s / metered_per_s:.2f}x overhead factor)"
    )
    ladder_per_s = measure_ladder_throughput()
    print(f"udp ladder throughput: {ladder_per_s:,.0f} probes/s")
    campaign = measure_campaign(args.scale, args.repetitions)
    if campaign["speedup_x4"] is not None:
        parallel_note = f"({campaign['speedup_x4']}x)"
    else:
        parallel_note = "(speedup n/a on this machine)"
    print(
        f"campaign (RU, scale={campaign['scale']}): "
        f"serial {campaign['serial_s']}s, 4 workers "
        f"{campaign['workers_4_s']}s {parallel_note}, "
        "outputs bit-identical"
    )

    current = {
        # The gated headline: the workload CenTrace/CenFuzz actually
        # run (fresh connection + TTL-limited payload + close) through
        # the batched packet plane.
        "probe_throughput_per_s": round(probes_per_s, 1),
        # Informational (not gated): the instrumented (telemetry-on)
        # path and the UDP ladder.
        "probe_throughput_telemetry_per_s": round(metered_per_s, 1),
        "udp_ladder_throughput_per_s": round(ladder_per_s, 1),
        "campaign": campaign,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
    }
    OUTPUT_PATH.parent.mkdir(exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUTPUT_PATH}")

    if args.update:
        BASELINE_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"updated baseline {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update to create")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    base_rate = baseline["probe_throughput_per_s"]
    delta = (probes_per_s - base_rate) / base_rate
    print(
        f"delta vs committed baseline: {delta:+.1%} "
        f"({probes_per_s:,.0f}/s vs {base_rate:,.0f}/s)"
    )
    floor = base_rate * (1 - REGRESSION_TOLERANCE)
    if probes_per_s < floor:
        print(
            f"FAIL: probe throughput {probes_per_s:,.0f}/s is >"
            f"{REGRESSION_TOLERANCE:.0%} below baseline "
            f"{base_rate:,.0f}/s"
        )
        return 1
    print(f"OK: within {REGRESSION_TOLERANCE:.0%} of baseline {base_rate:,.0f}/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
