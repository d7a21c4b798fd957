"""Command-line interface: drive the tools the way the released
CenTrace/CenFuzz/CenProbe binaries are driven.

::

    repro worlds                                  # list study worlds
    repro centrace --country KZ --domain www.pokerstars.com
    repro cenfuzz  --country KZ --strategy "Get Word Alt."
    repro cenprobe --country KZ                   # scan device IPs
    repro campaign --country AZ --out data/az    # run + save raw data
    repro epochs --country KZ --drift-plan auto --out data/kz-obs
    repro facts query --store data/kz-obs/facts --subject as:9198 \
        --predicate blocks_with --transitions
    repro experiment table1                       # regenerate a table/figure
    repro report --out EXPERIMENTS.md             # the full document
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core.cenfuzz import CenFuzz
from .core.cenprobe import CenProbe, summarize_reports
from .core.centrace import CenTrace, CenTraceConfig
from .experiments.base import fraction_arg, positive_int_arg, scale_arg
from .geo.countries import COUNTRIES, build_world
from .geo.drift import DriftError
from .netsim.faults import FaultPlan
from .persist import PersistError, save_campaign, save_localization, to_dict
from .service.jobs import ServiceError

_WORLD_CACHE = {}


def _world(
    country: str,
    scale: Optional[float],
    seed: Optional[int],
    fault_plan: Optional[str] = None,
):
    plan = FaultPlan.from_spec(fault_plan) if fault_plan else None
    key = (country.upper(), scale, seed, plan)
    if key not in _WORLD_CACHE:
        _WORLD_CACHE[key] = build_world(
            country, scale=scale, seed=seed, fault_plan=plan
        )
    return _WORLD_CACHE[key]


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--country", required=True, choices=sorted(COUNTRIES),
        help="study world to measure in",
    )
    parser.add_argument("--scale", type=scale_arg, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--fault-plan",
        default=None,
        help="fault-injection plan: a preset name (none/light/lossy/"
        "ratelimit/churn/flaky/duplicate/chaos), inline JSON, or "
        "@path/to/plan.json",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )


def _unreachable_endpoint(world, client, endpoint_ip: Optional[str]) -> bool:
    """Report, and return True, when ``--endpoint`` names no endpoint
    ``client`` has a route to in ``world``."""
    if endpoint_ip is None or world.topology.has_route(client.ip, endpoint_ip):
        return False
    print(
        f"error: --endpoint {endpoint_ip} is not an endpoint reachable "
        f"from {client.ip} in the {world.name} world",
        file=sys.stderr,
    )
    return True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_worlds(args: argparse.Namespace) -> int:
    rows = []
    for country in sorted(COUNTRIES):
        world = _world(country, args.scale, None)
        rows.append(
            {
                "country": country,
                "endpoints": len(world.endpoints),
                "endpoint_asns": len({e.asn for e in world.endpoints}),
                "devices": len(world.devices),
                "test_domains": list(world.test_domains),
                "in_country_vantage": world.in_country_client is not None,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(
                f"{row['country']}: {row['endpoints']} endpoints in "
                f"{row['endpoint_asns']} ASNs, {row['devices']} devices, "
                f"vantage={'yes' if row['in_country_vantage'] else 'no'}"
            )
            print(f"    test domains: {', '.join(row['test_domains'])}")
    return 0


def cmd_centrace(args: argparse.Namespace) -> int:
    world = _world(args.country, args.scale, args.seed, args.fault_plan)
    client = (
        world.in_country_client
        if args.in_country and world.in_country_client
        else world.remote_client
    )
    if _unreachable_endpoint(world, client, args.endpoint):
        return 2
    tracer = CenTrace(
        world.sim,
        client,
        asdb=world.asdb,
        config=CenTraceConfig(repetitions=args.repetitions),
    )
    domain = args.domain or world.test_domains[0]
    if args.endpoint:
        endpoint_ips = [args.endpoint]
    else:
        endpoints = world.endpoints[: args.max_endpoints]
        endpoint_ips = [e.ip for e in endpoints]
    results = [
        tracer.measure(ip, domain, args.protocol, world.control_domain)
        for ip in endpoint_ips
    ]
    if args.json:
        print(json.dumps([to_dict(r) for r in results], indent=2))
        return 0
    for result in results:
        print(result.brief())
        if result.blocked and result.blocking_hop:
            hop = result.blocking_hop
            print(
                f"    blocking hop AS{hop.asn} {hop.as_name} ({hop.country}),"
                f" {result.hops_from_endpoint} hops before the endpoint,"
                f" in_path={result.in_path}"
            )
    blocked = sum(1 for r in results if r.blocked)
    print(f"-- {blocked}/{len(results)} measurements blocked")
    return 0


def cmd_cenfuzz(args: argparse.Namespace) -> int:
    world = _world(args.country, args.scale, args.seed, args.fault_plan)
    client = (
        world.in_country_client
        if args.in_country and world.in_country_client
        else world.remote_client
    )
    if _unreachable_endpoint(world, client, args.endpoint):
        return 2
    fuzzer = CenFuzz(world.sim, client)
    endpoint_ip = args.endpoint or world.endpoints[0].ip
    domain = args.domain or world.test_domains[0]
    strategies = args.strategy or None
    report = fuzzer.run_endpoint(
        endpoint_ip, domain, args.protocol, world.control_domain,
        strategies=strategies,
    )
    if args.json:
        print(json.dumps(to_dict(report), indent=2))
        return 0
    print(
        f"{domain} ({args.protocol}) -> {endpoint_ip}: "
        f"normal request {'BLOCKED' if report.normal_blocked else 'not blocked'}"
    )
    for strategy, (ok, evaluated) in sorted(report.success_by_strategy().items()):
        if evaluated:
            print(f"  {strategy:26s} {ok:4d}/{evaluated:<4d} evade")
    if args.infer:
        from .analysis.rule_inference import infer_rules

        model = infer_rules(report)
        print(f"inferred decision model: {model.summary()}")
    return 0


def cmd_cenprobe(args: argparse.Namespace) -> int:
    world = _world(args.country, args.scale, args.seed, args.fault_plan)
    prober = CenProbe(world.topology)
    if args.ip:
        ips = [args.ip]
    else:
        # Ground-truth device host IPs double as the scan list when no
        # CenTrace data is given (convenience for exploration).
        ips = sorted(set(world.device_host_ip.values()))
    reports = prober.scan_many(ips)
    if args.json:
        print(json.dumps([to_dict(r) for r in reports], indent=2))
        return 0
    for report in reports:
        ports = ",".join(map(str, report.open_ports)) or "-"
        print(f"{report.ip:18s} ports={ports:20s} vendor={report.vendor or '-'}")
    print(f"-- {json.dumps(summarize_reports(reports))}")
    return 0


def cmd_residual(args: argparse.Namespace) -> int:
    from .core.centrace.residual import ResidualProbe

    world = _world(args.country, args.scale, args.seed, args.fault_plan)
    if _unreachable_endpoint(world, world.remote_client, args.endpoint):
        return 2
    probe = ResidualProbe(world.sim, world.remote_client)
    endpoint_ip = args.endpoint or world.endpoints[0].ip
    domain = args.domain or world.test_domains[0]
    measurement = probe.measure(endpoint_ip, domain)
    if args.json:
        print(
            json.dumps(
                {
                    "endpoint_ip": measurement.endpoint_ip,
                    "test_domain": measurement.test_domain,
                    "stateful": measurement.stateful,
                    "scope": measurement.scope,
                    "duration_bounds": measurement.duration_bounds,
                    "probes_used": measurement.probes_used,
                }
            )
        )
        return 0
    print(f"{domain} -> {endpoint_ip}: {measurement.summary()}")
    print(f"({measurement.probes_used} probes)")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.campaign import CampaignConfig, run_campaign
    from .telemetry import Telemetry

    world = _world(args.country, args.scale, args.seed, args.fault_plan)
    telemetry = Telemetry() if args.metrics else None
    campaign = run_campaign(
        world,
        CampaignConfig(
            repetitions=args.repetitions,
            fuzz_all_blocked=args.fuzz_all,
        ),
        workers=args.workers,
        telemetry=telemetry,
    )
    blocked = len(campaign.blocked_remote())
    print(
        f"{args.country}: {len(campaign.remote_results)} remote CTs,"
        f" {blocked} blocked; {len(campaign.fuzz_reports)} fuzz reports;"
        f" {len(campaign.probe_reports)} banner scans"
    )
    if campaign.run_report is not None:
        print()
        print(campaign.run_report.render())
    if args.out:
        counts = save_campaign(campaign, args.out)
        print(f"saved to {args.out}: {counts}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .persist import save_service_run
    from .service import ServiceConfig, SwarmConfig, run_swarm

    plan = FaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
    swarm = SwarmConfig(
        country=args.country,
        seed=args.seed,
        scale=args.scale,
        fault_plan=plan,
        requests=args.requests,
        tenants=args.tenants,
        interleave_seed=args.interleave_seed,
        repetitions=args.repetitions,
        max_endpoints=args.max_endpoints,
        verify=args.verify,
    )
    service_config = ServiceConfig(
        max_pending=args.max_pending,
        rate=args.rate,
        burst=args.burst,
        workers=args.workers,
    )
    report = asyncio.run(run_swarm(swarm, service_config))
    counts = None
    if args.out:
        counts = save_service_run(report.run_report, report.payloads, args.out)
    if args.json:
        print(
            json.dumps(
                {
                    "stats": report.stats,
                    "distinct_units": report.distinct_units,
                    "delivered": report.delivered,
                    "verified": report.verified,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(report.render())
        if counts is not None:
            print(f"saved to {args.out}: {counts}")
    failures = []
    if args.verify and not report.verified:
        failures.append(
            "delivered results were NOT byte-identical to a direct serial run"
        )
    if (
        args.min_hit_rate is not None
        and report.stats["coalescing_hit_rate"] < args.min_hit_rate
    ):
        failures.append(
            f"coalescing hit rate {report.stats['coalescing_hit_rate']:.1%} "
            f"below --min-hit-rate {args.min_hit_rate:.1%}"
        )
    if report.stats["unit_failures"]:
        failures.append(
            f"{int(report.stats['unit_failures'])} work unit(s) failed"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_epochs(args: argparse.Namespace) -> int:
    from .experiments.campaign import CampaignConfig
    from .geo.drift import DriftPlan, auto_drift_plan
    from .store import run_observatory
    from .telemetry import NULL_TELEMETRY, Telemetry

    config = CampaignConfig(
        repetitions=args.repetitions,
        max_endpoints=args.max_endpoints,
        fuzz_max_endpoints=args.fuzz_max_endpoints,
        fault_plan=(
            FaultPlan.from_spec(args.fault_plan) if args.fault_plan else None
        ),
    )
    plan = None
    if args.drift_plan:
        if args.drift_plan == "auto":
            world = build_world(args.country, seed=args.seed, scale=args.scale)
            plan = auto_drift_plan(
                world, epochs=args.epochs, seed=args.drift_seed
            )
        else:
            plan = DriftPlan.from_spec(args.drift_plan)
    telemetry = Telemetry() if args.metrics else None
    summary = run_observatory(
        args.country,
        args.out,
        epochs=args.epochs,
        seed=args.seed,
        scale=args.scale,
        config=config,
        drift_plan=plan,
        workers=args.workers,
        telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
    )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        for r in summary.epoch_results:
            print(
                f"epoch {r.epoch}: {r.total_units} units, "
                f"{r.reused_units} reused ({r.reuse_rate:.0%}), "
                f"{r.drift_ops_applied} drift op(s) live"
            )
        print(
            f"-- {summary.epochs} epochs into {summary.out_dir}: "
            f"{summary.reused_units}/{summary.total_units} units reused "
            f"({summary.reuse_rate:.0%})"
        )
        if telemetry is not None:
            store_counters = {
                k: v
                for k, v in sorted(telemetry.counters.items())
                if k.startswith("store.")
            }
            print(f"-- counters: {json.dumps(store_counters)}")
    if args.min_reuse is not None and summary.reuse_rate < args.min_reuse:
        print(
            f"FAIL: unit reuse rate {summary.reuse_rate:.1%} below "
            f"--min-reuse {args.min_reuse:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_localize(args: argparse.Namespace) -> int:
    from .experiments.localize_xval import (
        placement_labels,
        run_cross_validation,
    )
    from .localize import METHOD_TOMOGRAPHY
    from .telemetry import NULL_TELEMETRY, Telemetry

    placements = None
    if args.placements:
        placements = [p for p in args.placements.split(",") if p]
        unknown = sorted(set(placements) - set(placement_labels()))
        if unknown:
            print(
                f"error: unknown placement(s) {', '.join(unknown)} — "
                f"valid: {', '.join(placement_labels())}",
                file=sys.stderr,
            )
            return 2
    telemetry = Telemetry() if args.metrics else NULL_TELEMETRY
    report = run_cross_validation(
        seed=args.seed if args.seed is not None else 11,
        rounds=args.rounds,
        probes_per_round=args.probes_per_round,
        tolerance=args.tolerance,
        run_ttl=not args.no_ttl,
        placements=placements,
        telemetry=telemetry,
    )
    if args.out:
        counts = save_localization(
            report.verdicts, report.evidence, args.out, xval=report.to_dict()
        )
        if not args.json:
            print(
                f"-- saved {counts['verdicts']} verdicts / "
                f"{counts['evidence']} evidence records to {args.out}"
            )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        if args.metrics:
            localize_counters = {
                k: v
                for k, v in sorted(telemetry.counters.items())
                if k.startswith("localize.")
            }
            print(f"-- counters: {json.dumps(localize_counters)}")
    if args.min_accuracy is not None:
        accuracy = report.accuracy(METHOD_TOMOGRAPHY)
        if accuracy < args.min_accuracy:
            print(
                f"FAIL: tomography accuracy {accuracy:.1%} below "
                f"--min-accuracy {args.min_accuracy:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_facts_query(args: argparse.Namespace) -> int:
    from .store import FactStore

    store = FactStore(args.store)
    if not store.epochs():
        print(
            f"fact store {args.store!r} holds no epochs — run "
            "'repro epochs' or 'repro facts extract' first",
            file=sys.stderr,
        )
        return 2
    if args.transitions:
        transitions = store.transitions(
            subject=args.subject, predicate=args.predicate
        )
        if args.json:
            print(json.dumps([t.to_dict() for t in transitions], indent=2))
            return 0
        for t in transitions:
            before = ", ".join(t.before) or "-"
            after = ", ".join(t.after) or "-"
            print(
                f"{t.subject} {t.predicate}: epoch {t.epoch}: "
                f"{{{before}}} -> {{{after}}}"
            )
        print(f"-- {len(transitions)} transition(s)")
        return 0
    intervals = store.intervals(
        subject=args.subject, predicate=args.predicate, obj=args.object
    )
    if args.json:
        print(json.dumps([iv.to_dict() for iv in intervals], indent=2))
        return 0
    latest = store.epochs()[-1]
    for iv in intervals:
        still = " (current)" if iv.valid_to == latest else ""
        print(
            f"{iv.fact.subject} {iv.fact.predicate} {iv.fact.object} "
            f"[epochs {iv.valid_from}..{iv.valid_to}]{still}"
        )
    print(f"-- {len(intervals)} interval(s) over epochs {store.epochs()}")
    return 0


def cmd_facts_extract(args: argparse.Namespace) -> int:
    from .persist import load_campaign
    from .store import FactStore, facts_from_campaign

    campaign = load_campaign(args.run)
    store = FactStore(args.store)
    epoch = args.epoch
    if epoch is None:
        provenance = campaign.meta.get("provenance") or {}
        epoch = provenance.get("epoch", 0)
    count = store.append_epoch(epoch, facts_from_campaign(campaign))
    print(f"extracted {count} fact(s) from {args.run} at epoch {epoch}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib
    import inspect

    from .experiments import ALL_EXPERIMENTS

    if args.name not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.name!r}; choose from: "
            + ", ".join(sorted(ALL_EXPERIMENTS)),
            file=sys.stderr,
        )
        return 2
    module = importlib.import_module(f"{__package__}.experiments.{args.name}")
    kwargs = {}
    if args.scale is not None:
        if "scale" not in inspect.signature(module.run).parameters:
            print(
                f"error: experiment {args.name!r} takes no --scale",
                file=sys.stderr,
            )
            return 2
        kwargs["scale"] = args.scale
    result = module.run(**kwargs)
    print(result.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.registry:
        # Render the telemetry registry — the documented operational
        # surface every counter/span/event literal in src/ must appear
        # in (enforced by lintkit RP601/RP603).
        from . import telemetry_registry

        if args.json:
            print(
                json.dumps(
                    telemetry_registry.registry_as_dict(),
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(telemetry_registry.render_registry())
        return 0
    if args.run:
        # Render the telemetry run report persisted with a saved
        # campaign (``repro campaign --metrics --out DIR``) or service
        # run (``repro serve --out DIR``). Degrades to a clear message
        # + exit 2 on anything short of a well-formed report: a missing
        # directory, a FORMAT_VERSION 1 directory (predates run
        # reports), a run without --metrics, or a partially-written
        # report.json. Never a traceback.
        from pathlib import Path

        from .telemetry import RunReport

        run_dir = Path(args.run)
        if not run_dir.is_dir():
            print(
                f"run directory {args.run!r} does not exist",
                file=sys.stderr,
            )
            return 2
        report_path = run_dir / "report.json"
        if not report_path.exists():
            detail = ""
            meta_path = run_dir / "meta.json"
            if meta_path.exists():
                try:
                    meta = json.loads(meta_path.read_text())
                except (OSError, ValueError):
                    meta = None
                version = meta.get("version", 0) if isinstance(meta, dict) else None
                if not isinstance(version, int) or isinstance(version, bool):
                    print(
                        f"unreadable meta.json under {args.run!r} — expected "
                        'a JSON object with an integer "version"',
                        file=sys.stderr,
                    )
                    return 2
                if version < 2:
                    detail = (
                        " (a format-version 1 directory, saved before "
                        "run reports existed)"
                    )
                elif meta.get("has_report") is False:
                    detail = " (the campaign ran without telemetry)"
            print(
                f"no report recorded under {args.run!r}{detail} — re-run "
                "the campaign with --metrics to collect one",
                file=sys.stderr,
            )
            return 2
        try:
            report = RunReport.from_dict(
                json.loads(report_path.read_text())
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(
                f"unreadable run report under {args.run!r} "
                f"({type(exc).__name__}: {exc}) — the directory looks "
                "partially written; re-run the campaign with --metrics",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0

    from .experiments.report import main as report_main

    argv = ["--out", args.out]
    if args.scale is not None:
        argv.extend(["--scale", str(args.scale)])
    return report_main(argv)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Censorship-device measurement tools (CoNEXT '22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worlds = sub.add_parser("worlds", help="list the study worlds")
    worlds.add_argument("--scale", type=scale_arg, default=None)
    worlds.add_argument("--json", action="store_true")
    worlds.set_defaults(func=cmd_worlds)

    centrace = sub.add_parser("centrace", help="run censorship traceroutes")
    _add_world_args(centrace)
    centrace.add_argument("--domain", help="test domain (default: first)")
    centrace.add_argument(
        "--protocol", default="http", choices=["http", "tls", "dns"]
    )
    centrace.add_argument("--endpoint", help="specific endpoint IP")
    centrace.add_argument("--max-endpoints", type=int, default=5)
    centrace.add_argument("--repetitions", type=positive_int_arg, default=3)
    centrace.add_argument("--in-country", action="store_true")
    centrace.set_defaults(func=cmd_centrace)

    cenfuzz = sub.add_parser("cenfuzz", help="fuzz a censorship device")
    _add_world_args(cenfuzz)
    cenfuzz.add_argument("--domain")
    cenfuzz.add_argument("--protocol", default="http", choices=["http", "tls"])
    cenfuzz.add_argument("--endpoint")
    cenfuzz.add_argument(
        "--strategy", action="append", help="restrict to strategy (repeatable)"
    )
    cenfuzz.add_argument("--in-country", action="store_true")
    cenfuzz.add_argument(
        "--infer",
        action="store_true",
        help="infer the device's decision model from the results",
    )
    cenfuzz.set_defaults(func=cmd_cenfuzz)

    cenprobe = sub.add_parser("cenprobe", help="banner-grab device IPs")
    _add_world_args(cenprobe)
    cenprobe.add_argument("--ip", help="specific IP (default: all device IPs)")
    cenprobe.set_defaults(func=cmd_cenprobe)

    residual = sub.add_parser(
        "residual", help="measure a device's residual censorship"
    )
    _add_world_args(residual)
    residual.add_argument("--domain")
    residual.add_argument("--endpoint")
    residual.set_defaults(func=cmd_residual)

    campaign = sub.add_parser("campaign", help="full campaign (+ save raw data)")
    _add_world_args(campaign)
    campaign.add_argument("--repetitions", type=positive_int_arg, default=3)
    campaign.add_argument("--fuzz-all", action="store_true")
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard measurements over N worker processes "
        "(bit-identical to the serial run)",
    )
    campaign.add_argument("--out", help="directory for raw JSONL data")
    campaign.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry and print/persist a run report",
    )
    campaign.set_defaults(func=cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="campaign-as-a-service: drive the job queue with a "
        "synthetic client swarm",
    )
    _add_world_args(serve)
    serve.add_argument(
        "--requests", type=int, default=1000, help="swarm request count"
    )
    serve.add_argument("--tenants", type=int, default=8)
    serve.add_argument(
        "--interleave-seed",
        type=int,
        default=0,
        help="request shuffle seed (must not affect delivered bytes)",
    )
    serve.add_argument("--repetitions", type=positive_int_arg, default=2)
    serve.add_argument("--max-endpoints", type=int, default=4)
    serve.add_argument(
        "--rate",
        type=float,
        default=2.0,
        help="per-tenant admission tokens per service tick",
    )
    serve.add_argument("--burst", type=int, default=4)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=16,
        help="backpressure bound on queued-not-started units",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--verify",
        action="store_true",
        help="byte-compare every delivered result against a direct "
        "serial run",
    )
    serve.add_argument(
        "--min-hit-rate",
        type=float,
        default=None,
        help="fail unless the coalescing hit rate reaches this fraction",
    )
    serve.add_argument(
        "--out", help="directory for delivered results + report.json"
    )
    serve.set_defaults(func=cmd_serve)

    epochs = sub.add_parser(
        "epochs",
        help="longitudinal observatory: run drifted epochs with "
        "incremental unit reuse into a fact store",
    )
    _add_world_args(epochs)
    epochs.add_argument(
        "--epochs", type=int, default=3, help="number of epochs to run"
    )
    epochs.add_argument(
        "--drift-plan",
        default=None,
        help="world drift: 'auto' (seeded generation), inline JSON, or "
        "@path/to/plan.json; omit for a static world",
    )
    epochs.add_argument(
        "--drift-seed",
        type=int,
        default=0,
        help="seed for --drift-plan auto",
    )
    epochs.add_argument(
        "--out", required=True, help="observatory output directory"
    )
    epochs.add_argument("--repetitions", type=positive_int_arg, default=2)
    epochs.add_argument("--max-endpoints", type=int, default=4)
    epochs.add_argument("--fuzz-max-endpoints", type=int, default=2)
    epochs.add_argument("--workers", type=int, default=None)
    epochs.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry and print store.* counters",
    )
    epochs.add_argument(
        "--min-reuse",
        type=float,
        default=None,
        help="fail unless the overall unit reuse rate reaches this "
        "fraction",
    )
    epochs.set_defaults(func=cmd_epochs)

    localize = sub.add_parser(
        "localize",
        help="cross-validate localization methods (TTL probing vs "
        "churn tomography vs path-inconsistency) against ground truth",
    )
    localize.add_argument(
        "--rounds", type=positive_int_arg, default=6,
        help="churn rounds of evidence",
    )
    localize.add_argument(
        "--probes-per-round", type=positive_int_arg, default=4,
        help="outcome probes per endpoint per round",
    )
    localize.add_argument("--seed", type=int, default=None)
    localize.add_argument(
        "--tolerance", type=int, default=1,
        help="accuracy counts placements within this many links of truth",
    )
    localize.add_argument(
        "--no-ttl", action="store_true",
        help="skip the CenTrace TTL pass (tomography/inconsistency only)",
    )
    localize.add_argument(
        "--placements", default=None,
        help="comma-separated subset of placement labels to sweep",
    )
    localize.add_argument(
        "--out", default=None,
        help="save verdicts + evidence + xval report to this directory",
    )
    localize.add_argument(
        "--metrics", action="store_true",
        help="collect telemetry and print localize.* counters",
    )
    localize.add_argument(
        "--min-accuracy", type=fraction_arg, default=None,
        help="fail unless tomography accuracy reaches this fraction",
    )
    localize.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    localize.set_defaults(func=cmd_localize)

    facts = sub.add_parser(
        "facts", help="query or extend the longitudinal fact store"
    )
    facts_sub = facts.add_subparsers(dest="facts_command", required=True)

    facts_query = facts_sub.add_parser(
        "query",
        help="validity intervals or transitions for stored facts",
    )
    facts_query.add_argument(
        "--store", required=True, help="fact store directory"
    )
    facts_query.add_argument(
        "--subject", default=None, help="e.g. as:9198 or device:5.2.0.2"
    )
    facts_query.add_argument(
        "--predicate",
        default=None,
        help="blocks_with/blocks_domain/hosts_device/vendor/"
        "serves_blockpage/named/in_country",
    )
    facts_query.add_argument("--object", default=None)
    facts_query.add_argument(
        "--transitions",
        action="store_true",
        help="report when the object set changed instead of intervals "
        '("when did AS 9198 switch from RST to blockpage?")',
    )
    facts_query.add_argument("--json", action="store_true")
    facts_query.set_defaults(func=cmd_facts_query)

    facts_extract = facts_sub.add_parser(
        "extract",
        help="extract facts from a saved campaign directory into a store",
    )
    facts_extract.add_argument(
        "--run", required=True, help="save_campaign directory"
    )
    facts_extract.add_argument(
        "--store", required=True, help="fact store directory"
    )
    facts_extract.add_argument(
        "--epoch",
        type=int,
        default=None,
        help="epoch to record (default: the campaign's own provenance)",
    )
    facts_extract.set_defaults(func=cmd_facts_extract)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("name")
    experiment.add_argument("--scale", type=scale_arg, default=None)
    experiment.set_defaults(func=cmd_experiment)

    report = sub.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md, or render a saved run report",
    )
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.add_argument("--scale", type=scale_arg, default=None)
    report.add_argument(
        "--run",
        default=None,
        metavar="DIR",
        help="render the telemetry run report saved in campaign dir DIR",
    )
    report.add_argument(
        "--registry",
        action="store_true",
        help="render the telemetry registry (documented metric names)",
    )
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PersistError, DriftError, ServiceError) as exc:
        # Any analysis path reading a missing/truncated/corrupt run
        # directory — or a malformed drift-plan spec or service setting
        # — reports cleanly instead of tracebacking.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
