"""The four benchmark workloads: inputs, one timed pass, output checks.

Every workload is a pure function of ``(seed, size)``. A *pass* runs the
workload's whole input once and returns what it measured; the worker
repeats passes for the run's time budget and reports medians. Output
checks (digests, round trips, byte identity, accuracy floors) run
between and after the timed segments, never inside them.

All load comes from one process on one core: serial executor
(``workers=None``), one asyncio loop, no process pool.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter

#: Where passes write campaign directories (inside the checkout).
WORK_DIR = Path(__file__).resolve().parent / "out" / "work"


@dataclass
class PassResult:
    """What one pass measured, plus what its checks found."""

    #: Time from after set-up to the complete result, summed over jobs.
    wall_s: float
    #: Time inside the execution stage (run_campaign / burst / xval).
    exec_s: float
    #: Measurement units completed (trace+fuzz units, unit results, probes).
    units: int
    #: Completion time of each job since the pass began (all due at t=0).
    latencies_s: List[float]
    #: Device-localization claims, and how many match ground truth.
    claims: int
    claims_correct: int
    #: Canonical digest of the pass's output.
    digest: str
    failures: List[str] = field(default_factory=list)
    #: Per-layer facts the pass can read without wrappers.
    layer: Dict[str, float] = field(default_factory=dict)
    #: ``clock()`` reading at the pass's t=0.
    started_at: float = 0.0
    #: Reference seconds per measured second over the pass (speed.py).
    scale: float = 1.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def panel_seeds(seed: int, worlds: int) -> List[int]:
    """World seeds of a campaign panel; the first is the run seed itself."""
    return [seed + 1000 * i for i in range(worlds)]


def _canonical_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name == "meta.json":
        # The environment section records how the run executed (worker
        # count), not what it measured; the report fields only say
        # whether a telemetry sink was attached (the traced pass).
        meta = json.loads(data)
        meta.pop("environment", None)
        meta.pop("has_report", None)
        meta["counts"].pop("report", None)
        return json.dumps(meta, indent=2, sort_keys=True).encode()
    return data


def digest_dir(directory: Path) -> str:
    """sha256 over a saved campaign directory (file names + bytes).

    ``report.json`` exists only when a telemetry sink was attached and
    holds wall-clock figures, so it is left out.
    """
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name == "report.json":
            continue
        digest.update(path.name.encode())
        digest.update(_canonical_bytes(path))
    return digest.hexdigest()


def _combine(digests: List[str]) -> str:
    return hashlib.sha256("|".join(digests).encode()).hexdigest()


def _device_claims(results, world) -> Tuple[int, int]:
    """(claims, correct): blocked CenTrace hops vs real device hosts."""
    hosts = set(world.device_host_ip.values())
    claims = correct = 0
    for result in results:
        if not (result.blocked and result.valid):
            continue
        claims += 1
        hop = result.blocking_hop
        if hop is not None and hop.ip in hosts:
            correct += 1
    return claims, correct


def _record_counts(campaign) -> Tuple[int, int, int, int]:
    """Record counts of a live or reloaded campaign."""
    return (
        len(campaign.remote_results),
        len(campaign.in_country_results),
        len(campaign.fuzz_reports),
        len(campaign.probe_reports),
    )


# -- campaigns ----------------------------------------------------------------


class CampaignWorkload:
    """A panel of country campaigns through the full pipeline.

    run_campaign -> save_campaign -> load_campaign -> endpoint_features
    -> cluster_endpoints, once per world of the panel.
    """

    IMPORTS = (
        "repro.experiments.campaign",
        "repro.geo.countries",
        "repro.netsim.faults",
        "repro.persist",
        "repro.analysis.cluster",
    )

    def __init__(
        self,
        name: str,
        seed: int,
        *,
        country: str,
        scale: Optional[float],
        worlds: int,
        fault_plan: Optional[str],
        max_endpoints: Optional[int] = None,
        fuzz_max_endpoints: Optional[int] = None,
    ) -> None:
        self.name = name
        self.seed = seed
        self.country = country
        self.scale = scale
        self.world_seeds = panel_seeds(seed, worlds)
        self.fault_plan = fault_plan
        self.max_endpoints = max_endpoints
        self.fuzz_max_endpoints = fuzz_max_endpoints

    def _config(self):
        from repro.experiments.campaign import CampaignConfig
        from repro.netsim.faults import FaultPlan

        plan = FaultPlan.from_spec(self.fault_plan) if self.fault_plan else None
        return CampaignConfig(
            repetitions=2,
            max_endpoints=self.max_endpoints,
            fuzz_max_endpoints=self.fuzz_max_endpoints,
            fault_plan=plan,
        )

    def _world(self, world_seed: int):
        from repro.geo.countries import build_world

        return build_world(self.country, seed=world_seed, scale=self.scale)

    def setup(self) -> Dict[str, float]:
        from repro.experiments.executor import Toolset

        t0 = clock()
        world = self._world(self.world_seeds[0])
        t1 = clock()
        Toolset.build(world, 2)
        t2 = clock()
        return {"geo.build_s": t1 - t0, "executor.toolset_s": t2 - t1}

    def run_pass(self, telemetry=None) -> PassResult:
        from repro.analysis.cluster import cluster_endpoints
        from repro.experiments.campaign import run_campaign
        from repro.persist import load_campaign, save_campaign

        config = self._config()
        wall = exec_s = 0.0
        units = claims = correct = 0
        latencies: List[float] = []
        started_at = clock()
        digests: List[str] = []
        failures: List[str] = []
        layer = {
            "persist.save_s": 0.0,
            "persist.load_s": 0.0,
            "persist.bytes": 0,
            "analysis.features_s": 0.0,
            "analysis.cluster_s": 0.0,
        }
        for world_seed in self.world_seeds:
            out = WORK_DIR / f"{self.name}-{world_seed}"
            shutil.rmtree(out, ignore_errors=True)
            # A fresh world per pass, built outside the timed segment:
            # world building is set-up (geo.build_s), not pipeline time.
            world = self._world(world_seed)
            t0 = clock()
            campaign = run_campaign(world, config, telemetry=telemetry)
            t1 = clock()
            save_campaign(campaign, out)
            t2 = clock()
            loaded = load_campaign(out)
            t3 = clock()
            features = campaign.endpoint_features()
            t4 = clock()
            cluster_endpoints(features)
            t5 = clock()
            wall += t5 - t0
            exec_s += t1 - t0
            latencies.append(wall)
            layer["persist.save_s"] += t2 - t1
            layer["persist.load_s"] += t3 - t2
            layer["analysis.features_s"] += t4 - t3
            layer["analysis.cluster_s"] += t5 - t4
            # -- checks, outside the timed segment --
            units += len(campaign.all_trace_results()) + len(campaign.fuzz_reports)
            layer["persist.bytes"] += sum(
                p.stat().st_size for p in out.iterdir() if p.name != "report.json"
            )
            digests.append(digest_dir(out))
            saved, got = _record_counts(campaign), _record_counts(loaded)
            if got != saved:
                failures.append(
                    f"world seed {world_seed}: load_campaign returned record "
                    f"counts {got}, saved {saved}"
                )
            if not features:
                failures.append(f"world seed {world_seed}: no feature vectors")
            c, k = _device_claims(campaign.remote_results, world)
            claims += c
            correct += k
            shutil.rmtree(out, ignore_errors=True)
        return PassResult(
            wall_s=wall,
            exec_s=exec_s,
            units=units,
            latencies_s=latencies,
            claims=claims,
            claims_correct=correct,
            digest=_combine(digests),
            failures=failures,
            layer=layer,
            started_at=started_at,
        )

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        return []


# -- service burst --------------------------------------------------------------


def _skewed_index(rng: random.Random, size: int, skew: float) -> int:
    return min(size - 1, int(size * rng.random() ** skew))


class ServeWorkload:
    """An open-loop burst of requests, all due at t=0, against one service.

    The seed picks both the service's world and the request mix.
    """

    IMPORTS = (
        "repro.service",
        "repro.experiments.campaign",
        "repro.persist",
    )
    COUNTRY, SCALE = "AZ", 0.35
    TENANTS, SKEW, MAX_UNITS = 8, 2.0, 2

    def __init__(self, name: str, seed: int, *, requests: int) -> None:
        self.name = name
        self.seed = seed
        self.n_requests = requests
        self.requests: List = []
        #: work key -> serialized payload, from the first delivery seen.
        self.blobs: Dict[Tuple, str] = {}
        self.units_by_key: Dict[Tuple, object] = {}
        self.world = None

    def _service(self, telemetry=None):
        from repro.service import CampaignService, ServiceConfig

        return CampaignService(
            ServiceConfig(max_pending=16, rate=2.0, burst=4), telemetry=telemetry
        )

    def setup(self) -> Dict[str, float]:
        from repro.experiments.campaign import CampaignConfig, trace_units_for
        from repro.experiments.executor import Toolset
        from repro.service import ProbeRequest, WorldKey

        self.world_key = WorldKey(
            country=self.COUNTRY, seed=self.seed, scale=self.SCALE
        )
        t0 = clock()
        service = self._service()
        self.world = service.world_for(self.world_key)
        t1 = clock()
        Toolset.build(self.world, 2)
        t2 = clock()
        pool = trace_units_for(
            self.world, CampaignConfig(repetitions=2, max_endpoints=4)
        )
        rng = random.Random(self.seed)
        for _ in range(self.n_requests):
            size = rng.randint(1, self.MAX_UNITS)
            units = tuple(
                pool[_skewed_index(rng, len(pool), self.SKEW)]
                for _ in range(size)
            )
            self.requests.append(
                ProbeRequest(
                    tenant=f"client-{rng.randrange(self.TENANTS):03d}",
                    world=self.world_key,
                    units=units,
                    repetitions=2,
                    priority=rng.randrange(3),
                )
            )
        return {"geo.build_s": t1 - t0, "executor.toolset_s": t2 - t1}

    async def _burst(self, telemetry):
        service = self._service(telemetry)
        done = [0.0] * len(self.requests)
        late = [0.0] * len(self.requests)
        async with service:
            service.world_for(self.world_key)
            t0 = clock()

            async def one(index, request):
                late[index] = clock() - t0
                stream = await service.submit(request)
                results = await stream.collect()
                done[index] = clock() - t0
                return results

            streams = await asyncio.gather(
                *(one(i, r) for i, r in enumerate(self.requests))
            )
            wall = clock() - t0
            stats = service.stats()
        return t0, wall, done, late, streams, stats

    def run_pass(self, telemetry=None) -> PassResult:
        t0, wall, done, late, streams, stats = asyncio.run(self._burst(telemetry))
        failures: List[str] = []
        delivered = 0
        # Coalesced deliveries share one payload object: serialize each
        # object once.
        serialized: Dict[int, str] = {}
        for results in streams:
            for result in results:
                delivered += 1
                if result.error is not None or result.payload is None:
                    failures.append(f"unit {result.key[1:]} failed: {result.error}")
                    continue
                blob = serialized.get(id(result.payload))
                if blob is None:
                    blob = json.dumps(result.payload, sort_keys=True)
                    serialized[id(result.payload)] = blob
                seen = self.blobs.setdefault(result.key, blob)
                self.units_by_key.setdefault(result.key, result)
                if seen != blob:
                    failures.append(
                        f"two deliveries of {result.key[1:]} carried different bytes"
                    )
        expected = sum(len(r.units) for r in self.requests)
        if delivered != expected:
            failures.append(f"delivered {delivered} unit results, expected {expected}")
        if stats["unit_failures"]:
            failures.append(f"{stats['unit_failures']} unit failures")
        distinct = [
            r.result for r in self.units_by_key.values() if r.kind == "trace"
        ]
        claims, correct = _device_claims(distinct, self.world)
        layer = {
            "service.units_executed": stats["units_executed"],
            "service.coalescing_hit_rate": stats["coalescing_hit_rate"],
            "service.rate_limited_waits": stats["rate_limited_waits"],
            "service.backpressure_waits": stats["backpressure_waits"],
            "service.queue_depth_max": stats["max_queue_depth"],
            "serve.gen_late_ms_max": max(late) * 1000.0,
        }
        return PassResult(
            wall_s=wall,
            exec_s=wall,
            units=delivered,
            latencies_s=done,
            claims=claims,
            claims_correct=correct,
            digest=_combine(
                sorted(hashlib.sha256(b.encode()).hexdigest() for b in self.blobs.values())
            ),
            failures=failures,
            layer=layer,
            started_at=t0,
        )

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        """Every distinct delivered unit equals a direct serial Toolset run."""
        from repro.experiments.executor import Toolset
        from repro.persist import unit_result_to_dict

        toolset = Toolset.build(self.world_key.build(), 2)
        failures = []
        for key, result in sorted(self.units_by_key.items(), key=lambda kv: repr(kv[0])):
            method = toolset.run_trace if result.kind == "trace" else toolset.run_fuzz
            direct = json.dumps(
                unit_result_to_dict(result.kind, method(result.unit)), sort_keys=True
            )
            if direct != self.blobs[key]:
                failures.append(f"{key[1:]}: served bytes differ from a direct run")
        return failures


# -- localization cross-validation ------------------------------------------


class LocalizeWorkload:
    """run_cross_validation over all 15 device placements."""

    IMPORTS = ("repro.experiments.localize_xval", "repro.persist")
    #: The localize-smoke floor.
    MIN_ACCURACY = 0.8

    def __init__(self, name: str, seed: int, *, rounds: int, probes: int) -> None:
        self.name = name
        self.seed = seed
        self.rounds = rounds
        self.probes = probes

    def setup(self) -> Dict[str, float]:
        from repro.experiments.localize_xval import (
            placement_labels,
            tomography_world,
        )

        t0 = clock()
        tomography_world(placement_labels()[0], seed=self.seed)
        return {"geo.build_s": clock() - t0, "executor.toolset_s": 0.0}

    def run_pass(self, telemetry=None) -> PassResult:
        from repro.experiments.localize_xval import run_cross_validation
        from repro.localize import METHOD_TOMOGRAPHY
        from repro.persist import localization_verdict_to_dict
        from repro.telemetry import NULL_TELEMETRY

        t0 = clock()
        report = run_cross_validation(
            seed=self.seed,
            rounds=self.rounds,
            probes_per_round=self.probes,
            telemetry=telemetry if telemetry is not None else NULL_TELEMETRY,
        )
        wall = clock() - t0
        rows = [r for r in report.rows if r.method == METHOD_TOMOGRAPHY]
        within = sum(1 for r in rows if r.within(report.tolerance))
        failures = []
        accuracy = report.accuracy(METHOD_TOMOGRAPHY)
        if accuracy < self.MIN_ACCURACY:
            failures.append(
                f"tomography accuracy {accuracy:.3f} below the "
                f"{self.MIN_ACCURACY} floor"
            )
        blob = json.dumps(
            [localization_verdict_to_dict(v) for v in report.verdicts],
            sort_keys=True,
        )
        return PassResult(
            wall_s=wall,
            exec_s=wall,
            units=len(report.evidence),
            latencies_s=[wall],
            claims=len(rows),
            claims_correct=within,
            digest=hashlib.sha256(blob.encode()).hexdigest(),
            failures=failures,
            started_at=t0,
        )

    def final_checks(self, passes: List[PassResult]) -> List[str]:
        return []


# -- registry -----------------------------------------------------------------


WORKLOADS = ("campaign_clean", "campaign_faulted", "serve_burst", "localize_xval")
SIZES = ("full", "tiny")


def make(name: str, seed: int, size: str = "full"):
    """The workload ``name`` at ``size`` ("full" is what BENCHMARK.json runs)."""
    tiny = size == "tiny"
    if name == "campaign_clean":
        return CampaignWorkload(
            name,
            seed,
            country="KZ",
            scale=0.35 if tiny else None,
            worlds=1,
            fault_plan=None,
            max_endpoints=2 if tiny else None,
            fuzz_max_endpoints=1 if tiny else None,
        )
    if name == "campaign_faulted":
        # Four small worlds rather than one large one: under the chaos
        # plan a world's cost and attribution accuracy depend on its
        # seed, and a panel averages that out. The fuzz cap keeps the
        # unit count the same for every seed.
        return CampaignWorkload(
            name,
            seed,
            country="AZ",
            scale=0.35,
            worlds=1 if tiny else 4,
            fault_plan="chaos",
            max_endpoints=2 if tiny else None,
            fuzz_max_endpoints=1 if tiny else 10,
        )
    if name == "serve_burst":
        return ServeWorkload(name, seed, requests=50 if tiny else 2000)
    if name == "localize_xval":
        return LocalizeWorkload(
            name, seed, rounds=6 if tiny else 24, probes=4 if tiny else 8
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
