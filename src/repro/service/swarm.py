"""Synthetic client swarm: many tenants hammering the service at once.

Reproduces the deployment shape of the real platforms (Centinel-style
clients submitting measurement requests to a shared backend): a fleet
of tenants repeatedly requesting measurements drawn from a skewed
popularity distribution — the duplicate-heavy workload the coalescing
layer exists for. This drives ``repro serve`` and the CI smoke job.

``verify=True`` re-executes every distinct delivered unit directly on a
fresh serial :class:`~repro.experiments.executor.Toolset` and
byte-compares the serialized payloads — the swarm-scale version of the
golden-digest identity check.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..experiments.campaign import CampaignConfig, trace_units_for
from ..experiments.executor import Toolset
from ..netsim.faults import FaultPlan
from ..telemetry import RunReport
from .jobs import ProbeRequest, UnitResult, WorldKey
from .queue import CampaignService, ServiceConfig


@dataclass
class SwarmConfig:
    """Shape of one synthetic swarm run."""

    country: str = "AZ"
    seed: Optional[int] = 7
    scale: Optional[float] = 0.35
    fault_plan: Optional[FaultPlan] = None
    requests: int = 1000
    tenants: int = 8
    interleave_seed: int = 0
    repetitions: int = 2
    max_endpoints: Optional[int] = 4
    #: Max units per request (each request draws 1..N).
    units_per_request: int = 2
    #: Popularity-skew exponent: higher = more duplicate-heavy
    #: (index ~ U^skew over the unit pool).
    skew: float = 2.0
    #: Byte-compare every delivered payload against a direct serial run.
    verify: bool = False


@dataclass
class SwarmReport:
    """What one swarm run did, plus the service's own RunReport."""

    stats: Dict[str, float]
    run_report: RunReport
    distinct_units: int
    delivered: int
    #: None when verification was not requested.
    verified: Optional[bool] = None
    #: Serialized payload of every delivery, in delivery order — the
    #: per-request result feed (``repro serve --out`` persists it).
    payloads: List[Dict] = field(default_factory=list)

    def render(self) -> str:
        stats = self.stats
        lines = [
            "service swarm:",
            f"  requests            {int(stats['requests'])}",
            f"  units requested     {int(stats['units_requested'])}"
            f" ({self.distinct_units} distinct)",
            f"  units executed      {int(stats['units_executed'])}",
            f"  coalesced           {int(stats['coalesced'])}"
            f" (hit rate {stats['coalescing_hit_rate']:.1%})",
            f"  rate-limited waits  {int(stats['rate_limited_waits'])}",
            f"  backpressure waits  {int(stats['backpressure_waits'])}",
            f"  max queue depth     {int(stats['max_queue_depth'])}",
            f"  unit failures       {int(stats['unit_failures'])}"
            f" (retries {int(stats['unit_retries'])})",
            f"  delivered results   {self.delivered}",
        ]
        if self.verified is not None:
            lines.append(
                "  byte-identity       "
                + ("VERIFIED vs direct run" if self.verified else "FAILED")
            )
        return "\n".join(lines)


def _skewed_index(rng: random.Random, size: int, skew: float) -> int:
    return min(size - 1, int(size * rng.random() ** skew))


async def run_swarm(
    swarm: Optional[SwarmConfig] = None,
    service_config: Optional[ServiceConfig] = None,
) -> SwarmReport:
    """Run one synthetic swarm against a fresh service instance."""
    swarm = swarm or SwarmConfig()
    if service_config is None:
        # Defaults sized to actually exercise the flow-control paths:
        # small pending bound, throttled tenants.
        service_config = ServiceConfig(max_pending=16, rate=2.0, burst=4)
    campaign_config = CampaignConfig(
        repetitions=swarm.repetitions, max_endpoints=swarm.max_endpoints
    )
    world_key = WorldKey(
        country=swarm.country,
        seed=swarm.seed,
        scale=swarm.scale,
        fault_plan=swarm.fault_plan,
    )
    delivered: List[UnitResult] = []
    async with CampaignService(service_config) as service:
        world = service.world_for(world_key)
        pool = trace_units_for(world, campaign_config)
        rng = random.Random(swarm.interleave_seed)
        requests = []
        for _ in range(swarm.requests):
            size = rng.randint(1, max(1, swarm.units_per_request))
            units = tuple(
                pool[_skewed_index(rng, len(pool), swarm.skew)]
                for _ in range(size)
            )
            requests.append(
                ProbeRequest(
                    tenant=f"client-{rng.randrange(max(1, swarm.tenants)):03d}",
                    world=world_key,
                    units=units,
                    repetitions=swarm.repetitions,
                    priority=rng.randrange(3),
                )
            )
        streams = await asyncio.gather(
            *(service.submit(request) for request in requests)
        )
        for stream in streams:
            delivered.extend(await stream.collect())
        stats = service.stats()
        run_report = service.build_report(
            meta={
                "country": swarm.country,
                "requests": swarm.requests,
                "tenants": swarm.tenants,
                "interleave_seed": swarm.interleave_seed,
            }
        )
    distinct = {r.key for r in delivered}
    report = SwarmReport(
        stats=stats,
        run_report=run_report,
        distinct_units=len(distinct),
        delivered=len(delivered),
        payloads=[r.payload for r in delivered if r.payload is not None],
    )
    if swarm.verify:
        report.verified = _verify_against_direct(swarm, delivered)
    return report


def _verify_against_direct(
    swarm: SwarmConfig, delivered: List[UnitResult]
) -> bool:
    """Byte-compare delivered payloads with a direct serial execution.

    Checks both identities the service promises: (a) every delivery of
    one work key carried the same bytes, and (b) those bytes equal what
    a fresh serial toolset produces for the same unit.
    """
    from ..persist import to_dict

    world = WorldKey(
        country=swarm.country,
        seed=swarm.seed,
        scale=swarm.scale,
        fault_plan=swarm.fault_plan,
    ).build()
    toolset = Toolset.build(world, swarm.repetitions)
    by_key: Dict[Tuple, Tuple[UnitResult, str]] = {}
    for result in delivered:
        if result.error is not None or result.payload is None:
            return False
        blob = json.dumps(result.payload, sort_keys=True)
        seen = by_key.get(result.key)
        if seen is None:
            by_key[result.key] = (result, blob)
        elif seen[1] != blob:
            return False  # two deliveries of one unit differed
    for result, blob in by_key.values():
        if result.kind == "trace":
            direct = toolset.run_trace(result.unit)
        else:
            direct = toolset.run_fuzz(result.unit)
        direct_blob = json.dumps(to_dict(direct), sort_keys=True)
        if direct_blob != blob:
            return False
    return True
