"""Drive a full country campaign *through* the service queue.

This is the determinism-under-interleaving proof in executable form: a
campaign whose CenTrace and CenFuzz units were submitted by many
tenants, in seeded shuffled order, duplicate-heavy, at mixed
priorities, must reassemble into a
:class:`~repro.experiments.campaign.CountryCampaign` that serializes
byte-identically to a direct serial
:func:`~repro.experiments.campaign.run_campaign` — the golden digests in
``tests/experiments/test_golden_digest.py`` check exactly that.

CenProbe stays serial in the caller (as in ``run_campaign``): it reads
only static topology, so there is nothing to coalesce or reset.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cenprobe import CenProbe
from ..experiments.campaign import (
    CampaignConfig,
    CountryCampaign,
    fuzz_targets_for,
    trace_units_for,
)
from ..experiments.executor import VANTAGE_REMOTE, FuzzUnit
from .jobs import ProbeRequest, ServiceError, UnitResult, WorldKey, work_key
from .queue import CampaignService


async def run_campaign_via_service(
    service: CampaignService,
    country: str,
    config: Optional[CampaignConfig] = None,
    *,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    tenants: int = 4,
    interleave_seed: int = 0,
) -> CountryCampaign:
    """Collect a full campaign by submitting its units to ``service``.

    ``interleave_seed`` controls the request shuffle/duplication/tenant
    assignment — by the service's determinism contract, it must have no
    observable effect on the returned campaign's content.
    """
    config = config or CampaignConfig()
    # run_campaign installs config.fault_plan on an existing world; the
    # service's shared worlds are keyed and *built* with the plan, which
    # is equivalent (WorldSpec.build threads it through construction).
    world_key = WorldKey(
        country=country, seed=seed, scale=scale, fault_plan=config.fault_plan
    )
    world = service.world_for(world_key)
    campaign = CountryCampaign(world=world, config=config)

    units = trace_units_for(world, config)
    by_key = await _submit_interleaved(
        service, world_key, units, config, tenants, interleave_seed
    )
    ordered = [
        by_key[work_key(world_key, unit, config.repetitions)] for unit in units
    ]
    n_remote = sum(1 for u in units if u.vantage == VANTAGE_REMOTE)
    campaign.remote_results = [r.result for r in ordered[:n_remote]]
    campaign.in_country_results = [r.result for r in ordered[n_remote:]]

    if config.run_probe:
        prober = CenProbe(world.topology)
        for ip in campaign.potential_device_ips():
            campaign.probe_reports[ip] = prober.scan(ip)

    if config.run_fuzz:
        fuzz_units = [
            FuzzUnit(*target) for target in fuzz_targets_for(campaign, config)
        ]
        if fuzz_units:
            fuzz_by_key = await _submit_interleaved(
                service,
                world_key,
                fuzz_units,
                config,
                tenants,
                interleave_seed + 1,
            )
            campaign.fuzz_reports = [
                fuzz_by_key[
                    work_key(world_key, unit, config.repetitions)
                ].result
                for unit in fuzz_units
            ]
    return campaign


async def _submit_interleaved(
    service: CampaignService,
    world_key: WorldKey,
    units: Sequence,
    config: CampaignConfig,
    tenants: int,
    interleave_seed: int,
    duplication: float = 0.5,
) -> Dict[Tuple, UnitResult]:
    """Submit ``units`` as a shuffled duplicate-heavy multi-tenant mix.

    Returns one :class:`UnitResult` per distinct work key; raises
    :class:`ServiceError` if any unit failed.
    """
    rng = random.Random(interleave_seed)
    submissions = list(units)
    if units:
        submissions.extend(
            rng.choice(units) for _ in range(int(len(units) * duplication))
        )
    rng.shuffle(submissions)
    requests = []
    index = 0
    while index < len(submissions):
        size = rng.randint(1, 3)
        batch = tuple(submissions[index : index + size])
        index += size
        requests.append(
            ProbeRequest(
                tenant=f"tenant-{rng.randrange(max(1, tenants))}",
                world=world_key,
                units=batch,
                repetitions=config.repetitions,
                priority=rng.randrange(3),
            )
        )
    streams = await asyncio.gather(
        *(service.submit(request) for request in requests)
    )
    results: Dict[Tuple, UnitResult] = {}
    for stream in streams:
        for result in await stream.collect():
            if result.error is not None:
                raise ServiceError(
                    f"work unit {result.key!r} failed after "
                    f"{result.attempts} attempt(s): {result.error}"
                )
            results[result.key] = result
    return results
