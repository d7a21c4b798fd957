"""Incremental epoch scheduler: longitudinal campaigns with unit reuse.

Continuous platforms (ICLab, Censored Planet) re-measure the same
targets on a cadence, and most measurements come back unchanged — the
interesting output is the *diff*. The :class:`EpochScheduler` runs one
campaign per virtual-time epoch of a drifting world
(:mod:`repro.geo.drift`) and skips re-simulating any work unit that the
epoch's drift provably cannot have changed, reusing the serialized
result from a persistent :class:`~repro.persist.UnitCache` instead.

The **reuse contract** rests on two established invariants plus one
route argument:

1. A unit's result is a pure function of (world spec, unit content) —
   :func:`~repro.experiments.executor.prepare_unit` resets all
   cross-measurement state, which is what already makes serial,
   parallel and service execution byte-identical.
2. A unit's packets traverse only the paths of its (client, endpoint)
   route: forward walks, reverse walks and injection walks all resolve
   the same :class:`~repro.netsim.routing.Route`. Drift ops mutate only
   named devices and AS registry entries, so an op whose target is not
   on any of those paths (and not the endpoint's or client's AS) cannot
   alter the unit's bytes.
3. Therefore the cache key = hash(base world identity, unit content,
   the drift ops that *can* touch the unit). Unaffected units hash the
   same in every epoch and hit; affected units' keys change exactly
   when a new op lands on their route.

The cache itself is append-only JSONL (``units.jsonl``), so the reuse
survives process restarts — the PR 7 service-cache-persistence headroom
item, shared with :class:`~repro.service.queue.CampaignService`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.cenprobe import CenProbe
from ..geo.countries import StudyWorld, build_world
from ..geo.drift import DriftPlan, ops_touching, unit_touchpoints
from ..persist import UnitCache, to_dict, unit_cache_key, unit_result_from_dict
from ..telemetry import NULL_TELEMETRY
from .campaign import (
    CampaignConfig,
    CountryCampaign,
    fuzz_targets_for,
    trace_units_for,
)
from .executor import (
    VANTAGE_REMOTE,
    CampaignExecutor,
    FuzzUnit,
    unit_work_key,
)


@dataclass
class EpochResult:
    """One epoch's campaign plus its reuse accounting."""

    epoch: int
    campaign: CountryCampaign
    reused_trace_units: int = 0
    executed_trace_units: int = 0
    reused_fuzz_units: int = 0
    executed_fuzz_units: int = 0
    drift_ops_applied: int = 0

    @property
    def total_units(self) -> int:
        return (
            self.reused_trace_units
            + self.executed_trace_units
            + self.reused_fuzz_units
            + self.executed_fuzz_units
        )

    @property
    def reused_units(self) -> int:
        return self.reused_trace_units + self.reused_fuzz_units

    @property
    def reuse_rate(self) -> float:
        total = self.total_units
        return self.reused_units / total if total else 0.0


class EpochScheduler:
    """Runs a campaign per epoch, reusing drift-unaffected work units.

    ``cache=None`` disables reuse (every epoch runs in full, useful for
    ground-truth comparisons); passing a :class:`~repro.persist.UnitCache`
    enables it, persistently. Probes (CenProbe banner grabs) always run
    live: they read only static topology, cost no simulation, and the
    fact extractor wants current-epoch vendor answers.
    """

    def __init__(
        self,
        country: str,
        *,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        config: Optional[CampaignConfig] = None,
        drift_plan: Optional[DriftPlan] = None,
        cache: Optional[UnitCache] = None,
        workers: Optional[int] = None,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.country = country
        self.seed = seed
        self.scale = scale
        self.config = config or CampaignConfig()
        self.drift_plan = drift_plan
        self.cache = cache
        self.workers = workers
        self.telemetry = telemetry
        # The world-identity prefix every unit key shares: everything
        # that changes *all* results when it changes. Epoch is absent by
        # design — that is the whole reuse mechanism.
        fault_plan = self.config.fault_plan
        self._base_identity = [
            country.upper(),
            seed,
            scale,
            fault_plan.to_dict() if fault_plan is not None else None,
        ]

    # -- world/epoch plumbing -------------------------------------------

    def build_epoch_world(self, epoch: int) -> StudyWorld:
        return build_world(
            self.country,
            seed=self.seed,
            scale=self.scale,
            fault_plan=self.config.fault_plan,
            drift_plan=self.drift_plan,
            epoch=epoch,
        )

    def _unit_key(
        self, world: StudyWorld, kind: str, unit, live_ops
    ) -> str:
        client = (
            world.remote_client
            if getattr(unit, "vantage", VANTAGE_REMOTE) == VANTAGE_REMOTE
            else world.in_country_client
        )
        device_names, asns = unit_touchpoints(
            world, client.ip, unit.endpoint_ip
        )
        touching = ops_touching(live_ops, device_names, asns)
        return unit_cache_key(
            self._base_identity,
            unit_work_key(kind, unit, self.config.repetitions),
            [op.to_dict() for op in touching],
        )

    # -- cached unit execution ------------------------------------------

    def _run_cached(
        self,
        executor: CampaignExecutor,
        kind: str,
        units: Sequence,
        world: StudyWorld,
        live_ops,
    ) -> Tuple[List, int, int]:
        """Run ``units`` through the cache: (results, reused, executed).

        Misses execute as one batch in canonical order (input order is
        preserved by the executor), then interleave back into their
        original slots — so the merged list is byte-identical to a full
        run, which only works because every unit is independent
        (:func:`prepare_unit` even keeps results stable under
        subsetting).
        """
        results: List = [None] * len(units)
        keys = [self._unit_key(world, kind, unit, live_ops) for unit in units]
        miss_indices: List[int] = []
        for index, key in enumerate(keys):
            entry = self.cache.get(key) if self.cache is not None else None
            if entry is not None and entry["kind"] == kind:
                results[index] = unit_result_from_dict(kind, entry["payload"])
            else:
                miss_indices.append(index)
        miss_units = [units[i] for i in miss_indices]
        if kind == "trace":
            fresh = executor.run_traces(miss_units)
        else:
            fresh = executor.run_fuzz(miss_units)
        for index, result in zip(miss_indices, fresh):
            results[index] = result
            if self.cache is not None:
                self.cache.put(keys[index], kind, to_dict(result))
        reused = len(units) - len(miss_indices)
        self.telemetry.count(f"store.units_reused.{kind}", reused)
        self.telemetry.count(f"store.units_executed.{kind}", len(miss_units))
        return results, reused, len(miss_indices)

    # -- epochs ----------------------------------------------------------

    def run_epoch(self, epoch: int) -> EpochResult:
        """Measure the world as of ``epoch``, reusing what drift spared."""
        config = self.config
        world = self.build_epoch_world(epoch)
        live_ops = (
            self.drift_plan.ops_at(epoch) if self.drift_plan is not None else ()
        )
        campaign = CountryCampaign(
            world=world, config=config, workers=self.workers
        )
        result = EpochResult(
            epoch=epoch, campaign=campaign, drift_ops_applied=len(live_ops)
        )

        units = trace_units_for(world, config)
        n_remote = sum(1 for u in units if u.vantage == VANTAGE_REMOTE)
        with CampaignExecutor(
            world,
            repetitions=config.repetitions,
            workers=self.workers,
            telemetry=self.telemetry,
        ) as executor:
            traces, reused, executed = self._run_cached(
                executor, "trace", units, world, live_ops
            )
            result.reused_trace_units = reused
            result.executed_trace_units = executed
            campaign.remote_results = traces[:n_remote]
            campaign.in_country_results = traces[n_remote:]

            if config.run_probe:
                prober = CenProbe(world.topology, telemetry=self.telemetry)
                for ip in campaign.potential_device_ips():
                    campaign.probe_reports[ip] = prober.scan(ip)

            if config.run_fuzz:
                targets = fuzz_targets_for(campaign, config)
                fuzz_units = [FuzzUnit(*target) for target in targets]
                reports, reused, executed = self._run_cached(
                    executor, "fuzz", fuzz_units, world, live_ops
                )
                result.reused_fuzz_units = reused
                result.executed_fuzz_units = executed
                campaign.fuzz_reports = reports

        self.telemetry.count("store.epochs_run")
        return result

    def run(self, epochs: int) -> List[EpochResult]:
        """Run epochs ``0 .. epochs-1`` in order."""
        return [self.run_epoch(epoch) for epoch in range(epochs)]
