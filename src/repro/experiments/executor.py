"""Parallel campaign execution engine.

A campaign decomposes into independent **work units**: one CenTrace
measurement per (vantage, endpoint, domain, protocol) and one CenFuzz
endpoint run per (endpoint, domain, protocol). This module shards those
units across ``multiprocessing`` workers while keeping a hard
guarantee: a parallel run is **bit-identical** to the serial run.

Two properties make that possible:

1. Worlds are pure functions of :class:`~repro.geo.countries.WorldSpec`
   (country, seed, scale), so each worker process rebuilds its own
   replica instead of sharing simulator state.

2. Every unit starts from the same canonical state regardless of which
   process — or in what order — executes it. :func:`prepare_unit`
   resets all cross-measurement mutable state (simulator clock/RNG/
   stacks, device residual and injection tracking, and the
   simulator-owned :class:`~repro.netmodel.netctx.NetContext` whose
   streams supply every IP ID, ephemeral port, injected sequential
   IP ID and fake-DNS cursor value) and re-seeds the simulator RNG
   from a digest of the unit's content. A unit's result is then a
   function of (world spec, unit) alone.

Results are merged back in canonical work-unit order, so callers never
observe scheduling. Serial execution (``workers=None``) goes through
the exact same prepare/execute path in-process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cenfuzz import CenFuzz, EndpointFuzzReport
from ..core.centrace import CenTrace, CenTraceConfig, CenTraceResult
from ..geo.countries import StudyWorld
from ..telemetry import NULL_TELEMETRY, Telemetry, wall_now
from ..telemetry_registry import EVENT_STAGE, campaign_stage_span, fault_counter

VANTAGE_REMOTE = "remote"
VANTAGE_IN_COUNTRY = "in_country"

# Test hook: when set, worker processes die immediately (hard exit, no
# exception) so tests can exercise crash surfacing without a real fault.
CRASH_ENV = "REPRO_EXECUTOR_TEST_CRASH"

# Test hook: when set to a substring of a work-unit key, the worker
# process executing that unit hard-exits *mid-campaign* — the
# crashed-mid-unit case, distinct from CRASH_ENV's crash-at-init.
CRASH_UNIT_ENV = "REPRO_EXECUTOR_TEST_CRASH_UNIT"


class ExecutorError(RuntimeError):
    """A worker pool failed in a way that loses results."""


@dataclass(frozen=True)
class TraceUnit:
    """One CenTrace measurement."""

    vantage: str  # VANTAGE_REMOTE | VANTAGE_IN_COUNTRY
    endpoint_ip: str
    domain: str
    protocol: str

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.vantage, self.endpoint_ip, self.domain, self.protocol)


@dataclass(frozen=True)
class FuzzUnit:
    """One CenFuzz endpoint run."""

    endpoint_ip: str
    domain: str
    protocol: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.endpoint_ip, self.domain, self.protocol)


# -- per-unit determinism ----------------------------------------------------


def unit_work_key(
    kind: str, unit, repetitions: int
) -> Tuple[str, int, Tuple[str, ...]]:
    """Canonical content key for one work unit.

    Two work units with equal keys produce byte-identical results on
    worlds built from the same :class:`~repro.geo.countries.WorldSpec`
    (:func:`prepare_unit` makes every unit a pure function of the world
    spec and the unit's content). The campaign service coalesces
    duplicate requests on exactly this key — prefixed with the world's
    identity — so "identical work" is a content question, never an
    object-identity or submission-order question.
    """
    return (kind, repetitions, tuple(unit.key))


def unit_seed(world_seed: int, kind: str, key: Sequence[str]) -> int:
    """Deterministic RNG seed for one work unit.

    Content-based (never index-based) so the seed is stable across
    processes, unit orderings and subsetting.
    """
    material = "|".join([str(world_seed), kind, *key]).encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def prepare_unit(world: StudyWorld, kind: str, key: Sequence[str]) -> None:
    """Reset all cross-measurement mutable state before one unit.

    After this call the upcoming measurement depends only on the world's
    construction parameters and the unit's content — the invariant that
    makes serial and parallel campaigns bit-identical.
    """
    world.sim.reset(rng_seed=unit_seed(world.sim.seed, kind, key))
    for device in world.devices:
        device.reset_state()
    # Identifier allocation (IP IDs, ephemeral ports, sequential
    # injection IDs, the fake-DNS cursor) lives on the world's
    # NetContext; sim.reset() above already rewound it, but the reset
    # protocol names it explicitly — it is the contract that replaced
    # the old module-global counter ritual.
    world.net_context.reset()


# -- unit execution (shared by serial path and workers) ----------------------


@dataclass
class Toolset:
    """Tracers/fuzzer bound to one world instance.

    The single-unit execution surface shared by the serial path, the
    worker processes and the campaign service (``repro.service``).
    """

    world: StudyWorld
    remote_tracer: CenTrace
    in_country_tracer: Optional[CenTrace]
    fuzzer: CenFuzz

    @classmethod
    def build(cls, world: StudyWorld, repetitions: int) -> "Toolset":
        trace_config = CenTraceConfig(repetitions=repetitions)
        remote = CenTrace(
            world.sim, world.remote_client, asdb=world.asdb, config=trace_config
        )
        in_country = None
        if world.in_country_client is not None:
            in_country = CenTrace(
                world.sim,
                world.in_country_client,
                asdb=world.asdb,
                config=trace_config,
            )
        fuzzer = CenFuzz(world.sim, world.remote_client)
        return cls(world, remote, in_country, fuzzer)

    def run_trace(self, unit: TraceUnit) -> CenTraceResult:
        prepare_unit(self.world, "trace", unit.key)
        if unit.vantage == VANTAGE_REMOTE:
            tracer = self.remote_tracer
        elif self.in_country_tracer is not None:
            tracer = self.in_country_tracer
        else:
            raise ExecutorError(
                f"unit {unit} needs an in-country vantage but "
                f"world {self.world.country!r} has none"
            )
        return tracer.measure(
            unit.endpoint_ip,
            unit.domain,
            unit.protocol,
            control_domain=self.world.control_domain,
        )

    def run_fuzz(self, unit: FuzzUnit) -> EndpointFuzzReport:
        prepare_unit(self.world, "fuzz", unit.key)
        return self.fuzzer.run_endpoint(
            unit.endpoint_ip,
            unit.domain,
            unit.protocol,
            control_domain=self.world.control_domain,
        )


# -- per-unit telemetry ------------------------------------------------------


def run_unit_instrumented(
    toolset: Toolset, method: str, unit, collect: bool
) -> Tuple[object, Optional[Dict]]:
    """Execute one unit, optionally under a fresh per-unit telemetry sink.

    Both the serial path and the worker processes come through here, so
    serial and parallel campaigns perform *identical* telemetry work:
    one fresh :class:`~repro.telemetry.Telemetry` per unit, snapshotted
    after the measurement and merged back in canonical unit order. The
    snapshot also carries the unit's total virtual-clock duration (the
    simulator clock ends the unit at its virtual runtime, since
    :func:`prepare_unit` zeroes it) and the ground-truth fault tallies.

    Wall-clock duration and the executing PID ride along for the wall
    section of the run report (worker shard balance, unit latency) and
    never enter the deterministic identity sections.
    """
    bound = getattr(toolset, method)
    if not collect:
        return bound(unit), None
    sim = toolset.world.sim
    tel = Telemetry()
    previous = sim.telemetry
    sim.set_telemetry(tel)
    wall0 = wall_now()
    try:
        result = bound(unit)
    finally:
        sim.set_telemetry(previous)
    snapshot = tel.snapshot()
    if sim._faults is not None:
        for f in dataclasses.fields(sim._faults.counters):
            value = getattr(sim._faults.counters, f.name)
            if value:
                counters = snapshot["counters"]
                key = fault_counter(f.name)
                counters[key] = counters.get(key, 0) + value
    snapshot["virtual_seconds"] = sim.clock
    snapshot["wall_seconds"] = wall_now() - wall0
    snapshot["pid"] = os.getpid()
    return result, snapshot


# -- worker process side -----------------------------------------------------

# One toolset per worker process, built once by the pool initializer
# around a private world replica.
_WORKER_TOOLSET: Optional[Toolset] = None
_WORKER_COLLECT = False


def _worker_init(spec, repetitions: int, collect_telemetry: bool = False) -> None:
    global _WORKER_TOOLSET, _WORKER_COLLECT
    if os.environ.get(CRASH_ENV):
        # Hard exit — simulates a worker segfault/OOM kill. The parent
        # sees BrokenProcessPool, which must surface as ExecutorError.
        os._exit(17)
    world = spec.build()
    _WORKER_TOOLSET = Toolset.build(world, repetitions)
    _WORKER_COLLECT = collect_telemetry


def _maybe_crash_mid_unit(unit) -> None:
    """Die mid-campaign when CRASH_UNIT_ENV names this unit (tests only).

    Runs in the worker process, after the pool initialized successfully
    — the crash therefore loses an in-flight unit, which is the case
    the executor must surface as a BrokenProcessPool-wrapped
    ExecutorError instead of hanging the campaign.
    """
    needle = os.environ.get(CRASH_UNIT_ENV)
    if needle and needle in "|".join(str(part) for part in unit.key):
        os._exit(23)


def _worker_trace(unit: TraceUnit):
    assert _WORKER_TOOLSET is not None, "worker initializer did not run"
    _maybe_crash_mid_unit(unit)
    return run_unit_instrumented(
        _WORKER_TOOLSET, "run_trace", unit, _WORKER_COLLECT
    )


def _worker_fuzz(unit: FuzzUnit):
    assert _WORKER_TOOLSET is not None, "worker initializer did not run"
    _maybe_crash_mid_unit(unit)
    return run_unit_instrumented(
        _WORKER_TOOLSET, "run_fuzz", unit, _WORKER_COLLECT
    )


# -- the executor ------------------------------------------------------------


class CampaignExecutor:
    """Executes campaign work units, optionally across worker processes.

    ``workers=None`` (or 0) runs every unit in-process; ``workers=N``
    shards units over N processes, each holding a world replica rebuilt
    from ``world.spec``. Both paths produce byte-identical results in
    canonical (input) order. Use as a context manager so the pool is
    torn down promptly.
    """

    def __init__(
        self,
        world: StudyWorld,
        repetitions: int = 3,
        workers: Optional[int] = None,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.world = world
        self.repetitions = repetitions
        self.workers = workers
        self.telemetry = telemetry
        self._pool: Optional[ProcessPoolExecutor] = None
        self._toolset: Optional[Toolset] = None
        if workers is not None and workers >= 1:
            if world.spec is None:
                raise ExecutorError(
                    "parallel execution needs world.spec so workers can "
                    "rebuild replicas; this world was hand-built — use "
                    "build_world() or run with workers=None"
                )
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-forking platforms
                ctx = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(world.spec, repetitions, telemetry.enabled),
            )

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- execution ----------------------------------------------------

    def run_traces(self, units: Sequence[TraceUnit]) -> List[CenTraceResult]:
        return self._run(units, _worker_trace, "run_trace", "traces")

    def run_fuzz(self, units: Sequence[FuzzUnit]) -> List[EndpointFuzzReport]:
        return self._run(units, _worker_fuzz, "run_fuzz", "fuzz")

    def run_unit(
        self, kind: str, unit, collect: bool = False
    ) -> Tuple[object, Optional[Dict]]:
        """Execute ONE work unit — the campaign service's entry point.

        Returns ``(result, snapshot)`` exactly as
        :func:`run_unit_instrumented` does (``snapshot`` is ``None``
        unless telemetry is collected; in pool mode collection follows
        the executor's own telemetry flag, set at pool init). A worker
        process that dies mid-unit surfaces as an
        :class:`ExecutorError` whose ``__cause__`` is the pool's
        ``BrokenProcessPool`` — callers retry on a fresh executor or
        report the unit as failed; they never hang on a dead worker.
        """
        if kind == "trace":
            method, worker_fn = "run_trace", _worker_trace
        elif kind == "fuzz":
            method, worker_fn = "run_fuzz", _worker_fuzz
        else:
            raise ExecutorError(f"unknown work-unit kind {kind!r}")
        if self._pool is None:
            return run_unit_instrumented(
                self._local_toolset(), method, unit, collect
            )
        try:
            return self._pool.submit(worker_fn, unit).result()
        except BrokenProcessPool as exc:
            raise ExecutorError(
                f"a campaign worker process died while executing {kind} "
                f"unit {getattr(unit, 'key', unit)!r} "
                f"(workers={self.workers}); the in-flight result was "
                "lost — retry on a fresh executor or report the unit "
                "as failed"
            ) from exc

    def _run(
        self, units: Sequence[object], worker_fn, method: str, stage: str
    ) -> List:
        if not units:
            return []
        tel = self.telemetry
        collect = tel.enabled
        if collect:
            tel.event(EVENT_STAGE, stage=stage, units=len(units))
        wall0 = wall_now() if collect else 0.0
        if self._pool is None:
            toolset = self._local_toolset()
            pairs = [
                run_unit_instrumented(toolset, method, unit, collect)
                for unit in units
            ]
        else:
            try:
                # map() preserves input order, so merged results come
                # back in canonical work-unit order regardless of
                # scheduling.
                pairs = list(self._pool.map(worker_fn, units))
            except BrokenProcessPool as exc:
                raise ExecutorError(
                    f"a campaign worker process died while executing "
                    f"{len(units)} {method} unit(s); partial results were "
                    f"discarded (workers={self.workers}). Re-run with "
                    f"workers=None to execute serially."
                ) from exc
        results = []
        for result, snapshot in pairs:
            results.append(result)
            if snapshot is not None:
                # Canonical-order merge: identical for serial and
                # parallel runs, which keeps event order and float
                # accumulation byte-identical.
                tel.merge_snapshot(snapshot)
                tel.add_virtual(
                    campaign_stage_span(stage), snapshot["virtual_seconds"]
                )
                tel.record_unit_wall(
                    stage, snapshot["wall_seconds"], snapshot["pid"]
                )
        if collect:
            tel.add_wall(campaign_stage_span(stage), wall_now() - wall0)
        return results

    def _local_toolset(self) -> Toolset:
        if self._toolset is None:
            self._toolset = Toolset.build(self.world, self.repetitions)
        return self._toolset
