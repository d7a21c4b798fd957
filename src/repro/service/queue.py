"""The job queue: coalescing, priorities, rate limits, backpressure.

Single-threaded by design: the service runs inside one asyncio event
loop and executes work units synchronously on it, one at a time,
through :meth:`~repro.experiments.executor.CampaignExecutor.run_unit`.
That gives per-unit atomicity for free — no unit ever observes another
unit's partial state — and combined with the executor's ``prepare_unit``
reset protocol it yields the service's hard invariant:

    **Scheduling decides when a unit runs, never what it computes.**
    Per-work-unit results are byte-identical to a direct serial
    ``run_campaign`` of the same configuration, regardless of request
    interleaving, tenant mix, priorities, or coalescing.

Flow control, all surfaced as ``service.*`` telemetry counters:

* **Coalescing** — the unit's content key (:func:`~repro.service.jobs.
  work_key`) indexes a unit-state table; duplicate submissions attach
  to the pending/running entry (or are answered straight from the
  done-cache) instead of enqueueing a second execution.
* **Rate limiting** — per-tenant token buckets; one token admits one
  unit (coalesced or not: tokens price tenant *demand*, not backend
  work). Buckets refill on every service tick: a tick follows each
  dispatched unit, and an idle dispatcher also ticks whenever
  submitters are parked, so throttling can never deadlock.
* **FIFO hand-off** — a submitter that finds its bucket empty parks on
  a future at the tail of that bucket's waiter deque. Each tick
  refills the buckets (in sorted tenant order) and hands every whole
  token straight to the head waiter: the tick takes the token on the
  waiter's behalf and resolves its future. A woken submitter therefore
  owns its token and never re-checks the bucket, and a tick resumes
  only the submitters it admits, not every parked one. A fresh arrival
  takes a token only while its bucket has no waiters, so it never
  overtakes a parked submitter of the same tenant: a tenant's units
  pass the gate in arrival order.
* **Backpressure** — admission of *new* (non-coalesced) units needs
  one of ``max_pending`` slots; a slot is held from admission until
  the dispatcher starts the unit. Submitters without a slot park in
  one FIFO deque, and each tick hands at most the free slots to its
  head. Duplicates are never back-pressured; they add no backend work.
  A submitter woken with a slot re-checks the coalescing table (its
  key may have been admitted meanwhile) and, if it coalesces, releases
  the slot, so the next tick passes it to the next waiter.
* **Stop and cancel** — :meth:`CampaignService.stop` fails every parked
  submitter at both gates with ``ServiceError("service stopped")``. A
  submitter cancelled while parked leaves its deque without consuming
  anything; one cancelled after its token or slot was handed over
  gives it back (the token to its bucket, the slot to the next waiter).
* **Priorities** — a binary heap on ``(priority, admission_seq)``:
  lower priority value first, FIFO within a priority level.
* **Retry-or-report** — a unit whose worker process died
  (:class:`~repro.experiments.executor.ExecutorError`) gets a fresh
  executor and up to ``max_retries`` retries; if it keeps failing the
  error is *delivered* to every subscriber as a failed
  :class:`~repro.service.jobs.UnitResult` and the service keeps
  serving. The queue never hangs on a dead worker.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..experiments.executor import CampaignExecutor, ExecutorError, unit_work_key
from ..geo.countries import StudyWorld
from ..persist import (
    UnitCache,
    unit_cache_key,
    unit_result_from_dict,
    unit_result_to_dict,
)
from ..telemetry import RunReport, Telemetry, wall_now
from ..telemetry_registry import (
    SERVICE_BACKPRESSURE_WAITS,
    SERVICE_CACHE_RESTORED,
    SERVICE_COALESCED,
    SERVICE_COALESCED_CACHED,
    SERVICE_COALESCED_INFLIGHT,
    SERVICE_RATE_LIMITED_WAITS,
    SERVICE_REQUESTS,
    SERVICE_UNITS_ENQUEUED,
    SERVICE_UNITS_EXECUTED,
    SERVICE_UNITS_REQUESTED,
    SERVICE_UNIT_FAILURES,
    SERVICE_UNIT_RETRIES,
    SPAN_SERVICE_UNIT,
)
from .jobs import (
    ProbeRequest,
    ResultStream,
    ServiceError,
    UnitResult,
    WorldKey,
    kind_of,
    work_key,
)

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"


@dataclass
class ServiceConfig:
    """Operational knobs for one :class:`CampaignService`."""

    #: Backpressure bound: max distinct work units queued-but-not-started.
    #: Admission of new units awaits below this depth.
    max_pending: int = 64
    #: Per-tenant token-bucket refill, in tokens per service tick
    #: (``None`` disables rate limiting). One token admits one unit.
    rate: Optional[float] = None
    #: Token-bucket capacity: how many units a tenant may burst-admit.
    burst: int = 8
    #: Retries (on a rebuilt executor) for units whose worker died.
    max_retries: int = 1
    #: Worker processes per world executor (``None`` = in-process).
    workers: Optional[int] = None
    #: Directory for a persistent :class:`~repro.persist.UnitCache`.
    #: When set, completed unit payloads survive service restarts: a
    #: fresh service answers previously-computed units from disk
    #: without re-simulating (``service.cache_restored`` counter).
    #: ``None`` keeps the service memory-only, as before.
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # Each rejected value would hang the service: no token or slot
        # would ever be handed out, or no executor could run a unit.
        if self.rate is not None and not self.rate > 0:
            raise ServiceError(f"rate must be > 0 or None, got {self.rate}")
        if self.burst < 1:
            raise ServiceError(f"burst must be >= 1, got {self.burst}")
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.max_retries < 0:
            raise ServiceError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.workers is not None and self.workers < 1:
            raise ServiceError(
                f"workers must be >= 1 or None, got {self.workers}"
            )


def _hand_off(waiters: Deque[asyncio.Future]) -> bool:
    """Resolve the first still-parked waiter; False if there is none.

    Futures of submitters cancelled while parked are dropped on the way.
    """
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            return True
    return False


class _TokenBucket:
    __slots__ = ("rate", "burst", "tokens", "waiters")

    def __init__(self, rate: Optional[float], burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        #: Parked submitters, oldest first; each is handed one token.
        self.waiters: Deque[asyncio.Future] = deque()

    def try_take(self) -> bool:
        """Take a token for a fresh arrival, never ahead of a waiter."""
        if self.rate is None:
            return True
        if self.tokens >= 1.0 and not self.waiters:
            self.tokens -= 1.0
            return True
        return False

    def refill(self) -> None:
        """Add one tick's tokens and hand each whole one to a waiter."""
        if self.rate is None:
            return
        self.tokens = min(self.burst, self.tokens + self.rate)
        while self.tokens >= 1.0 and _hand_off(self.waiters):
            self.tokens -= 1.0

    def give_back(self) -> None:
        """Return a handed-off token its submitter will never use."""
        self.tokens = min(self.burst, self.tokens + 1.0)


@dataclass
class _UnitState:
    """One distinct work unit's lifecycle inside the service."""

    key: Tuple
    world: WorldKey
    kind: str
    unit: object
    repetitions: int
    priority: int
    seq: int
    status: str = _PENDING
    # (stream, coalesced) pairs awaiting this unit's completion.
    subscribers: List[Tuple[ResultStream, bool]] = field(default_factory=list)
    result: object = None
    payload: Optional[Dict] = None
    error: Optional[str] = None
    attempts: int = 0


class CampaignService:
    """An asyncio front end serving the measurement engine to many clients.

    Lifecycle::

        async with CampaignService(ServiceConfig(...)) as service:
            stream = await service.submit(request)
            async for unit_result in stream:
                ...

    See the module docstring for the flow-control model and the
    determinism-under-interleaving contract.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        # The service always carries an active sink: its counters ARE
        # the ops surface (hit rate, queue depth, retries) that stats()
        # and build_report() expose.
        if telemetry is None or not telemetry.enabled:
            telemetry = Telemetry()
        self.telemetry = telemetry
        self._worlds: Dict[WorldKey, StudyWorld] = {}
        self._executors: Dict[Tuple[WorldKey, int], CampaignExecutor] = {}
        self._states: Dict[Tuple, _UnitState] = {}
        self._heap: List[Tuple[int, int, Tuple]] = []
        self._seq = 0
        # Backpressure slots held: units queued-but-not-started plus
        # slots handed to woken submitters that have not enqueued yet.
        self._pending = 0
        self._slot_waiters: Deque[asyncio.Future] = deque()
        self._buckets: Dict[str, _TokenBucket] = {}
        self._wake = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._running = False
        self.max_depth = 0
        # Cross-restart persistence: payloads of completed units, keyed
        # by the same content hash the epoch scheduler uses (so an
        # observatory's cache and a service's cache interoperate).
        self._cache: Optional[UnitCache] = None
        if self.config.cache_dir is not None:
            self._cache = UnitCache(
                self.config.cache_dir, telemetry=self.telemetry
            )

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> "CampaignService":
        if not self._running:
            self._running = True
            self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        self._running = False
        self._wake.set()
        stopped = ServiceError("service stopped")
        for waiters in [self._slot_waiters] + [
            bucket.waiters for bucket in self._buckets.values()
        ]:
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(stopped)
            waiters.clear()
        # Snapshot-and-clear before awaiting: a start() racing this
        # stop() would otherwise have its fresh dispatcher clobbered by
        # the stale write after the await (RP802's check-then-act shape).
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            await dispatcher
        for executor in self._executors.values():
            executor.close()
        self._executors.clear()

    async def __aenter__(self) -> "CampaignService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- worlds and executors -----------------------------------------

    def world_for(self, key: WorldKey) -> StudyWorld:
        """The shared world instance for ``key`` (built on first use)."""
        world = self._worlds.get(key)
        if world is None:
            world = key.build()
            self._worlds[key] = world
        return world

    def _executor_for(
        self, world_key: WorldKey, repetitions: int
    ) -> CampaignExecutor:
        ekey = (world_key, repetitions)
        executor = self._executors.get(ekey)
        if executor is None:
            executor = CampaignExecutor(
                self.world_for(world_key),
                repetitions=repetitions,
                workers=self.config.workers,
                telemetry=self.telemetry,
            )
            self._executors[ekey] = executor
        return executor

    def _discard_executor(self, world_key: WorldKey, repetitions: int) -> None:
        executor = self._executors.pop((world_key, repetitions), None)
        if executor is not None:
            executor.close()

    # -- submission ---------------------------------------------------

    async def submit(self, request: ProbeRequest) -> ResultStream:
        """Admit one request; returns its :class:`ResultStream`.

        Awaits per-tenant rate-limit tokens and (for new units)
        backpressure capacity — callers therefore experience admission
        control, not an unbounded fire-and-forget queue.
        """
        if not self._running:
            raise ServiceError(
                "service is not running — enter 'async with "
                "CampaignService(...)' or await start() first"
            )
        tel = self.telemetry
        tel.count(SERVICE_REQUESTS)
        stream = ResultStream(len(request.units))
        bucket = self._buckets.get(request.tenant)
        if bucket is None:
            bucket = _TokenBucket(self.config.rate, self.config.burst)
            self._buckets[request.tenant] = bucket
        for unit in request.units:
            tel.count(SERVICE_UNITS_REQUESTED)
            await self._admit_tokens(bucket)
            key = work_key(request.world, unit, request.repetitions)
            state = self._states.get(key)
            if state is None and self._cache is not None:
                restored = self._restore_from_cache(key, request, unit)
                if restored is not None:
                    # Restored units add no backend work, so like
                    # coalesced duplicates they bypass backpressure.
                    stream._deliver(
                        self._result_for(restored, coalesced=False)
                    )
                    continue
            if state is None:
                await self._admit_backpressure()
                # Re-check: while this task awaited capacity, another
                # submitter may have admitted the same unit. Missing
                # this re-check double-enqueues the key and orphans the
                # first state's subscribers.
                state = self._states.get(key)
                if state is not None:
                    self._release_slot()
            if state is not None:
                tel.count(SERVICE_COALESCED)
                if state.status in (_DONE, _FAILED):
                    tel.count(SERVICE_COALESCED_CACHED)
                    stream._deliver(self._result_for(state, coalesced=True))
                else:
                    tel.count(SERVICE_COALESCED_INFLIGHT)
                    state.subscribers.append((stream, True))
                continue
            self._seq += 1
            state = _UnitState(
                key=key,
                world=request.world,
                kind=kind_of(unit),
                unit=unit,
                repetitions=request.repetitions,
                priority=request.priority,
                seq=self._seq,
            )
            state.subscribers.append((stream, False))
            self._states[key] = state
            heapq.heappush(self._heap, (request.priority, self._seq, key))
            if len(self._heap) > self.max_depth:
                self.max_depth = len(self._heap)
            tel.count(SERVICE_UNITS_ENQUEUED)
            self._wake.set()
            # Yield so the dispatcher can interleave with bulk
            # submissions instead of the whole batch landing first.
            await asyncio.sleep(0)
        return stream

    def _persist_key(
        self, world: WorldKey, kind: str, unit, repetitions: int
    ) -> str:
        fault_plan = world.fault_plan
        identity = [
            world.country.upper(),
            world.seed,
            world.scale,
            fault_plan.to_dict() if fault_plan is not None else None,
        ]
        return unit_cache_key(
            identity, unit_work_key(kind, unit, repetitions)
        )

    def _restore_from_cache(
        self, key: Tuple, request: ProbeRequest, unit
    ) -> Optional[_UnitState]:
        """A DONE state rebuilt from the persistent cache, or None."""
        kind = kind_of(unit)
        entry = self._cache.get(
            self._persist_key(request.world, kind, unit, request.repetitions)
        )
        if entry is None or entry["kind"] != kind:
            return None
        self.telemetry.count(SERVICE_CACHE_RESTORED)
        self._seq += 1
        state = _UnitState(
            key=key,
            world=request.world,
            kind=kind,
            unit=unit,
            repetitions=request.repetitions,
            priority=request.priority,
            seq=self._seq,
            status=_DONE,
        )
        state.payload = entry["payload"]
        state.result = unit_result_from_dict(kind, entry["payload"])
        self._states[key] = state
        return state

    async def _admit_tokens(self, bucket: _TokenBucket) -> None:
        if bucket.try_take():
            return
        # Counted once per blocked admission: the number of unit
        # admissions the rate limiter actually delayed.
        self.telemetry.count(SERVICE_RATE_LIMITED_WAITS)
        await self._park(bucket.waiters, bucket.give_back)

    async def _admit_backpressure(self) -> None:
        """Hold one backpressure slot; released when dispatch starts."""
        if self._pending < self.config.max_pending and not self._slot_waiters:
            self._pending += 1
            return
        self.telemetry.count(SERVICE_BACKPRESSURE_WAITS)
        await self._park(self._slot_waiters, self._release_slot)

    async def _park(
        self, waiters: Deque[asyncio.Future], give_back: Callable[[], None]
    ) -> None:
        """Wait at the tail of ``waiters`` until a tick hands this
        submitter what it waits for (the tick takes it on its behalf).
        """
        if not self._running:
            raise ServiceError("service stopped")
        waiter = asyncio.get_running_loop().create_future()
        waiters.append(waiter)
        self._wake.set()
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.cancelled():
                # Still parked (or already dropped by a hand-off).
                if waiter in waiters:
                    waiters.remove(waiter)
            elif waiter.exception() is None:
                give_back()
            raise

    def _release_slot(self) -> None:
        """Free a held slot; the next tick hands it to a waiter."""
        self._pending -= 1
        self._wake.set()

    # -- dispatch -----------------------------------------------------

    def _needs_tick(self) -> bool:
        """Whether parked submitters wait on a tick with no unit queued."""
        if self._slot_waiters and self._pending < self.config.max_pending:
            return True
        return any(bucket.waiters for bucket in self._buckets.values())

    async def _dispatch_loop(self) -> None:
        while self._running:
            if self._heap:
                _, _, key = heapq.heappop(self._heap)
                state = self._states[key]
                self._pending -= 1
                state.status = _RUNNING
                self._execute(state)
                await self._tick()
            elif self._needs_tick():
                # Nothing in flight drives refills: tick so throttling
                # and freed slots never deadlock an idle queue.
                await self._tick()
            else:
                self._wake.clear()
                if self._heap or self._needs_tick() or not self._running:
                    continue
                await self._wake.wait()

    async def _tick(self) -> None:
        """One service tick: refill every bucket and hand tokens and free
        slots to the head waiters; no other parked submitter wakes."""
        for tenant in sorted(self._buckets):
            self._buckets[tenant].refill()
        while self._pending < self.config.max_pending and _hand_off(
            self._slot_waiters
        ):
            self._pending += 1
        # Hand the loop to woken submitters before the next dispatch.
        await asyncio.sleep(0)

    def _execute(self, state: _UnitState) -> None:
        """Run one unit to completion (or final failure) and fan out.

        Synchronous on the event loop: per-unit atomicity is structural,
        not locked-for.
        """
        tel = self.telemetry
        last_error: Optional[BaseException] = None
        attempts = 1 + max(0, self.config.max_retries)
        for attempt in range(attempts):
            state.attempts = attempt + 1
            executor = self._executor_for(state.world, state.repetitions)
            wall0 = wall_now()
            try:
                result, snapshot = executor.run_unit(
                    state.kind, state.unit, collect=True
                )
            except ExecutorError as exc:
                last_error = exc
                # The executor's pool is broken; rebuild it for the
                # retry (and for every later unit on this world).
                self._discard_executor(state.world, state.repetitions)
                if attempt + 1 < attempts:
                    tel.count(SERVICE_UNIT_RETRIES)
                    continue
                tel.count(SERVICE_UNIT_FAILURES)
                break
            except Exception as exc:  # defensive: report, never hang
                last_error = exc
                tel.count(SERVICE_UNIT_FAILURES)
                break
            state.status = _DONE
            state.result = result
            state.payload = unit_result_to_dict(state.kind, result)
            if self._cache is not None:
                self._cache.put(
                    self._persist_key(
                        state.world, state.kind, state.unit, state.repetitions
                    ),
                    state.kind,
                    state.payload,
                )
            if snapshot is not None:
                tel.merge_snapshot(snapshot)
                tel.add_virtual(SPAN_SERVICE_UNIT, snapshot["virtual_seconds"])
                tel.record_unit_wall(
                    "service", snapshot["wall_seconds"], snapshot["pid"]
                )
            else:
                # Pool mode with collection disabled at pool init still
                # contributes to the latency surface.
                tel.record_unit_wall("service", wall_now() - wall0, 0)
            tel.count(SERVICE_UNITS_EXECUTED)
            self._fanout(state)
            return
        state.status = _FAILED
        state.error = f"{type(last_error).__name__}: {last_error}"
        self._fanout(state)

    def _fanout(self, state: _UnitState) -> None:
        for stream, coalesced in state.subscribers:
            stream._deliver(self._result_for(state, coalesced=coalesced))
        state.subscribers = []

    def _result_for(self, state: _UnitState, coalesced: bool) -> UnitResult:
        return UnitResult(
            key=state.key,
            kind=state.kind,
            unit=state.unit,
            result=state.result,
            payload=state.payload,
            error=state.error,
            coalesced=coalesced,
            attempts=state.attempts,
        )

    # -- observability ------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Live operational stats, derived from the service counters."""
        counters = self.telemetry.counters
        requested = counters.get(SERVICE_UNITS_REQUESTED, 0)
        coalesced = counters.get(SERVICE_COALESCED, 0)
        return {
            "requests": counters.get(SERVICE_REQUESTS, 0),
            "units_requested": requested,
            "units_executed": counters.get(SERVICE_UNITS_EXECUTED, 0),
            "coalesced": coalesced,
            "coalescing_hit_rate": (coalesced / requested) if requested else 0.0,
            "rate_limited_waits": counters.get(SERVICE_RATE_LIMITED_WAITS, 0),
            "backpressure_waits": counters.get(SERVICE_BACKPRESSURE_WAITS, 0),
            "unit_retries": counters.get(SERVICE_UNIT_RETRIES, 0),
            "unit_failures": counters.get(SERVICE_UNIT_FAILURES, 0),
            "max_queue_depth": self.max_depth,
        }

    def build_report(self, meta: Optional[Dict] = None) -> RunReport:
        """Freeze the service sink into a RunReport.

        Queue depth and the coalescing hit rate are wall-layer facts
        (they depend on request interleaving, which must never enter
        the identity sections).
        """
        stats = self.stats()
        return self.telemetry.build_report(
            meta=dict(meta or {}),
            wall_extra={
                "queue_depth_max": self.max_depth,
                "coalescing_hit_rate": round(
                    stats["coalescing_hit_rate"], 4
                ),
            },
        )
