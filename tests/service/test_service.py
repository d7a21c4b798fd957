"""The campaign service job queue: coalescing, flow control, failure
delivery, and the determinism-under-interleaving contract (golden
digests through the service)."""

import asyncio
import dataclasses
import heapq
import json
import sys

import pytest

from repro.experiments.campaign import CampaignConfig, trace_units_for
from repro.experiments.executor import CRASH_UNIT_ENV
from repro.netsim.faults import FaultPlan
from repro.persist import save_campaign
from repro.service import (
    CampaignService,
    ProbeRequest,
    ServiceConfig,
    ServiceError,
    WorldKey,
    run_campaign_via_service,
)

from ..experiments.test_golden_digest import GOLDEN
from ..helpers_golden import digest_dir

WORLD = WorldKey("AZ", seed=7, scale=0.35)
CONFIG = CampaignConfig(repetitions=2, max_endpoints=4)

# Every async test is bounded: the failure mode these tests guard
# against is a hang (lost delivery, dead dispatcher), which must fail
# loudly instead of stalling the suite.
TIMEOUT = 120


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def pool_for(service):
    return trace_units_for(service.world_for(WORLD), CONFIG)


def request(units, tenant="t0", priority=1):
    return ProbeRequest(
        tenant=tenant, world=WORLD, units=tuple(units),
        repetitions=CONFIG.repetitions, priority=priority,
    )


class TestQueueMechanics:
    def test_submit_requires_running_service(self):
        async def main():
            service = CampaignService()
            with pytest.raises(ServiceError, match="not running"):
                await service.submit(request([]))

        run(main())

    def test_coalescing_computes_once_and_fans_out(self):
        async def main():
            async with CampaignService() as service:
                unit = pool_for(service)[0]
                s1, s2 = await asyncio.gather(
                    service.submit(request([unit, unit], tenant="a")),
                    service.submit(request([unit, unit], tenant="b")),
                )
                results = await s1.collect() + await s2.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["units_executed"] == 1
        assert stats["units_requested"] == 4
        assert stats["coalesced"] == 3
        assert stats["coalescing_hit_rate"] == 0.75
        # One subscriber triggered the execution; the rest coalesced.
        assert sum(1 for r in results if not r.coalesced) == 1
        # All four deliveries carry the same bytes.
        blobs = {json.dumps(r.payload, sort_keys=True) for r in results}
        assert len(blobs) == 1
        assert all(r.ok for r in results)

    def test_done_cache_answers_later_requests(self):
        async def main():
            async with CampaignService() as service:
                unit = pool_for(service)[0]
                first = await service.submit(request([unit]))
                await first.collect()
                later = await service.submit(request([unit], tenant="late"))
                results = await later.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["units_executed"] == 1
        assert results[0].coalesced
        assert results[0].ok

    def test_heap_orders_by_priority_then_admission(self):
        async def main():
            service = CampaignService(ServiceConfig(max_pending=100))
            # Admit without dispatching: the heap order is the contract.
            service._running = True
            units = pool_for(service)[:6]
            for index, unit in enumerate(units):
                await service.submit(
                    request([unit], priority=(2, 0, 1)[index % 3])
                )
            popped = [heapq.heappop(service._heap) for _ in range(6)]
            return [(priority, seq) for priority, seq, _ in popped]

        order = run(main())
        assert order == sorted(order)
        assert [p for p, _ in order] == [0, 0, 1, 1, 2, 2]

    def test_rate_limiting_throttles_a_tenant(self):
        async def main():
            config = ServiceConfig(rate=0.5, burst=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:5]
                stream = await service.submit(request(units))
                results = await stream.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["rate_limited_waits"] > 0
        assert len(results) == 5
        assert all(r.ok for r in results)

    def test_backpressure_bounds_queue_depth(self):
        async def main():
            config = ServiceConfig(max_pending=2)
            async with CampaignService(config) as service:
                units = pool_for(service)[:12]
                streams = await asyncio.gather(
                    *(
                        service.submit(request([unit], tenant=f"t{i % 3}"))
                        for i, unit in enumerate(units)
                    )
                )
                for stream in streams:
                    assert all(r.ok for r in await stream.collect())
                return service.stats()

        stats = run(main())
        assert stats["max_queue_depth"] <= 2
        assert stats["backpressure_waits"] > 0
        assert stats["units_executed"] == 12

    def test_admission_race_executes_each_unit_once(self):
        """Regression: a submitter that awaited backpressure capacity
        must re-check the coalescing table — without it the same key is
        enqueued twice and the first state's subscribers never hear
        back (the collect() below would hang)."""

        async def main():
            config = ServiceConfig(max_pending=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:5]
                # Two tenants submitting overlapping batches, forced to
                # interleave at the backpressure gate.
                s1, s2 = await asyncio.gather(
                    service.submit(request(units, tenant="a")),
                    service.submit(request(units, tenant="b")),
                )
                r1, r2 = await s1.collect(), await s2.collect()
                return service.stats(), r1, r2

        stats, r1, r2 = run(main())
        assert stats["units_executed"] == 5
        assert len(r1) == len(r2) == 5
        assert all(r.ok for r in r1 + r2)


class TestFlowControl:
    """FIFO hand-off at both admission gates: a tick resumes only the
    submitters it admits, in arrival order, and stop/cancel never strand
    or leak a token or slot."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", 0.0),
            ("rate", -1.0),
            ("burst", 0),
            ("max_pending", 0),
            ("max_retries", -1),
            ("workers", 0),
        ],
    )
    def test_config_rejects_values_that_would_hang(self, field, value):
        with pytest.raises(ServiceError, match=field):
            ServiceConfig(**{field: value})

    @staticmethod
    def _record_admissions(service, tasks):
        """Indices into ``tasks`` (arrival order, appended to later),
        in the order they pass the token gate."""
        admitted = []
        admit_tokens = service._admit_tokens

        async def recording(bucket):
            await admit_tokens(bucket)
            admitted.append(tasks.index(asyncio.current_task()))

        service._admit_tokens = recording
        return admitted

    def test_tick_resumes_only_admitted_submitters(self):
        """Regression for the thundering herd: with both gates full of
        parked submitters, every gate coroutine resumes at most once per
        wait it recorded, and each tenant admits in arrival order."""
        gates = {
            CampaignService._admit_tokens.__code__,
            CampaignService._admit_backpressure.__code__,
        }
        frames = {}  # id -> frame (held, so ids are never reused)
        entries = [0]

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in gates:
                entries[0] += 1
                frames[id(frame)] = frame

        async def main():
            config = ServiceConfig(rate=1.0, burst=1, max_pending=2)
            async with CampaignService(config) as service:
                pool = pool_for(service)[:12]
                tasks = []
                for index in range(300):
                    tasks.append(
                        asyncio.ensure_future(
                            service.submit(
                                request(
                                    [pool[index % len(pool)]],
                                    tenant=f"t{index % 2}",
                                )
                            )
                        )
                    )
                admitted = self._record_admissions(service, tasks)
                sys.setprofile(profile)
                try:
                    streams = await asyncio.gather(*tasks)
                finally:
                    sys.setprofile(None)
                for stream in streams:
                    assert all(r.ok for r in await stream.collect())
                return service.stats(), admitted

        stats, admitted = run(main())
        assert stats["rate_limited_waits"] > 0
        assert stats["backpressure_waits"] > 0
        assert stats["max_queue_depth"] <= 2
        # Each gate call is one entry; each wait adds one resumption.
        # Re-waking parked submitters every tick multiplies entries by
        # the number of ticks they stay parked.
        admissions = len(frames)
        resumptions = entries[0]
        assert resumptions <= (
            admissions + stats["rate_limited_waits"]
            + stats["backpressure_waits"]
        )
        assert sorted(admitted) == list(range(300))
        for tenant in (0, 1):
            order = [index for index in admitted if index % 2 == tenant]
            assert order == sorted(order)

    def test_cancelled_submitters_leave_fifo_and_tokens_intact(self):
        async def main():
            service = CampaignService(ServiceConfig(rate=1.0, burst=3))
            # No dispatcher: the test drives the ticks itself.
            service._running = True
            unit = pool_for(service)[0]
            tasks = [
                asyncio.ensure_future(service.submit(request([unit])))
                for _ in range(8)
            ]
            admitted = self._record_admissions(service, tasks)
            await asyncio.sleep(0)
            bucket = service._buckets["t0"]
            # 0-2 took the burst; 3-7 are parked in arrival order.
            assert bucket.tokens == 0.0 and len(bucket.waiters) == 5
            # Cancelled while parked: leaves the deque, takes nothing.
            tasks[4].cancel()
            await asyncio.sleep(0)
            assert len(bucket.waiters) == 4
            # Cancelled after the hand-off: the token goes back.
            bucket.refill()
            assert bucket.tokens == 0.0 and len(bucket.waiters) == 3
            tasks[3].cancel()
            await asyncio.sleep(0)
            assert bucket.tokens == 1.0
            # A fresh arrival queues behind the parked submitters even
            # though the bucket holds a token.
            tasks.append(asyncio.ensure_future(service.submit(request([unit]))))
            await asyncio.sleep(0)
            assert bucket.tokens == 1.0 and len(bucket.waiters) == 4
            for _ in range(3):
                await service._tick()
            assert not bucket.waiters and bucket.tokens == 0.0
            await asyncio.gather(*tasks, return_exceptions=True)
            return admitted, [task.cancelled() for task in tasks]

        admitted, cancelled = run(main())
        assert admitted == [0, 1, 2, 5, 6, 7, 8]
        assert cancelled == [False] * 3 + [True, True] + [False] * 4

    def test_coalescing_waiter_passes_its_slot_on_in_fifo_order(self):
        async def main():
            service = CampaignService(ServiceConfig(max_pending=1))
            # No dispatcher: dispatch() does what it does before running
            # a unit, and the test drives the ticks itself.
            service._running = True
            units = pool_for(service)[:4]

            def submit(unit):
                return asyncio.ensure_future(service.submit(request([unit])))

            def dispatch():
                heapq.heappop(service._heap)
                service._pending -= 1

            tasks = [submit(units[0]), submit(units[1]), submit(units[1])]
            tasks.append(submit(units[2]))
            await asyncio.sleep(0)
            # units[0] holds the only slot; the other three wait for it.
            assert len(service._slot_waiters) == 3
            dispatch()
            await service._tick()  # the first units[1] submitter enqueues
            dispatch()
            await service._tick()  # the second coalesces, freeing its slot
            assert service._pending == 0
            assert len(service._slot_waiters) == 1
            # A fresh arrival waits behind the parked units[2] submitter.
            tasks.append(submit(units[3]))
            await asyncio.sleep(0)
            assert service._pending == 0
            assert len(service._slot_waiters) == 2
            await service._tick()
            queued = [key for _, _, key in service._heap]
            for task in tasks[:4]:
                await task
            tasks[4].cancel()
            return queued, units, service.stats()

        queued, units, stats = run(main())
        assert [key[-1] for key in queued] == [units[2].key]
        assert stats["coalesced"] == 1

    def test_stop_fails_parked_submitters(self):
        async def main():
            config = ServiceConfig(rate=1e-6, burst=1, max_pending=1)
            service = await CampaignService(config).start()
            units = pool_for(service)[:40]
            # The first request is admitted at once; its second unit
            # reaches the token gate only after stop().
            batches = [units[:1] * 2] + [[unit] for unit in units[1:]]
            tasks = [
                asyncio.ensure_future(
                    service.submit(request(batch, tenant=f"t{index % 4}"))
                )
                for index, batch in enumerate(batches)
            ]
            await asyncio.sleep(0)
            stats = service.stats()
            await service.stop()
            done, pending = await asyncio.wait(tasks, timeout=3)
            return stats, done, pending

        stats, done, pending = run(main())
        # One unit holds the only slot; 3 tenants wait for it, and every
        # tenant's later arrivals wait for tokens.
        assert stats["backpressure_waits"] == 3
        assert stats["rate_limited_waits"] == 36
        assert not pending
        for task in done:
            error = task.exception()
            assert isinstance(error, ServiceError)
            assert "service stopped" in str(error)


class TestFailureHandling:
    def test_dead_worker_is_retried_then_reported(self, monkeypatch):
        """A worker that hard-exits mid-unit must surface as a failed
        UnitResult after the retry budget — delivered, not hung — and
        the service must keep executing other units afterwards."""
        async def main():
            config = ServiceConfig(workers=1, max_retries=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:3]
                poisoned = units[0]
                monkeypatch.setenv(
                    CRASH_UNIT_ENV,
                    "|".join(str(part) for part in poisoned.key),
                )
                stream = await service.submit(request(units))
                results = {r.unit: r for r in await stream.collect()}
                return service.stats(), results, poisoned

        stats, results, poisoned = run(main())
        failed = results.pop(poisoned)
        assert not failed.ok
        assert "worker process died" in failed.error
        assert failed.attempts == 2
        assert stats["unit_retries"] == 1
        assert stats["unit_failures"] == 1
        # The survivors ran on a rebuilt executor.
        assert all(r.ok for r in results.values())
        assert stats["units_executed"] == 2


class TestDeterminism:
    """The tentpole invariant: request interleaving must not change a
    single delivered byte. Campaigns reassembled from shuffled,
    duplicate-heavy, multi-tenant submissions must hit the same golden
    digests as a direct serial run_campaign."""

    def _digest_via_service(self, tmp_path, tag, config, interleave_seed):
        async def main():
            service_config = ServiceConfig(max_pending=8, rate=2.0, burst=4)
            async with CampaignService(service_config) as service:
                return await run_campaign_via_service(
                    service,
                    "AZ",
                    config,
                    seed=7,
                    scale=0.35,
                    tenants=4,
                    interleave_seed=interleave_seed,
                )

        campaign = asyncio.run(asyncio.wait_for(main(), TIMEOUT))
        out = tmp_path / f"{tag}-{interleave_seed}"
        save_campaign(campaign, str(out))
        return digest_dir(out)

    @pytest.mark.parametrize("interleave_seed", [1, 2])
    def test_matches_golden_across_interleavings(
        self, tmp_path, interleave_seed
    ):
        config = CampaignConfig(
            repetitions=2, max_endpoints=4, fuzz_max_endpoints=2
        )
        digest = self._digest_via_service(
            tmp_path, "az", config, interleave_seed
        )
        assert digest == GOLDEN["az-serial"]

    def test_matches_golden_under_fault_plan(self, tmp_path):
        config = CampaignConfig(
            repetitions=2,
            max_endpoints=4,
            fuzz_max_endpoints=2,
            fault_plan=FaultPlan.from_spec("lossy"),
        )
        digest = self._digest_via_service(tmp_path, "az-lossy", config, 3)
        assert digest == GOLDEN["az-lossy-serial"]


class TestRestartPersistence:
    """ServiceConfig.cache_dir: completed units survive a service
    restart and are answered from disk, byte-identically."""

    def _run_service(self, cache_dir, telemetry=None):
        async def main():
            config = ServiceConfig(cache_dir=str(cache_dir))
            async with CampaignService(config, telemetry=telemetry) as service:
                units = pool_for(service)[:6]
                stream = await service.submit(request(units))
                return await stream.collect(), service.stats()

        return run(main())

    def test_second_service_restores_from_disk(self, tmp_path):
        from repro.telemetry import Telemetry

        cache_dir = tmp_path / "cache"
        first_results, first_stats = self._run_service(cache_dir)
        assert first_stats["units_executed"] == 6

        telemetry = Telemetry()
        second_results, second_stats = self._run_service(
            cache_dir, telemetry=telemetry
        )
        assert second_stats["units_executed"] == 0
        assert telemetry.counters["service.cache_restored"] == 6
        assert [json.dumps(r.payload, sort_keys=True)
                for r in second_results] == [
            json.dumps(r.payload, sort_keys=True) for r in first_results
        ]

    def test_no_cache_dir_keeps_memory_only_behavior(self, tmp_path):
        async def main():
            async with CampaignService() as service:
                units = pool_for(service)[:2]
                stream = await service.submit(request(units))
                return await stream.collect(), service.stats()

        _, stats1 = run(main())
        _, stats2 = run(main())
        assert stats1["units_executed"] == 2
        assert stats2["units_executed"] == 2  # nothing persisted

    def test_shares_cache_format_with_epoch_scheduler(self, tmp_path):
        """Both writers speak the same UnitCache file format: the
        service can load (and extend) a scheduler-written cache."""
        from repro.persist import UnitCache

        cache_dir = tmp_path / "cache"
        UnitCache(cache_dir).put("someone-elses-key", "trace", {"x": 1})
        _, stats = self._run_service(cache_dir)
        assert stats["units_executed"] == 6  # foreign keys don't collide
        assert len(UnitCache(cache_dir)) == 7
