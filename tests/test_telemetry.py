"""Telemetry primitives: counters, spans, events, reports."""

import json

import pytest

from repro.telemetry import (
    DEFAULT_MAX_EVENTS,
    NULL_TELEMETRY,
    NullTelemetry,
    RunReport,
    Telemetry,
)


class _FakeSim:
    def __init__(self):
        self.clock = 0.0


class TestNullTelemetry:
    def test_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NullTelemetry.enabled is False

    def test_all_operations_are_noops(self):
        tel = NullTelemetry()
        tel.count("x")
        tel.add_virtual("x", 1.0)
        tel.add_wall("x", 1.0)
        tel.event("x", a=1)
        tel.record_unit_wall("stage", 0.1, 123)
        tel.merge_snapshot({"counters": {}, "spans": {}, "events": []})

    def test_span_is_reusable_context_manager(self):
        tel = NullTelemetry()
        span = tel.span("x")
        with span:
            pass
        # Same instance every time — no per-call allocation.
        assert tel.span("y") is span


class TestCounters:
    def test_count_accumulates(self):
        tel = Telemetry()
        tel.count("probes")
        tel.count("probes", 4)
        assert tel.counters == {"probes": 5}

    def test_enabled(self):
        assert Telemetry().enabled is True


class TestSpans:
    def test_virtual_span_measures_sim_clock(self):
        tel = Telemetry()
        sim = _FakeSim()
        with tel.span("sweep", sim=sim):
            sim.clock += 2.5
        with tel.span("sweep", sim=sim):
            sim.clock += 1.5
        report = tel.build_report()
        assert report.spans["sweep"]["count"] == 2
        assert report.spans["sweep"]["virtual_seconds"] == pytest.approx(4.0)

    def test_span_without_sim_has_zero_virtual(self):
        tel = Telemetry()
        with tel.span("probe"):
            pass
        report = tel.build_report()
        assert report.spans["probe"]["virtual_seconds"] == 0.0
        assert report.wall["spans"]["probe"] >= 0.0


class TestEvents:
    def test_event_records_kind_and_fields(self):
        tel = Telemetry()
        tel.event("blocked", endpoint="1.2.3.4", ttl=5)
        assert tel.events == [{"kind": "blocked", "endpoint": "1.2.3.4", "ttl": 5}]

    def test_event_cap_is_enforced_and_counted(self):
        tel = Telemetry(max_events=3)
        for i in range(5):
            tel.event("e", i=i)
        assert len(tel.events) == 3
        assert tel.events_dropped == 2
        assert [e["i"] for e in tel.events] == [0, 1, 2]

    def test_default_cap(self):
        assert Telemetry().max_events == DEFAULT_MAX_EVENTS


class TestSnapshotMerge:
    def _unit_snapshot(self, i):
        unit = Telemetry()
        unit.count("probes", i)
        unit.add_virtual("sweep", float(i), count=1)
        unit.event("done", i=i)
        return unit.snapshot()

    def test_merge_accumulates_in_order(self):
        tel = Telemetry()
        for i in (1, 2, 3):
            tel.merge_snapshot(self._unit_snapshot(i))
        assert tel.counters == {"probes": 6}
        report = tel.build_report()
        assert report.spans["sweep"] == {"count": 3, "virtual_seconds": 6.0}
        assert [e["i"] for e in report.events] == [1, 2, 3]

    def test_merge_respects_event_cap(self):
        tel = Telemetry(max_events=2)
        for i in range(4):
            tel.merge_snapshot(self._unit_snapshot(i))
        assert len(tel.events) == 2
        assert tel.events_dropped == 2

    def test_merge_carries_nested_drops(self):
        unit = Telemetry(max_events=1)
        unit.event("a")
        unit.event("b")
        tel = Telemetry()
        tel.merge_snapshot(unit.snapshot())
        assert tel.events_dropped == 1

    def test_snapshot_is_json_safe(self):
        json.dumps(self._unit_snapshot(1))


class TestRunReport:
    def _report(self):
        tel = Telemetry()
        tel.count("b", 2)
        tel.count("a", 1)
        sim = _FakeSim()
        with tel.span("sweep", sim=sim):
            sim.clock += 1.0
        tel.event("done", i=0)
        tel.record_unit_wall("traces", 0.25, 100)
        tel.record_unit_wall("traces", 0.75, 101)
        return tel.build_report(
            meta={"country": "KZ"}, wall_extra={"workers_requested": 4}
        )

    def test_identity_excludes_wall(self):
        report = self._report()
        identity = report.identity_dict()
        assert "wall" not in identity
        assert set(identity) == {
            "counters", "spans", "events", "events_dropped", "meta",
        }

    def test_identity_json_is_canonical(self):
        report = self._report()
        # Same content, different wall data -> same identity bytes.
        other = RunReport(
            counters=dict(report.counters),
            spans={k: dict(v) for k, v in report.spans.items()},
            events=list(report.events),
            events_dropped=report.events_dropped,
            wall={"totally": "different"},
            meta=dict(report.meta),
        )
        assert report.identity_json() == other.identity_json()

    def test_counters_sorted_in_report(self):
        report = self._report()
        assert list(report.counters) == ["a", "b"]

    def test_wall_stage_aggregates(self):
        stages = self._report().wall["stages"]
        assert stages["traces"]["units"] == 2
        assert stages["traces"]["unit_seconds"]["mean"] == pytest.approx(0.5)
        assert stages["traces"]["units_by_worker"] == {"100": 1, "101": 1}
        assert self._report().wall["workers_requested"] == 4

    def test_wall_stage_percentiles(self):
        # Nearest-rank p50/p99 over the per-unit wall latencies; with
        # two samples p50 is the lower one and p99 the upper one.
        unit_seconds = self._report().wall["stages"]["traces"]["unit_seconds"]
        assert unit_seconds["p50"] == pytest.approx(0.25)
        assert unit_seconds["p99"] == pytest.approx(0.75)
        tel = Telemetry()
        for i in range(100):
            tel.record_unit_wall("svc", i / 100.0, 0)
        report = tel.build_report(meta={})
        stats = report.wall["stages"]["svc"]["unit_seconds"]
        assert stats["p50"] == pytest.approx(0.49)
        assert stats["p99"] == pytest.approx(0.98)
        assert stats["min"] <= stats["p50"] <= stats["p99"] <= stats["max"]
        # The rendered report surfaces the tail latency.
        assert "p99" in report.render()

    def test_round_trips_through_dict(self):
        report = self._report()
        restored = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored.identity_json() == report.identity_json()
        assert restored.wall == report.wall

    def test_render_mentions_sections(self):
        text = self._report().render()
        assert "Run report — KZ campaign" in text
        assert "Counters" in text
        assert "Spans (virtual clock)" in text
        assert "excluded from identity" in text
        assert "[done]" in text

    def test_render_empty_report(self):
        assert RunReport().render().startswith("Run report")


class TestRegistry:
    """Telemetry names are constants declared once in the registry."""

    def test_every_declared_name_is_used(self):
        # A declared constant or family function that no module names
        # is stale documentation in ``repro report --registry``.
        import re
        from pathlib import Path

        from repro import telemetry_registry as registry

        package = Path(registry.__file__).parent
        used = set()
        for path in package.rglob("*.py"):
            if path.name != "telemetry_registry.py":
                used.update(re.findall(r"\w+", path.read_text()))
        declared = [
            name
            for name, value in vars(registry).items()
            if not name.startswith("_")
            and (
                isinstance(value, str)
                or getattr(value, "__module__", None) == registry.__name__
            )
        ]
        assert len(declared) > 80
        assert [name for name in declared if name not in used] == []

    def test_duplicate_declaration_raises(self):
        from repro import telemetry_registry as registry

        with pytest.raises(ValueError, match="declared twice"):
            registry._counter("sim.client_packets", "again")
        assert registry.COUNTERS["sim.client_packets"] != "again"


class TestTransitExpiryCounters:
    """Telemetry parity for silent TTL expiry: reverse and injected
    transits of the reference walk (``tests/oracle``) count their
    deaths just like forward expiry does."""

    def _world(self):
        from .helpers import build_linear_world

        return build_linear_world(n_routers=4, seed=5)

    def test_reverse_expiry_counter(self):
        from repro.netmodel import tcp as tcpmod
        from repro.netmodel.packet import tcp_packet
        from .oracle.scalar import POLICY_REVERSE, ScalarEngine, Transit

        world = self._world()
        sim = world.sim
        tel = Telemetry()
        sim.set_telemetry(tel)
        route = sim.topology.route_between(world.client.ip, world.endpoint.ip)
        packet = tcp_packet(
            world.endpoint.ip,
            world.client.ip,
            80,
            40000,
            flags=tcpmod.SYN | tcpmod.ACK,
            ttl=1,
        )
        deliveries = []
        ScalarEngine(sim)._run_transit(
            Transit(packet, route.paths[0], 4, POLICY_REVERSE, world.client.ip),
            deliveries,
        )
        assert deliveries == []
        assert tel.counters["sim.reverse_ttl_expired"] == 1

    def test_injected_expiry_counter(self):
        from repro.netmodel import tcp as tcpmod
        from repro.netmodel.packet import tcp_packet
        from .oracle.scalar import POLICY_INJECTED_TO_SERVER, ScalarEngine, Transit

        world = self._world()
        sim = world.sim
        tel = Telemetry()
        sim.set_telemetry(tel)
        route = sim.topology.route_between(world.client.ip, world.endpoint.ip)
        forged = tcp_packet(
            world.client.ip,
            world.endpoint.ip,
            47001,
            80,
            flags=tcpmod.PSH | tcpmod.ACK,
            ttl=1,
            payload=b"forged",
        )
        forged.injected = True
        deliveries = []
        ScalarEngine(sim)._run_transit(
            Transit(
                forged,
                route.paths[0],
                0,
                POLICY_INJECTED_TO_SERVER,
                world.client.ip,
            ),
            deliveries,
        )
        assert deliveries == []
        assert tel.counters["sim.injected_ttl_expired"] == 1

    def test_counters_absent_without_expiry(self):
        from repro.netmodel.packet import tcp_packet

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        world.sim.send_from_client(
            tcp_packet(world.client.ip, world.endpoint.ip, 40000, 80, ttl=64)
        )
        assert "sim.reverse_ttl_expired" not in tel.counters
        assert "sim.injected_ttl_expired" not in tel.counters


class TestBatchCounters:
    """The batched packet plane's observability: the client-send and
    control-segment counters and the per-batch size event, all rendered
    by ``repro report`` like any other counter."""

    def _world(self):
        from .helpers import build_linear_world

        return build_linear_world(n_routers=4, seed=5)

    def _syn(self, world, sport):
        from repro.netmodel import tcp as tcpmod
        from repro.netmodel.packet import tcp_packet

        return tcp_packet(
            world.client.ip,
            world.endpoint.ip,
            sport,
            80,
            flags=tcpmod.SYN,
            net=world.sim.net_context,
        )

    def test_fast_path_counter(self):
        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        for i in range(3):
            engine.send(self._syn(world, 40000 + i))
        assert tel.counters["sim.batch_fast_path"] == 3

    def test_fallback_counter_under_fault_plan(self):
        from repro.netsim.faults import PRESETS

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        world.sim.set_fault_plan(PRESETS["lossy"])
        engine = world.sim.batch_engine()
        for i in range(2):
            engine.send(self._syn(world, 41000 + i))
        assert tel.counters["sim.batch_fast_path"] == 2

    def test_batch_event_size_histogram(self):
        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        with engine.batch("test-sweep"):
            for i in range(4):
                engine.send(self._syn(world, 42000 + i))
        assert tel.counters["sim.batches"] == 1
        events = [e for e in tel.events if e["kind"] == "sim.batch"]
        assert events == [
            {"kind": "sim.batch", "label": "test-sweep", "size": 4}
        ]

    def test_counters_surface_in_run_report(self):
        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        with engine.batch("sweep"):
            engine.send(self._syn(world, 44000))
        report = tel.build_report()
        assert report.counters["sim.batch_fast_path"] == 1
        assert report.counters["sim.batches"] == 1
        rendered = report.render()
        assert "sim.batch_fast_path" in rendered
        assert "sim.batches" in rendered

    def test_control_segment_counter_beside_fast_path(self):
        from repro.netsim.tcpstack import open_connection

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        conn = open_connection(
            world.sim,
            world.client,
            world.endpoint.ip,
            80,
            engine=world.sim.batch_engine(),
        )
        conn.close()
        report = tel.build_report()
        # SYN, handshake ACK and FIN: on the fast path, none built.
        assert report.counters["sim.batch_fast_path"] == 3
        assert report.counters["sim.batch_control_resolved"] == 3
        rows = [
            line.split()[0]
            for line in report.render().splitlines()
            if line.startswith("  sim.batch")
        ]
        assert rows == ["sim.batch_control_resolved", "sim.batch_fast_path"]

    def test_measurement_tools_frame_batches(self):
        # CenTrace sweeps and CenFuzz endpoint runs are the batch
        # boundaries campaigns observe.
        from repro.core.centrace import CenTrace, CenTraceConfig

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        tracer = CenTrace(
            world.sim, world.client, config=CenTraceConfig(repetitions=1)
        )
        tracer.sweep(world.endpoint.ip, "www.ok.example", "http")
        events = [e for e in tel.events if e["kind"] == "sim.batch"]
        assert len(events) == 1
        assert events[0]["label"] == "centrace.sweep"
        assert events[0]["size"] == tel.counters["sim.batch_fast_path"]
        assert events[0]["size"] > 0
