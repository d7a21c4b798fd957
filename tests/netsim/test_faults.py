"""Fault injection: plan model, simulator threading, satellite fixes,
and the chaos invariant grid.

Four regression classes ride along with the fault subsystem (they are
the bugs the chaos harness flushed out):

* injected packets must be deep-copied at the dispatch boundary, or a
  device's cached injection template is corrupted across injections;
* device-forged packets to the server must walk the remaining links
  (per-link loss, TTL decrement) and the endpoint's responses must
  reverse-route back to the client;
* endpoint stacks must derive open ports from configured services
  instead of hardcoding 80/443;
* DNS probe retries must be fresh queries (new sport/txid) paced by
  backoff, not identical retransmissions at a frozen clock.
"""

import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    CONTROL_DOMAIN,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
    make_profile_device,
)

from repro.core.cenfuzz.runner import (
    CenFuzz,
    FuzzProbeOutcome,
    OUTCOME_RESPONSE,
    OUTCOME_RST,
    OUTCOME_TIMEOUT,
)
from repro.core.centrace import CenTrace, CenTraceConfig, PROTO_HTTP
from repro.devices.vendors import BY_DPI, KZ_STATE
from repro.netmodel import tcp as tcpmod
from repro.netmodel.packet import tcp_packet
from repro.netsim.faults import (
    FATE_FAIL_OPEN,
    FaultPlan,
    FaultState,
    FlakyDeviceProfile,
    IcmpRateLimitProfile,
    LossProfile,
    PathChurnProfile,
    PRESETS,
)
from repro.netmodel.netctx import NetContext
from repro.netsim.interfaces import LinkDevice, Verdict
from repro.netsim.simulator import EndpointStack
from repro.netsim.topology import Endpoint, Router, Service

from ..oracle.scalar import POLICY_INJECTED_TO_SERVER, ScalarEngine, Transit

# ---------------------------------------------------------------------------
# FaultPlan model
# ---------------------------------------------------------------------------


class TestFaultPlanModel:
    def test_presets_resolve_by_name(self):
        for name in PRESETS:
            plan = FaultPlan.from_spec(name)
            assert plan.name == name

    def test_noop_detection(self):
        assert FaultPlan().is_noop()
        assert PRESETS["none"].is_noop()
        assert not PRESETS["lossy"].is_noop()

    def test_dict_round_trip(self):
        plan = PRESETS["chaos"]
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_spec_inline_json_and_file(self, tmp_path):
        blob = '{"name": "x", "loss": {"default_rate": 0.04}}'
        plan = FaultPlan.from_spec(blob)
        assert plan.loss.default_rate == 0.04
        path = tmp_path / "plan.json"
        path.write_text(blob)
        assert FaultPlan.from_spec(f"@{path}") == plan

    def test_from_spec_rejects_unknowns(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            FaultPlan.from_spec("no-such-preset")
        with pytest.raises(ValueError, match="unknown loss fields"):
            FaultPlan.from_dict({"loss": {"rate": 0.1}})

    def test_plans_are_hashable_cache_keys(self):
        a = FaultPlan.from_spec('{"loss": {"as_rates": {"64501": 0.1}}}')
        b = FaultPlan(loss=LossProfile(as_rates=(("64501", 0.1),)))
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1

    def test_loss_profile_precedence(self):
        profile = LossProfile(
            default_rate=0.01,
            as_rates=((64502, 0.2),),
            link_rates=(("r1", 0.5),),
        )
        r1 = Router("r1", "10.0.0.1", asn=64502)
        r2 = Router("r2", "10.0.0.2", asn=64502)
        r3 = Router("r3", "10.0.0.3", asn=64999)
        assert profile.rate_for(r1) == 0.5  # link name beats AS
        assert profile.rate_for(r2) == 0.2  # AS beats default
        assert profile.rate_for(r3) == 0.01
        assert profile.rate_for(None) == 0.01  # client delivery link
        assert profile.max_rate() == 0.5


# ---------------------------------------------------------------------------
# FaultState mechanics
# ---------------------------------------------------------------------------


class TestFaultState:
    def test_token_bucket_drains_and_refills(self):
        plan = FaultPlan(
            icmp_rate_limit=IcmpRateLimitProfile(capacity=2, refill_rate=0.5)
        )
        state = FaultState(plan, seed=1)
        router = Router("r0", "10.0.0.1", asn=1)
        assert not state.icmp_suppressed(router, 0.0)
        assert not state.icmp_suppressed(router, 0.0)
        assert state.icmp_suppressed(router, 0.0)  # bucket empty
        # 2 virtual seconds * 0.5 tokens/s = 1 token back.
        assert not state.icmp_suppressed(router, 2.0)
        assert state.icmp_suppressed(router, 2.0)
        assert state.counters.icmp_suppressed == 2

    def test_buckets_are_per_router(self):
        plan = FaultPlan(
            icmp_rate_limit=IcmpRateLimitProfile(capacity=1, refill_rate=0.0)
        )
        state = FaultState(plan, seed=1)
        r0 = Router("r0", "10.0.0.1", asn=1)
        r1 = Router("r1", "10.0.0.2", asn=1)
        assert not state.icmp_suppressed(r0, 0.0)
        assert not state.icmp_suppressed(r1, 0.0)
        assert state.icmp_suppressed(r0, 0.0)

    def test_churn_epoch_advances_and_changes_path_seed(self):
        plan = FaultPlan(churn=PathChurnProfile(rehash_after_packets=3))
        state = FaultState(plan, seed=1)
        for _ in range(2):
            state.note_client_packet(0.0)
        assert state.epoch == 0
        assert state.path_seed(7) == 7
        state.note_client_packet(0.0)
        assert state.epoch == 1
        assert state.path_seed(7) != 7
        assert state.counters.churn_epochs == 1

    def test_flaky_device_fate_honours_name_filter(self):
        plan = FaultPlan(
            flaky_devices=FlakyDeviceProfile(
                fail_open_rate=1.0, device_names=("target",)
            )
        )
        state = FaultState(plan, seed=1)

        class _D:
            def __init__(self, name):
                self.name = name

        assert state.device_fate(_D("target")) == FATE_FAIL_OPEN
        assert state.device_fate(_D("other")) == "inspect"

    def test_duplicates_are_independent_copies(self):
        plan = FaultPlan.from_spec(
            '{"delivery": {"duplicate_rate": 1.0}}'
        )
        state = FaultState(plan, seed=1)
        packet = tcp_packet(ENDPOINT_IP, CLIENT_IP, 80, 40000)
        from repro.netsim.simulator import Simulator

        shaped = state.shape_deliveries([packet], Simulator._clone)
        assert len(shaped) == 2
        assert shaped[0] is packet and shaped[1] is not packet
        assert shaped[1].ip is not packet.ip
        shaped[1].ip.ttl = 1
        assert packet.ip.ttl != 1

    def test_reset_restores_everything(self):
        state = FaultState(PRESETS["chaos"], seed=9)
        router = Router("r0", "10.0.0.1", asn=1)
        first_draws = [state.rng.random() for _ in range(4)]
        for _ in range(50):
            state.note_client_packet(5.0)
        state.icmp_suppressed(router, 0.0)
        assert state.epoch > 0
        state.reset(9)
        assert state.epoch == 0
        assert state.packets_sent == 0
        assert state._buckets == {}
        assert state.counters.icmp_suppressed == 0
        assert [state.rng.random() for _ in range(4)] == first_draws


# ---------------------------------------------------------------------------
# Simulator threading
# ---------------------------------------------------------------------------


class TestSimulatorFaults:
    def test_no_plan_is_exactly_the_old_simulator(self):
        world = build_linear_world(loss_rate=0.1, seed=3)
        baseline = [
            len(world.sim.send_from_client(self._syn(i))) for i in range(20)
        ]
        world.sim.set_fault_plan(FaultPlan())  # noop plan -> no FaultState
        assert world.sim._faults is None
        world.sim.reset()
        replay = [
            len(world.sim.send_from_client(self._syn(i))) for i in range(20)
        ]
        assert replay == baseline

    @staticmethod
    def _syn(i):
        return tcp_packet(
            CLIENT_IP, ENDPOINT_IP, 40000 + i, 80, flags=tcpmod.SYN, seq=1
        )

    def test_per_link_loss_uses_profile_rates(self):
        world = build_linear_world(seed=5)
        # 100% loss on the link into r2: nothing ever reaches the
        # endpoint, while TTL<=2 probes still get their ICMP back.
        world.sim.set_fault_plan(
            FaultPlan(loss=LossProfile(link_rates=(("r2", 1.0),)))
        )
        full = world.sim.send_from_client(self._syn(0))
        assert full == []
        short = tcp_packet(
            CLIENT_IP, ENDPOINT_IP, 41000, 80, flags=tcpmod.SYN, seq=1, ttl=2
        )
        assert world.sim.send_from_client(short)  # ICMP from r1

    def test_loss_profile_replaces_uniform_loss_rate(self):
        # Satellite audit (PR 6): installing a loss profile REPLACES
        # Simulator.loss_rate wholesale — it is never composed with the
        # uniform rate. A zero-rate profile on a loss_rate=1.0 world
        # must deliver everything; the inverse must lose everything.
        world = build_linear_world(loss_rate=1.0, seed=7)
        world.sim.set_fault_plan(
            FaultPlan(loss=LossProfile(default_rate=0.0))
        )
        assert world.sim.send_from_client(self._syn(0)), (
            "a 0.0-rate profile must override uniform loss_rate=1.0"
        )

        world = build_linear_world(loss_rate=0.0, seed=7)
        world.sim.set_fault_plan(
            FaultPlan(loss=LossProfile(default_rate=1.0))
        )
        assert world.sim.send_from_client(self._syn(1)) == [], (
            "a 1.0-rate profile must lose packets despite loss_rate=0.0"
        )

    def test_loss_profile_rolls_never_touch_base_rng(self):
        # Profile rolls draw from the dedicated fault RNG: walking
        # packets under a lossy profile must not advance the base
        # stream by a single draw.
        world = build_linear_world(loss_rate=0.0, seed=11)
        world.sim.set_fault_plan(
            FaultPlan(loss=LossProfile(default_rate=0.5))
        )
        before = world.sim._rng.getstate()
        for i in range(10):
            world.sim.send_from_client(self._syn(i))
        assert world.sim._rng.getstate() == before

    def test_icmp_rate_limited_router_goes_silent(self):
        world = build_linear_world(seed=5)
        world.sim.set_fault_plan(
            FaultPlan(
                icmp_rate_limit=IcmpRateLimitProfile(
                    capacity=1, refill_rate=0.0
                )
            )
        )
        probe = tcp_packet(
            CLIENT_IP, ENDPOINT_IP, 42000, 80, flags=tcpmod.SYN, seq=1, ttl=1
        )
        assert world.sim.send_from_client(probe)  # token available
        assert world.sim.send_from_client(probe) == []  # suppressed
        assert world.sim._faults.counters.icmp_suppressed == 1

    def test_fail_open_lets_blocked_traffic_through(self):
        device = make_profile_device(KZ_STATE)  # in-path dropper
        world = build_linear_world(device=device, seed=5)
        world.sim.set_fault_plan(
            FaultPlan(flaky_devices=FlakyDeviceProfile(fail_open_rate=1.0))
        )
        tracer = CenTrace(
            world.sim,
            world.client,
            asdb=world.asdb,
            config=CenTraceConfig(repetitions=2),
        )
        result = tracer.measure(ENDPOINT_IP, BLOCKED_DOMAIN, PROTO_HTTP)
        assert not result.blocked  # enforcement lapsed on every packet

    def test_fail_closed_drops_everything(self):
        device = make_profile_device(KZ_STATE)
        world = build_linear_world(device=device, seed=5)
        world.sim.set_fault_plan(
            FaultPlan(flaky_devices=FlakyDeviceProfile(fail_closed_rate=1.0))
        )
        # Even the innocuous control SYN dies at the device's link.
        assert world.sim.send_from_client(self._syn(0)) == []

    def test_delivery_duplication_reaches_client(self):
        world = build_linear_world(seed=5)
        world.sim.set_fault_plan(
            FaultPlan.from_spec('{"delivery": {"duplicate_rate": 1.0}}')
        )
        responses = world.sim.send_from_client(self._syn(0))
        assert len(responses) == 2  # SYN-ACK + duplicate
        assert responses[0].ip is not responses[1].ip

    def test_churn_epoch_advances_with_sends(self):
        world = build_linear_world(seed=5)
        world.sim.set_fault_plan(
            FaultPlan(churn=PathChurnProfile(rehash_after_packets=4))
        )
        for i in range(5):
            world.sim.send_from_client(self._syn(i))
        assert world.sim._faults.epoch >= 1

    def test_reset_makes_faulted_runs_bit_identical(self):
        """The executor's determinism guarantee, under the worst plan."""
        world = build_linear_world(seed=11)
        world.sim.set_fault_plan(PRESETS["chaos"])

        def run():
            world.sim.reset(123)
            out = []
            for i in range(30):
                for p in world.sim.send_from_client(self._syn(i)):
                    out.append(p.brief())
                world.sim.advance(0.5)
            return out

        assert run() == run()

    def test_set_fault_plan_survives_plain_reset(self):
        world = build_linear_world(seed=11)
        world.sim.set_fault_plan(PRESETS["ratelimit"])
        world.sim.reset()
        assert world.sim._faults is not None
        assert world.sim._faults.plan is PRESETS["ratelimit"]


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


class _TemplateInjector(LinkDevice):
    """On-path injector that (incorrectly, per the old bug) reuses one
    cached template packet for every injection."""

    name = "template-injector"
    in_path = False

    def __init__(self):
        self.template = tcp_packet(
            ENDPOINT_IP,
            CLIENT_IP,
            80,
            0,  # dport patched per flow below
            flags=tcpmod.RST,
            seq=1,
            ttl=64,
        )
        self.injections = 0

    def inspect(self, packet, ctx):
        if packet.is_tcp and packet.tcp.payload:
            self.injections += 1
            self.template.tcp = tcpmod.TCPSegment(
                sport=packet.tcp.dport,
                dport=packet.tcp.sport,
                seq=1,
                ack=packet.tcp.seq,
                flags=tcpmod.RST,
            )
            return Verdict(inject_to_client=(self.template,), note="rst")
        return Verdict.pass_through()


class _ServerPoker(LinkDevice):
    """For every client data segment, injects one forged data segment
    per TTL in ``forged_ttls`` toward the server on an unknown flow; a
    real stack RSTs each that arrives, and the RST must reach the
    client."""

    name = "server-poker"
    in_path = False

    def __init__(self, *forged_ttls: int):
        self.forged_ttls = forged_ttls or (64,)

    def inspect(self, packet, ctx):
        if not (packet.is_tcp and packet.tcp.payload):
            return Verdict.pass_through()
        forged = []
        for ttl in self.forged_ttls:
            pkt = tcp_packet(
                packet.ip.src,
                packet.ip.dst,
                packet.tcp.sport + 1,  # not an established flow
                packet.tcp.dport,
                flags=tcpmod.PSH | tcpmod.ACK,
                seq=999,
                ttl=ttl,
                payload=b"forged",
                net=ctx.net,
            )
            pkt.injected = True
            forged.append(pkt)
        return Verdict(inject_to_server=tuple(forged), note="poke")


class TestSatelliteRegressions:
    def _payload_responses(self, world, sport=45000):
        from repro.netsim.tcpstack import Connection

        conn = Connection(world.sim, world.client, ENDPOINT_IP, 80, sport=sport)
        assert conn.connect()
        result = conn.send_payload(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        return result.received

    def test_injection_template_not_corrupted(self):
        device = _TemplateInjector()
        world = build_linear_world(device=device, device_link=2)
        self._payload_responses(world, sport=45000)
        self._payload_responses(world, sport=45001)
        assert device.injections == 2
        # The cached template's IP header must be untouched: the old
        # code rebound template.ip with a decremented TTL on arrival.
        assert device.template.ip.ttl == 64
        assert device.template.ip.src == ENDPOINT_IP

    def test_injected_to_server_elicits_rst_back_to_client(self):
        world = build_linear_world(device=_ServerPoker(), device_link=2)
        received = self._payload_responses(world)
        rsts = [
            p
            for p in received
            if p.is_tcp
            and p.tcp.flags & tcpmod.RST
            and p.tcp.dport == 45001  # reply to the forged flow
        ]
        assert rsts, "endpoint's RST for the forged flow must reach us"
        assert rsts[0].ip.src == ENDPOINT_IP

    def test_injected_to_server_dies_on_ttl_expiry(self):
        # Device at link 2, three routers + endpoint still ahead; a
        # forged TTL of 2 expires mid-path and dies silently.
        world = build_linear_world(
            device=_ServerPoker(2), device_link=2
        )
        received = self._payload_responses(world)
        assert not any(
            p.is_tcp and p.tcp.flags & tcpmod.RST and p.tcp.dport == 45001
            for p in received
        )

    @staticmethod
    def _forged():
        forged = tcp_packet(
            CLIENT_IP,
            ENDPOINT_IP,
            47001,
            80,
            flags=tcpmod.PSH | tcpmod.ACK,
            seq=999,
            ttl=64,
            payload=b"forged",
        )
        forged.injected = True
        return forged

    def test_injected_to_server_rolls_loss_per_remaining_link(self):
        # The oracle's walk, whose capture log names the delivery.
        world = build_linear_world()
        sim = world.sim
        oracle = ScalarEngine(sim, capture=True)
        forged = self._forged()
        route = sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
        path = route.select(forged.flow_key(), seed=sim.seed)
        # 100% loss on the link into r4 (past an injection at link 2):
        # the forged packet must die there, not survive because the
        # single legacy loss roll happened to pass.
        sim.set_fault_plan(
            FaultPlan(loss=LossProfile(link_rates=(("r4", 1.0),)))
        )
        deliveries = []
        oracle._run_transit(
            Transit(forged, path, 2, POLICY_INJECTED_TO_SERVER, CLIENT_IP),
            deliveries,
        )
        assert deliveries == []
        assert sim._faults.counters.packets_lost == 1
        assert not any(r.event == "delivered" for r in oracle.capture)
        # Links at or before the injection point are never rolled: the
        # forged packet only crosses the remaining links.
        sim.set_fault_plan(
            FaultPlan(
                loss=LossProfile(
                    link_rates=(("r0", 1.0), ("r1", 1.0), ("r2", 1.0))
                )
            )
        )
        oracle.capture.clear()
        deliveries = []
        oracle._run_transit(
            Transit(
                self._forged(), path, 2, POLICY_INJECTED_TO_SERVER, CLIENT_IP
            ),
            deliveries,
        )
        assert any(r.event == "delivered" for r in oracle.capture)

    def test_endpoint_without_server_refuses_http_syn(self):
        endpoint = Endpoint("dns-only", "100.96.0.9", asn=1, server=None)
        stack = EndpointStack(endpoint, NetContext())
        syn = tcp_packet(
            CLIENT_IP, endpoint.ip, 40000, 80, flags=tcpmod.SYN, seq=5
        )
        replies = stack.receive(syn, 0.0)
        assert len(replies) == 1
        assert replies[0].tcp.flags & tcpmod.RST

    def test_endpoint_open_ports_follow_services(self):
        endpoint = Endpoint("svc", "100.96.0.9", asn=1, server=None)
        endpoint.add_service(Service(port=8080, protocol="http"))
        stack = EndpointStack(endpoint, NetContext())
        assert stack.open_ports == {8080}
        syn = tcp_packet(
            CLIENT_IP, endpoint.ip, 40000, 8080, flags=tcpmod.SYN, seq=5
        )
        replies = stack.receive(syn, 0.0)
        assert replies[0].tcp.flags & tcpmod.SYN
        assert replies[0].tcp.flags & tcpmod.ACK

    def test_web_endpoint_still_serves_80_and_443(self):
        world = build_linear_world()
        stack = EndpointStack(world.endpoint, NetContext())
        assert {80, 443} <= stack.open_ports

    def test_dns_retries_are_fresh_paced_queries(self):
        class _SilentSim:
            clock = 0.0

            def __init__(self):
                self.sent = []
                self.net_context = NetContext()

            def send_from_client(self, packet):
                self.sent.append(packet)
                return []

            def advance(self, seconds):
                self.clock += seconds

            def batch_engine(self):
                # The engine surface CenTrace relies on, delegating to
                # send_from_client so the stub still sees every packet.
                sim = self

                class _EngineStub:
                    def send(self, packet, wire_bytes=None):
                        return sim.send_from_client(packet)

                    @contextmanager
                    def batch(self, label):
                        yield

                return _EngineStub()

        sim = _SilentSim()
        world = build_linear_world()
        tracer = CenTrace(
            sim,
            world.client,
            config=CenTraceConfig(probe_retries=2, retry_base_wait=1.0),
        )
        observation = tracer._probe_dns(ENDPOINT_IP, "q.example", ttl=3)
        assert len(sim.sent) == 3
        sports = {p.udp.sport for p in sim.sent}
        payloads = {p.udp.payload for p in sim.sent}
        ip_ids = {p.ip.identification for p in sim.sent}
        assert len(sports) == 3, "each retry needs a fresh source port"
        assert len(payloads) == 3, "each retry needs a fresh DNS txid"
        assert len(ip_ids) == 3
        assert sim.clock == pytest.approx(1.0 + 2.0)  # exponential pacing
        assert observation.retries_used == 2


# ---------------------------------------------------------------------------
# Tool hardening: degradation accounting
# ---------------------------------------------------------------------------


class TestDegradationAccounting:
    def test_rate_limited_world_marks_result_degraded(self):
        world = build_linear_world(seed=5)
        world.sim.set_fault_plan(
            FaultPlan(
                icmp_rate_limit=IcmpRateLimitProfile(
                    capacity=1, refill_rate=0.0
                )
            )
        )
        tracer = CenTrace(
            world.sim,
            world.client,
            asdb=world.asdb,
            config=CenTraceConfig(repetitions=2),
        )
        # Classification must complete (whatever it concludes about a
        # world this hostile) and carry the degradation evidence.
        result = tracer.measure(ENDPOINT_IP, OK_DOMAIN, PROTO_HTTP)
        assert result.brief()
        all_sweeps = result.sweeps_control + result.sweeps_test
        assert any(s.probes_retried > 0 for s in all_sweeps)
        assert any(s.degraded for s in all_sweeps)
        assert result.degraded

    def test_finalize_sweep_counts_silent_mid_path_hops(self):
        from repro.core.centrace.results import (
            ProbeObservation,
            ResponseSummary,
            TraceSweep,
        )

        world = build_linear_world()
        tracer = CenTrace(world.sim, world.client)
        icmp = lambda ttl: ResponseSummary(  # noqa: E731
            kind="icmp", src_ip=f"100.80.{ttl - 1}.1", arrival_ttl=60
        )
        sweep = TraceSweep(domain=OK_DOMAIN, protocol=PROTO_HTTP)
        sweep.probes = [
            ProbeObservation(ttl=1, responses=[icmp(1)]),
            ProbeObservation(ttl=2),  # silent: rate-limited router
            ProbeObservation(ttl=3, responses=[icmp(3)], retries_used=1),
            ProbeObservation(ttl=4),  # silent but *above* the last
        ]
        tracer._finalize_sweep(sweep, ENDPOINT_IP)
        assert sweep.probes_retried == 1
        assert sweep.hops_rate_limited == 1  # ttl=2 only; ttl=4 is tail
        assert sweep.degraded

    def test_clean_run_is_not_degraded(self):
        world = build_linear_world()
        tracer = CenTrace(
            world.sim,
            world.client,
            asdb=world.asdb,
            config=CenTraceConfig(repetitions=2),
        )
        result = tracer.measure(ENDPOINT_IP, OK_DOMAIN, PROTO_HTTP)
        assert not result.degraded
        for sweep in result.sweeps_control + result.sweeps_test:
            assert sweep.probes_retried == 0
            assert sweep.hops_rate_limited == 0

    def test_retry_backoff_advances_virtual_clock(self):
        world = build_linear_world(device=make_profile_device(KZ_STATE))
        tracer = CenTrace(
            world.sim,
            world.client,
            config=CenTraceConfig(
                repetitions=1, probe_retries=2, retry_base_wait=10.0
            ),
        )
        before = world.sim.clock
        sweep = tracer.sweep(ENDPOINT_IP, BLOCKED_DOMAIN, PROTO_HTTP)
        # Dropped probes retried with 10s + 20s waits: far more virtual
        # time than the unpaced version would ever accumulate.
        timed_out = [p for p in sweep.probes if p.timed_out]
        assert timed_out
        assert all(p.retries_used == 2 for p in timed_out)
        assert world.sim.clock - before >= 30.0

    def test_fuzz_ambiguous_timeout_reprobed_once(self):
        world = build_linear_world()
        fuzz = CenFuzz(world.sim, world.client)
        script = [
            FuzzProbeOutcome(OUTCOME_TIMEOUT),  # ambiguous first answer
            FuzzProbeOutcome(OUTCOME_RESPONSE),  # the re-probe's verdict
        ]
        calls = []
        fuzz.probe = lambda *args: (calls.append(args), script.pop(0))[1]
        baseline = FuzzProbeOutcome(OUTCOME_RESPONSE)
        outcome = fuzz._probe_confirmed(ENDPOINT_IP, object(), "d", baseline)
        assert len(calls) == 2
        assert outcome.outcome == OUTCOME_RESPONSE
        assert outcome.reprobed

    def test_fuzz_expected_timeout_not_reprobed(self):
        world = build_linear_world()
        fuzz = CenFuzz(world.sim, world.client)
        calls = []
        fuzz.probe = lambda *args: (
            calls.append(args),
            FuzzProbeOutcome(OUTCOME_TIMEOUT),
        )[1]
        baseline = FuzzProbeOutcome(OUTCOME_TIMEOUT)  # dropper path
        outcome = fuzz._probe_confirmed(ENDPOINT_IP, object(), "d", baseline)
        assert len(calls) == 1
        assert not outcome.reprobed
        # Non-timeout outcomes are never re-probed either.
        calls.clear()
        fuzz.probe = lambda *args: (
            calls.append(args),
            FuzzProbeOutcome(OUTCOME_RST),
        )[1]
        outcome = fuzz._probe_confirmed(
            ENDPOINT_IP, object(), "d", FuzzProbeOutcome(OUTCOME_RESPONSE)
        )
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Chaos invariant grid
# ---------------------------------------------------------------------------

# The invariants (ISSUE acceptance criteria): under every plan in the
# grid, (1) an in-path dropper's blocking hop is attributed within +-1
# hop as long as no single link loses more than 5% of packets, (2) the
# tools classify without raising, and (3) serial and parallel campaign
# output stays byte-identical. The fast subset runs in the default
# pytest invocation; the full grid (every preset x both device types)
# runs under `make chaos` / --runslow.

_FAST_GRID = ["none", "light", "ratelimit", "churn"]
_FULL_GRID = sorted(PRESETS)


def _chaos_measure(plan_name, profile, seed):
    device = make_profile_device(profile)
    world = build_linear_world(device=device, device_link=2, seed=seed)
    world.sim.set_fault_plan(PRESETS[plan_name])
    tracer = CenTrace(
        world.sim,
        world.client,
        asdb=world.asdb,
        config=CenTraceConfig(repetitions=3),
    )
    result = tracer.measure(ENDPOINT_IP, BLOCKED_DOMAIN, PROTO_HTTP)
    return world, result


def _assert_invariants(plan_name, world, result):
    plan = PRESETS[plan_name]
    max_loss = plan.loss.max_rate() if plan.loss is not None else 0.0
    if not result.valid:
        # A valid=False outcome is an allowed degradation, never a
        # crash; it only happens when faults broke the control trace.
        assert plan_name != "none"
        return
    if max_loss <= 0.05 and result.blocked and result.terminating_ttl:
        expected = world.device_link + 1  # hop the device's link leads to
        assert abs(result.terminating_ttl - expected) <= 1, (
            f"plan {plan_name}: attributed hop {result.terminating_ttl}, "
            f"device at {expected}"
        )


@pytest.mark.chaos
@pytest.mark.parametrize("plan_name", _FAST_GRID)
def test_chaos_dropper_attribution(plan_name):
    world, result = _chaos_measure(plan_name, KZ_STATE, seed=7)
    _assert_invariants(plan_name, world, result)


@pytest.mark.chaos
@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("profile", [KZ_STATE, BY_DPI], ids=["drop", "rst"])
@pytest.mark.parametrize("plan_name", _FULL_GRID)
def test_chaos_full_grid(plan_name, profile, seed):
    world, result = _chaos_measure(plan_name, profile, seed)
    if profile is KZ_STATE:
        _assert_invariants(plan_name, world, result)
    # For the injector the invariant is just "classify, don't crash";
    # result.brief() exercises the whole result surface.
    assert result.brief()


def _campaign_digests(tmp_path, plan):
    """Serial and parallel campaign digests for one fault plan."""
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.geo.countries import build_world
    from repro.persist import save_campaign

    from ..helpers_golden import digest_dir

    def digest(workers, tag):
        world = build_world("AZ", seed=7, scale=0.35, fault_plan=plan)
        config = CampaignConfig(
            repetitions=2, max_endpoints=3, fuzz_max_endpoints=1
        )
        campaign = run_campaign(world, config, workers=workers)
        out = tmp_path / tag
        save_campaign(campaign, str(out))
        return digest_dir(out), campaign

    serial, campaign = digest(None, "serial")
    parallel, _ = digest(2, "parallel")
    return serial, parallel, campaign


@pytest.mark.chaos
def test_chaos_campaign_bit_identity(tmp_path):
    """PR 1's serial/parallel guarantee extended to faulted worlds."""
    plan = PRESETS["chaos"]
    serial, parallel, campaign = _campaign_digests(tmp_path, plan)
    assert serial == parallel
    # And the plan actually took: the spec carries it to workers.
    assert campaign.world.spec.fault_plan == plan


@pytest.mark.chaos
@pytest.mark.slow
@pytest.mark.parametrize(
    "plan_name", [n for n in _FULL_GRID if n not in ("none", "chaos")]
)
def test_chaos_campaign_bit_identity_full_grid(tmp_path, plan_name):
    plan = PRESETS[plan_name]
    serial, parallel, _ = _campaign_digests(tmp_path, plan)
    assert serial == parallel


@pytest.mark.chaos
def test_faulted_worldspec_round_trip():
    from repro.geo.countries import WorldSpec, build_world

    plan = PRESETS["light"]
    world = build_world("AZ", seed=7, scale=0.35, fault_plan=plan)
    assert world.spec == WorldSpec(
        country="AZ", seed=7, scale=0.35, fault_plan=plan
    )
    replica = world.spec.build()
    assert replica.sim.fault_plan == plan
    assert replica.sim._faults is not None
