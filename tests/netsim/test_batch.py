"""Batch-vs-oracle parity for the batched packet plane.

The :class:`~repro.netsim.batch.BatchEngine` promises to reproduce the
reference scalar walk (:class:`tests.oracle.scalar.ScalarEngine`) *exactly*:
delivered bytes, the base RNG draw stream (how many draws, and where
the stream ends up), NetContext identifier streams, the virtual clock
and every telemetry counter. These tests drive both engines over the
same workloads on fresh worlds and compare all five surfaces, once
under a telemetry sink and once under ``NULL_TELEMETRY`` (the mode the
benchmark and the golden digests run in), where all but the counters
are compared.

Fault plans run on the batched plane too, so every snapshot also
compares the fault state: the fault RNG's draw count and next draws,
the ground-truth fault counters, the churn epoch and the ICMP
token-bucket levels.

The fast subset (plain / device / rewrite worlds, a device beside
rewriting routers and a Fortinet device that forges RSTs toward the
server, at two loss rates; the fault presets on the device world,
churn on ECMP, a lossy DNS ladder) runs in tier 1; the
exhaustive world x loss grid and the fault-preset grid ride behind
``--runslow``.
"""

import dataclasses
import functools
import random
import sys
from pathlib import Path as _Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(_Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
    make_profile_device,
)

from repro.devices.actions import KIND_RST, BlockAction
from repro.devices.base import CensorshipDevice
from repro.devices.rules import Blocklist
from repro.devices.state import RESIDUAL_3TUPLE, RESIDUAL_HOSTS
from repro.devices.vendors import FORTINET, KZ_STATE
from repro.netmodel import tcp as tcpmod
from repro.netmodel.ip import FLAG_DF
from repro.netmodel.packet import Packet, tcp_packet, udp_packet
from repro.netsim.batch import BatchEngine, patched_quote
from repro.netsim.faults import (
    PRESETS,
    FaultPlan,
    FlakyDeviceProfile,
    IcmpRateLimitProfile,
    LossProfile,
)
from repro.netsim.routing import Hop, Path, Route
from repro.netsim.simulator import Simulator
from repro.netsim.tcpstack import open_connection
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.dnsresolver import DNSResolver
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry_registry import (
    SIM_INJECTED_TO_SERVER,
    SIM_INJECTED_TTL_EXPIRED,
)

from ..oracle.scalar import ScalarEngine
from .test_faults import _ServerPoker

PAYLOAD = b"GET / HTTP/1.1\r\nHost: " + OK_DOMAIN.encode() + b"\r\n\r\n"
BLOCKED_PAYLOAD = (
    b"GET / HTTP/1.1\r\nHost: " + BLOCKED_DOMAIN.encode() + b"\r\n\r\n"
)


# ---------------------------------------------------------------------------
# World builders
# ---------------------------------------------------------------------------


def world_plain(loss_rate=0.0, seed=7):
    return build_linear_world(n_routers=6, loss_rate=loss_rate, seed=seed)


def world_device(loss_rate=0.0, seed=7):
    return build_linear_world(
        n_routers=6,
        device=make_profile_device(KZ_STATE),
        device_link=3,
        loss_rate=loss_rate,
        seed=seed,
    )


def world_rewrite(loss_rate=0.0, seed=7):
    world = build_linear_world(n_routers=6, loss_rate=loss_rate, seed=seed)
    world.routers[1].rewrite_tos = 0x28
    return world


def world_device_rewrite(loss_rate=0.0, seed=7):
    """Rewriting routers on both sides of the device link: the batched
    walk clones before the device and keeps rewriting that clone."""
    world = world_device(loss_rate=loss_rate, seed=seed)
    world.routers[1].rewrite_tos = 0x28
    world.routers[4].rewrite_tos = 0x10
    return world


def world_device_then_rewrite(loss_rate=0.0, seed=7):
    """A rewrite only past the device: the device reads the caller's
    packet, and expiries and deliveries beyond the rewrite clone late."""
    world = world_device(loss_rate=loss_rate, seed=seed)
    world.routers[4].rewrite_tos = 0x10
    return world


def world_fortinet(loss_rate=0.0, seed=7):
    """A Fortinet device: its blockpage and RSTs come with an RST toward
    the server, which tears the flow down at the endpoint's stack."""
    return build_linear_world(
        n_routers=6,
        device=make_profile_device(FORTINET),
        device_link=2,
        loss_rate=loss_rate,
        seed=seed,
    )


def world_silent(loss_rate=0.0, seed=7):
    return build_linear_world(
        n_routers=6, silent_routers=(1, 3), loss_rate=loss_rate, seed=seed
    )


WORLDS = {
    "plain": world_plain,
    "device": world_device,
    "rewrite": world_rewrite,
    "device_rewrite": world_device_rewrite,
    "device_then_rewrite": world_device_then_rewrite,
    "fortinet": world_fortinet,
    "silent": world_silent,
}


def build_multipath_world(loss_rate=0.0, seed=7):
    """Two parallel 4-router paths so ECMP flow hashing matters."""
    topology = Topology("test-multipath")
    client = topology.add_client(
        Client("client", CLIENT_IP, asn=64500, country="XX", in_country=True)
    )
    paths = []
    for p in range(2):
        hops = []
        for i in range(4):
            router = topology.add_router(
                Router(f"p{p}r{i}", f"100.8{p}.{i}.1", asn=64501 + i)
            )
            hops.append(Hop(router.name))
        paths.append(hops)
    from repro.services.webserver import WebServer

    endpoint = topology.add_endpoint(
        Endpoint(
            "endpoint",
            ENDPOINT_IP,
            asn=64999,
            server=WebServer([OK_DOMAIN]),
            country="XX",
        )
    )
    route_paths = [Path(h + [Hop(endpoint.name)]) for h in paths]
    topology.add_route(client.ip, endpoint.ip, Route(route_paths))
    sim = Simulator(topology, seed=seed, loss_rate=loss_rate)
    return sim, client, endpoint


def build_dns_world(loss_rate=0.0, seed=7, n_routers=6, silent=()):
    """A linear path to a resolver endpoint (no web server needed)."""
    topology = Topology("test-dns")
    client = topology.add_client(
        Client("client", CLIENT_IP, asn=64500, country="XX", in_country=True)
    )
    hops = []
    for i in range(n_routers):
        router = topology.add_router(
            Router(
                f"r{i}",
                f"100.81.{i}.1",
                asn=64501 + i,
                responds_icmp=i not in silent,
            )
        )
        hops.append(Hop(router.name))
    endpoint = topology.add_endpoint(
        Endpoint(
            "resolver",
            ENDPOINT_IP,
            asn=64999,
            country="XX",
            resolver=DNSResolver(zone={OK_DOMAIN: "93.184.216.34"}),
            services={53: "dns"},
        )
    )
    hops.append(Hop(endpoint.name))
    topology.add_route(client.ip, endpoint.ip, Route([Path(hops)]))
    sim = Simulator(topology, seed=seed, loss_rate=loss_rate)
    return sim, client, endpoint


#: Per-AS and per-link loss overrides (some lossless, so some links take
#: no fault draw), a slow ICMP refill and a device that fails both ways.
#: No preset has lossless links or fails closed often enough to show in
#: a short workload.
MIXED_PLAN = FaultPlan(
    name="mixed",
    loss=LossProfile(
        default_rate=0.04,
        as_rates=((64502, 0.0), (64504, 0.15)),
        link_rates=(("r0", 0.0), ("endpoint", 0.1)),
    ),
    icmp_rate_limit=IcmpRateLimitProfile(capacity=1, refill_rate=0.01),
    flaky_devices=FlakyDeviceProfile(fail_open_rate=0.15, fail_closed_rate=0.15),
)


# ---------------------------------------------------------------------------
# Workloads + observable snapshots
# ---------------------------------------------------------------------------


def tcp_workflow(sim, client, engine=None, n=24, port=80):
    """Fresh-connection probes over a TTL ladder, with retries."""
    out = []
    for i in range(n):
        payload = BLOCKED_PAYLOAD if i % 3 == 0 else PAYLOAD
        conn = open_connection(sim, client, ENDPOINT_IP, port, engine=engine)
        if conn is None:
            out.append(("handshake-failed",))
            sim.advance(1.0)
            continue
        result = conn.send_payload(
            payload, ttl=1 + (i % 9), retries=2, retry_wait=1.0
        )
        conn.close()
        out.append(tuple(p.to_bytes() for p in result.received))
    return out


class CountingRandom(random.Random):
    """A ``random.Random`` that continues ``source``'s stream and counts
    the draws taken from it.

    Comparing where two streams ended up is not enough: a shifted loss
    stream can realign and still agree on the next draws. The draw count
    of each RNG is compared too. (Overriding ``getrandbits`` beside
    ``random`` keeps ``randrange`` and friends on their usual path.)
    """

    def __init__(self, source: random.Random) -> None:
        super().__init__()
        self.setstate(source.getstate())
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)


def count_draws(sim):
    """Swap the simulator's base RNG and its fault RNG (install the
    fault plan first) for counting continuations of their streams."""
    sim._rng = CountingRandom(sim._rng)
    if sim._faults is not None:
        sim._faults.rng = CountingRandom(sim._faults.rng)


def observe(sim, tel):
    """Everything the two engines must agree on, beyond deliveries: the
    identifier streams, each RNG's draw count and next draws, the clock,
    the fault state and (under a sink) the telemetry counters.

    The ``sim.batch*`` counters (batches, client sends, control
    segments resolved without a packet) describe the batched plane's
    own paths, so only it emits them."""
    counters = None
    if tel.enabled:
        counters = {
            name: value
            for name, value in tel.counters.items()
            if not name.startswith("sim.batch")
        }
    faults = sim._faults
    fault_state = None
    if faults is not None:
        fault_state = {
            "draws": faults.rng.draws,
            "next": [faults.rng.random() for _ in range(4)],
            "counters": dataclasses.asdict(faults.counters),
            "epoch": sim.churn_epoch,
            "packets_sent": faults.packets_sent,
            "buckets": {
                name: (bucket.tokens, bucket.stamp)
                for name, bucket in sorted(faults._buckets.items())
            },
        }
    return {
        "ids": repr(sim.net_context),
        "draws": sim._rng.draws,
        "next": [sim._rng.random() for _ in range(4)],
        "clock": sim.clock,
        "counters": counters,
        "faults": fault_state,
    }


def run_engines(make_world, workload, plan=None):
    """Run ``workload(sim, client, engine=...)`` on fresh worlds from
    ``make_world()`` (a ``(sim, client)`` pair): the oracle and the
    batched engine, each under a telemetry sink and under
    ``NULL_TELEMETRY``, which the benchmark and the goldens run with.
    All four runs must agree on the output and on every observation
    but the counters, and the two runs under a sink on those too.

    Returns the (shared) output and the observation under a sink, and
    the batched run's telemetry counters."""
    runs = {}
    for sink in (True, False):
        for use_engine in (False, True):
            sim, client = make_world()
            tel = Telemetry() if sink else NULL_TELEMETRY
            sim.set_telemetry(tel)
            if plan is not None:
                sim.set_fault_plan(plan)
            count_draws(sim)
            engine = sim.batch_engine() if use_engine else ScalarEngine(sim)
            out = workload(sim, client, engine=engine)
            runs[sink, use_engine] = (out, observe(sim, tel), tel)
    oracle_out, oracle_obs, _ = runs[True, False]
    _, _, tel = runs[True, True]
    for (sink, _), (out, obs, _) in runs.items():
        assert out == oracle_out
        if sink:
            assert obs == oracle_obs
        else:
            assert obs == dict(oracle_obs, counters=None)
    return oracle_out, oracle_obs, dict(tel.counters)


def run_pair(builder, loss_rate, workload=tcp_workflow, plan=None):
    """:func:`run_engines` on a world ``builder(loss_rate=...)`` that
    returns a world with ``sim`` and ``client``."""

    def make_world():
        world = builder(loss_rate=loss_rate)
        return world.sim, world.client

    return run_engines(make_world, workload, plan=plan)


# ---------------------------------------------------------------------------
# patched_quote
# ---------------------------------------------------------------------------


class TestPatchedQuote:
    @pytest.mark.parametrize("ttl", [1, 4, 64, 255])
    def test_equals_full_reserialization_tcp(self, ttl):
        packet = tcp_packet(
            CLIENT_IP,
            ENDPOINT_IP,
            40000,
            80,
            flags=tcpmod.PSH | tcpmod.ACK,
            seq=1234,
            ack=5678,
            ttl=9,
            payload=b"hello quote",
            ip_id=77,
        )
        rebuilt = packet.to_bytes()
        expected_pkt_ip = packet.ip.copy(ttl=ttl)
        expected = type(packet)(
            ip=expected_pkt_ip, tcp=packet.tcp
        ).to_bytes()
        assert patched_quote(rebuilt, ttl) == expected

    def test_equals_full_reserialization_udp(self):
        packet = udp_packet(
            CLIENT_IP, ENDPOINT_IP, 41000, 53, payload=b"q" * 30, ttl=7,
            ip_id=99,
        )
        wire = packet.to_bytes()
        expected = type(packet)(
            ip=packet.ip.copy(ttl=1), udp=packet.udp
        ).to_bytes()
        assert patched_quote(wire, 1) == expected


# ---------------------------------------------------------------------------
# send() parity — fast tier-1 subset
# ---------------------------------------------------------------------------


class TestSendParity:
    @pytest.mark.parametrize(
        "name",
        [
            "plain",
            "device",
            "rewrite",
            "device_rewrite",
            "device_then_rewrite",
            "fortinet",
        ],
    )
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_tcp_workflow_parity(self, name, loss):
        run_pair(WORLDS[name], loss)

    def test_silent_router_parity(self):
        run_pair(WORLDS["silent"], 0.0)

    def test_multipath_parity(self):
        run_pair(multipath_world, 0.002)

    def test_multipath_churn_parity(self):
        # Churn re-hashes ECMP mid-workload: both engines must count the
        # send before picking its path, so flows switch paths together.
        _, observed, _ = run_pair(multipath_world, 0.0, plan=PRESETS["churn"])
        assert observed["faults"]["epoch"] > 0  # the epoch really moved

    def test_rng_stream_identical_after_lossy_walks(self):
        # Beyond matching deliveries: the *entire* base draw stream must
        # stay aligned (each link crossed consumes exactly one draw).
        draws = []
        for use_engine in (False, True):
            world = world_plain(loss_rate=0.3, seed=13)
            sim = world.sim
            engine = sim.batch_engine() if use_engine else ScalarEngine(sim)
            tcp_workflow(sim, world.client, engine=engine, n=12)
            draws.append([sim._rng.random() for _ in range(16)])
        assert draws[0] == draws[1]


# ---------------------------------------------------------------------------
# run_udp_ladder parity
# ---------------------------------------------------------------------------


def ladder_pair(builder, loss_rate, ttls=None, plan=None, **world_kw):
    from repro.netmodel.dns import query

    if ttls is None:
        ttls = list(range(1, 12)) + [0, 64]

    def make_world():
        sim, client, _ep = builder(loss_rate=loss_rate, **world_kw)
        return sim, client

    def ladder(sim, client, engine):
        out = engine.run_udp_ladder(
            client.ip,
            ENDPOINT_IP,
            53,
            ttls,
            lambda sport: query(OK_DOMAIN, txid=(sport * 7919) & 0xFFFF).to_bytes(),
        )
        return [[p.to_bytes() for p in probe] for probe in out]

    run_engines(make_world, ladder, plan=plan)


class TestLadderParity:
    def test_lossless(self):
        ladder_pair(build_dns_world, 0.0)

    def test_lossy(self):
        ladder_pair(build_dns_world, 0.25)

    def test_silent_routers(self):
        ladder_pair(build_dns_world, 0.0, silent=(0, 2))

    def test_lossy_fault_plan(self):
        ladder_pair(build_dns_world, 0.0, plan=PRESETS["lossy"])

    def test_ladder_uses_fast_path_on_clean_world(self):
        sim, client, _ep = build_dns_world()
        tel = Telemetry()
        sim.set_telemetry(tel)
        engine = sim.batch_engine()
        engine.run_udp_ladder(
            client.ip, ENDPOINT_IP, 53, range(1, 9), lambda sport: b"x"
        )
        assert tel.counters.get("sim.batch_fast_path") == 8

    def test_ladder_falls_back_under_fault_plan(self):
        # Under a fault plan too, each probe is one send on the plane.
        sim, client, _ep = build_dns_world()
        tel = Telemetry()
        sim.set_telemetry(tel)
        sim.set_fault_plan(PRESETS["lossy"])
        engine = sim.batch_engine()
        engine.run_udp_ladder(
            client.ip, ENDPOINT_IP, 53, range(1, 9), lambda sport: b"x"
        )
        assert tel.counters.get("sim.batch_fast_path") == 8


# ---------------------------------------------------------------------------
# Fault plans on the batched plane
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("preset", ["lossy", "ratelimit", "flaky"])
    def test_fault_plans_take_the_fast_path(self, preset):
        world = world_device()
        sim = world.sim
        tel = Telemetry()
        sim.set_telemetry(tel)
        sim.set_fault_plan(PRESETS[preset])
        engine = sim.batch_engine()
        tcp_workflow(sim, world.client, engine=engine, n=4)
        assert tel.counters.get("sim.batch_fast_path", 0) > 0

    @pytest.mark.parametrize(
        "preset",
        ["lossy", "ratelimit", "flaky", "chaos", "churn", "duplicate"],
    )
    def test_fault_plan_outcomes_match_direct_scalar(self, preset):
        # The batched walk must not change behaviour: engine.send under
        # a plan == the oracle's send under the same plan.
        run_pair(
            world_device,
            0.0,
            workload=functools.partial(tcp_workflow, n=8),
            plan=PRESETS[preset],
        )

    def test_mixed_fault_plan_parity(self):
        _, observed, _ = run_pair(world_device, 0.0, plan=MIXED_PLAN)
        # The workload really exercised every fault the plan declares.
        fault_counters = observed["faults"]["counters"]
        for name in ("packets_lost", "icmp_suppressed", "fail_open", "fail_closed"):
            assert fault_counters[name] > 0, name


# ---------------------------------------------------------------------------
# Send accounting: sim.batch_fast_path tallies every client send exactly.
# ---------------------------------------------------------------------------


class TestFallbackAccounting:
    def drive(self, sim, n=6):
        tel = Telemetry()
        sim.set_telemetry(tel)
        engine = BatchEngine(sim)
        for i in range(n):
            packet = tcp_packet(
                CLIENT_IP,
                ENDPOINT_IP,
                40000 + i,
                80,
                flags=tcpmod.SYN,
                seq=100 + i,
                ttl=64,
                net=sim.net_context,
            )
            engine.send(packet)
        return tel.counters

    def test_fallback_counter_equals_scalar_walks_under_faults(self):
        world = world_plain()
        sim = world.sim
        sim.set_fault_plan(PRESETS["lossy"])
        counters = self.drive(sim, n=6)
        assert counters.get("sim.batch_fast_path") == 6
        assert counters.get("sim.client_packets") == 6

    def test_fast_path_never_enters_the_scalar_walk(self):
        world = world_plain()
        counters = self.drive(world.sim, n=5)
        assert counters.get("sim.batch_fast_path") == 5
        assert counters.get("sim.client_packets") == 5


# ---------------------------------------------------------------------------
# Connection-level control segments: SYN, handshake ACK and FIN are
# resolved on the path plan without a packet unless a device may act on
# them. The parity surfaces are the same; the batched run's counters
# show which path each segment took.
# ---------------------------------------------------------------------------

CLOSED_PORT = 8080


def handshake_workflow(sim, client, engine=None, n=24, close=True, port=80):
    """Connections that send no data, so every segment is a control
    segment. Returns which handshakes succeeded."""
    out = []
    for _ in range(n):
        conn = open_connection(sim, client, ENDPOINT_IP, port, engine=engine)
        out.append(conn is not None)
        if conn is not None and close:
            conn.close()
    return out


def residual_world(mode):
    """An RST injector whose residual timer punishes the tuple (``mode``)
    of each blocked request for four virtual seconds."""

    def builder(loss_rate=0.0, seed=7):
        device = CensorshipDevice(
            "residual",
            blocklist=Blocklist.for_domains([BLOCKED_DOMAIN]),
            action=BlockAction(kind=KIND_RST),
            residual_mode=mode,
            residual_duration=4.0,
        )
        return build_linear_world(
            n_routers=6,
            device=device,
            device_link=3,
            loss_rate=loss_rate,
            seed=seed,
        )

    return builder


def residual_workflow(sim, client, engine=None, n=16):
    """Blocked requests on port 80 between plain ones on 443, paced so
    each punishment meets the FIN and the next SYNs, then expires.

    Also returns the flags of every payload-less segment the device
    acted on."""
    route = sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
    (device,) = route.paths[0].hops[3].link_devices
    acted = set()
    inspect = device.inspect

    def recording(packet, ctx):
        verdict = inspect(packet, ctx)
        if verdict.acted and not packet.tcp.payload:
            acted.add(packet.tcp.flags)
        return verdict

    device.inspect = recording
    out = []
    for i in range(n):
        port = 80 if i % 2 == 0 else 443
        conn = open_connection(sim, client, ENDPOINT_IP, port, engine=engine)
        if conn is None:
            out.append((port, "handshake-failed"))
        else:
            payload = BLOCKED_PAYLOAD if i % 4 == 0 else PAYLOAD
            result = conn.send_payload(payload, retries=1)
            conn.close()
            out.append((port, tuple(p.to_bytes() for p in result.received)))
        sim.advance(1.5)
    return out, sorted(acted)


def multipath_world(loss_rate=0.0, seed=7):
    sim, client, _endpoint = build_multipath_world(loss_rate, seed)
    return SimpleNamespace(sim=sim, client=client)


def churn_workflow(sim, client, engine=None, n=12):
    """The churn epoch after each handshake and after its FIN."""
    out = []
    for _ in range(n):
        conn = open_connection(sim, client, ENDPOINT_IP, 80, engine=engine)
        epoch = sim.churn_epoch
        conn.close()
        out.append((epoch, sim.churn_epoch))
    return out


def all_resolved(counters):
    """Every client packet was a control segment resolved without one."""
    return counters["sim.batch_control_resolved"] == counters["sim.client_packets"]


class TestControlSegments:
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_closed_port_rst_answers_syn(self, loss):
        out, observed, counters = run_pair(
            world_device,
            loss,
            workload=functools.partial(handshake_workflow, port=CLOSED_PORT),
        )
        assert not any(out)  # RST|ACK refuses every handshake
        assert observed["counters"]["sim.deliveries"] > 0
        assert all_resolved(counters)

    @pytest.mark.parametrize("mode", [RESIDUAL_HOSTS, RESIDUAL_3TUPLE])
    def test_residual_tuple_meets_syn_and_fin(self, mode):
        (out, acted), _, counters = run_pair(
            residual_world(mode), 0.0, workload=residual_workflow
        )
        assert tcpmod.SYN in acted
        assert tcpmod.FIN | tcpmod.ACK in acted
        # Only a hosts-mode punishment reaches the next 443 handshake.
        refused_443 = (443, "handshake-failed") in out
        assert refused_443 == (mode == RESIDUAL_HOSTS)
        # Segments the device passes are still resolved without a packet.
        assert 0 < counters["sim.batch_control_resolved"]

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_residual_parity_under_loss(self, loss):
        for mode in (RESIDUAL_HOSTS, RESIDUAL_3TUPLE):
            run_pair(residual_world(mode), loss, workload=residual_workflow)

    def test_mixed_plan_fails_closed_on_control_segments(self):
        _, observed, counters = run_pair(
            world_device, 0.0, workload=handshake_workflow, plan=MIXED_PLAN
        )
        fault_counters = observed["faults"]["counters"]
        for name in ("packets_lost", "fail_open", "fail_closed"):
            assert fault_counters[name] > 0, name
        assert all_resolved(counters)

    def test_uniform_loss_under_flaky_plan(self):
        # No loss profile: loss draws come from the base RNG and fates
        # from the fault RNG, interleaved in one lottery.
        plan = FaultPlan(
            name="flaky-both-ways",
            flaky_devices=FlakyDeviceProfile(
                fail_open_rate=0.15, fail_closed_rate=0.15
            ),
        )
        _, observed, counters = run_pair(
            world_device, 0.2, workload=handshake_workflow, plan=plan
        )
        fault_counters = observed["faults"]["counters"]
        for name in ("fail_open", "fail_closed"):
            assert fault_counters[name] > 0, name
        assert counters["sim.packets_lost"] > 0
        assert all_resolved(counters)

    def test_duplicate_preset_duplicates_syn_ack(self):
        # No close(): SYN-ACKs are the only replies there are to shape.
        _, observed, counters = run_pair(
            world_device,
            0.0,
            workload=functools.partial(handshake_workflow, n=60, close=False),
            plan=PRESETS["duplicate"],
        )
        assert observed["faults"]["counters"]["duplicated"] > 0
        assert all_resolved(counters)

    def test_churn_epoch_between_syn_and_fin(self):
        out, _, counters = run_pair(
            multipath_world, 0.0, workload=churn_workflow, plan=PRESETS["churn"]
        )
        assert any(after != before for before, after in out)
        assert all_resolved(counters)

    @pytest.mark.parametrize(
        "name", ["rewrite", "device_rewrite", "device_then_rewrite"]
    )
    @pytest.mark.parametrize("preset", [None, "duplicate", "chaos"])
    def test_rewrite_worlds(self, name, preset):
        plan = PRESETS[preset] if preset is not None else None
        _, _, counters = run_pair(WORLDS[name], 0.0, plan=plan)
        assert counters["sim.batch_control_resolved"] > 0

    def test_clean_connect_close_builds_no_packet(self, monkeypatch):
        # Counts constructions the way perfbench's `materialized` metric
        # does: a silent fallback to building the segments fails here.
        world = world_device()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        built = []
        post_init = Packet.__post_init__

        def counting(packet):
            built.append(packet)
            post_init(packet)

        monkeypatch.setattr(Packet, "__post_init__", counting)
        for _ in range(5):
            conn = open_connection(
                world.sim, world.client, ENDPOINT_IP, 80, engine=engine
            )
            assert conn is not None
            conn.close()
        assert built == []
        assert tel.counters["sim.batch_control_resolved"] == 15
        assert tel.counters["sim.device_inspections"] == 15


# ---------------------------------------------------------------------------
# Device forgeries toward the server: the batched plane walks them on the
# path plan from the device's hop to the endpoint's TCP stack.
# ---------------------------------------------------------------------------


def forger_world(loss_rate=0.0, seed=7, rewrite_hop=4):
    """A device at link 2 that forges a TTL-2 and a TTL-64 data segment
    toward the server: four routers lie ahead of the forgeries, so the
    first expires at the second of them. A router clears the IP flags:
    at hop 4 it rewrites the forgery that reaches the endpoint (whose
    RST copies the flags it arrived with), at hop 1 only the client's
    packets."""
    world = build_linear_world(
        n_routers=6,
        device=_ServerPoker(2, 64),
        device_link=2,
        loss_rate=loss_rate,
        seed=seed,
    )
    world.routers[rewrite_hop].rewrite_ip_flags = 0
    return world


class TestInjectedToServer:
    @pytest.mark.parametrize("plan", [None, MIXED_PLAN], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @pytest.mark.parametrize("rewrite_hop", [1, 4])
    def test_forgeries_expire_rewrite_and_draw_replies(
        self, rewrite_hop, loss, plan
    ):
        builder = functools.partial(forger_world, rewrite_hop=rewrite_hop)
        out, _, counters = run_pair(builder, loss, plan=plan)
        assert counters[SIM_INJECTED_TO_SERVER] > 0
        assert counters[SIM_INJECTED_TTL_EXPIRED] > 0
        if loss == 0.0 and plan is None:
            # The endpoint's RST for the forged flow carries the IP
            # flags the forgery arrived with.
            received = [Packet.from_bytes(raw) for probe in out for raw in probe]
            rsts = [
                p for p in received if p.tcp is not None and p.tcp.flags == tcpmod.RST
            ]
            expected = 0 if rewrite_hop > 2 else FLAG_DF
            assert rsts and all(p.ip.flags == expected for p in rsts)

    def test_fortinet_rst_to_server(self):
        _, _, counters = run_pair(world_fortinet, 0.0)
        assert counters[SIM_INJECTED_TO_SERVER] > 0


# ---------------------------------------------------------------------------
# The exhaustive grid (--runslow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestFullParityGrid:
    @pytest.mark.parametrize("name", sorted(WORLDS))
    @pytest.mark.parametrize("loss", [0.0, 0.002, 0.2])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_send_grid(self, name, loss, seed):
        def builder(loss_rate):
            return WORLDS[name](loss_rate=loss_rate, seed=seed)

        run_pair(builder, loss)

    @pytest.mark.parametrize("loss", [0.0, 0.002, 0.2])
    @pytest.mark.parametrize("silent", [(), (0,), (2, 4)])
    def test_ladder_grid(self, loss, silent):
        ladder_pair(build_dns_world, loss, silent=silent)

    @pytest.mark.parametrize("preset", ["light", "lossy", "ratelimit", "flaky", "chaos"])
    def test_fallback_grid(self, preset):
        run_pair(
            world_device,
            0.0,
            workload=functools.partial(tcp_workflow, n=16),
            plan=PRESETS[preset],
        )
