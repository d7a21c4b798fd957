"""The reference transit walk: direction semantics as declared policy.

Every walk kind of the oracle (forward client traffic, injected-to-
server forgeries, reverse return traffic) runs through
``ScalarEngine._run_transit`` (``tests/oracle``); these tests pin the
policy-bit matrix, the shared loss-roll stream, TTL decrement parity
across directions, and the single-resolve-per-path memoization the walk
relies on. The parity suites hold the batched plane to this walk.
"""

import inspect
import random

import pytest

from repro.netmodel import tcp as tcpmod
from repro.netmodel.packet import tcp_packet
from repro.netsim.routing import Hop, Path, Route
from repro.telemetry import Telemetry

from ..helpers import CLIENT_IP, ENDPOINT_IP, build_linear_world
from ..oracle.scalar import (
    POLICY_FORWARD,
    POLICY_INJECTED_TO_SERVER,
    POLICY_REVERSE,
    ScalarEngine,
    Transit,
)


def _path_for(world):
    route = world.sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
    return route.paths[0]


def _probe(ttl=64, payload=b"", sport=40000):
    return tcp_packet(
        CLIENT_IP,
        ENDPOINT_IP,
        sport,
        80,
        flags=tcpmod.PSH | tcpmod.ACK if payload else tcpmod.SYN,
        seq=100,
        ttl=ttl,
        payload=payload,
    )


def _reverse_packet(ttl=64):
    return tcp_packet(
        ENDPOINT_IP,
        CLIENT_IP,
        80,
        40000,
        flags=tcpmod.SYN | tcpmod.ACK,
        seq=1_000_000,
        ack=101,
        ttl=ttl,
    )


class TestPolicyMatrix:
    """The declared divergence bits, pinned one policy at a time."""

    @pytest.mark.parametrize(
        "policy,inspect_devices,icmp,first_link_loss,transforms,services",
        [
            (POLICY_FORWARD, True, True, True, True, True),
            (POLICY_INJECTED_TO_SERVER, False, False, False, True, False),
            (POLICY_REVERSE, False, False, True, False, False),
        ],
        ids=["forward", "injected", "reverse"],
    )
    def test_bits(
        self, policy, inspect_devices, icmp, first_link_loss, transforms, services
    ):
        assert policy.inspect_devices is inspect_devices
        assert policy.emit_icmp_on_expiry is icmp
        assert policy.loss_on_first_link is first_link_loss
        assert policy.apply_router_transforms is transforms
        assert policy.deliver_via_services is services

    def test_capture_labels(self):
        assert POLICY_FORWARD.loss_event == "loss"
        assert POLICY_INJECTED_TO_SERVER.loss_event == "loss-injected"
        assert POLICY_REVERSE.loss_event == "loss-reverse"
        assert POLICY_FORWARD.expiry_event == "ttl-expired"
        assert POLICY_INJECTED_TO_SERVER.expiry_event == "injected-ttl-expired"
        assert POLICY_REVERSE.expiry_event == "reverse-ttl-expired"

    def test_policies_are_immutable(self):
        with pytest.raises(Exception):
            POLICY_FORWARD.inspect_devices = False


class TestSingleHopLoop:
    def test_exactly_one_hop_traversal_loop(self):
        """The refactor's contract: one loop walks every packet."""
        source = inspect.getsource(ScalarEngine)
        assert source.count("for index in") == 1

    def test_legacy_walk_methods_are_gone(self):
        for name in ("_walk_forward", "_walk_reverse", "_walk_injected_to_server"):
            assert not hasattr(ScalarEngine, name)


class TestLossRollStream:
    """One RNG roll per link crossed, in hop order, from the shared
    base RNG — the property that keeps retries and directions honest."""

    def test_forward_walk_consumes_one_roll_per_link(self):
        world = build_linear_world(n_routers=4, loss_rate=0.0001, seed=13)
        ScalarEngine(world.sim).send(_probe())
        # Endpoint answered (SYN-ACK): forward crossed 5 links, the
        # reply crossed 4 router links plus the client link.
        expected = random.Random(13)
        for _ in range(5 + 5):
            expected.random()
        assert world.sim._rng.random() == expected.random()

    def test_same_seed_same_loss_outcomes(self):
        outcomes = []
        for _ in range(2):
            world = build_linear_world(n_routers=5, loss_rate=0.4, seed=99)
            oracle = ScalarEngine(world.sim, capture=True)
            for _ in range(6):
                oracle.send(_probe())
            outcomes.append([(r.location, r.event) for r in oracle.capture])
        assert outcomes[0] == outcomes[1]

    def test_injected_transit_skips_entry_link_roll(self):
        """The device's own link carries no loss roll; later links do."""
        world = build_linear_world(n_routers=3, loss_rate=1.0, seed=1)
        oracle = ScalarEngine(world.sim, capture=True)
        path = _path_for(world)
        forged = _probe(payload=b"forged", sport=47001)
        forged.injected = True
        deliveries = []
        oracle._run_transit(
            Transit(forged, path, 2, POLICY_INJECTED_TO_SERVER, CLIENT_IP),
            deliveries,
        )
        # With 100% loss the packet survives its entry link (no roll)
        # and dies on the very next one.
        events = [(r.location, r.event) for r in oracle.capture]
        assert events == [("endpoint", "loss-injected")]
        assert deliveries == []

    def test_reverse_client_link_loss_is_silent(self):
        """Loss on the final link into the client drops the delivery
        without a capture record (there is no hop to attribute it to)."""
        world = build_linear_world(n_routers=2, loss_rate=1.0, seed=3)
        oracle = ScalarEngine(world.sim, capture=True)
        deliveries = []
        oracle._run_transit(
            Transit(_reverse_packet(), _path_for(world), 0, POLICY_REVERSE, CLIENT_IP),
            deliveries,
        )
        assert deliveries == []
        assert oracle.capture == []


class TestTTLDecrementParity:
    """Routers cost exactly one TTL in every direction."""

    def test_forward_arrival_ttl(self):
        world = build_linear_world(n_routers=4, seed=5)
        oracle = ScalarEngine(world.sim, capture=True)
        oracle.send(_probe(ttl=64))
        delivered = [r for r in oracle.capture if r.event == "delivered"]
        assert delivered, "probe should reach the endpoint"
        # 4 routers cost 4 TTL.
        assert "ttl=60" in delivered[0].detail

    def test_reverse_arrival_ttl(self):
        world = build_linear_world(n_routers=4, seed=5)
        deliveries = []
        ScalarEngine(world.sim)._run_transit(
            Transit(
                _reverse_packet(ttl=64),
                _path_for(world),
                4,
                POLICY_REVERSE,
                CLIENT_IP,
            ),
            deliveries,
        )
        assert len(deliveries) == 1
        assert deliveries[0].ip.ttl == 64 - 4

    @pytest.mark.parametrize(
        "policy", [POLICY_INJECTED_TO_SERVER, POLICY_REVERSE], ids=["injected", "reverse"]
    )
    def test_silent_expiry_counted(self, policy):
        world = build_linear_world(n_routers=4, seed=5)
        sim = world.sim
        oracle = ScalarEngine(sim, capture=True)
        tel = Telemetry()
        sim.set_telemetry(tel)
        deliveries = []
        if policy is POLICY_REVERSE:
            transit = Transit(
                _reverse_packet(ttl=1), _path_for(world), 4, POLICY_REVERSE, CLIENT_IP
            )
        else:
            forged = _probe(ttl=1, payload=b"x", sport=47002)
            forged.injected = True
            transit = Transit(
                forged, _path_for(world), 0, POLICY_INJECTED_TO_SERVER, CLIENT_IP
            )
        oracle._run_transit(transit, deliveries)
        assert deliveries == []
        assert tel.counters[policy.expiry_counter] == 1
        assert any(r.event == policy.expiry_event for r in oracle.capture)


class TestPathResolutionMemoization:
    """One path resolves at most once, no matter how many transits
    (forward, ICMP returns, injections) traverse it."""

    def test_resolve_returns_cached_list(self):
        world = build_linear_world(n_routers=3)
        path = _path_for(world)
        first = path.resolve(world.topology)
        assert path.resolve(world.topology) is first

    def test_walk_with_spawned_transits_resolves_once(self):
        world = build_linear_world(n_routers=4, seed=5)
        path = _path_for(world)
        path.nodes = None  # simulate a lazily-registered path
        calls = []
        original = path.resolve

        def counting_resolve(topology):
            calls.append(1)
            return original(topology)

        path.resolve = counting_resolve
        # A TTL-limited probe triggers a router expiry, whose ICMP
        # response spawns a reverse transit over the same path.
        responses = ScalarEngine(world.sim).send(_probe(ttl=2))
        assert any(p.is_icmp for p in responses)
        assert len(calls) == 1
