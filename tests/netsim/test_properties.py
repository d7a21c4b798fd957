"""Property-based simulator invariants (hypothesis), and batch-vs-oracle
parity over generated worlds and fault plans."""

import functools
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import BLOCKED_DOMAIN, OK_DOMAIN, build_linear_world

from repro.devices.actions import (
    KIND_DROP,
    KIND_RST,
    TTL_COPY,
    TTL_FIXED,
    BlockAction,
    InjectionSignature,
)
from repro.devices.base import CensorshipDevice
from repro.devices.rules import Blocklist
from repro.devices.state import RESIDUAL_3TUPLE, RESIDUAL_HOSTS, RESIDUAL_OFF
from repro.netmodel.http import HTTPRequest
from repro.netsim.faults import (
    PRESETS,
    FaultPlan,
    FlakyDeviceProfile,
    IcmpRateLimitProfile,
    LossProfile,
    PathChurnProfile,
)
from repro.netsim.tcpstack import open_connection
from repro.telemetry_registry import SIM_REVERSE_TTL_EXPIRED

from .test_batch import build_multipath_world, run_pair, tcp_workflow


@st.composite
def topology_and_ttl(draw):
    n_routers = draw(st.integers(min_value=2, max_value=10))
    ttl = draw(st.integers(min_value=1, max_value=n_routers + 4))
    seed = draw(st.integers(min_value=0, max_value=100))
    return n_routers, ttl, seed


class TestForwardingInvariants:
    @settings(max_examples=30, deadline=None)
    @given(params=topology_and_ttl())
    def test_icmp_source_matches_hop_distance(self, params):
        """A probe with TTL t <= router count always draws its ICMP
        from exactly the t-th router."""
        n_routers, ttl, seed = params
        world = build_linear_world(n_routers=n_routers, seed=seed)
        conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
        result = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=ttl)
        if ttl <= n_routers:
            icmp = [p for p in result.received if p.is_icmp]
            assert len(icmp) == 1
            assert icmp[0].ip.src == world.routers[ttl - 1].ip
        else:
            # Past the last router the endpoint answers.
            assert any(
                p.is_tcp and p.ip.src == world.endpoint.ip
                for p in result.received
            )

    @settings(max_examples=20, deadline=None)
    @given(params=topology_and_ttl())
    def test_no_response_without_cause(self, params):
        """On a lossless path every probe elicits exactly one kind of
        reaction: ICMP below the endpoint, endpoint traffic at/above."""
        n_routers, ttl, seed = params
        world = build_linear_world(n_routers=n_routers, seed=seed)
        conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
        result = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=ttl)
        assert result.received, "lossless path must always answer"
        kinds = {("icmp" if p.is_icmp else "tcp") for p in result.received}
        assert len(kinds) == 1

    @settings(max_examples=20, deadline=None)
    @given(
        n_routers=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_reply_ttl_arithmetic(self, n_routers, seed):
        """An ICMP from hop k arrives with TTL 64 - (k-1): the reverse
        path crosses k-1 routers."""
        world = build_linear_world(n_routers=n_routers, seed=seed)
        conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
        for k in range(1, n_routers + 1):
            result = conn.send_payload(
                HTTPRequest.normal(OK_DOMAIN).build(), ttl=k
            )
            icmp = [p for p in result.received if p.is_icmp]
            assert icmp[0].ip.ttl == 64 - (k - 1)

    @settings(max_examples=15, deadline=None)
    @given(
        n_routers=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_clock_monotonic_under_traffic(self, n_routers, seed):
        world = build_linear_world(n_routers=n_routers, seed=seed)
        last = world.sim.clock
        for _ in range(5):
            conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
            conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=3)
            assert world.sim.clock > last
            last = world.sim.clock


#: A link loss rate, lossless often enough that zero-rate links (which
#: take no fault draw) show up in most generated profiles.
loss_rates = st.just(0.0) | st.floats(min_value=0.0, max_value=0.3)


def fault_plans(nodes, asns, churn=st.none()):
    """A fault plan for a world whose links lead to ``nodes``, in the
    ASes ``asns``, as ``MIXED_PLAN`` is built by hand: per-AS and
    per-link loss overrides over a default rate, an ICMP token bucket,
    and devices that fail open and closed — each part present or not —
    and the path churn ``churn`` draws."""

    def overrides(keys):
        return st.lists(
            st.tuples(st.sampled_from(keys), loss_rates),
            max_size=3,
            unique_by=lambda pair: pair[0],
        ).map(tuple)

    loss = st.builds(
        LossProfile,
        default_rate=loss_rates,
        as_rates=overrides(asns),
        link_rates=overrides(nodes),
    )
    icmp = st.builds(
        IcmpRateLimitProfile,
        capacity=st.integers(min_value=1, max_value=3),
        refill_rate=st.sampled_from([0.0, 0.01, 1.0]),
    )
    flaky = st.builds(
        FlakyDeviceProfile,
        fail_open_rate=st.floats(min_value=0.0, max_value=0.3),
        fail_closed_rate=st.floats(min_value=0.0, max_value=0.3),
    )
    return st.builds(
        FaultPlan,
        name=st.just("generated"),
        loss=st.none() | loss,
        icmp_rate_limit=st.none() | icmp,
        flaky_devices=st.none() | flaky,
        churn=churn,
    )


@st.composite
def linear_worlds(draw):
    """A linear world's knobs: where the device and a header-rewriting
    router sit (or none), loss, an open or closed port, how the device
    acts, stamps its forged packets' TTL, punishes and whether it also
    resets the server side, and a fault plan: none, a preset, or a
    generated one.

    A TTL-copying injector's replies start back with the probe's
    remaining TTL, so a low-TTL probe's forged RST can die of TTL on
    the way back, the reverse walk that still decrements hop by hop."""
    n_routers = draw(st.integers(min_value=2, max_value=8))
    hop = st.none() | st.integers(min_value=0, max_value=n_routers - 1)
    nodes = [f"r{i}" for i in range(n_routers)] + ["endpoint"]
    asns = [64501 + i for i in range(n_routers)] + [64999]
    return {
        "n_routers": n_routers,
        "device_link": draw(hop),
        "rewrite_hop": draw(hop),
        "loss_rate": draw(st.floats(min_value=0.0, max_value=0.3)),
        "port": draw(st.sampled_from([80, 8080])),
        "action": draw(st.sampled_from([KIND_DROP, KIND_RST])),
        "ttl_mode": draw(st.sampled_from([TTL_FIXED, TTL_COPY])),
        "residual_mode": draw(
            st.sampled_from([RESIDUAL_OFF, RESIDUAL_HOSTS, RESIDUAL_3TUPLE])
        ),
        "rst_to_server": draw(st.booleans()),
        "plan": draw(
            st.sampled_from([None, *sorted(PRESETS)]) | fault_plans(nodes, asns)
        ),
        "seed": draw(st.integers(min_value=0, max_value=1000)),
    }


def generated_device(params):
    """The device ``params`` describes."""
    return CensorshipDevice(
        "generated",
        blocklist=Blocklist.for_domains([BLOCKED_DOMAIN]),
        action=BlockAction(
            kind=params["action"],
            signature=InjectionSignature(ttl_mode=params["ttl_mode"]),
            rst_to_server=params["rst_to_server"],
        ),
        residual_mode=params["residual_mode"],
        residual_duration=3.0,
    )


def generated_world(params):
    """A ``run_pair`` builder for the world ``params`` describes."""

    def builder(loss_rate):
        device = None
        if params["device_link"] is not None:
            device = generated_device(params)
        world = build_linear_world(
            n_routers=params["n_routers"],
            device=device,
            device_link=params["device_link"] or 0,
            loss_rate=loss_rate,
            seed=params["seed"],
        )
        if params["rewrite_hop"] is not None:
            router = world.routers[params["rewrite_hop"]]
            router.rewrite_tos = 0x28
            router.rewrite_ip_flags = 0
        return world

    return builder


@st.composite
def multipath_worlds(draw):
    """A multipath world's knobs, shaped like ``build_multipath_world``:
    2-3 parallel paths of 2-6 routers each, the device on a link of one
    of them or on none, loss, the device's behaviour as in
    :func:`linear_worlds`, and a generated fault plan whose path churn
    re-hashes ECMP every few sends, so that the segments of one
    connection switch paths, each with its own plan and schedule."""
    branches = draw(
        st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=3)
    )
    device_at = draw(
        st.none()
        | st.integers(min_value=0, max_value=len(branches) - 1).flatmap(
            lambda p: st.tuples(
                st.just(p), st.integers(min_value=0, max_value=branches[p] - 1)
            )
        )
    )
    nodes = [f"p{p}r{i}" for p, n in enumerate(branches) for i in range(n)]
    asns = [64501 + i for i in range(max(branches))] + [64999]
    churn = st.builds(
        PathChurnProfile,
        rehash_after_packets=st.integers(min_value=1, max_value=8),
        rehash_after_seconds=st.none() | st.sampled_from([0.5, 3.0]),
    )
    return {
        "branches": tuple(branches),
        "device_at": device_at,
        "loss_rate": draw(st.floats(min_value=0.0, max_value=0.3)),
        "port": draw(st.sampled_from([80, 8080])),
        "action": draw(st.sampled_from([KIND_DROP, KIND_RST])),
        "ttl_mode": draw(st.sampled_from([TTL_FIXED, TTL_COPY])),
        "residual_mode": draw(
            st.sampled_from([RESIDUAL_OFF, RESIDUAL_HOSTS, RESIDUAL_3TUPLE])
        ),
        "rst_to_server": draw(st.booleans()),
        "plan": draw(fault_plans(nodes + ["endpoint"], asns, churn=churn)),
        "seed": draw(st.integers(min_value=0, max_value=1000)),
    }


def generated_multipath_world(params):
    """A ``run_pair`` builder for the multipath world ``params``
    describes."""

    def builder(loss_rate):
        sim, client, _ = build_multipath_world(
            loss_rate,
            params["seed"],
            branches=params["branches"],
            device=generated_device(params),
            device_at=params["device_at"],
        )
        return SimpleNamespace(sim=sim, client=client)

    return builder


def check_parity(params, world=generated_world):
    """Run both engines on the world ``world(params)`` builds and assert
    they agree; returns the observation and the batched run's telemetry
    counters. ``params["plan"]`` is None, a preset's name or a
    :class:`FaultPlan`."""
    plan = params["plan"]
    return run_pair(
        world(params),
        params["loss_rate"],
        workload=functools.partial(tcp_workflow, n=12, port=params["port"]),
        plan=PRESETS[plan] if isinstance(plan, str) else plan,
    )[1:]


class TestGeneratedWorldParity:
    """The oracle and the batched plane agree on every generated world
    and fault plan: deliveries, RNG and identifier streams, clock and
    counters."""

    @settings(max_examples=25, deadline=None)
    @given(params=linear_worlds())
    def test_tcp_workflow_parity(self, params):
        check_parity(params)

    @pytest.mark.parametrize(
        "loss_rate, plan", [(0.0, None), (0.1, None), (0.0, "lossy")]
    )
    @pytest.mark.parametrize("device_link", [2, 3])
    def test_ttl_copy_replies_expire_on_the_way_back(
        self, device_link, loss_rate, plan
    ):
        """Probes that reach the device with at most as much TTL left
        as routers behind it draw forged RSTs that die of TTL on the way
        back (the TTL-4 probes: 2 of TTL left against 2 routers behind
        the device at link 2, 1 against 3 at link 3); the engines agree
        on those walks under uniform loss and a loss profile too."""
        _, counters = check_parity(
            {
                "n_routers": 6,
                "device_link": device_link,
                "rewrite_hop": None,
                "loss_rate": loss_rate,
                "port": 80,
                "action": KIND_RST,
                "ttl_mode": TTL_COPY,
                "residual_mode": RESIDUAL_OFF,
                "rst_to_server": False,
                "plan": plan,
                "seed": 1,
            }
        )
        assert counters[SIM_REVERSE_TTL_EXPIRED] > 0

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(params=linear_worlds())
    def test_tcp_workflow_parity_exhaustive(self, params):
        check_parity(params)

    @settings(max_examples=25, deadline=None)
    @given(params=multipath_worlds())
    def test_multipath_churn_parity(self, params):
        observed, _ = check_parity(params, world=generated_multipath_world)
        assert observed["faults"]["counters"]["churn_epochs"] > 0

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(params=multipath_worlds())
    def test_multipath_churn_parity_exhaustive(self, params):
        check_parity(params, world=generated_multipath_world)
