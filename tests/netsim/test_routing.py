"""Routes, paths and flow-hash selection (ECMP)."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.vendors import KZ_STATE, make_device
from repro.netmodel.http import HTTPRequest
from repro.netmodel.ip import FlowKey
from repro.netsim import routing
from repro.netsim.faults import FaultPlan, PathChurnProfile
from repro.netsim.routing import Hop, Path, Route, single_path_route
from repro.netsim.simulator import Simulator
from repro.netsim.tcpstack import Connection
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.webserver import WebServer

from ..oracle.scalar import ScalarEngine


def _path(names):
    return Path([Hop(n) for n in names])


class TestPath:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path([])

    def test_length_and_names(self):
        path = _path(["a", "b", "c"])
        assert path.length == 3
        assert path.node_names() == ("a", "b", "c")

    def test_devices_enumerated_with_link_index(self):
        device = make_device(KZ_STATE, "d", ["x.example"])
        path = Path([Hop("a"), Hop("b", link_devices=[device]), Hop("c")])
        assert path.devices() == [(1, device)]


class TestRoute:
    def test_single_path_always_selected(self):
        route = single_path_route(["a", "b"])
        flow = FlowKey("1.1.1.1", "2.2.2.2", 1, 2)
        assert route.select(flow).node_names() == ("a", "b")

    def test_requires_paths(self):
        with pytest.raises(ValueError):
            Route([])

    def test_weights_must_match(self):
        with pytest.raises(ValueError):
            Route([_path(["a"])], weights=[1.0, 2.0])

    def test_selection_deterministic_per_flow(self):
        route = Route([_path(["a", "x"]), _path(["b", "x"])])
        flow = FlowKey("1.1.1.1", "2.2.2.2", 1234, 80)
        chosen = {route.select(flow).node_names() for _ in range(10)}
        assert len(chosen) == 1

    def test_different_ports_spread_over_paths(self):
        route = Route([_path(["a", "x"]), _path(["b", "x"])])
        seen = {
            route.select(FlowKey("1.1.1.1", "2.2.2.2", sport, 80)).node_names()
            for sport in range(2000, 2200)
        }
        assert len(seen) == 2

    def test_weights_bias_selection(self):
        route = Route(
            [_path(["heavy"]), _path(["light"])], weights=[9.0, 1.0]
        )
        counts = {"heavy": 0, "light": 0}
        for sport in range(3000, 4000):
            name = route.select(FlowKey("1.1.1.1", "2.2.2.2", sport, 80)).node_names()[0]
            counts[name] += 1
        assert counts["heavy"] > 5 * counts["light"]

    def test_seed_changes_mapping(self):
        route = Route([_path(["a"]), _path(["b"])])
        flow = FlowKey("1.1.1.1", "2.2.2.2", 5555, 80)
        names = {route.select(flow, seed=s).node_names() for s in range(30)}
        assert len(names) == 2

    def test_all_devices_deduplicates(self):
        device = make_device(KZ_STATE, "d", ["x.example"])
        paths = [
            Path([Hop("a"), Hop("b", link_devices=[device])]),
            Path([Hop("c"), Hop("b", link_devices=[device])]),
        ]
        route = Route(paths)
        assert len(route.all_devices()) == 1

    def test_single_path_route_devices(self):
        device = make_device(KZ_STATE, "d", ["x.example"])
        route = single_path_route(["a", "b", "c"], devices_at={1: [device]})
        assert route.paths[0].devices() == [(1, device)]


class TestPathLinks:
    def test_links_include_client_access_link(self):
        path = _path(["a", "b", "ep"])
        assert path.links("client1") == (
            ("client1", "a"),
            ("a", "b"),
            ("b", "ep"),
        )

    def test_link_index_matches_device_convention(self):
        # Path.devices() reports (link_index, device) with the device on
        # the link leading into hops[link_index]; links(origin) must use
        # the same indexing so localizers can join the two.
        device = make_device(KZ_STATE, "d", ["x.example"])
        path = Path([Hop("a"), Hop("b", link_devices=[device]), Hop("ep")])
        [(link_index, found)] = path.devices()
        assert found is device
        assert path.links("c")[link_index] == ("a", "b")


class TestEnumeratePaths:
    def test_registration_order_and_normalized_weights(self):
        route = Route(
            [_path(["a", "x"]), _path(["b", "x"]), _path(["c", "x"])],
            weights=[6.0, 3.0, 1.0],
        )
        enumerated = route.enumerate_paths()
        assert [p.node_names()[0] for p, _ in enumerated] == ["a", "b", "c"]
        assert [w for _, w in enumerated] == pytest.approx([0.6, 0.3, 0.1])
        assert sum(w for _, w in enumerated) == pytest.approx(1.0)

    def test_enumeration_is_stable(self):
        route = Route([_path(["a"]), _path(["b"])], weights=[0.8, 0.2])
        assert route.enumerate_paths() == route.enumerate_paths()

    def test_selected_path_is_enumerated(self):
        route = Route(
            [_path(["a", "x"]), _path(["b", "x"])], weights=[0.7, 0.3]
        )
        enumerated = [p for p, _ in route.enumerate_paths()]
        for sport in range(4000, 4050):
            flow = FlowKey("1.1.1.1", "2.2.2.2", sport, 80)
            assert route.select(flow) in enumerated

    def test_traversed_links_match_selection(self):
        route = Route(
            [_path(["a", "x", "ep"]), _path(["b", "y", "ep"])],
            weights=[0.5, 0.5],
        )
        for sport in range(5000, 5040):
            for seed in (0, 7):
                flow = FlowKey("1.1.1.1", "2.2.2.2", sport, 80)
                assert route.traversed_links(
                    flow, "client1", seed=seed
                ) == route.select(flow, seed=seed).links("client1")

    def test_weighted_multipath_covers_all_link_sets(self):
        route = Route(
            [_path(["a", "x", "ep"]), _path(["b", "y", "ep"])],
            weights=[0.8, 0.2],
        )
        seen = {
            route.traversed_links(
                FlowKey("1.1.1.1", "2.2.2.2", sport, 80), "c"
            )
            for sport in range(6000, 6200)
        }
        assert seen == {
            (("c", "a"), ("a", "x"), ("x", "ep")),
            (("c", "b"), ("b", "y"), ("y", "ep")),
        }


def _fresh_select(route, flow, seed):
    """``Route.select`` without its memo: hash, then scan the weights."""
    digest = hashlib.blake2b(
        f"{flow.src}|{flow.dst}|{flow.sport}|{flow.dport}|{flow.protocol}|{seed}".encode(),
        digest_size=8,
    ).digest()
    point = int.from_bytes(digest, "big") / 2**64
    cumulative = 0.0
    for path, weight in zip(route.paths, route.weights):
        cumulative += weight
        if point < cumulative:
            return path
    return route.paths[-1]


def _fresh_links(path, origin):
    names = (origin,) + path.node_names()
    return tuple(zip(names, names[1:]))


@st.composite
def ecmp_cases(draw):
    """A route of 2-5 weighted paths, and a sequence of (flow, seed,
    origin) lookups drawn from small pools, so that repeats come both
    back to back and interleaved with other flows."""
    nodes = st.sampled_from(["a", "b", "c", "d", "e"])
    paths = draw(
        st.lists(
            st.lists(nodes, min_size=0, max_size=3).map(
                lambda names: Path([Hop(n) for n in names + ["ep"]])
            ),
            min_size=2,
            max_size=5,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=len(paths),
            max_size=len(paths),
        )
    )
    flows = st.builds(
        FlowKey,
        src=st.sampled_from(["10.0.0.1", "10.0.0.2"]),
        dst=st.just("10.9.0.1"),
        sport=st.integers(min_value=40000, max_value=40003),
        dport=st.sampled_from([80, 443]),
        protocol=st.sampled_from([6, 17]),
    )
    lookups = draw(
        st.lists(
            st.tuples(
                flows,
                st.sampled_from([0, 7, 7 + 0x9E3779B1]),
                st.sampled_from(["c1", "c2"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    return Route(paths, weights), lookups


def check_memo_agrees(case):
    route, lookups = case
    for flow, seed, origin in lookups:
        path = route.select(flow, seed=seed)
        assert path is _fresh_select(route, flow, seed)
        assert path.links(origin) == _fresh_links(path, origin)
        assert route.traversed_links(flow, origin, seed=seed) == _fresh_links(
            path, origin
        )


class TestSelectionMemo:
    @settings(max_examples=25, deadline=None)
    @given(case=ecmp_cases())
    def test_memoized_selection_matches_a_fresh_hash(self, case):
        check_memo_agrees(case)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(case=ecmp_cases())
    def test_memoized_selection_matches_a_fresh_hash_exhaustive(self, case):
        check_memo_agrees(case)

    def test_links_are_computed_once_per_origin(self):
        path = _path(["a", "b", "ep"])
        assert path.links("c1") is path.links("c1")
        assert path.links("c2") == (("c2", "a"), ("a", "b"), ("b", "ep"))


def _four_path_world(fault_plan=None):
    """A client reaching one endpoint over four equal-cost
    one-router paths."""
    topology = Topology("ecmp-4")
    client = topology.add_client(Client("client", "10.0.0.1", asn=64500))
    endpoint = topology.add_endpoint(
        Endpoint("ep", "10.9.0.1", asn=64999, server=WebServer(("www.ok.example",)))
    )
    paths = []
    for i in range(4):
        router = topology.add_router(Router(f"r{i}", f"10.1.{i}.1", asn=64501))
        paths.append(Path([Hop(router.name), Hop(endpoint.name)]))
    topology.add_route(client.ip, endpoint.ip, Route(paths))
    return Simulator(topology, seed=7, fault_plan=fault_plan), client, endpoint


@pytest.fixture
def hashes(monkeypatch):
    """Every ECMP hash computed, as (flow fields, seed)."""
    seen = []
    original = routing.flow_point

    def counted(flow, seed):
        seen.append((flow.src, flow.dst, flow.sport, flow.dport, flow.protocol, seed))
        return original(flow, seed)

    monkeypatch.setattr(routing, "flow_point", counted)
    return seen


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
class TestHashesPerConnection:
    def _connection(self, sim, client, endpoint, batched):
        engine = sim.batch_engine() if batched else ScalarEngine(sim)
        conn = Connection(sim, client, endpoint.ip, 80, engine=engine)
        assert conn.connect()
        result = conn.send_payload(HTTPRequest.normal("www.ok.example").build())
        assert result.received
        # The evidence builder's read, right after the data segment.
        links = sim.topology.route_between(client.ip, endpoint.ip).traversed_links(
            conn.flow, client.name, seed=sim.current_path_seed()
        )
        conn.close()
        return links

    def test_one_hash_per_connection(self, batched, hashes):
        sim, client, endpoint = _four_path_world()
        self._connection(sim, client, endpoint, batched)
        # SYN, ACK, data, links and FIN share one (flow, seed).
        assert len(hashes) == 1
        self._connection(sim, client, endpoint, batched)
        assert len(hashes) == 2
        assert len(set(hashes)) == 2

    def test_churn_epoch_rehashes(self, batched, hashes):
        # The third client send (the data segment) opens a new epoch.
        plan = FaultPlan(
            name="churn-3", churn=PathChurnProfile(rehash_after_packets=3)
        )
        sim, client, endpoint = _four_path_world(plan)
        self._connection(sim, client, endpoint, batched)
        assert sim.churn_epoch == 1
        [(*flow, first), (*same_flow, second)] = hashes
        assert flow == same_flow and first != second
