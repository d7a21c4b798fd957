"""Routes, paths and flow-hash path selection.

Real networks load-balance flows across equal-cost paths keyed on the
5-tuple (the reason Paris traceroute keeps ports fixed, §4.1). CenTrace
*cannot* keep the source port fixed — every probe is a fresh TCP
connection — so it repeats measurements and uses per-hop probability
distributions instead. The simulator reproduces that: each
(client, endpoint) pair has a :class:`Route` holding one or more
:class:`Path` objects, and the path actually taken by a packet is chosen
by hashing its flow key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netmodel.ip import FlowKey
from .interfaces import LinkDevice


@dataclass
class Hop:
    """One traversal step: the devices on the incoming link, then a node.

    ``node_name`` refers to a Router (or, for the final hop, an
    Endpoint) registered in the topology. ``link_devices`` sit on the
    link *leading to* this node — a probe whose TTL expires at the
    previous node never reaches them.
    """

    node_name: str
    link_devices: List[LinkDevice] = field(default_factory=list)


@dataclass
class Path:
    """An ordered list of hops from (but excluding) the client to the
    endpoint (inclusive, as the final hop)."""

    hops: List[Hop]
    # Node objects resolved per hop (same order as ``hops``), filled in
    # when the path is registered on a topology so the simulator walks
    # object references instead of doing per-hop name/IP dict lookups.
    nodes: Optional[List[object]] = field(default=None, repr=False, compare=False)
    # origin -> links(origin): hops never change after registration.
    _links: Dict[str, Tuple[Tuple[str, str], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a path needs at least the endpoint hop")

    def resolve(self, topology) -> List[object]:
        """Bind each hop name to its topology node (memoized on the path).

        A successful resolution is cached in ``nodes`` and returned
        as-is on every later call: one path resolves at most once, no
        matter how many transits (forward walk, ICMP returns, injection
        walks) traverse it.
        """
        if self.nodes is not None:
            return self.nodes
        nodes = []
        for hop in self.hops:
            name = hop.node_name
            node = (
                topology.routers.get(name)
                or topology.endpoints.get(name)
                or topology.clients.get(name)
            )
            if node is None:
                raise KeyError(f"unknown hop node: {name}")
            nodes.append(node)
        self.nodes = nodes
        return nodes

    @property
    def length(self) -> int:
        """Number of hops including the endpoint."""
        return len(self.hops)

    def node_names(self) -> Tuple[str, ...]:
        return tuple(h.node_name for h in self.hops)

    def devices(self) -> List[Tuple[int, LinkDevice]]:
        """All (link_index, device) pairs on this path.

        ``link_index`` is the 0-based index of the hop the device's link
        leads to; the device is roughly ``link_index`` hops from the
        client (between nodes ``link_index-1`` and ``link_index``).
        """
        found = []
        for i, hop in enumerate(self.hops):
            for device in hop.link_devices:
                found.append((i, device))
        return found

    def links(self, origin: str) -> Tuple[Tuple[str, str], ...]:
        """The ordered (from-node, to-node) link pairs of this path.

        ``origin`` names the sending client (paths exclude it), so
        ``links(origin)[0]`` is the client's access link. The link at
        index ``i`` leads into ``hops[i]`` — the same convention as
        :meth:`devices`, so a device reported at ``link_index i`` sits
        on ``links(origin)[i]``. Tomography keys its boolean system on
        these pairs: two ECMP paths that traverse the same physical
        link produce the same pair. Memoized per origin.
        """
        links = self._links.get(origin)
        if links is None:
            names = (origin,) + self.node_names()
            links = self._links[origin] = tuple(zip(names, names[1:]))
        return links


def flow_point(flow: FlowKey, seed: int) -> float:
    """The ECMP hash of ``flow`` under ``seed``, as a point in [0, 1)."""
    digest = hashlib.blake2b(
        f"{flow.src}|{flow.dst}|{flow.sport}|{flow.dport}|{flow.protocol}|{seed}".encode(),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


class Route:
    """The set of candidate paths between one client and one endpoint."""

    def __init__(self, paths: Sequence[Path], weights: Optional[Sequence[float]] = None):
        if not paths:
            raise ValueError("route needs at least one path")
        self.paths = list(paths)
        if weights is None:
            weights = [1.0] * len(self.paths)
        if len(weights) != len(self.paths):
            raise ValueError("weights must match paths")
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        # The last selection: ((src, dst, sport, dport, protocol, seed),
        # path). A connection's segments go out back to back, so one
        # entry catches them all.
        self._last: Optional[Tuple[tuple, Path]] = None

    def select(self, flow: FlowKey, seed: int = 0) -> Path:
        """Deterministically pick the path this flow takes.

        Uses a hash of the 5-tuple (like real ECMP) mapped onto the
        weighted path distribution. The choice is a pure function of
        the flow, the seed and the (immutable) paths and weights, so
        the last one is remembered and a repeat skips the hash.
        """
        if len(self.paths) == 1:
            return self.paths[0]
        key = (flow.src, flow.dst, flow.sport, flow.dport, flow.protocol, seed)
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        point = flow_point(flow, seed)
        chosen = self.paths[-1]
        cumulative = 0.0
        for path, weight in zip(self.paths, self.weights):
            cumulative += weight
            if point < cumulative:
                chosen = path
                break
        self._last = (key, chosen)
        return chosen

    def enumerate_paths(self) -> Tuple[Tuple[Path, float], ...]:
        """Every candidate path with its normalized selection weight.

        Deterministic: pairs come back in registration order, the same
        order :meth:`select`'s cumulative scan walks. This is the
        tomography entry point — churn localization needs the *full*
        ECMP path set (link sets to intersect/eliminate), not just the
        one path a flow hashes onto.
        """
        return tuple(zip(self.paths, self.weights))

    def traversed_links(
        self, flow: FlowKey, origin: str, seed: int = 0
    ) -> Tuple[Tuple[str, str], ...]:
        """The link set ``flow`` traverses under ``seed``.

        Convenience over ``select(flow, seed).links(origin)`` so
        evidence builders recompute a probe's traversed links exactly
        the way the simulator chose them.
        """
        return self.select(flow, seed=seed).links(origin)

    def all_devices(self) -> List[Tuple[int, LinkDevice]]:
        """Union of devices across all candidate paths (deduplicated)."""
        seen = set()
        result = []
        for path in self.paths:
            for link_index, device in path.devices():
                key = (link_index, id(device))
                if key not in seen:
                    seen.add(key)
                    result.append((link_index, device))
        return result


def single_path_route(node_names: Sequence[str], devices_at: Optional[Dict[int, List[LinkDevice]]] = None) -> Route:
    """Convenience: build a Route with one path through ``node_names``.

    ``devices_at`` maps hop index -> devices on the link leading to that
    hop.
    """
    devices_at = devices_at or {}
    hops = [
        Hop(node_name=name, link_devices=list(devices_at.get(i, [])))
        for i, name in enumerate(node_names)
    ]
    return Route([Path(hops)])
