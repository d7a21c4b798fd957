"""Rendering CenTrace measurements as path graphs (Figures 1, 10-12).

The paper's figures draw the measured paths from a client toward the
endpoints, annotate nodes with AS/geolocation, and color the links at
which blocking occurs. We produce the same structure as a networkx
DiGraph and render it as indented ASCII or Graphviz DOT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .core.centrace.results import CenTraceResult
from .geo.asdb import ASDatabase

if TYPE_CHECKING:
    import networkx as nx


def build_path_graph(
    results: Iterable[CenTraceResult],
    asdb: Optional[ASDatabase] = None,
    client_label: str = "client",
) -> nx.DiGraph:
    """A DiGraph of the most likely paths of ``results``.

    Node attributes: ``asn``, ``as_name``, ``country``, ``kind``
    (client/hop/endpoint). Edge attribute ``blocked`` counts how many
    measurements found blocking on that link; ``traces`` counts
    traversals.
    """
    # networkx pulls in scipy; only the figure paths draw graphs.
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_node(client_label, kind="client")
    for result in results:
        if not result.valid:
            continue
        previous = client_label
        hops = result.control_path()
        blocking_ttl = (
            result.blocking_hop.ttl
            if (result.blocked and result.blocking_hop)
            else None
        )
        for hop in hops:
            node = hop.ip or f"*ttl{hop.ttl}-{result.endpoint_ip}"
            if node not in graph:
                attributes = {"kind": "hop"}
                if hop.ip and asdb is not None:
                    meta = asdb.lookup(hop.ip)
                    if meta:
                        attributes.update(
                            asn=meta.asn, as_name=meta.as_name, country=meta.country
                        )
                graph.add_node(node, **attributes)
            _bump_edge(graph, previous, node, blocked=hop.ttl == blocking_ttl)
            previous = node
            if hop.ip == result.endpoint_ip:
                break
        if result.endpoint_distance is not None and previous != result.endpoint_ip:
            if result.endpoint_ip not in graph:
                attributes = {"kind": "endpoint"}
                if asdb is not None:
                    meta = asdb.lookup(result.endpoint_ip)
                    if meta:
                        attributes.update(
                            asn=meta.asn, as_name=meta.as_name, country=meta.country
                        )
                graph.add_node(result.endpoint_ip, **attributes)
            _bump_edge(
                graph,
                previous,
                result.endpoint_ip,
                blocked=blocking_ttl == result.endpoint_distance,
            )
        if result.endpoint_ip in graph:
            graph.nodes[result.endpoint_ip]["kind"] = "endpoint"
    return graph


def _bump_edge(graph: nx.DiGraph, a: str, b: str, *, blocked: bool) -> None:
    if graph.has_edge(a, b):
        graph[a][b]["traces"] += 1
        graph[a][b]["blocked"] += int(blocked)
    else:
        graph.add_edge(a, b, traces=1, blocked=int(blocked))


def _node_label(graph: nx.DiGraph, node: str) -> str:
    data = graph.nodes[node]
    parts = [node]
    if data.get("asn"):
        parts.append(f"AS{data['asn']}")
    if data.get("country"):
        parts.append(data["country"])
    return " ".join(parts)


def render_ascii(graph: nx.DiGraph, root: str = "client", max_depth: int = 24) -> str:
    """Indented ASCII rendering; blocked links are marked ``[X]``."""
    lines: List[str] = []
    visited = set()

    def walk(node: str, depth: int, marker: str) -> None:
        if depth > max_depth:
            return
        label = _node_label(graph, node)
        kind = graph.nodes[node].get("kind", "hop")
        suffix = ""
        if kind == "endpoint":
            suffix = "  <endpoint>"
        lines.append("  " * depth + marker + label + suffix)
        if node in visited:
            return
        visited.add(node)
        for successor in sorted(graph.successors(node)):
            edge = graph[node][successor]
            blocked = edge.get("blocked", 0)
            marker2 = "[X]-> " if blocked else "----> "
            walk(successor, depth + 1, marker2)

    walk(root, 0, "")
    return "\n".join(lines)


def render_dot(graph: nx.DiGraph) -> str:
    """Graphviz DOT output; blocked links drawn in red."""
    lines = ["digraph centrace {", "  rankdir=LR;", "  node [shape=box];"]
    for node in graph.nodes:
        data = graph.nodes[node]
        label = _node_label(graph, node).replace('"', "'")
        shape = {
            "client": "ellipse",
            "endpoint": "doubleoctagon",
        }.get(data.get("kind", "hop"), "box")
        lines.append(f'  "{node}" [label="{label}", shape={shape}];')
    for a, b, data in graph.edges(data=True):
        color = "red" if data.get("blocked") else "black"
        width = 1 + min(4, data.get("traces", 1) // 10)
        lines.append(
            f'  "{a}" -> "{b}" [color={color}, penwidth={width},'
            f' label="{data.get("traces", 1)}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def blocking_link_summary(
    graph: nx.DiGraph, asdb: Optional[ASDatabase] = None
) -> List[Tuple[str, str, int]]:
    """(from-AS, to-AS, blocked count) per blocked link, most first."""
    counter: Counter = Counter()
    for a, b, data in graph.edges(data=True):
        if not data.get("blocked"):
            continue
        as_a = graph.nodes[a].get("as_name", a)
        as_b = graph.nodes[b].get("as_name", b)
        counter[(as_a, as_b)] += data["blocked"]
    return [(a, b, count) for (a, b), count in counter.most_common()]
