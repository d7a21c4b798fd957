"""The method-agnostic evidence record and its producers.

A :class:`PathEvidence` is one observation: this flow, from this
client to this endpoint, traversed these links (resolved from the
route's ECMP path set and the simulator's current churn seed) and saw
this censorship outcome. TTL localization, churn tomography and
inconsistency reporting all consume the same records — which is what
lets the cross-validation harness replay one campaign's evidence
through every method.

Two producers:

* :func:`collect_outcome_evidence` — CenProbe-style full-TTL outcome
  probes, no TTL ladder: open a connection, send the request, classify
  what came back, and recompute the traversed link set from the flow
  key and the simulator's current ECMP seed (churn epochs advance the
  seed mid-collection, which is the tomography signal).
* :func:`evidence_from_trace` — wrap a classified CenTrace result so
  the TTL localizer can plug into the same protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.blockpages import BlockpageMatcher, DEFAULT_MATCHER
from ..core.centrace.results import (
    BLOCK_TYPES,
    CenTraceResult,
    TYPE_FIN,
    TYPE_HTTP,
    TYPE_NORMAL,
    TYPE_RST,
    TYPE_TIMEOUT,
)
from ..core.centrace.tracer import build_probe_payload
from ..netmodel import tcp as tcpmod
from ..netsim.routing import Route
from ..netsim.tcpstack import Connection
from ..telemetry_registry import (
    LOCALIZE_BLOCKED_EVIDENCE,
    LOCALIZE_EVIDENCE_RECORDS,
    LOCALIZE_PROBES,
    SPAN_LOCALIZE_COLLECT,
)

#: One directed link, as (from-node, to-node) names — the same pairs
#: ``netsim.routing.Path.links()`` produces.
Link = Tuple[str, str]

SOURCE_OUTCOME = "outcome"
SOURCE_CENTRACE = "centrace"


@dataclass
class PathEvidence:
    """One (flow, traversed links, outcome) observation."""

    client_ip: str
    endpoint_ip: str
    domain: str
    protocol: str
    sport: int
    dport: int
    outcome: str  # TYPE_* from core.centrace.results
    blocked: bool
    links: Tuple[Link, ...]  # traversed links, client-outward
    epoch: int = 0  # ECMP churn round the probe ran in
    source: str = SOURCE_OUTCOME
    # CenTrace-derived evidence only: the attributed device TTL (after
    # TTL-copy correction), the hop IP it voted for, and the measured
    # endpoint distance. None for plain outcome probes.
    terminating_ttl: Optional[int] = None
    blocking_hop_ip: Optional[str] = None
    endpoint_distance: Optional[int] = None

    def link_set(self) -> frozenset:
        return frozenset(self.links)


def classify_outcome(received, matcher: BlockpageMatcher) -> str:
    """Classify a full-TTL probe's responses in arrival order.

    Mirrors CenFuzz's race-sensitive ordering: an on-path injector's
    RST beats the endpoint's content because the device sits closer, so
    the first decisive packet wins. A payload is checked against the
    blockpage corpus — an injected blockpage is blocking, real content
    is not.
    """
    if not received:
        return TYPE_TIMEOUT
    for packet in received:
        if not packet.is_tcp:
            continue
        if packet.tcp.payload:
            if matcher.match_payload(packet.tcp.payload) is not None:
                return TYPE_HTTP
            return TYPE_NORMAL
        if packet.tcp.flags & tcpmod.RST:
            return TYPE_RST
    for packet in received:
        if packet.is_tcp and packet.tcp.flags & tcpmod.FIN:
            return TYPE_FIN
    return TYPE_TIMEOUT


def collect_outcome_evidence(
    world,
    *,
    domains: Optional[Sequence[str]] = None,
    endpoints: Optional[Sequence] = None,
    rounds: int = 3,
    probes_per_round: int = 4,
    protocol: str = "http",
    matcher: Optional[BlockpageMatcher] = None,
    inter_probe_wait: float = 0.5,
) -> List[PathEvidence]:
    """Plain outcome measurements across ECMP churn rounds.

    Every probe is a fresh connection (fresh ephemeral source port, so
    a fresh ECMP hash) and the world's churn plan re-hashes the seed as
    packets accumulate — between the two, repeated probes sample the
    route's candidate paths. The traversed link set is recomputed from
    the flow key and the seed in effect when the probe was sent
    (``Simulator.current_path_seed``), never guessed from responses.
    """
    sim = world.sim
    client = world.remote_client
    matcher = matcher if matcher is not None else DEFAULT_MATCHER
    domains = list(domains) if domains is not None else list(world.test_domains)
    targets = list(endpoints) if endpoints is not None else list(world.endpoints)
    port = 443 if protocol == "tls" else 80
    tel = sim.telemetry
    evidence: List[PathEvidence] = []
    with tel.span(SPAN_LOCALIZE_COLLECT, sim=sim):
        for _ in range(rounds):
            for endpoint in targets:
                for domain in domains:
                    if domain not in endpoint.domains:
                        continue
                    for _ in range(probes_per_round):
                        evidence.append(
                            _probe_once(
                                sim, client, endpoint.ip, domain,
                                protocol, port, matcher,
                            )
                        )
                        sim.advance(inter_probe_wait)
    if tel.enabled:
        tel.count(LOCALIZE_EVIDENCE_RECORDS, len(evidence))
        blocked = sum(1 for e in evidence if e.blocked)
        if blocked:
            tel.count(LOCALIZE_BLOCKED_EVIDENCE, blocked)
    return evidence


def _probe_once(
    sim, client, endpoint_ip, domain, protocol, port, matcher
) -> PathEvidence:
    """One outcome probe -> one evidence record."""
    tel = sim.telemetry
    if tel.enabled:
        tel.count(LOCALIZE_PROBES)
    conn = Connection(sim, client, endpoint_ip, port, engine=sim.batch_engine())
    established = conn.connect(retries=2)
    if established:
        payload = build_probe_payload(domain, protocol)
        result = conn.send_payload(payload, retries=1)
        outcome = classify_outcome(result.received, matcher)
    else:
        # The handshake itself died: either an RST-on-SYN device or a
        # black-holed path. Either way the flow's path is what matters.
        outcome = TYPE_TIMEOUT
    # Resolve the traversed links *before* the FIN goes out: the seed
    # must be the one the decisive (payload) packet was hashed with,
    # and close()'s FIN could tip the churn counter into a new epoch.
    route = sim.topology.route_between(client.ip, endpoint_ip)
    links = route.traversed_links(
        conn.flow, client.name, seed=sim.current_path_seed()
    )
    epoch = sim.churn_epoch
    if established:
        conn.close()
    return PathEvidence(
        client_ip=client.ip,
        endpoint_ip=endpoint_ip,
        domain=domain,
        protocol=protocol,
        sport=conn.sport,
        dport=port,
        outcome=outcome,
        blocked=outcome in BLOCK_TYPES,
        links=links,
        epoch=epoch,
        source=SOURCE_OUTCOME,
    )


def evidence_from_trace(
    result: CenTraceResult, *, route: Route, origin: str, client_ip: str
) -> PathEvidence:
    """Wrap a classified CenTrace result as evidence.

    CenTrace sweeps hash every probe onto its own path, so no single
    traversed set exists; the heaviest-weight candidate path stands in
    as the nominal one (ties: registration order), which is exactly the
    path the hop-distribution vote converges on in these worlds.
    ``terminating_ttl`` carries the *attributed* device TTL — i.e. the
    blocking hop's TTL after the §4.3 TTL-copy correction — so the TTL
    localizer needs no re-derivation.
    """
    nominal = max(route.enumerate_paths(), key=lambda pair: pair[1])[0]
    hop = result.blocking_hop
    return PathEvidence(
        client_ip=client_ip,
        endpoint_ip=result.endpoint_ip,
        domain=result.test_domain,
        protocol=result.protocol,
        sport=0,
        dport=0,
        outcome=result.blocking_type,
        blocked=result.blocked,
        links=nominal.links(origin),
        epoch=0,
        source=SOURCE_CENTRACE,
        terminating_ttl=hop.ttl if hop is not None else result.terminating_ttl,
        blocking_hop_ip=hop.ip if hop is not None else None,
        endpoint_distance=result.endpoint_distance,
    )
