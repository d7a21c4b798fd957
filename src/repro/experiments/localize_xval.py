"""Cross-validation of localization methods against ground truth.

Builds a family of *placement worlds* — one ECMP-diverse topology per
possible device position — runs every localizer on each, and scores the
claims against the simulator's ground-truth placement:

* **exact-link hit rate** — the true link is in the claimed set;
* **hop-interval error** — the worst link-index distance between any
  claimed link and the truth (the "±1 link" acceptance metric);
* **disagreement matrix** — per method pair, how often their claims
  overlap on the same target.

The placement topology is a double diamond: a shared ingress, two
two-hop branches plus a cross-link path per branch, a shared rejoin,
and a per-endpoint tail. Four candidate paths per endpoint give churn
tomography enough link-set diversity to isolate any single link; every
link that can host a device is swept as its own world.

    client - i0 <  a1 - a2 \\            / t1 - ep1
                 \\ a1 - m   >- j0 - - <
                 \\ b1 - b2 /            \\ t2 - ep2
                 \\ b1 - n /

Tomography and inconsistency localize from plain outcome evidence
(:func:`repro.localize.collect_outcome_evidence`, no TTL ladder);
the TTL method runs a real CenTrace measurement on the same world
after a unit-style state reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..devices.vendors import BY_DPI
from ..geo.countries import StudyWorld, WorldBuilder
from ..localize import (
    InconsistencyLocalizer,
    LocalizationVerdict,
    METHOD_INCONSISTENCY,
    METHOD_TOMOGRAPHY,
    METHOD_TTL,
    PathEvidence,
    TomographyLocalizer,
    TtlLocalizer,
    collect_outcome_evidence,
    evidence_from_trace,
)
from ..localize.evidence import Link
from ..netsim.faults import FaultPlan
from ..netsim.routing import Hop, Path, Route
from ..telemetry import NULL_TELEMETRY
from ..telemetry_registry import (
    EVENT_LOCALIZE_PLACEMENT,
    LOCALIZE_VERDICTS,
    SPAN_LOCALIZE_XVAL,
)

#: The one domain the swept device blocks; endpoints serve it plus the
#: control domain so CenTrace's control sweeps stay valid.
TOMO_DOMAIN = "tomo-blocked.example"
TOMO_CONTROL_DOMAIN = "www.example.com"
TOMO_COUNTRY = "XX"


def tomography_world(placement: str, *, seed: int = 11) -> StudyWorld:
    """Build the placement topology with the device on link ``placement``.

    ``placement`` is a role label from :func:`placement_labels`
    (``"i0>a1"`` etc.); ground truth lands in ``world.notes``:
    ``placement``, ``true_link`` (actual node-name pair) and
    ``true_index`` (0-based link index on the hosting path).
    """
    builder = WorldBuilder(f"tomo-{placement}", TOMO_COUNTRY, seed)
    remote_asn = builder.register_as(64496, "RemoteNet", "US")
    transit_asn = builder.register_as(64500, "TransitNet", TOMO_COUNTRY)
    isp_asn = builder.register_as(64510, "IspNet", TOMO_COUNTRY)
    client = builder.client(remote_asn, "US", in_country=False)
    roles = {"client": client}
    for role in ("i0", "a1", "a2", "b1", "b2", "m", "n", "j0"):
        roles[role] = builder.router(transit_asn)
    for role in ("t1", "t2"):
        roles[role] = builder.router(isp_asn)
    domains = [TOMO_DOMAIN, TOMO_CONTROL_DOMAIN]
    endpoints = [
        builder.endpoint(isp_asn, TOMO_COUNTRY, domains) for _ in range(2)
    ]
    roles["ep1"], roles["ep2"] = endpoints

    from_role, to_role = placement.split(">")
    device = builder.place_device(
        BY_DPI,
        [TOMO_DOMAIN],
        # Banner/ground-truth host: the router the device's link leads
        # into (for the final link, the one it hangs off).
        roles[to_role] if to_role in ("i0", "a1", "a2", "b1", "b2", "m", "n", "j0", "t1", "t2") else roles[from_role],
        url_scope=False,
    )
    true_link = (roles[from_role].name, roles[to_role].name)

    branches = (("a1", "a2"), ("a1", "m"), ("b1", "b2"), ("b1", "n"))
    true_index = None
    for endpoint, tail in zip(endpoints, ("t1", "t2")):
        paths = []
        for branch in branches:
            role_seq = ("i0",) + branch + ("j0", tail)
            node_names = [roles[r].name for r in role_seq] + [endpoint.name]
            hops = []
            previous = client.name
            for index, name in enumerate(node_names):
                on_link = [device] if (previous, name) == true_link else []
                if on_link and true_index is None:
                    true_index = index
                hops.append(Hop(name, link_devices=on_link))
                previous = name
            paths.append(Path(hops))
        builder.topology.add_route(client.ip, endpoint.ip, Route(paths))
    if true_index is None:
        raise ValueError(f"placement {placement!r} is on no route link")

    world = builder.finish(
        remote_client=client,
        endpoints=endpoints,
        test_domains=[TOMO_DOMAIN],
        seed=seed,
        loss_rate=0.0,
        control_domain=TOMO_CONTROL_DOMAIN,
        notes={
            "placement": placement,
            "true_link": true_link,
            "true_index": true_index,
            "device": device.name,
        },
    )
    # Churn is the tomography *signal*: the ECMP seed re-hashes every 5
    # client packets, so repeated probes sample the candidate paths.
    world.sim.set_fault_plan(FaultPlan.from_spec("churn"))
    return world


def placement_labels() -> List[str]:
    """Every device-hostable link of the placement topology."""
    return [
        "client>i0",
        "i0>a1",
        "a1>a2",
        "a2>j0",
        "a1>m",
        "m>j0",
        "i0>b1",
        "b1>b2",
        "b2>j0",
        "b1>n",
        "n>j0",
        "j0>t1",
        "t1>ep1",
        "j0>t2",
        "t2>ep2",
    ]


def link_index_map(world: StudyWorld) -> Dict[Link, int]:
    """Each route link's 0-based distance from the client (first wins)."""
    positions: Dict[Link, int] = {}
    client = world.remote_client
    for endpoint in world.endpoints:
        route = world.topology.route_between(client.ip, endpoint.ip)
        for path, _ in route.enumerate_paths():
            for index, link in enumerate(path.links(client.name)):
                positions.setdefault(link, index)
    return positions


@dataclass
class PlacementScore:
    """One (placement, method) row of the cross-validation table."""

    placement: str
    method: str
    true_index: int
    verdicts: int  # verdicts the method produced for this world
    exact_hit: bool  # true link inside every verdict's claim
    error: Optional[int]  # worst |claimed index - true index|; None = silent
    interval_width: int  # widest claimed link set
    confidence: float  # lowest confidence across verdicts

    def within(self, tolerance: int) -> bool:
        return self.error is not None and self.error <= tolerance


@dataclass
class XvalReport:
    """The full cross-validation result across placements and methods."""

    seed: int
    rounds: int
    probes_per_round: int
    tolerance: int
    rows: List[PlacementScore] = field(default_factory=list)
    # method-pair agreement: "ttl|tomography" -> (agreeing, comparable)
    agreement: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Raw material for persist.save_localization: every verdict and
    # every evidence record the sweep produced (not serialized by
    # to_dict — the score table is the report, these are the data).
    verdicts: List[LocalizationVerdict] = field(default_factory=list)
    evidence: List[PathEvidence] = field(default_factory=list)

    def methods(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.method not in seen:
                seen.append(row.method)
        return seen

    def accuracy(self, method: str) -> float:
        """Fraction of placements localized within ``tolerance`` links."""
        rows = [r for r in self.rows if r.method == method]
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.within(self.tolerance)) / len(rows)

    def exact_hit_rate(self, method: str) -> float:
        rows = [r for r in self.rows if r.method == method]
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.exact_hit) / len(rows)

    def mean_interval_width(self, method: str) -> float:
        rows = [r for r in self.rows if r.method == method and r.verdicts]
        if not rows:
            return 0.0
        return sum(r.interval_width for r in rows) / len(rows)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "probes_per_round": self.probes_per_round,
            "tolerance": self.tolerance,
            "methods": {
                method: {
                    "accuracy": self.accuracy(method),
                    "exact_hit_rate": self.exact_hit_rate(method),
                    "mean_interval_width": self.mean_interval_width(method),
                }
                for method in self.methods()
            },
            "agreement": {
                key: {"agreeing": a, "comparable": c}
                for key, (a, c) in sorted(self.agreement.items())
            },
            "rows": [
                {
                    "placement": r.placement,
                    "method": r.method,
                    "true_index": r.true_index,
                    "verdicts": r.verdicts,
                    "exact_hit": r.exact_hit,
                    "error": r.error,
                    "interval_width": r.interval_width,
                    "confidence": r.confidence,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        placements = {r.placement for r in self.rows}
        lines = [
            f"localization cross-validation — {len(placements)} "
            f"placements, tolerance ±{self.tolerance} link(s)"
        ]
        for method in self.methods():
            lines.append(
                f"  {method:<14} accuracy={self.accuracy(method):.0%} "
                f"exact={self.exact_hit_rate(method):.0%} "
                f"mean_width={self.mean_interval_width(method):.1f}"
            )
        for key, (agreeing, comparable) in sorted(self.agreement.items()):
            lines.append(
                f"  agreement {key}: {agreeing}/{comparable}"
            )
        return "\n".join(lines)


def _score(
    placement: str,
    method: str,
    verdicts: Sequence[LocalizationVerdict],
    true_link: Link,
    true_index: int,
    positions: Dict[Link, int],
) -> PlacementScore:
    relevant = [v for v in verdicts if v.candidate_links]
    if not relevant:
        return PlacementScore(
            placement=placement,
            method=method,
            true_index=true_index,
            verdicts=0,
            exact_hit=False,
            error=None,
            interval_width=0,
            confidence=0.0,
        )
    worst_error = 0
    for verdict in relevant:
        for link in verdict.candidate_links:
            distance = abs(positions.get(link, 1 << 10) - true_index)
            worst_error = max(worst_error, distance)
    return PlacementScore(
        placement=placement,
        method=method,
        true_index=true_index,
        verdicts=len(relevant),
        exact_hit=all(true_link in v.candidate_links for v in relevant),
        error=worst_error,
        interval_width=max(v.interval_width for v in relevant),
        confidence=min(v.confidence for v in relevant),
    )


def _reset_world(world: StudyWorld) -> None:
    """Unit-style reset so the CenTrace pass replays from clean state."""
    world.sim.reset()
    for device in world.devices:
        device.reset_state()
    world.net_context.reset()


def _ttl_verdicts(world: StudyWorld) -> List[LocalizationVerdict]:
    """Run CenTrace on the placement world; localize its results."""
    from ..core.centrace import CenTrace, CenTraceConfig

    _reset_world(world)
    client = world.remote_client
    tracer = CenTrace(
        world.sim,
        client,
        asdb=world.asdb,
        config=CenTraceConfig(max_ttl=12),
    )
    evidence: List[PathEvidence] = []
    for endpoint in world.endpoints:
        result = tracer.measure(
            endpoint.ip,
            TOMO_DOMAIN,
            protocol="http",
            control_domain=TOMO_CONTROL_DOMAIN,
        )
        if not result.blocked:
            continue
        route = world.topology.route_between(client.ip, endpoint.ip)
        evidence.append(
            evidence_from_trace(
                result, route=route, origin=client.name, client_ip=client.ip
            )
        )
    return TtlLocalizer().localize(evidence)


def run_cross_validation(
    *,
    seed: int = 11,
    rounds: int = 6,
    probes_per_round: int = 4,
    tolerance: int = 1,
    run_ttl: bool = True,
    placements: Optional[Sequence[str]] = None,
    telemetry=NULL_TELEMETRY,
) -> XvalReport:
    """Score every localizer on every device placement.

    Tomography and inconsistency consume one shared outcome-evidence
    campaign per placement (churn rounds as signal); ``run_ttl`` adds
    the CenTrace pass for the method-agreement columns. Everything is
    a pure function of ``seed`` and the sweep parameters.
    """
    report = XvalReport(
        seed=seed,
        rounds=rounds,
        probes_per_round=probes_per_round,
        tolerance=tolerance,
    )
    pair_counts: Dict[str, List[int]] = {}
    with telemetry.span(SPAN_LOCALIZE_XVAL):
        for placement in placements or placement_labels():
            world = tomography_world(placement, seed=seed)
            world.sim.set_telemetry(telemetry)
            evidence = collect_outcome_evidence(
                world,
                domains=[TOMO_DOMAIN],
                rounds=rounds,
                probes_per_round=probes_per_round,
            )
            report.evidence.extend(evidence)
            by_method = {
                METHOD_TOMOGRAPHY: TomographyLocalizer().localize(evidence),
                METHOD_INCONSISTENCY: InconsistencyLocalizer().localize(
                    evidence
                ),
            }
            if run_ttl:
                by_method[METHOD_TTL] = _ttl_verdicts(world)
            positions = link_index_map(world)
            true_link = world.notes["true_link"]
            true_index = world.notes["true_index"]
            for method, verdicts in by_method.items():
                report.verdicts.extend(verdicts)
                if telemetry.enabled and verdicts:
                    telemetry.count(LOCALIZE_VERDICTS, len(verdicts))
                report.rows.append(
                    _score(
                        placement,
                        method,
                        verdicts,
                        true_link,
                        true_index,
                        positions,
                    )
                )
            _tally_agreement(pair_counts, by_method)
            if telemetry.enabled:
                telemetry.event(
                    EVENT_LOCALIZE_PLACEMENT,
                    placement=placement,
                    true_index=true_index,
                    methods=sorted(by_method),
                )
    report.agreement = {
        key: (counts[0], counts[1]) for key, counts in sorted(pair_counts.items())
    }
    return report


def _tally_agreement(
    pair_counts: Dict[str, List[int]],
    by_method: Dict[str, List[LocalizationVerdict]],
) -> None:
    """Count per method pair: claims overlapping on the same target."""
    methods = sorted(by_method)
    for i, method_a in enumerate(methods):
        for method_b in methods[i + 1 :]:
            key = f"{method_a}|{method_b}"
            counts = pair_counts.setdefault(key, [0, 0])
            targets_a = {
                (v.endpoint_ip, v.domain): set(v.candidate_links)
                for v in by_method[method_a]
                if v.candidate_links
            }
            for verdict in by_method[method_b]:
                claim = targets_a.get((verdict.endpoint_ip, verdict.domain))
                if claim is None or not verdict.candidate_links:
                    continue
                counts[1] += 1
                if claim & set(verdict.candidate_links):
                    counts[0] += 1
