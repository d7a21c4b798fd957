"""Measurement campaigns: run all three tools over a study world.

A campaign reproduces the paper's §4.2/§5.2/§6.2 data collection for
one country: remote CenTraces for every (endpoint, test domain,
protocol), in-country CenTraces where a vantage point exists, banner
grabs on every potential device IP, and CenFuzz against blocked
endpoints (deduplicated per blocking hop so every distinct device is
fuzzed once — the full paper-scale sweep is available via
``fuzz_all_blocked=True``).

Campaigns are cached per configuration because several experiments
(Table 1, Figures 3/4/5/6/9, §4.3/§5.3/§7.4) consume the same data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.features import EndpointFeatures, extract_features
from ..core.blockpages import DEFAULT_MATCHER
from ..core.cenfuzz import EndpointFuzzReport
from ..core.cenprobe import CenProbe, ProbeReport
from ..core.centrace import (
    CenTraceResult,
    PROTO_HTTP,
    PROTO_TLS,
)
from ..geo.countries import StudyWorld, build_world
from ..netsim.faults import FaultPlan
from ..telemetry import NULL_TELEMETRY, RunReport, wall_now
from ..telemetry_registry import SPAN_CAMPAIGN, SPAN_CAMPAIGN_PROBE
from .executor import (
    VANTAGE_IN_COUNTRY,
    VANTAGE_REMOTE,
    CampaignExecutor,
    FuzzUnit,
    TraceUnit,
)

PROTOCOLS = (PROTO_HTTP, PROTO_TLS)


@dataclass
class CampaignConfig:
    """Knobs for one country campaign."""

    repetitions: int = 3  # CenTrace sweep repetitions (paper: 11)
    protocols: Tuple[str, ...] = PROTOCOLS
    max_endpoints: Optional[int] = None  # further scaling for quick runs
    fuzz_all_blocked: bool = False  # paper-scale CenFuzz
    fuzz_max_endpoints: Optional[int] = None
    run_fuzz: bool = True
    run_probe: bool = True
    # Fault-injection plan applied to the world before measuring (see
    # repro.netsim.faults); None = the world's own configuration.
    fault_plan: Optional[FaultPlan] = None


@dataclass
class CountryCampaign:
    """All measurement data collected for one country."""

    world: StudyWorld
    config: CampaignConfig
    remote_results: List[CenTraceResult] = field(default_factory=list)
    in_country_results: List[CenTraceResult] = field(default_factory=list)
    fuzz_reports: List[EndpointFuzzReport] = field(default_factory=list)
    probe_reports: Dict[str, ProbeReport] = field(default_factory=dict)
    # (endpoint_ip, protocol) -> the blocking-hop IP the fuzz report
    # stands in for (used for measurement re-weighting).
    fuzz_target_hops: Dict[Tuple[str, str], Optional[str]] = field(
        default_factory=dict
    )
    # Observability: set when run_campaign() is given an active
    # telemetry sink; None under the default NULL_TELEMETRY.
    run_report: Optional[RunReport] = None
    # How the run executed (None = serial). Environment provenance only
    # — results are bit-identical regardless, and persistence keeps it
    # out of identity comparisons accordingly.
    workers: Optional[int] = None

    # -- derived views ----------------------------------------------------

    @property
    def country(self) -> str:
        return self.world.country

    def all_trace_results(self) -> List[CenTraceResult]:
        return self.remote_results + self.in_country_results

    def blocked_remote(self) -> List[CenTraceResult]:
        return [r for r in self.remote_results if r.blocked and r.valid]

    def blocked_all(self) -> List[CenTraceResult]:
        return [r for r in self.all_trace_results() if r.blocked and r.valid]

    def potential_device_ips(self) -> List[str]:
        """Unique in-path blocking-hop IPs (§5.2's banner targets)."""
        ips = []
        seen = set()
        for result in self.blocked_all():
            if result.in_path is not True:
                continue
            hop = result.blocking_hop
            if hop is None or hop.ip is None or hop.ip == result.endpoint_ip:
                continue
            if hop.ip not in seen:
                seen.add(hop.ip)
                ips.append(hop.ip)
        return ips

    def fuzz_weights(self) -> Dict[Tuple[str, str], int]:
        """(endpoint_ip, protocol) -> blocked-measurement weight.

        CenFuzz deduplicates per blocking hop to avoid re-fuzzing the
        same device; analyses that reproduce the paper's
        measurement-weighted percentages (Figure 5) re-weight each
        fuzz report by how many blocked CenTrace measurements share
        its blocking hop.
        """
        hop_counts: Dict[Tuple[Optional[str], str], int] = {}
        for result in self.blocked_remote():
            hop_ip = result.blocking_hop.ip if result.blocking_hop else None
            key = (hop_ip, result.protocol)
            hop_counts[key] = hop_counts.get(key, 0) + 1
        return {
            (endpoint_ip, protocol): hop_counts.get((hop_ip, protocol), 1)
            for (endpoint_ip, protocol), hop_ip in self.fuzz_target_hops.items()
        }

    def results_by_endpoint(self) -> Dict[str, List[CenTraceResult]]:
        grouped: Dict[str, List[CenTraceResult]] = {}
        for result in self.remote_results:
            grouped.setdefault(result.endpoint_ip, []).append(result)
        return grouped

    def endpoint_features(self) -> List[EndpointFeatures]:
        """One clustering feature vector per blocked endpoint (§7.1).

        CenFuzz runs once per distinct blocking hop; endpoints whose
        traffic crossed the same device inherit that device's fuzz
        report (the probes would have met the identical engine).
        """
        fuzz_by_endpoint: Dict[str, List[EndpointFuzzReport]] = {}
        fuzz_by_hop: Dict[Optional[str], List[EndpointFuzzReport]] = {}
        for report in self.fuzz_reports:
            fuzz_by_endpoint.setdefault(report.endpoint_ip, []).append(report)
            hop = self.fuzz_target_hops.get(
                (report.endpoint_ip, report.protocol)
            )
            if hop is not None:
                fuzz_by_hop.setdefault(hop, []).append(report)
        features = []
        for endpoint_ip, results in self.results_by_endpoint().items():
            blocked = [r for r in results if r.blocked and r.valid]
            if not blocked:
                continue
            probe = None
            for result in blocked:
                hop = result.blocking_hop
                if hop and hop.ip and hop.ip in self.probe_reports:
                    probe = self.probe_reports[hop.ip]
                    break
            blockpage_vendor = None
            for result in blocked:
                if result.blockpage_fingerprint:
                    fingerprint = next(
                        (
                            f
                            for f in DEFAULT_MATCHER.fingerprints
                            if f.name == result.blockpage_fingerprint
                        ),
                        None,
                    )
                    if fingerprint and fingerprint.vendor:
                        blockpage_vendor = fingerprint.vendor
                        break
            fuzz_reports = fuzz_by_endpoint.get(endpoint_ip)
            if not fuzz_reports:
                for result in blocked:
                    hop = result.blocking_hop.ip if result.blocking_hop else None
                    if hop in fuzz_by_hop:
                        fuzz_reports = fuzz_by_hop[hop]
                        break
            meta = self.world.asdb.lookup(endpoint_ip)
            features.append(
                extract_features(
                    endpoint_ip,
                    blocked,
                    fuzz_reports or [],
                    probe,
                    country=self.world.country if self.world.country != "WW" else (
                        meta.country if meta else None
                    ),
                    asn=meta.asn if meta else None,
                    blockpage_vendor=blockpage_vendor,
                )
            )
        return features


def trace_units_for(
    world: StudyWorld, config: CampaignConfig
) -> List[TraceUnit]:
    """Canonical CenTrace work-unit order for a campaign.

    Remote units first (endpoint x test domain x protocol, §4.2), then
    in-country units. This ordering is the contract that lets parallel
    results merge back bit-identically.
    """
    endpoints = world.endpoints
    if config.max_endpoints is not None:
        endpoints = endpoints[: config.max_endpoints]
    units = [
        TraceUnit(VANTAGE_REMOTE, endpoint.ip, domain, protocol)
        for endpoint in endpoints
        for domain in world.test_domains
        for protocol in config.protocols
    ]
    if world.in_country_client is not None and world.in_country_targets:
        units.extend(
            TraceUnit(VANTAGE_IN_COUNTRY, target.ip, domain, protocol)
            for target in world.in_country_targets
            for domain in world.test_domains
            for protocol in config.protocols
        )
    return units


def run_campaign(
    world: StudyWorld,
    config: Optional[CampaignConfig] = None,
    workers: Optional[int] = None,
    telemetry=None,
) -> CountryCampaign:
    """Collect every measurement the experiments need for ``world``.

    ``workers=N`` shards CenTrace and CenFuzz work units across N
    processes (each rebuilding a world replica from ``world.spec``);
    the result is bit-identical to the serial run — see
    ``experiments/executor.py`` for the determinism discipline.

    ``telemetry`` accepts a :class:`repro.telemetry.Telemetry` sink;
    when given, the campaign's counters, virtual-clock spans and events
    are collected (identically for serial and parallel runs) and frozen
    into ``campaign.run_report``. The default ``NULL_TELEMETRY`` keeps
    the hot path uninstrumented.
    """
    config = config or CampaignConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if config.fault_plan is not None:
        # Install the plan on the live simulator AND in the spec, so
        # parallel workers rebuilding from the spec fault identically.
        world.sim.set_fault_plan(config.fault_plan)
        if world.spec is not None:
            world.spec = dataclasses.replace(
                world.spec, fault_plan=config.fault_plan
            )
    campaign = CountryCampaign(world=world, config=config, workers=workers)

    units = trace_units_for(world, config)
    n_remote = sum(1 for u in units if u.vantage == VANTAGE_REMOTE)
    wall0 = wall_now() if tel.enabled else 0.0

    with CampaignExecutor(
        world, repetitions=config.repetitions, workers=workers, telemetry=tel
    ) as executor:
        results = executor.run_traces(units)
        campaign.remote_results = results[:n_remote]
        campaign.in_country_results = results[n_remote:]

        # Banner grabs at every potential device IP (§5.2). CenProbe
        # reads only the static topology (no simulator state), so it
        # runs serially in the parent under either mode — its counters
        # flow straight into the campaign sink.
        if config.run_probe:
            with tel.span(SPAN_CAMPAIGN_PROBE):
                prober = CenProbe(world.topology, telemetry=tel)
                for ip in campaign.potential_device_ips():
                    campaign.probe_reports[ip] = prober.scan(ip)

        # CenFuzz against blocked endpoints (§6.2) — one endpoint per
        # distinct blocking hop unless fuzz_all_blocked is set.
        if config.run_fuzz:
            targets = fuzz_targets_for(campaign, config)
            fuzz_units = [FuzzUnit(*target) for target in targets]
            campaign.fuzz_reports = executor.run_fuzz(fuzz_units)

    if tel.enabled:
        tel.add_wall(SPAN_CAMPAIGN, wall_now() - wall0)
        campaign.run_report = tel.build_report(
            meta={
                "country": world.country,
                "repetitions": config.repetitions,
                "protocols": list(config.protocols),
                "trace_units": len(units),
                "fuzz_units": len(campaign.fuzz_reports),
                "fault_plan": config.fault_plan is not None,
            },
            # Environment-specific facts must not enter the identity
            # sections: a serial and a 4-worker run of the same
            # campaign must stay byte-identical there.
            wall_extra={"workers_requested": workers},
        )
    return campaign


def fuzz_targets_for(
    campaign: CountryCampaign, config: CampaignConfig
) -> List[Tuple[str, str, str]]:
    """(endpoint, domain, protocol) triples to fuzz.

    Also records ``campaign.fuzz_target_hops`` — but only for targets
    that survive the ``fuzz_max_endpoints`` cut, so downstream
    re-weighting (``fuzz_weights``) and clustering
    (``endpoint_features``) never see entries for endpoints that were
    never fuzzed.
    """
    selected: List[Tuple[Tuple[str, str], Optional[str], Tuple[str, str, str]]] = []
    seen_hops = set()
    seen_endpoint_protocol = set()
    for result in campaign.blocked_remote():
        key_ep = (result.endpoint_ip, result.protocol)
        if key_ep in seen_endpoint_protocol:
            continue
        hop_ip = result.blocking_hop.ip if result.blocking_hop else None
        hop_key = (hop_ip, result.protocol)
        if not config.fuzz_all_blocked:
            if hop_ip is not None and hop_key in seen_hops:
                continue
        seen_hops.add(hop_key)
        seen_endpoint_protocol.add(key_ep)
        triple = (result.endpoint_ip, result.test_domain, result.protocol)
        selected.append((key_ep, hop_ip, triple))
    if config.fuzz_max_endpoints is not None:
        selected = selected[: config.fuzz_max_endpoints]
    targets: List[Tuple[str, str, str]] = []
    for key_ep, hop_ip, triple in selected:
        campaign.fuzz_target_hops[key_ep] = hop_ip
        targets.append(triple)
    return targets


#: Backwards-compatible private alias (pre-service-layer name).
_fuzz_targets = fuzz_targets_for


# -- campaign cache ----------------------------------------------------------

_CACHE: Dict[Tuple, CountryCampaign] = {}


def campaign_cache_key(
    country: str,
    scale: Optional[float],
    seed: Optional[int],
    config: CampaignConfig,
) -> Tuple:
    """The :func:`get_campaign` cache key for one configuration.

    Derived automatically from ``dataclasses.fields(CampaignConfig)``
    so that *every* config knob — present and future — participates in
    the key. The previous hand-maintained tuple silently aliased
    campaigns whenever a new field was added but not keyed (the bug PR 1
    fixed once already); deriving from the dataclass makes that whole
    failure mode unrepresentable. Every ``CampaignConfig`` field must
    therefore stay hashable (``FaultPlan`` is frozen for this reason).
    """
    return (country, scale, seed) + tuple(
        getattr(config, f.name) for f in dataclasses.fields(CampaignConfig)
    )


def get_campaign(
    country: str,
    *,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    repetitions: int = 3,
    protocols: Tuple[str, ...] = PROTOCOLS,
    max_endpoints: Optional[int] = None,
    fuzz_all_blocked: bool = False,
    fuzz_max_endpoints: Optional[int] = None,
    run_fuzz: bool = True,
    run_probe: bool = True,
    workers: Optional[int] = None,
    fault_plan=None,
) -> CountryCampaign:
    """Build (or fetch from cache) the campaign for ``country``.

    The cache key covers every knob that changes campaign *content* —
    (country, scale, seed) plus all :class:`CampaignConfig` fields.
    ``workers`` is deliberately excluded: parallel runs are
    bit-identical to serial ones, so it only affects wall-clock time.
    ``fault_plan`` accepts anything :meth:`FaultPlan.from_spec` does
    (a plan, a preset name, a dict, inline JSON, or ``@file``).
    """
    plan = FaultPlan.from_spec(fault_plan) if fault_plan is not None else None
    config = CampaignConfig(
        repetitions=repetitions,
        protocols=tuple(protocols),
        max_endpoints=max_endpoints,
        fuzz_all_blocked=fuzz_all_blocked,
        fuzz_max_endpoints=fuzz_max_endpoints,
        run_fuzz=run_fuzz,
        run_probe=run_probe,
        fault_plan=plan,
    )
    key = campaign_cache_key(country, scale, seed, config)
    if key not in _CACHE:
        world = build_world(country, seed=seed, scale=scale)
        _CACHE[key] = run_campaign(world, config, workers=workers)
    return _CACHE[key]


def clear_campaign_cache() -> None:
    _CACHE.clear()
