"""CenTrace data model: probes, sweeps, and classified results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...netmodel.icmp import QuoteDelta

# Terminating-response / blocking types (Figure 3's x-axis).
TYPE_RST = "RST"
TYPE_TIMEOUT = "TIMEOUT"
TYPE_FIN = "FIN"
TYPE_HTTP = "HTTP"  # injected blockpage
TYPE_DNSINJECT = "DNSINJECT"  # forged DNS answer (the §8 extension)
TYPE_NORMAL = "NORMAL"  # endpoint answered normally (not blocked)

BLOCK_TYPES = (TYPE_RST, TYPE_TIMEOUT, TYPE_FIN, TYPE_HTTP, TYPE_DNSINJECT)

# Blocking-hop location classes (Figure 3's legend).
LOC_PATH = "Path(C->E)"
LOC_AT_E = "At E"
LOC_NO_ICMP = "No ICMP"
LOC_PAST_E = "Past E"

LOCATION_CLASSES = (LOC_PATH, LOC_AT_E, LOC_NO_ICMP, LOC_PAST_E)

PROTO_HTTP = "http"
PROTO_TLS = "tls"
PROTO_DNS = "dns"


@dataclass(slots=True)
class ResponseSummary:
    """One packet received in reaction to a probe."""

    kind: str  # "icmp" | "tcp" | "udp"
    src_ip: str
    arrival_ttl: int
    tcp_flags: int = 0
    payload: bytes = b""
    quote: bytes = b""  # ICMP only: the quoted packet
    ip_id: int = 0
    ip_tos: int = 0
    ip_flags: int = 0
    tcp_window: int = 0
    tcp_options: Tuple[int, ...] = ()


@dataclass(slots=True)
class ProbeObservation:
    """Everything observed for one TTL-limited probe."""

    ttl: int
    sent_bytes: bytes = b""
    responses: List[ResponseSummary] = field(default_factory=list)
    handshake_failed: bool = False
    retries_used: int = 0  # retransmissions needed before a response

    @property
    def timed_out(self) -> bool:
        return not self.responses and not self.handshake_failed

    def icmp_responses(self) -> List[ResponseSummary]:
        return [r for r in self.responses if r.kind == "icmp"]


@dataclass
class TraceSweep:
    """One full TTL sweep (one repetition, one domain)."""

    domain: str
    protocol: str
    probes: List[ProbeObservation] = field(default_factory=list)
    terminating_ttl: Optional[int] = None
    terminating_type: str = TYPE_NORMAL
    terminating_response: Optional[ResponseSummary] = None
    # Degradation counters (filled by CenTrace._finalize_sweep): how
    # noisy the sweep was, so analysis can weight its contribution.
    probes_retried: int = 0
    hops_rate_limited: int = 0
    degraded: bool = False

    def hop_ips(self) -> Dict[int, Optional[str]]:
        """TTL -> the ICMP-responding hop IP (None on silence)."""
        hops: Dict[int, Optional[str]] = {}
        for probe in self.probes:
            icmp = probe.icmp_responses()
            hops[probe.ttl] = icmp[0].src_ip if icmp else None
        return hops


@dataclass
class HopInfo:
    """An attributed hop on the path."""

    ttl: int
    ip: Optional[str]
    asn: Optional[int] = None
    as_name: Optional[str] = None
    country: Optional[str] = None


@dataclass
class CenTraceResult:
    """The classified outcome of one CenTrace measurement.

    One result covers one (endpoint, test domain, protocol) triple,
    aggregated over all repetitions of the Control- and Test-Domain
    sweeps (§4.1).
    """

    endpoint_ip: str
    endpoint_asn: Optional[int]
    test_domain: str
    protocol: str
    blocked: bool = False
    valid: bool = True  # False when the control trace itself misbehaved
    degraded: bool = False  # any sweep needed retries / saw silent hops
    blocking_type: str = TYPE_NORMAL
    terminating_ttl: Optional[int] = None
    endpoint_distance: Optional[int] = None  # hops to the endpoint
    blocking_hop: Optional[HopInfo] = None
    location_class: Optional[str] = None
    in_path: Optional[bool] = None  # None when not blocked / undeterminable
    hops_from_endpoint: Optional[int] = None
    ttl_copy_detected: bool = False
    corrected_device_distance: Optional[int] = None
    # Features for clustering (§7.1, Table 3).
    injected_ip_id: Optional[int] = None
    injected_ip_tos: Optional[int] = None
    injected_ip_flags: Optional[int] = None
    injected_ttl: Optional[int] = None
    injected_initial_ttl: Optional[int] = None
    injected_tcp_flags: Optional[int] = None
    injected_tcp_window: Optional[int] = None
    injected_tcp_options: Tuple[int, ...] = ()
    blockpage_fingerprint: Optional[str] = None
    quote_delta: Optional[QuoteDelta] = None
    control_hops: Dict[int, Dict[str, int]] = field(default_factory=dict)
    # The raw per-TTL sweeps are inputs to classification, not results:
    # the saved record is analysis-complete, and replaying sweeps
    # requires re-probing, so persistence leaves them out.
    sweeps_control: List[TraceSweep] = field(
        default_factory=list, metadata={"persist": False}
    )
    sweeps_test: List[TraceSweep] = field(
        default_factory=list, metadata={"persist": False}
    )

    def control_path(self) -> List[HopInfo]:
        """The most likely control path as attributed hops."""
        hops = []
        for ttl in sorted(self.control_hops):
            counts = self.control_hops[ttl]
            ip = max(counts, key=counts.get) if counts else None
            hops.append(HopInfo(ttl=ttl, ip=None if ip == "" else ip))
        return hops

    def brief(self) -> str:
        status = self.blocking_type if self.blocked else "ok"
        hop = self.blocking_hop.ip if self.blocking_hop else "-"
        return (
            f"{self.test_domain} {self.protocol} -> {self.endpoint_ip}:"
            f" {status} hop={hop} loc={self.location_class}"
        )


def infer_initial_ttl(arrival_ttl: int) -> int:
    """Guess the sender's initial TTL from the arrival TTL.

    Stacks start at 32, 64, 128 or 255; the nearest ceiling is the
    standard inference (Vanaubel et al., "TTL-based router signatures").
    """
    for initial in (32, 64, 128, 255):
        if arrival_ttl <= initial:
            return initial
    return 255
