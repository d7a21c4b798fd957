"""CenProbe: port scanning and application-layer banner grabs (§5.1).

The workflow mirrors the paper's: scan the top ports on every potential
censorship-device IP (the terminating hops of Control-Domain CenTraces),
then grab banners on HTTP(S), SSH, Telnet, FTP, SMTP and SNMP, and
label the device via the fingerprint repository.

The simulator exposes the management plane directly on topology nodes,
so grabbing is a structured lookup rather than raw sockets — the
observable data (ports, banners, responses) is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...netsim.topology import Service, Topology
from ...telemetry import NULL_TELEMETRY
from ...telemetry_registry import (
    CENPROBE_BANNER_GRABS,
    CENPROBE_OPEN_PORTS,
    CENPROBE_PORTS_SCANNED,
    CENPROBE_SCANS,
    CENPROBE_UNREACHABLE,
    CENPROBE_VENDOR_LABELS,
)
from .fingerprints import DEFAULT_REPOSITORY, FingerprintRepository

# The subset of Nmap's top-1000 ports that can host the services our
# devices and decoys expose (plus a spread of commonly-open ports).
TOP_PORTS: Tuple[int, ...] = (
    21, 22, 23, 25, 53, 80, 110, 111, 135, 139, 143, 161, 179, 389,
    443, 445, 465, 514, 587, 631, 993, 995, 1080, 1433, 1723, 2000,
    3128, 3306, 3389, 5060, 5432, 5900, 8000, 8080, 8081, 8443, 8888,
    9090, 10000,
)

BANNER_PROTOCOLS = ("http", "https", "ssh", "telnet", "ftp", "smtp", "snmp")


@dataclass
class BannerGrab:
    """One service's collected banner data."""

    port: int
    protocol: str
    banner: str = ""
    response: str = ""  # application-layer probe response

    def text(self) -> str:
        return f"{self.banner}\n{self.response}".strip()


@dataclass
class ProbeReport:
    """Everything CenProbe learned about one IP."""

    ip: str
    reachable: bool = False
    open_ports: List[int] = field(default_factory=list)
    grabs: List[BannerGrab] = field(default_factory=list)
    vendor: Optional[str] = None  # filtering-product label (or None)
    matched_rule: Optional[str] = None
    other_identifications: List[str] = field(default_factory=list)
    os_features: Dict[str, float] = field(default_factory=dict)
    os_name: Optional[str] = None  # ground truth, for tests only

    @property
    def has_services(self) -> bool:
        return bool(self.open_ports)

    @property
    def labeled_filtering(self) -> bool:
        return self.vendor is not None


def _grab_service(service: Service) -> BannerGrab:
    """Collect a service's banner plus a protocol-appropriate probe."""
    grab = BannerGrab(port=service.port, protocol=service.protocol)
    grab.banner = service.banner.decode("utf-8", errors="replace").strip()
    if service.protocol in ("http", "https"):
        probe = b"GET / HTTP/1.1\r\nHost: scanner\r\n\r\n"
    elif service.protocol == "snmp":
        probe = b"SNMP-GET sysDescr"
    else:
        probe = b""
    if probe:
        grab.response = service.respond(probe).decode("utf-8", errors="replace")
    return grab


class CenProbe:
    """Scans potential device IPs and labels them from banners."""

    def __init__(
        self,
        topology: Topology,
        repository: Optional[FingerprintRepository] = None,
        ports: Sequence[int] = TOP_PORTS,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.topology = topology
        self.repository = repository or DEFAULT_REPOSITORY
        self.ports = tuple(ports)
        # CenProbe reads static topology only (no simulator), so its
        # observability sink is injected directly.
        self.telemetry = telemetry

    def scan(self, ip: str) -> ProbeReport:
        """Scan one IP: ports, banners, fingerprints."""
        tel = self.telemetry
        if tel.enabled:
            tel.count(CENPROBE_SCANS)
            tel.count(CENPROBE_PORTS_SCANNED, len(self.ports))
        report = ProbeReport(ip=ip)
        node = self.topology.node_at(ip)
        if node is None:
            if tel.enabled:
                tel.count(CENPROBE_UNREACHABLE)
            return report
        report.reachable = True
        report.open_ports = self.topology.scan_ports(ip, self.ports)
        # Nmap-style crafted probes (§5.1) — OS-level features.
        from .os_probes import OSProber

        os_result = OSProber(self.topology).probe(ip)
        report.os_features = dict(os_result.features)
        report.os_name = os_result.personality_name
        for port in report.open_ports:
            service = self.topology.service_at(ip, port)
            if service is None or service.protocol not in BANNER_PROTOCOLS:
                continue
            grab = _grab_service(service)
            report.grabs.append(grab)
            rule = self.repository.match(grab.protocol, grab.text())
            if rule is None:
                continue
            if rule.is_filtering_product and report.vendor is None:
                report.vendor = rule.vendor
                report.matched_rule = rule.name
            elif not rule.is_filtering_product:
                report.other_identifications.append(rule.vendor)
        if tel.enabled:
            tel.count(CENPROBE_OPEN_PORTS, len(report.open_ports))
            tel.count(CENPROBE_BANNER_GRABS, len(report.grabs))
            if report.vendor is not None:
                tel.count(CENPROBE_VENDOR_LABELS)
        return report

    def scan_many(self, ips: Sequence[str]) -> List[ProbeReport]:
        return [self.scan(ip) for ip in ips]


def summarize_reports(reports: Sequence[ProbeReport]) -> Dict[str, int]:
    """Aggregate §5.3-style statistics over a batch of scans."""
    with_services = [r for r in reports if r.has_services]
    labeled = [r for r in reports if r.labeled_filtering]
    vendors: Dict[str, int] = {}
    for report in labeled:
        vendors[report.vendor] = vendors.get(report.vendor, 0) + 1
    return {
        "total": len(reports),
        "with_services": len(with_services),
        "labeled_filtering": len(labeled),
        **{f"vendor:{name}": count for name, count in sorted(vendors.items())},
    }
