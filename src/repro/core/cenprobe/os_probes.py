"""Nmap-style crafted-probe OS fingerprinting (§5.1).

"Nmap then sends up to 16 specially crafted TCP, UDP, and ICMP probes
to the device, on both open and closed ports. These probes are each
intended to invoke a unique and potentially fingerprintable response."

Every node in the simulator carries an :class:`OSPersonality` — the
stack-level behaviours those probes elicit. The personality *data*
(the dataclass, the named stacks, the vendor mapping) lives in
:mod:`repro.devices.personality` with the rest of the vendor catalog,
so world builders can attach personalities without importing
measurement code; this module re-exports the names and owns
:class:`OSProber`, which replays the crafted-probe sequence against a
node and turns the responses into features, which CenProbe folds into
its reports and the §7 clustering consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...devices.personality import (  # noqa: F401  (re-exported API)
    CISCO_IOS,
    FORTIOS,
    IPID_INCREMENTAL,
    IPID_RANDOM,
    IPID_ZERO,
    KERIO_OS,
    LINUX,
    OSPersonality,
    PANOS,
    PERSONALITIES,
    ROUTEROS,
    VENDOR_PERSONALITIES,
    WINDOWS_LIKE,
)
from ...netsim.topology import Topology


@dataclass
class OSProbeResult:
    """The feature vector Nmap-style probing produces for one IP."""

    ip: str
    responsive: bool = False
    personality_name: Optional[str] = None  # ground truth, tests only
    features: Dict[str, float] = field(default_factory=dict)

    def feature(self, name: str) -> Optional[float]:
        return self.features.get(name)


class OSProber:
    """Replays the crafted-probe sequence against topology nodes.

    Like CenProbe's banner grabs, probing is a structured exchange with
    the node's modeled stack rather than raw sockets — the features are
    exactly what the real probes would measure.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def probe(self, ip: str) -> OSProbeResult:
        result = OSProbeResult(ip=ip)
        node = self.topology.node_at(ip)
        if node is None:
            return result
        personality = getattr(node, "personality", None) or LINUX
        has_open_port = bool(node.services)
        result.responsive = True
        result.personality_name = personality.name
        features = result.features
        # T1: SYN to an open port — window, options, TTL (needs a port).
        if has_open_port:
            features["OSSynAckWindow"] = float(personality.syn_ack_window)
            features["OSOptionCount"] = float(len(personality.tcp_options))
            features["OSOptionsHash"] = float(
                sum((i + 1) * kind for i, kind in enumerate(personality.tcp_options))
                % 9973
            )
            # T2: FIN to the open port — silence or a reply.
            features["OSAnswersFin"] = float(personality.answers_fin_probe)
            # T3: NULL-flags probe.
            features["OSAnswersNull"] = float(personality.answers_null_probe)
            # T6: ECN-setup SYN.
            features["OSECN"] = float(personality.ecn_supported)
        # T5: SYN to a closed port — RST characteristics.
        features["OSRstWindow"] = float(personality.rst_window)
        # U1: UDP to a closed port — ICMP port unreachable or silence.
        features["OSIcmpUnreachable"] = float(personality.icmp_port_unreachable)
        # TTL inference from any response.
        features["OSInitialTTL"] = float(personality.initial_ttl)
        # II: IP-ID sequence classification over consecutive probes.
        features["OSIpIdClass"] = {
            IPID_ZERO: 0.0,
            IPID_INCREMENTAL: 1.0,
            IPID_RANDOM: 2.0,
        }[personality.ip_id_pattern]
        features["OSDFBit"] = float(personality.df_bit)
        return result


OS_FEATURE_NAMES = (
    "OSSynAckWindow",
    "OSOptionCount",
    "OSOptionsHash",
    "OSAnswersFin",
    "OSAnswersNull",
    "OSECN",
    "OSRstWindow",
    "OSIcmpUnreachable",
    "OSInitialTTL",
    "OSIpIdClass",
    "OSDFBit",
)
