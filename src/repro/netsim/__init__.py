"""A deterministic, packet-walking network simulator.

Provides the substrate the paper's measurements ran on in the real
world: routers that decrement TTL and answer with quoting ICMP errors,
endpoints with TCP/HTTP/TLS behaviour, multi-path routes with flow-hash
load balancing, and attachment points for censorship devices.
"""

from .faults import (
    DeliveryFaultProfile,
    FaultPlan,
    FlakyDeviceProfile,
    IcmpRateLimitProfile,
    LossProfile,
    PathChurnProfile,
    PRESETS as FAULT_PRESETS,
)
from .interfaces import (
    ApplicationServer,
    AppReply,
    DIRECTION_FORWARD,
    DIRECTION_REVERSE,
    InspectionContext,
    LinkDevice,
    Verdict,
)
from .routing import Hop, Path, Route, single_path_route
from .simulator import Simulator
from .tcpstack import Connection, ProbeResult, open_connection
from .topology import Client, Endpoint, Node, Router, Service, Topology

__all__ = [
    "DeliveryFaultProfile",
    "FaultPlan",
    "FAULT_PRESETS",
    "FlakyDeviceProfile",
    "IcmpRateLimitProfile",
    "LossProfile",
    "PathChurnProfile",
    "ApplicationServer",
    "AppReply",
    "DIRECTION_FORWARD",
    "DIRECTION_REVERSE",
    "InspectionContext",
    "LinkDevice",
    "Verdict",
    "Hop",
    "Path",
    "Route",
    "single_path_route",
    "Simulator",
    "Connection",
    "ProbeResult",
    "open_connection",
    "Client",
    "Endpoint",
    "Node",
    "Router",
    "Service",
    "Topology",
]
