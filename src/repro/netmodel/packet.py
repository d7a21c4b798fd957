"""Composite packets flowing through the simulator.

A :class:`Packet` is an IPv4 header plus either a TCP segment or an ICMP
message. Packets serialize to real bytes (needed for ICMP quoting and
Tracebox-style delta analysis) and carry a little simulator-side
provenance (who actually emitted the packet) that real measurement code
is *not* allowed to read — it exists so tests can assert ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .icmp import ICMPMessage
from .ip import (
    DEFAULT_TTL,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FlowKey,
    IPHeader,
)
from .netctx import NetContext, default_context
from .tcp import ACK, FIN, PSH, RST, SYN, TCPSegment
from .udp import UDPDatagram


def next_ip_id(net: Optional[NetContext] = None) -> int:
    """A monotonically increasing IP identification value.

    Draws from ``net`` when given; otherwise from the process-wide
    default context. Simulated traffic must always pass the owning
    simulator's ``net_context`` so a run's identifiers replay
    bit-identically regardless of what else allocated in this process.
    """
    return (net if net is not None else default_context()).next_ip_id()


@dataclass(slots=True)
class Packet:
    """An IP packet with a TCP, UDP or ICMP payload.

    Slotted, like every value type on the probe path, and built
    positionally at the hot sites: keep the field order stable
    (``tests/netmodel/test_value_types.py`` guards it).
    """

    ip: IPHeader
    tcp: Optional[TCPSegment] = None
    icmp: Optional[ICMPMessage] = None
    udp: Optional[UDPDatagram] = None
    # --- simulator ground truth, not visible to measurement tools ---
    emitted_by: Optional[str] = None  # node/device name that created this
    injected: bool = False  # True when a censorship device forged it

    def __post_init__(self) -> None:
        tcp, icmp, udp = self.tcp, self.icmp, self.udp
        if tcp is not None:
            if icmp is not None or udp is not None:
                raise ValueError(
                    "packet must carry exactly one of tcp/icmp/udp"
                )
            self.ip.protocol = PROTO_TCP
        elif udp is not None:
            if icmp is not None:
                raise ValueError(
                    "packet must carry exactly one of tcp/icmp/udp"
                )
            self.ip.protocol = PROTO_UDP
        elif icmp is not None:
            self.ip.protocol = PROTO_ICMP
        else:
            raise ValueError("packet must carry exactly one of tcp/icmp/udp")

    @property
    def is_tcp(self) -> bool:
        return self.tcp is not None

    @property
    def is_icmp(self) -> bool:
        return self.icmp is not None

    @property
    def is_udp(self) -> bool:
        return self.udp is not None

    def flow_key(self) -> FlowKey:
        ip = self.ip
        if self.tcp is not None:
            return FlowKey(ip.src, ip.dst, self.tcp.sport, self.tcp.dport, PROTO_TCP)
        if self.udp is not None:
            return FlowKey(ip.src, ip.dst, self.udp.sport, self.udp.dport, PROTO_UDP)
        raise ValueError("ICMP packets have no flow key")

    def to_bytes(self) -> bytes:
        """Full serialized packet (IP header + transport)."""
        if self.tcp is not None:
            transport = self.tcp.to_bytes(self.ip.src, self.ip.dst)
        elif self.udp is not None:
            transport = self.udp.to_bytes(self.ip.src, self.ip.dst)
        else:
            transport = self.icmp.to_bytes()
        return self.ip.to_bytes(payload_len=len(transport)) + transport

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        ip, header_len = IPHeader.from_bytes(data)
        rest = data[header_len:]
        if ip.protocol == PROTO_TCP:
            return cls(ip=ip, tcp=TCPSegment.from_bytes(rest))
        if ip.protocol == PROTO_UDP:
            return cls(ip=ip, udp=UDPDatagram.from_bytes(rest))
        if ip.protocol == PROTO_ICMP:
            return cls(ip=ip, icmp=ICMPMessage.from_bytes(rest))
        raise ValueError(f"unsupported protocol: {ip.protocol}")

    def brief(self) -> str:
        """One-line human-readable summary (for debugging and logs)."""
        if self.tcp is not None:
            return (
                f"{self.ip.src}:{self.tcp.sport} > {self.ip.dst}:{self.tcp.dport}"
                f" [{self.tcp.describe_flags()}] ttl={self.ip.ttl}"
                f" len={len(self.tcp.payload)}"
            )
        if self.udp is not None:
            return (
                f"{self.ip.src}:{self.udp.sport} > {self.ip.dst}:{self.udp.dport}"
                f" UDP ttl={self.ip.ttl} len={len(self.udp.payload)}"
            )
        return (
            f"{self.ip.src} > {self.ip.dst} ICMP type={self.icmp.icmp_type}"
            f" code={self.icmp.code} ttl={self.ip.ttl}"
        )


def tcp_packet(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    *,
    flags: int = SYN,
    seq: int = 0,
    ack: int = 0,
    ttl: int = DEFAULT_TTL,
    payload: bytes = b"",
    tos: int = 0,
    ip_id: Optional[int] = None,
    window: int = 65535,
    net: Optional[NetContext] = None,
) -> Packet:
    """Convenience constructor for a TCP packet."""
    if ip_id is None:
        ip_id = (net if net is not None else default_context()).next_ip_id()
    # Positional, in field order: IPHeader(src, dst, ttl, protocol, tos,
    # identification), TCPSegment(sport, dport, seq, ack, flags, window,
    # urgent, options, payload).
    return Packet(
        IPHeader(src, dst, ttl, PROTO_TCP, tos, ip_id),
        TCPSegment(sport, dport, seq, ack, flags, window, 0, [], payload),
    )


def icmp_packet(
    src: str,
    dst: str,
    message: ICMPMessage,
    *,
    ttl: int = DEFAULT_TTL,
    net: Optional[NetContext] = None,
) -> Packet:
    """Convenience constructor for an ICMP packet."""
    ip_id = (net if net is not None else default_context()).next_ip_id()
    # Positional: Packet(ip, tcp, icmp).
    return Packet(IPHeader(src, dst, ttl, PROTO_ICMP, 0, ip_id), None, message)


def udp_packet(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    *,
    payload: bytes = b"",
    ttl: int = DEFAULT_TTL,
    tos: int = 0,
    ip_id: Optional[int] = None,
    net: Optional[NetContext] = None,
) -> Packet:
    """Convenience constructor for a UDP packet."""
    return Packet(
        ip=IPHeader(
            src=src,
            dst=dst,
            ttl=ttl,
            tos=tos,
            identification=(
                (net if net is not None else default_context()).next_ip_id()
                if ip_id is None
                else ip_id
            ),
        ),
        udp=UDPDatagram(sport=sport, dport=dport, payload=payload),
    )
