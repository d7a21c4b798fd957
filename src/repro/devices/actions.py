"""Blocking actions and injected-packet signatures.

When a device triggers, it either drops the offending packet or injects
forged packets (TCP RST/FIN, or an HTTP blockpage) with the endpoint's
spoofed source address (§4.1). The *fingerprint* of those injections —
IP ID behaviour, TOS byte, IP flags, TTL handling, TCP window, flags
and options — differs per vendor and is one of the strongest clustering
features the paper finds (Figure 9: "CensorResponse", "InjectedIPTTL",
"InjectedIPFlags"...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..netmodel import tcp as tcpmod
from ..netmodel.ip import FLAG_DF, IPHeader
from ..netmodel.netctx import NetContext, default_context
from ..netmodel.packet import Packet
from ..netmodel.tcp import TCPOption, TCPSegment

KIND_DROP = "drop"
KIND_RST = "rst"
KIND_FIN = "fin"
KIND_BLOCKPAGE = "blockpage"

TTL_FIXED = "fixed"
TTL_COPY = "copy"  # copy the remaining TTL of the triggering packet

IPID_ZERO = "zero"
IPID_CONSTANT = "constant"
IPID_ECHO = "echo"  # copy the triggering packet's IP ID
IPID_SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class InjectionSignature:
    """The network-layer fingerprint of a device's forged packets."""

    ttl_mode: str = TTL_FIXED
    fixed_ttl: int = 64
    ip_id_mode: str = IPID_ZERO
    ip_id_value: int = 0
    tos: int = 0
    ip_flags: int = FLAG_DF
    tcp_window: int = 0
    tcp_flags: int = tcpmod.RST
    tcp_options: Tuple[TCPOption, ...] = ()


@dataclass(frozen=True)
class BlockAction:
    """What a device does when a rule triggers."""

    kind: str = KIND_DROP
    signature: InjectionSignature = InjectionSignature()
    blockpage_html: Optional[str] = None
    inject_count: int = 1  # some middleboxes fire several RSTs
    rst_to_server: bool = False  # also tear down the server side
    drop_original: bool = True  # in-path only: swallow the request too

    def is_injecting(self) -> bool:
        return self.kind in (KIND_RST, KIND_FIN, KIND_BLOCKPAGE)


@dataclass(frozen=True)
class DNSBlockAction:
    """What a device does to a censored DNS query (the §8 extension).

    ``fake_addresses`` cycle per injection (the Great-Firewall pattern
    of rotating bogus answers); ``nxdomain=True`` injects NXDOMAIN
    instead. ``drop_query`` additionally swallows the original query
    (in-path deployments only).
    """

    fake_addresses: Tuple[str, ...] = ("198.18.0.66",)
    nxdomain: bool = False
    inject_count: int = 1
    drop_query: bool = False
    signature: InjectionSignature = InjectionSignature()


def build_dns_injections(
    action: DNSBlockAction,
    trigger: Packet,
    remaining_ttl: int,
    device_name: str,
    net: Optional[NetContext] = None,
) -> List[Packet]:
    """Forge DNS responses for a censored query.

    ``net`` is the owning simulator's identifier context (carried on
    the :class:`~repro.netsim.interfaces.InspectionContext`); the
    rotating fake-answer cursor lives there so serial and parallel
    campaigns rotate identically.
    """
    if net is None:
        net = default_context()
    from ..netmodel.dns import DNSAnswer, DNSMessage, QTYPE_A, RCODE_NXDOMAIN

    if trigger.udp is None:
        return []
    try:
        query = DNSMessage.from_bytes(trigger.udp.payload)
    except (ValueError, Exception):
        return []
    if not query.questions:
        return []
    question = query.questions[0]
    sig = action.signature
    forged: List[Packet] = []
    for i in range(action.inject_count):
        response = DNSMessage(
            txid=query.txid,
            is_response=True,
            recursion_desired=query.recursion_desired,
            recursion_available=True,
            questions=[question],
        )
        if action.nxdomain:
            response.rcode = RCODE_NXDOMAIN
        else:
            cursor = net.next_dns_fake_index()
            address = action.fake_addresses[
                cursor % len(action.fake_addresses)
            ]
            response.answers.append(
                DNSAnswer(question.qname, QTYPE_A, 300, address)
            )
        ttl = remaining_ttl if sig.ttl_mode == TTL_COPY else sig.fixed_ttl
        from ..netmodel.udp import UDPDatagram

        forged.append(
            Packet(
                ip=IPHeader(
                    src=trigger.ip.dst,  # spoofed: the resolver's address
                    dst=trigger.ip.src,
                    ttl=ttl,
                    tos=sig.tos,
                    flags=sig.ip_flags,
                    identification=(
                        0 if sig.ip_id_mode == IPID_ZERO else sig.ip_id_value
                    ),
                ),
                udp=UDPDatagram(
                    sport=trigger.udp.dport,
                    dport=trigger.udp.sport,
                    payload=response.to_bytes(),
                ),
                emitted_by=device_name,
                injected=True,
            )
        )
    return forged


def build_injections(
    action: BlockAction,
    trigger: Packet,
    remaining_ttl: int,
    device_name: str,
    net: Optional[NetContext] = None,
) -> Tuple[List[Packet], List[Packet]]:
    """Materialize the forged packets for one trigger.

    Returns ``(to_client, to_server)``. Forged packets to the client are
    spoofed from the endpoint's address; those to the server are spoofed
    from the client's address, matching how commercial devices tear down
    both flow ends. ``net`` is the owning simulator's identifier
    context (carried on the inspection context); the IPID_SEQUENTIAL
    stream lives there.
    """
    if not action.is_injecting() or trigger.tcp is None:
        return [], []
    if net is None:
        net = default_context()
    sig = action.signature
    segment = trigger.tcp
    payload_len = len(segment.payload)

    def ip_id() -> int:
        if sig.ip_id_mode == IPID_ZERO:
            return 0
        if sig.ip_id_mode == IPID_CONSTANT:
            return sig.ip_id_value
        if sig.ip_id_mode == IPID_ECHO:
            return trigger.ip.identification
        return net.next_sequential_ip_id()

    def injected_ttl() -> int:
        if sig.ttl_mode == TTL_COPY:
            return remaining_ttl
        return sig.fixed_ttl

    def forge_to_client(flags: int, payload: bytes = b"", seq_offset: int = 0) -> Packet:
        packet = Packet(
            ip=IPHeader(
                src=trigger.ip.dst,  # spoofed: the endpoint's address
                dst=trigger.ip.src,
                ttl=injected_ttl(),
                tos=sig.tos,
                flags=sig.ip_flags,
                identification=ip_id(),
            ),
            tcp=TCPSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=(segment.ack + seq_offset) & 0xFFFFFFFF,
                ack=(segment.seq + payload_len) & 0xFFFFFFFF,
                flags=flags,
                window=sig.tcp_window,
                options=list(sig.tcp_options),
                payload=payload,
            ),
            emitted_by=device_name,
            injected=True,
        )
        return packet

    to_client: List[Packet] = []
    to_server: List[Packet] = []

    if action.kind == KIND_RST:
        for i in range(action.inject_count):
            to_client.append(forge_to_client(sig.tcp_flags, seq_offset=i))
    elif action.kind == KIND_FIN:
        for i in range(action.inject_count):
            to_client.append(
                forge_to_client(tcpmod.FIN | tcpmod.ACK, seq_offset=i)
            )
    elif action.kind == KIND_BLOCKPAGE:
        html = action.blockpage_html or ""
        body = (
            "HTTP/1.1 403 Forbidden\r\n"
            "Content-Type: text/html\r\n"
            f"Content-Length: {len(html.encode())}\r\n"
            "Connection: close\r\n\r\n" + html
        ).encode()
        to_client.append(forge_to_client(tcpmod.PSH | tcpmod.ACK, payload=body))
        to_client.append(
            forge_to_client(tcpmod.FIN | tcpmod.ACK, seq_offset=len(body))
        )

    if action.rst_to_server:
        to_server.append(
            Packet(
                ip=IPHeader(
                    src=trigger.ip.src,  # spoofed: the client's address
                    dst=trigger.ip.dst,
                    ttl=64,
                    tos=sig.tos,
                    flags=sig.ip_flags,
                    identification=ip_id(),
                ),
                tcp=TCPSegment(
                    sport=segment.sport,
                    dport=segment.dport,
                    seq=(segment.seq + payload_len) & 0xFFFFFFFF,
                    ack=segment.ack,
                    flags=tcpmod.RST,
                    window=sig.tcp_window,
                ),
                emitted_by=device_name,
                injected=True,
            )
        )
    return to_client, to_server
