"""Value types on the probe path: slotted, and built positionally.

The packet plane and CenTrace build their per-probe objects with
positional arguments at the hot sites. These tests pin what that relies
on: every such type is slotted (no per-instance ``__dict__``), and each
positional builder equals the object built by keyword from the same
values, which fails as soon as a field is reordered. A device's drop
verdicts are shared, one per (device, note).
"""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    CONTROL_DOMAIN,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
)

from repro.core.cenfuzz.runner import FuzzProbeOutcome
from repro.core.centrace.results import ProbeObservation, ResponseSummary
from repro.core.centrace.tracer import _summarize
from repro.devices.actions import KIND_DROP, BlockAction
from repro.devices.base import CensorshipDevice
from repro.devices.rules import Blocklist
from repro.devices.state import RESIDUAL_3TUPLE
from repro.netmodel import tcp as tcpmod
from repro.netmodel.http import HTTPRequest
from repro.netmodel.icmp import (
    CODE_TTL_EXCEEDED,
    QUOTE_RFC792,
    QUOTE_RFC1812,
    TYPE_TIME_EXCEEDED,
    ICMPMessage,
    build_quote,
    time_exceeded,
)
from repro.netmodel.ip import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FlowKey, IPHeader
from repro.netmodel.netctx import NetContext
from repro.netmodel.packet import Packet, icmp_packet, tcp_packet
from repro.netmodel.tcp import TCPOption, TCPSegment
from repro.netmodel.udp import UDPDatagram
from repro.netsim.interfaces import InspectionContext, Verdict
from repro.netsim.simulator import TO_APPLICATION, EndpointStack, Simulator
from repro.netsim.tcpstack import Connection, ProbeResult
from repro.netsim.topology import Endpoint
from repro.services.webserver import FilteringWebServer, ServerProfile, WebServer

DOMAINS = (OK_DOMAIN, BLOCKED_DOMAIN, CONTROL_DOMAIN)


def _instances():
    world = build_linear_world()
    packet = tcp_packet(CLIENT_IP, ENDPOINT_IP, 40000, 80, net=NetContext())
    return [
        packet,
        packet.ip,
        packet.flow_key(),
        packet.tcp,
        ICMPMessage(TYPE_TIME_EXCEEDED, CODE_TTL_EXCEEDED),
        InspectionContext(0.0, 1, 0),
        Verdict(),
        ProbeResult(packet),
        ProbeObservation(1),
        ResponseSummary("icmp", ENDPOINT_IP, 1),
        FuzzProbeOutcome("timeout"),
        Connection(world.sim, world.client, ENDPOINT_IP, 80),
    ]


class TestSlotted:
    @pytest.mark.parametrize(
        "instance", _instances(), ids=lambda obj: type(obj).__name__
    )
    def test_slotted_without_instance_dict(self, instance):
        assert "__slots__" in vars(type(instance))
        assert not hasattr(instance, "__dict__")


# -- strategies ----------------------------------------------------------

addresses = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda octets: ".".join(map(str, octets))
)
ports = st.integers(0, 0xFFFF)
bytes8 = st.integers(0, 0xFF)
words32 = st.integers(0, 0xFFFFFFFF)
payloads = st.binary(max_size=64)
options = st.lists(
    st.sampled_from(
        [
            TCPOption.mss(1460),
            TCPOption.window_scale(7),
            TCPOption.sack_permitted(),
            TCPOption.timestamp(1, 2),
            TCPOption(tcpmod.OPT_NOP),
        ]
    ),
    max_size=4,
)


@st.composite
def ip_headers(draw):
    return IPHeader(
        src=draw(addresses),
        dst=draw(addresses),
        ttl=draw(bytes8),
        tos=draw(bytes8),
        identification=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.integers(0, 7)),
        frag_offset=draw(st.integers(0, 0x1FFF)),
        total_length=draw(st.integers(0, 0xFFFF)),
        checksum=draw(st.integers(0, 0xFFFF)),
    )


@st.composite
def packets(draw):
    """A TCP, UDP or ICMP packet with every field drawn, by keyword."""
    kind = draw(st.sampled_from(["tcp", "udp", "icmp"]))
    transport = {}
    if kind == "tcp":
        transport["tcp"] = TCPSegment(
            sport=draw(ports),
            dport=draw(ports),
            seq=draw(words32),
            ack=draw(words32),
            flags=draw(bytes8),
            window=draw(st.integers(0, 0xFFFF)),
            urgent=draw(st.integers(0, 0xFFFF)),
            options=draw(options),
            payload=draw(payloads),
            checksum=draw(st.integers(0, 0xFFFF)),
        )
    elif kind == "udp":
        transport["udp"] = UDPDatagram(
            sport=draw(ports), dport=draw(ports), payload=draw(payloads)
        )
    else:
        transport["icmp"] = ICMPMessage(
            icmp_type=draw(bytes8), code=draw(bytes8), quote=draw(payloads)
        )
    return Packet(
        ip=draw(ip_headers()),
        emitted_by=draw(st.none() | st.sampled_from(["r1", "dev"])),
        injected=draw(st.booleans()),
        **transport,
    )


# -- builders against keyword construction -------------------------------


def check_tcp_packet(data):
    src, dst = data.draw(addresses), data.draw(addresses)
    sport, dport = data.draw(ports), data.draw(ports)
    values = dict(
        flags=data.draw(bytes8),
        seq=data.draw(words32),
        ack=data.draw(words32),
        ttl=data.draw(bytes8),
        payload=data.draw(payloads),
        tos=data.draw(bytes8),
        window=data.draw(st.integers(0, 0xFFFF)),
    )
    ip_id = data.draw(st.integers(0, 0xFFFF))
    assert tcp_packet(src, dst, sport, dport, ip_id=ip_id, **values) == Packet(
        ip=IPHeader(
            src=src,
            dst=dst,
            ttl=values["ttl"],
            protocol=PROTO_TCP,
            tos=values["tos"],
            identification=ip_id,
        ),
        tcp=TCPSegment(
            sport=sport,
            dport=dport,
            seq=values["seq"],
            ack=values["ack"],
            flags=values["flags"],
            window=values["window"],
            payload=values["payload"],
        ),
    )


def check_icmp_builders(data):
    original = data.draw(st.binary(max_size=600))
    policy = data.draw(st.sampled_from([QUOTE_RFC792, QUOTE_RFC1812]))
    message = time_exceeded(original, policy)
    assert message == ICMPMessage(
        icmp_type=TYPE_TIME_EXCEEDED,
        code=CODE_TTL_EXCEEDED,
        quote=build_quote(original, policy),
    )
    src, dst, ttl = data.draw(addresses), data.draw(addresses), data.draw(bytes8)
    first = data.draw(st.integers(0, 1000))
    net, twin = NetContext(), NetContext()
    for _ in range(first):
        net.next_ip_id()
        twin.next_ip_id()
    assert icmp_packet(src, dst, message, ttl=ttl, net=net) == Packet(
        ip=IPHeader(
            src=src,
            dst=dst,
            ttl=ttl,
            protocol=PROTO_ICMP,
            identification=twin.next_ip_id(),
        ),
        icmp=message,
    )


def check_packet_copies(packet):
    clone = Simulator._clone(packet)
    assert clone == Packet(
        ip=dataclasses.replace(packet.ip),
        tcp=packet.tcp,
        icmp=packet.icmp,
        udp=packet.udp,
        emitted_by=packet.emitted_by,
        injected=packet.injected,
    )
    assert clone.ip is not packet.ip
    assert packet.ip.copy(ttl=1, tos=2) == dataclasses.replace(
        packet.ip, ttl=1, tos=2
    )
    if packet.icmp is not None:
        with pytest.raises(ValueError):
            packet.flow_key()
        return
    transport = packet.tcp if packet.tcp is not None else packet.udp
    assert packet.flow_key() == FlowKey(
        src=packet.ip.src,
        dst=packet.ip.dst,
        sport=transport.sport,
        dport=transport.dport,
        protocol=PROTO_TCP if packet.tcp is not None else PROTO_UDP,
    )


def check_summary(packet):
    ip = packet.ip
    if packet.icmp is not None:
        expected = ResponseSummary(
            kind="icmp",
            src_ip=ip.src,
            arrival_ttl=ip.ttl,
            quote=packet.icmp.quote,
        )
    elif packet.udp is not None:
        expected = ResponseSummary(
            kind="udp",
            src_ip=ip.src,
            arrival_ttl=ip.ttl,
            payload=packet.udp.payload,
            ip_id=ip.identification,
            ip_tos=ip.tos,
            ip_flags=ip.flags,
        )
    else:
        expected = ResponseSummary(
            kind="tcp",
            src_ip=ip.src,
            arrival_ttl=ip.ttl,
            tcp_flags=packet.tcp.flags,
            payload=packet.tcp.payload,
            ip_id=ip.identification,
            ip_tos=ip.tos,
            ip_flags=ip.flags,
            tcp_window=packet.tcp.window,
            tcp_options=tuple(o.kind for o in packet.tcp.options),
        )
    assert _summarize(packet) == expected


SERVERS = [
    lambda: WebServer(DOMAINS),
    lambda: FilteringWebServer(
        DOMAINS,
        (BLOCKED_DOMAIN,),
        mode="reset",
        profile=ServerProfile.lenient(OK_DOMAIN),
    ),
    lambda: FilteringWebServer(DOMAINS, (BLOCKED_DOMAIN,), mode="drop"),
]


def expected_replies(twin: EndpointStack, ids: NetContext, packet: Packet):
    """``EndpointStack.receive``'s replies to ``packet``, built by
    keyword from the twin stack's transition and the server's reply."""
    ip, segment = packet.ip, packet.tcp

    def reply(flags, seq, ack, payload=b""):
        return Packet(
            ip=IPHeader(
                src=ENDPOINT_IP,
                dst=ip.src,
                ttl=EndpointStack.REPLY_TTL,
                protocol=ip.protocol,
                tos=0,
                identification=ids.next_ip_id(),
                flags=ip.flags,
                frag_offset=ip.frag_offset,
                total_length=ip.total_length,
                checksum=ip.checksum,
            ),
            tcp=TCPSegment(
                sport=segment.dport,
                dport=segment.sport,
                seq=seq,
                ack=ack,
                flags=flags,
                payload=payload,
            ),
            emitted_by=twin.endpoint.name,
        )

    action = twin.transition(
        ip.src, ip.dst, segment.sport, segment.dport, segment.flags,
        segment.seq, segment.ack, bool(segment.payload),
    )
    if action is None:
        return []
    if action is not TO_APPLICATION:
        flags, seq, ack = action
        return [reply(flags, seq, ack)]
    flow = (ip.src, segment.sport, segment.dport)
    twin.flows[flow] = "ESTABLISHED"
    app = twin.endpoint.server.handle_payload(segment.payload, ip.src)
    if app.drop:
        return []
    if app.reset:
        twin.flows.pop(flow, None)
        return [reply(tcpmod.RST | tcpmod.ACK, segment.ack, segment.seq)]
    ack = segment.seq + len(segment.payload)
    replies = [
        reply(tcpmod.PSH | tcpmod.ACK, EndpointStack.ISN + 1 + i, ack, body)
        for i, body in enumerate(app.responses)
    ]
    if app.close:
        replies.append(
            reply(
                tcpmod.FIN | tcpmod.ACK,
                EndpointStack.ISN + 1 + len(app.responses),
                ack,
            )
        )
        twin.flows.pop(flow, None)
    return replies


@st.composite
def segments(draw):
    """A client segment toward the endpoint, on one of a few flows."""
    payload = draw(
        st.sampled_from([b"", b"", b"junk"])
        | st.sampled_from(DOMAINS).map(lambda d: HTTPRequest.normal(d).build())
    )
    packet = tcp_packet(
        CLIENT_IP,
        ENDPOINT_IP,
        draw(st.sampled_from([5000, 5001])),
        draw(st.sampled_from([80, 80, 443, 31337])),
        flags=draw(
            st.sampled_from(
                [
                    tcpmod.SYN,
                    tcpmod.ACK,
                    tcpmod.PSH | tcpmod.ACK,
                    tcpmod.FIN | tcpmod.ACK,
                    tcpmod.RST,
                ]
            )
        ),
        seq=draw(st.integers(0, 2**31)),
        ack=draw(st.integers(0, 2**31)),
        payload=payload,
        ip_id=0,
    )
    header = draw(ip_headers())
    packet.ip.flags = header.flags
    packet.ip.frag_offset = header.frag_offset
    packet.ip.total_length = header.total_length
    packet.ip.checksum = header.checksum
    return packet


def check_receive(data):
    server = data.draw(st.sampled_from(SERVERS))()
    endpoint = Endpoint("endpoint", ENDPOINT_IP, asn=64999, server=server)
    stack = EndpointStack(endpoint, net=NetContext())
    twin = EndpointStack(endpoint, net=NetContext())
    ids = NetContext()
    for packet in data.draw(st.lists(segments(), min_size=1, max_size=8)):
        assert stack.receive(packet, 0.0) == expected_replies(twin, ids, packet)
        assert stack.flows == twin.flows


class TestPositionalBuilders:
    """Each positional builder equals its keyword-built twin."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_tcp_packet(self, data):
        check_tcp_packet(data)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_icmp_packet_and_time_exceeded(self, data):
        check_icmp_builders(data)

    @settings(max_examples=25, deadline=None)
    @given(packet=packets())
    def test_clone_and_flow_key(self, packet):
        check_packet_copies(packet)

    @settings(max_examples=25, deadline=None)
    @given(packet=packets())
    def test_summarize(self, packet):
        check_summary(packet)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_receive_replies(self, data):
        check_receive(data)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_tcp_packet_exhaustive(self, data):
        check_tcp_packet(data)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_icmp_packet_and_time_exceeded_exhaustive(self, data):
        check_icmp_builders(data)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(packet=packets())
    def test_clone_and_flow_key_exhaustive(self, packet):
        check_packet_copies(packet)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(packet=packets())
    def test_summarize_exhaustive(self, packet):
        check_summary(packet)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_receive_replies_exhaustive(self, data):
        check_receive(data)


# -- shared drop verdicts ------------------------------------------------


def _drop_device(in_path=True) -> CensorshipDevice:
    return CensorshipDevice(
        "dev",
        blocklist=Blocklist.for_domains([BLOCKED_DOMAIN]),
        action=BlockAction(kind=KIND_DROP),
        in_path=in_path,
        residual_mode=RESIDUAL_3TUPLE,
    )


def _verdicts(device: CensorshipDevice, clock: float):
    """The device's (triggered, residual) verdicts for one blocked
    request and the SYN that follows it on the punished tuple."""
    ctx = InspectionContext(clock, 10, 3)
    request = tcp_packet(
        CLIENT_IP, ENDPOINT_IP, 40000, 80,
        payload=HTTPRequest.normal(BLOCKED_DOMAIN).build(), ip_id=1,
    )
    syn = tcp_packet(CLIENT_IP, ENDPOINT_IP, 40001, 80, ip_id=2)
    triggered = device.inspect(request, ctx)
    residual = device.inspect(syn, InspectionContext(clock + 1.0, 10, 3))
    return triggered, residual


class TestDropVerdictReuse:
    def test_one_verdict_per_device_and_note(self):
        device = _drop_device()
        triggered, residual = _verdicts(device, 0.0)
        assert triggered == Verdict(
            drop=True, note=f"dev:triggered:{BLOCKED_DOMAIN}"
        )
        assert residual == Verdict(drop=True, note="dev:residual")
        device.reset_state()
        again = _verdicts(device, 500.0)
        assert again[0] is triggered and again[1] is residual

    def test_on_path_drop_verdict_does_not_drop(self):
        triggered, residual = _verdicts(_drop_device(in_path=False), 0.0)
        assert triggered == Verdict(
            drop=False, note=f"dev:triggered:{BLOCKED_DOMAIN}"
        )
        assert residual == Verdict(drop=False, note="dev:residual")

    def test_devices_share_no_verdict(self):
        first = _verdicts(_drop_device(), 0.0)
        second = _verdicts(_drop_device(), 0.0)
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
