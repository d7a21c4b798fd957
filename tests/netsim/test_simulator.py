"""Simulator forwarding: TTL expiry, ICMP generation, transforms,
reverse-path delivery, loss and the virtual clock."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    CONTROL_DOMAIN,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
    deliver_payload,
    make_profile_device,
)

from repro.devices.vendors import BY_DPI, KZ_STATE, TSPU_TTLCOPY
from repro.netmodel import tcp as tcpmod
from repro.netmodel.http import HTTPRequest
from repro.netmodel.icmp import QUOTE_RFC1812
from repro.netmodel.netctx import NetContext
from repro.netmodel.packet import tcp_packet
from repro.netsim.simulator import EndpointStack
from repro.netsim.tcpstack import open_connection
from repro.netsim.topology import Endpoint, Service
from repro.services.webserver import FilteringWebServer


def _probe(world, domain, ttl, port=80):
    conn = open_connection(world.sim, world.client, world.endpoint.ip, port)
    assert conn is not None
    result = conn.send_payload(HTTPRequest.normal(domain).build(), ttl=ttl)
    conn.close()
    world.sim.advance(120)
    return result.received


class TestTTLExpiry:
    def test_each_router_answers_at_its_distance(self, linear_world):
        for i, router in enumerate(linear_world.routers, start=1):
            received = _probe(linear_world, OK_DOMAIN, ttl=i)
            assert len(received) == 1
            assert received[0].is_icmp
            assert received[0].ip.src == router.ip

    def test_endpoint_reached_past_last_router(self, linear_world):
        received = _probe(linear_world, OK_DOMAIN, ttl=linear_world.endpoint_distance)
        assert any(p.is_tcp and p.ip.src == ENDPOINT_IP for p in received)

    def test_silent_router_produces_timeout(self):
        world = build_linear_world(silent_routers=(2,))
        assert _probe(world, OK_DOMAIN, ttl=3) == []
        # Other hops still answer.
        assert _probe(world, OK_DOMAIN, ttl=2) != []

    def test_icmp_quotes_contain_sent_ports(self, linear_world):
        received = _probe(linear_world, OK_DOMAIN, ttl=1)
        quote = received[0].icmp.quote
        # Quote carries IP header + >=8 transport bytes (ports+seq).
        assert len(quote) >= 28

    def test_reply_ttl_decrements_on_return(self, linear_world):
        received = _probe(linear_world, OK_DOMAIN, ttl=2)
        # ICMP from hop 2 crosses router 1 on the way back: 64 - 1.
        assert received[0].ip.ttl == 63


class TestRouterTransforms:
    def test_tos_rewrite_visible_in_quote(self):
        world = build_linear_world()
        world.routers[1].rewrite_tos = 0x28
        received = _probe(world, OK_DOMAIN, ttl=4)
        from repro.netmodel.ip import IPHeader

        quoted_ip, _ = IPHeader.from_bytes(received[0].icmp.quote)
        assert quoted_ip.tos == 0x28

    def test_tos_rewrite_not_visible_before_rewriter(self):
        world = build_linear_world()
        world.routers[3].rewrite_tos = 0x28
        received = _probe(world, OK_DOMAIN, ttl=2)
        from repro.netmodel.ip import IPHeader

        quoted_ip, _ = IPHeader.from_bytes(received[0].icmp.quote)
        assert quoted_ip.tos == 0

    def test_sent_packet_not_mutated_by_transforms(self):
        world = build_linear_world()
        world.routers[0].rewrite_tos = 0x28
        conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
        result = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=3)
        from repro.netmodel.ip import IPHeader

        sent_ip, _ = IPHeader.from_bytes(result.sent_bytes)
        assert sent_ip.tos == 0


class TestQuotingPolicies:
    def test_rfc1812_router_quotes_payload(self):
        world = build_linear_world()
        world.routers[0].quoting = QUOTE_RFC1812
        received = _probe(world, OK_DOMAIN, ttl=1)
        assert b"Host: " in received[0].icmp.quote

    def test_rfc792_router_quotes_only_64_bits(self, linear_world):
        received = _probe(linear_world, OK_DOMAIN, ttl=1)
        assert len(received[0].icmp.quote) == 28


class TestEndpointBehaviour:
    def test_http_request_served(self, linear_world):
        received = _probe(linear_world, OK_DOMAIN, ttl=64)
        bodies = [p.tcp.payload for p in received if p.is_tcp and p.tcp.payload]
        assert any(b"200 OK" in b for b in bodies)

    def test_unknown_host_rejected(self, linear_world):
        received = _probe(linear_world, "www.other.example", ttl=64)
        bodies = [p.tcp.payload for p in received if p.is_tcp and p.tcp.payload]
        assert any(b"403" in b or b"404" in b for b in bodies)

    def test_syn_to_closed_port_resets(self, linear_world):
        conn = open_connection(
            linear_world.sim, linear_world.client, ENDPOINT_IP, 9999, retries=0
        )
        assert conn is None

    def test_data_on_torn_down_flow_resets(self, linear_world):
        conn = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        # Endpoint closes after serving (close=True); further data
        # on the dead flow elicits an RST from the endpoint stack.
        conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build())
        second = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build())
        flags = [p.tcp.flags for p in second.received if p.is_tcp]
        assert any(f & tcpmod.RST for f in flags)


class TestEndpointReset:
    """An endpoint that answers data with a reset tears the flow down,
    so a later FIN on it is answered with RST, not FIN|ACK."""

    def _fin_reply(self, stack, sport):
        fin = tcp_packet(
            CLIENT_IP, ENDPOINT_IP, sport, 80,
            flags=tcpmod.FIN | tcpmod.ACK, seq=200,
            ack=EndpointStack.ISN + 1, net=NetContext(),
        )
        return [p.tcp.flags for p in stack.receive(fin, 0.0)]

    def test_application_reset_drops_the_flow(self):
        server = FilteringWebServer(
            (OK_DOMAIN, BLOCKED_DOMAIN), (BLOCKED_DOMAIN,), mode="reset"
        )
        stack = EndpointStack(
            Endpoint("endpoint", ENDPOINT_IP, asn=64999, server=server),
            net=NetContext(),
        )
        payload = HTTPRequest.normal(BLOCKED_DOMAIN).build()
        replies, state = deliver_payload(stack, payload, 5000)
        assert [r[5] for r in replies] == [tcpmod.RST | tcpmod.ACK]
        assert state is None
        assert self._fin_reply(stack, 5000) == [tcpmod.RST]

    def test_data_without_a_server_drops_the_flow(self):
        stack = EndpointStack(
            Endpoint(
                "endpoint", ENDPOINT_IP, asn=64999,
                services={80: Service(80, "http")},
            ),
            net=NetContext(),
        )
        replies, state = deliver_payload(stack, b"GET / HTTP/1.1\r\n\r\n", 5001)
        assert [r[5] for r in replies] == [tcpmod.RST]
        assert state is None
        assert self._fin_reply(stack, 5001) == [tcpmod.RST]


class TestLossAndClock:
    def test_lossless_by_default(self, linear_world):
        for _ in range(20):
            assert _probe(linear_world, OK_DOMAIN, ttl=1) != []

    def test_heavy_loss_causes_timeouts(self):
        world = build_linear_world(loss_rate=0.5, seed=3)
        timeouts = 0
        for _ in range(10):
            conn = open_connection(world.sim, world.client, ENDPOINT_IP, 80)
            if conn is None:
                timeouts += 1  # even the handshake can fail under 50% loss
                continue
            result = conn.send_payload(
                HTTPRequest.normal(OK_DOMAIN).build(), ttl=3
            )
            if not result.received:
                timeouts += 1
        assert timeouts > 0

    def test_clock_advances_per_packet(self, linear_world):
        before = linear_world.sim.clock
        _probe(linear_world, OK_DOMAIN, ttl=1)
        assert linear_world.sim.clock > before

    def test_clock_cannot_go_backwards(self, linear_world):
        with pytest.raises(ValueError):
            linear_world.sim.advance(-1)

    def test_no_route_raises(self, linear_world):
        orphan = tcp_packet(linear_world.client.ip, "203.0.113.99", 1, 2)
        with pytest.raises(KeyError):
            linear_world.sim.send_from_client(orphan)


class TestDeviceMechanics:
    def test_drop_device_produces_timeouts_past_link(self):
        device = make_profile_device(KZ_STATE)
        world = build_linear_world(device=device, device_link=2)
        assert _probe(world, BLOCKED_DOMAIN, ttl=2) != []  # before device
        assert _probe(world, BLOCKED_DOMAIN, ttl=3) == []  # at/after device
        assert _probe(world, BLOCKED_DOMAIN, ttl=9) == []

    def test_drop_device_passes_control_domain(self):
        device = make_profile_device(KZ_STATE)
        world = build_linear_world(device=device, device_link=2)
        received = _probe(world, CONTROL_DOMAIN, ttl=64)
        assert any(p.is_tcp and p.tcp.payload for p in received)

    def test_onpath_device_injects_and_passes(self):
        device = make_profile_device(BY_DPI)
        world = build_linear_world(device=device, device_link=2)
        received = _probe(world, BLOCKED_DOMAIN, ttl=3)
        kinds = {("icmp" if p.is_icmp else "tcp") for p in received}
        assert kinds == {"icmp", "tcp"}  # both RST and Time Exceeded

    def test_onpath_device_lets_request_reach_endpoint(self):
        device = make_profile_device(BY_DPI)
        world = build_linear_world(device=device, device_link=2)
        received = _probe(world, BLOCKED_DOMAIN, ttl=64)
        assert any(p.is_tcp and p.tcp.payload for p in received)
        assert any(p.is_tcp and (p.tcp.flags & tcpmod.RST) for p in received)

    def test_ttlcopy_injection_dies_until_double_distance(self):
        device = make_profile_device(TSPU_TTLCOPY)
        world = build_linear_world(n_routers=6, device=device, device_link=3)
        # Device is ~3 hops out: RSTs reach us only from TTL 7 (=2*3+1).
        for ttl in range(4, 7):
            assert _probe(world, BLOCKED_DOMAIN, ttl=ttl) == []
        received = _probe(world, BLOCKED_DOMAIN, ttl=7)
        assert received and received[0].tcp.flags & tcpmod.RST
        assert received[0].ip.ttl == 1  # the §4.3 signature

    def test_residual_censorship_blocks_control_within_window(self):
        device = make_profile_device(KZ_STATE)
        world = build_linear_world(device=device, device_link=2)
        _probe_no_wait(world, BLOCKED_DOMAIN)
        # Immediately afterwards even the control domain fails.
        conn = open_connection(world.sim, world.client, ENDPOINT_IP, 80, retries=0)
        if conn is not None:
            result = conn.send_payload(HTTPRequest.normal(CONTROL_DOMAIN).build())
            assert not any(p.is_tcp and p.tcp.payload for p in result.received)
        # After the 120s wait the tuple is forgiven.
        world.sim.advance(120)
        received = _probe(world, CONTROL_DOMAIN, ttl=64)
        assert any(p.is_tcp and p.tcp.payload for p in received)


def _probe_no_wait(world, domain):
    conn = open_connection(world.sim, world.client, world.endpoint.ip, 80)
    assert conn is not None
    conn.send_payload(HTTPRequest.normal(domain).build())
    conn.close()
