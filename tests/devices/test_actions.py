"""Blocking actions and injected-packet signatures."""

import pytest

from repro.devices.actions import (
    BlockAction,
    InjectionSignature,
    IPID_CONSTANT,
    IPID_ECHO,
    IPID_SEQUENTIAL,
    IPID_ZERO,
    KIND_BLOCKPAGE,
    KIND_DROP,
    KIND_FIN,
    KIND_RST,
    TTL_COPY,
    TTL_FIXED,
    build_injections,
)
from repro.netmodel import tcp as tcpmod
from repro.netmodel.packet import tcp_packet


def _trigger(payload=b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", ip_id=0x4242):
    return tcp_packet(
        "10.0.0.1", "10.0.0.2", 40000, 80, seq=100, ack=200, payload=payload, ip_id=ip_id
    )


class TestDrop:
    def test_drop_injects_nothing(self):
        to_client, to_server = build_injections(
            BlockAction(kind=KIND_DROP), _trigger(), 10, "dev"
        )
        assert to_client == [] and to_server == []


class TestRST:
    def test_rst_spoofs_endpoint_address(self):
        action = BlockAction(kind=KIND_RST)
        to_client, _ = build_injections(action, _trigger(), 10, "dev")
        packet = to_client[0]
        assert packet.ip.src == "10.0.0.2"
        assert packet.ip.dst == "10.0.0.1"
        assert packet.tcp.flags & tcpmod.RST
        assert packet.injected

    def test_rst_sequence_references_trigger(self):
        to_client, _ = build_injections(BlockAction(kind=KIND_RST), _trigger(), 10, "dev")
        packet = to_client[0]
        assert packet.tcp.seq == 200  # the trigger's ack
        assert packet.tcp.ack == 100 + len(_trigger().tcp.payload)

    def test_inject_count_multiplies(self):
        action = BlockAction(kind=KIND_RST, inject_count=3)
        to_client, _ = build_injections(action, _trigger(), 10, "dev")
        assert len(to_client) == 3
        # Successive RSTs walk the sequence space.
        assert {p.tcp.seq for p in to_client} == {200, 201, 202}

    def test_rst_to_server_spoofs_client(self):
        action = BlockAction(kind=KIND_RST, rst_to_server=True)
        _, to_server = build_injections(action, _trigger(), 10, "dev")
        assert len(to_server) == 1
        assert to_server[0].ip.src == "10.0.0.1"
        assert to_server[0].ip.dst == "10.0.0.2"


class TestFINAndBlockpage:
    def test_fin_flags(self):
        to_client, _ = build_injections(BlockAction(kind=KIND_FIN), _trigger(), 10, "dev")
        assert to_client[0].tcp.flags == tcpmod.FIN | tcpmod.ACK

    def test_blockpage_carries_html_then_fin(self):
        action = BlockAction(kind=KIND_BLOCKPAGE, blockpage_html="<html>no</html>")
        to_client, _ = build_injections(action, _trigger(), 10, "dev")
        assert len(to_client) == 2
        assert b"<html>no</html>" in to_client[0].tcp.payload
        assert b"403 Forbidden" in to_client[0].tcp.payload
        assert to_client[1].tcp.flags & tcpmod.FIN


class TestSignatures:
    def test_fixed_ttl(self):
        sig = InjectionSignature(ttl_mode=TTL_FIXED, fixed_ttl=128)
        action = BlockAction(kind=KIND_RST, signature=sig)
        to_client, _ = build_injections(action, _trigger(), 9, "dev")
        assert to_client[0].ip.ttl == 128

    def test_ttl_copy_uses_remaining_ttl(self):
        sig = InjectionSignature(ttl_mode=TTL_COPY)
        action = BlockAction(kind=KIND_RST, signature=sig)
        to_client, _ = build_injections(action, _trigger(), 4, "dev")
        assert to_client[0].ip.ttl == 4

    def test_ip_id_zero(self):
        sig = InjectionSignature(ip_id_mode=IPID_ZERO)
        to_client, _ = build_injections(
            BlockAction(kind=KIND_RST, signature=sig), _trigger(), 9, "dev"
        )
        assert to_client[0].ip.identification == 0

    def test_ip_id_constant(self):
        sig = InjectionSignature(ip_id_mode=IPID_CONSTANT, ip_id_value=0x1234)
        to_client, _ = build_injections(
            BlockAction(kind=KIND_RST, signature=sig), _trigger(), 9, "dev"
        )
        assert to_client[0].ip.identification == 0x1234

    def test_ip_id_echo(self):
        sig = InjectionSignature(ip_id_mode=IPID_ECHO)
        to_client, _ = build_injections(
            BlockAction(kind=KIND_RST, signature=sig), _trigger(ip_id=0x4242), 9, "dev"
        )
        assert to_client[0].ip.identification == 0x4242

    def test_ip_id_sequential_increments(self):
        sig = InjectionSignature(ip_id_mode=IPID_SEQUENTIAL)
        action = BlockAction(kind=KIND_RST, signature=sig)
        first, _ = build_injections(action, _trigger(), 9, "dev")
        second, _ = build_injections(action, _trigger(), 9, "dev")
        assert second[0].ip.identification == first[0].ip.identification + 1

    def test_window_and_tos_applied(self):
        sig = InjectionSignature(tcp_window=1400, tos=0x10)
        to_client, _ = build_injections(
            BlockAction(kind=KIND_RST, signature=sig), _trigger(), 9, "dev"
        )
        assert to_client[0].tcp.window == 1400
        assert to_client[0].ip.tos == 0x10

    def test_non_tcp_trigger_injects_nothing(self):
        from repro.netmodel.icmp import ICMPMessage
        from repro.netmodel.packet import icmp_packet

        trigger = icmp_packet("1.1.1.1", "2.2.2.2", ICMPMessage(11, 0))
        assert build_injections(BlockAction(kind=KIND_RST), trigger, 9, "dev") == ([], [])


class TestDnsFakeCursorReset:
    """Regression: the rotating fake-answer cursor is rewindable.

    Before the RP502 sweep the cursor was module-global with *no* reset
    hook, so with a multi-address pool (the GFW-style rotation) the
    answer a unit saw depended on how many DNS injections had run
    earlier in the same process — serial and parallel campaigns rotated
    differently.
    """

    @staticmethod
    def _dns_trigger(domain="blocked.example"):
        from repro.netmodel.dns import DNSMessage, DNSQuestion
        from repro.netmodel.packet import udp_packet

        query = DNSMessage(txid=7, questions=[DNSQuestion(domain)])
        return udp_packet(
            "10.0.0.1", "10.0.0.2", 40000, 53, payload=query.to_bytes()
        )

    def _answers(self, action, n, net):
        from repro.netmodel.dns import DNSMessage
        from repro.devices.actions import build_dns_injections

        out = []
        for _ in range(n):
            (forged,) = build_dns_injections(
                action, self._dns_trigger(), 9, "dev", net=net
            )
            out.append(DNSMessage.from_bytes(forged.udp.payload).answers[0].address)
        return out

    def test_reset_rewinds_rotation(self):
        from repro.devices.actions import DNSBlockAction
        from repro.netmodel.netctx import NetContext

        pool = ("198.18.0.1", "198.18.0.2", "198.18.0.3")
        action = DNSBlockAction(fake_addresses=pool)
        net = NetContext()
        first_run = self._answers(action, 4, net)
        assert first_run == list(pool) + [pool[0]]  # cycles in pool order
        # Without the rewind the next run would start mid-pool...
        assert self._answers(action, 1, net) != [pool[0]]
        # ...and with it, it is bit-identical to the first.
        net.reset_dns_fake_cursor()
        assert self._answers(action, 4, net) == first_run

    def test_prepare_unit_rewinds_cursor(self):
        """The executor's per-unit reset covers the DNS cursor too."""
        from repro.experiments.executor import prepare_unit
        from repro.geo.countries import build_kz_world

        world = build_kz_world()
        for _ in range(17):
            world.net_context.next_dns_fake_index()
        prepare_unit(world, "trace", ("endpoint", "domain"))
        assert world.net_context.next_dns_fake_index() == 0
