"""The assembled censorship device: trigger logic end to end."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.devices.actions import BlockAction, KIND_DROP, KIND_RST
from repro.devices.base import CensorshipDevice
from repro.devices.quirks import ParserQuirks
from repro.devices.rules import Blocklist
from repro.devices.state import RESIDUAL_3TUPLE
from repro.devices.vendors import ALL_PROFILES, KZ_STATE, make_device
from repro.geo.drift import DriftOp, DriftPlan, apply_drift
from repro.netmodel import tcp as tcpmod
from repro.netmodel.http import HTTPRequest
from repro.netmodel.packet import tcp_packet
from repro.netmodel.tls import ClientHello
from repro.netsim.interfaces import DIRECTION_FORWARD, InspectionContext, Verdict

BLOCKED = "www.blocked.example"
OK = "www.ok.example"


def _device(action=None, **kwargs) -> CensorshipDevice:
    return CensorshipDevice(
        "dev",
        blocklist=Blocklist.for_domains([BLOCKED]),
        quirks=ParserQuirks(),
        action=action or BlockAction(kind=KIND_DROP),
        **kwargs,
    )


def _ctx(clock=0.0, remaining_ttl=10) -> InspectionContext:
    return InspectionContext(
        clock=clock, remaining_ttl=remaining_ttl, link_index=3,
        direction=DIRECTION_FORWARD,
    )


def _http(domain, **kwargs):
    return tcp_packet(
        "10.0.0.1", "10.0.0.2", 40000, 80,
        payload=HTTPRequest(host=domain, **kwargs).build(),
    )


def _tls(domain):
    return tcp_packet(
        "10.0.0.1", "10.0.0.2", 40000, 443,
        payload=ClientHello.normal(domain).build(),
    )


class TestTriggering:
    def test_blocked_http_dropped(self):
        device = _device()
        verdict = device.inspect(_http(BLOCKED), _ctx())
        assert verdict.drop
        assert device.stats.triggered == 1

    def test_ok_http_passes(self):
        device = _device()
        verdict = device.inspect(_http(OK), _ctx())
        assert not verdict.acted

    def test_blocked_tls_triggers(self):
        device = _device()
        assert device.inspect(_tls(BLOCKED), _ctx()).drop

    def test_handshake_packets_pass(self):
        device = _device()
        syn = tcp_packet("10.0.0.1", "10.0.0.2", 40000, 80, flags=tcpmod.SYN)
        assert not device.inspect(syn, _ctx()).acted

    def test_injected_packets_not_reinspected(self):
        device = _device()
        packet = _http(BLOCKED)
        packet.injected = True
        assert not device.inspect(packet, _ctx()).acted

    def test_icmp_passes(self):
        from repro.netmodel.icmp import ICMPMessage
        from repro.netmodel.packet import icmp_packet

        device = _device()
        packet = icmp_packet("10.0.0.9", "10.0.0.1", ICMPMessage(11, 0))
        assert not device.inspect(packet, _ctx()).acted

    def test_evasion_counted(self):
        device = _device()
        device.inspect(_http(BLOCKED, method="XXXX"), _ctx())
        assert device.stats.evaded == 1
        assert device.stats.triggered == 0


class TestOnPathSemantics:
    def test_onpath_drop_verdict_not_set(self):
        device = _device(
            action=BlockAction(kind=KIND_RST, drop_original=True), in_path=False
        )
        verdict = device.inspect(_http(BLOCKED), _ctx())
        assert verdict.inject_to_client
        assert not verdict.drop  # on-path devices cannot drop

    def test_inpath_injector_drops_original(self):
        device = _device(
            action=BlockAction(kind=KIND_RST, drop_original=True), in_path=True
        )
        verdict = device.inspect(_http(BLOCKED), _ctx())
        assert verdict.inject_to_client and verdict.drop


class TestPerProtocolActions:
    def test_tls_action_overrides(self):
        device = CensorshipDevice(
            "dev",
            blocklist=Blocklist.for_domains([BLOCKED]),
            action=BlockAction(kind=KIND_DROP),
            action_tls=BlockAction(kind=KIND_RST),
        )
        http_verdict = device.inspect(_http(BLOCKED), _ctx())
        tls_verdict = device.inspect(_tls(BLOCKED), _ctx())
        assert http_verdict.drop and not http_verdict.inject_to_client
        assert tls_verdict.inject_to_client

    def test_tls_action_defaults_to_http_action(self):
        device = _device(action=BlockAction(kind=KIND_RST))
        assert device.action_tls.kind == KIND_RST


class TestResidual:
    def test_residual_punishes_followup_syn(self):
        device = _device(residual_mode=RESIDUAL_3TUPLE, residual_duration=60.0)
        device.inspect(_http(BLOCKED), _ctx(clock=0.0))
        syn = tcp_packet("10.0.0.1", "10.0.0.2", 41000, 80, flags=tcpmod.SYN)
        verdict = device.inspect(syn, _ctx(clock=5.0))
        assert verdict.drop
        assert device.stats.residual_hits == 1

    def test_residual_expires(self):
        device = _device(residual_mode=RESIDUAL_3TUPLE, residual_duration=60.0)
        device.inspect(_http(BLOCKED), _ctx(clock=0.0))
        syn = tcp_packet("10.0.0.1", "10.0.0.2", 41000, 80, flags=tcpmod.SYN)
        assert not device.inspect(syn, _ctx(clock=120.0)).acted

    def test_injection_limit_respected(self):
        device = _device(
            action=BlockAction(kind=KIND_RST, drop_original=False),
            injection_limit=1,
        )
        packet = _http(BLOCKED)
        first = device.inspect(packet, _ctx())
        second = device.inspect(packet, _ctx())
        assert first.inject_to_client
        assert not second.inject_to_client


class TestDirectionality:
    def test_unidirectional_device_ignores_reverse(self):
        from repro.netsim.interfaces import DIRECTION_REVERSE

        device = _device(bidirectional=False)
        ctx = InspectionContext(
            clock=0, remaining_ttl=9, link_index=1, direction=DIRECTION_REVERSE
        )
        assert not device.inspect(_http(BLOCKED), ctx).acted


class TestParseMemo:
    """Each payload is parsed once per unit; outcomes never go stale."""

    def test_reset_state_empties_the_memo(self):
        device = _device()
        device.inspect(_http(BLOCKED), _ctx())
        device.inspect(_http(OK), _ctx())
        assert len(device._parsed) == 2
        device.reset_state()
        assert device._parsed == {}

    def test_rules_drift_reaches_an_already_seen_payload(self):
        device = _device()
        world = SimpleNamespace(name="memo", devices=[device])
        blocked, ok = _http(BLOCKED), _http(OK)
        assert device.inspect(blocked, _ctx()).drop
        assert not device.inspect(ok, _ctx()).acted
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="rules", target="dev",
                    remove_domains=(BLOCKED,), add_domains=(OK,)),
        ))
        apply_drift(world, plan, epoch=1)
        assert not device.inspect(blocked, _ctx()).acted
        assert device.inspect(ok, _ctx()).drop

    def test_firmware_drift_reaches_an_already_seen_payload(self):
        device = _device()
        world = SimpleNamespace(name="memo", devices=[device])
        packet = _http(BLOCKED)
        first = device.inspect(packet, _ctx())
        assert first.drop and not first.inject_to_client
        plan = DriftPlan(ops=(
            DriftOp(epoch=1, kind="firmware", target="dev", action_kind="rst"),
        ))
        apply_drift(world, plan, epoch=1)
        assert device.inspect(packet, _ctx()).inject_to_client

    def test_repeated_payloads_count_like_first_parses(self):
        payloads = [
            _http(BLOCKED),
            _http(OK),
            _http(BLOCKED, method="XXXX"),  # evades the parser
            _http(BLOCKED, path="/other"),  # evades the URL-scoped rule
            _tls(BLOCKED),
            _tls(OK),
        ]
        sequence = payloads * 3 + payloads[::-1]
        memoized = make_device(KZ_STATE, "dev", [BLOCKED], url_scope=True)
        fresh = make_device(KZ_STATE, "dev", [BLOCKED], url_scope=True)
        for i, packet in enumerate(sequence):
            fresh._parsed.clear()  # parse every payload as if first seen
            ctx = _ctx(clock=1000.0 * i)  # past any residual window
            got = memoized.inspect(packet, ctx)
            want = fresh.inspect(packet, ctx)
            assert (got.drop, got.note, len(got.inject_to_client)) == (
                want.drop, want.note, len(want.inject_to_client)
            )
        assert memoized.stats == fresh.stats
        assert memoized.stats.inspected == len(sequence)
        assert memoized.stats.evaded == 2 * 4
        assert len(memoized._parsed) == len(payloads)


class TestReadOnlyInspection:
    def test_pass_through_is_shared_and_frozen(self):
        verdict = Verdict.pass_through()
        assert Verdict.pass_through() is verdict
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.drop = True
        with pytest.raises(AttributeError):
            verdict.inject_to_client.append(None)
        assert not verdict.acted

    @pytest.mark.parametrize("profile_name", sorted(ALL_PROFILES))
    def test_inspect_leaves_the_packet_untouched(self, profile_name):
        device = make_device(ALL_PROFILES[profile_name], "dev", [BLOCKED])
        syn = tcp_packet("10.0.0.1", "10.0.0.2", 40000, 80, flags=tcpmod.SYN)
        # Trigger first so residual-mode devices also act on the SYN.
        for packet in (_http(BLOCKED), _tls(BLOCKED), syn, _http(OK)):
            wire = packet.to_bytes()
            header = packet.ip
            fields = dataclasses.astuple(header)
            device.inspect(packet, _ctx(clock=1.0))
            assert packet.ip is header
            assert dataclasses.astuple(packet.ip) == fields
            assert packet.to_bytes() == wire
