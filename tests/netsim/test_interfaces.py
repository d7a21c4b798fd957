"""The simulator's plug-in interfaces."""

import dataclasses

import pytest

from repro.netmodel.packet import tcp_packet
from repro.netsim.interfaces import AppReply, Verdict


class TestVerdict:
    def test_pass_through_not_acted(self):
        assert not Verdict.pass_through().acted

    def test_drop_is_acted(self):
        assert Verdict(drop=True).acted

    def test_injections_are_acted(self):
        packet = tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        assert Verdict(inject_to_client=(packet,)).acted
        assert Verdict(inject_to_server=(packet,)).acted


class TestAppReply:
    def test_respond_builder(self):
        reply = AppReply.respond(b"a", b"b", close=True)
        assert reply.responses == (b"a", b"b")
        assert reply.close and not reply.drop and not reply.reset

    def test_drop_reply(self):
        assert AppReply(drop=True).drop

    def test_reply_is_immutable(self):
        # Endpoint stacks share one reply between every delivery of a
        # payload, so no delivery may change it for the next.
        reply = AppReply.respond(b"a", close=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            reply.close = False
        with pytest.raises(AttributeError):
            reply.responses.append(b"b")
