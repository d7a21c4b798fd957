"""Reply side, parsed once: the endpoint stack's reply memo and lazily
serialized probe bytes."""

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

from repro.core.cenfuzz import CenFuzz
from repro.devices.vendors import KZ_STATE
from repro.netmodel import tcp as tcpmod
from repro.netmodel.http import HTTPRequest
from repro.netmodel.netctx import NetContext
from repro.netmodel.packet import Packet, tcp_packet
from repro.netsim.interfaces import ApplicationServer
from repro.netsim.simulator import EndpointStack
from repro.netsim.tcpstack import Connection, open_connection
from repro.services.webserver import FilteringWebServer, ServerProfile

from ..oracle.scalar import ScalarEngine

DOMAINS = (OK_DOMAIN, BLOCKED_DOMAIN, CONTROL_DOMAIN)


class RecordingServer(ApplicationServer):
    """Forwards to ``inner`` and records every call it receives."""

    def __init__(self, inner: ApplicationServer) -> None:
        self.inner = inner
        self.calls = []

    def handle_payload(self, payload, client_ip):
        self.calls.append((payload, client_ip))
        return self.inner.handle_payload(payload, client_ip)


def _filtering_server():
    return FilteringWebServer(
        DOMAINS,
        [BLOCKED_DOMAIN],
        mode="reset",
        profile=ServerProfile.lenient(OK_DOMAIN),
    )


@pytest.fixture(scope="module")
def cenfuzz_payloads():
    """The server calls of an HTTP and a TLS CenFuzz endpoint run, in
    the order the run's endpoint stack made them."""
    recorder = RecordingServer(_filtering_server())
    world = build_linear_world(server=recorder, endpoint_domains=DOMAINS)
    fuzzer = CenFuzz(world.sim, world.client)
    for protocol in ("http", "tls"):
        fuzzer.run_endpoint(ENDPOINT_IP, BLOCKED_DOMAIN, protocol, CONTROL_DOMAIN)
    return recorder.calls


class TestEndpointStackMemo:
    def test_each_distinct_payload_reaches_the_server_once(
        self, cenfuzz_payloads
    ):
        # The run re-sends its Normal baselines and re-probes, yet the
        # stack asks the server once per distinct payload.
        assert len(cenfuzz_payloads) > 100
        assert len(set(cenfuzz_payloads)) == len(cenfuzz_payloads)

    def test_memoized_replies_match_fresh_ones(self, cenfuzz_payloads):
        server = _filtering_server()
        world = build_linear_world(server=server, endpoint_domains=DOMAINS)
        memo = EndpointStack(world.endpoint, net=NetContext())
        kinds = set()
        for i, (payload, _) in enumerate(cenfuzz_payloads):
            deliver_payload(memo, payload, 40000 + 2 * i)
            again = deliver_payload(memo, payload, 40001 + 2 * i)  # from the memo
            fresh = deliver_payload(
                EndpointStack(world.endpoint, net=NetContext()),
                payload,
                40001 + 2 * i,
            )
            assert again == fresh
            kinds.add(tuple(r[5] for r in fresh[0]))
        # Endpoint resets (the filtered domain), one-segment HTTP
        # replies and two-segment TLS replies all went through the memo.
        data, fin, rst = (
            tcpmod.PSH | tcpmod.ACK, tcpmod.FIN | tcpmod.ACK, tcpmod.RST | tcpmod.ACK
        )
        assert kinds == {(rst,), (data, fin), (data, data, fin)}
        assert memo._replies == {
            (payload, CLIENT_IP): server.handle_payload(payload, CLIENT_IP)
            for payload, _ in cenfuzz_payloads
        }

    def test_reset_drops_the_memo(self):
        recorder = RecordingServer(_filtering_server())
        world = build_linear_world(server=recorder, endpoint_domains=DOMAINS)
        payload = HTTPRequest.normal(OK_DOMAIN).build()

        def probe():
            conn = open_connection(
                world.sim, world.client, ENDPOINT_IP, 80,
                engine=world.sim.batch_engine(),
            )
            result = conn.send_payload(payload)
            conn.close()
            return [p.tcp.payload for p in result.received]

        first = probe()
        assert probe() == first
        assert len(recorder.calls) == 1
        world.sim.reset()
        assert world.sim._endpoint_stacks == {}
        assert probe() == first
        assert len(recorder.calls) == 2


def _expected_bytes(conn: Connection, payload: bytes, sent: Packet, ttl: int):
    """An independently built copy of the probe ``send_payload`` sent."""
    return tcp_packet(
        CLIENT_IP, ENDPOINT_IP, conn.sport, 80,
        flags=tcpmod.PSH | tcpmod.ACK,
        seq=Connection.CLIENT_ISN + 1,
        ack=conn.server_isn + 1,
        ttl=ttl,
        payload=payload,
        ip_id=sent.ip.identification,
    ).to_bytes()


@pytest.fixture
def encodes(monkeypatch):
    """Counts ``Packet.to_bytes`` calls (perfbench's netmodel.encodes)."""
    count = {"n": 0}
    original = Packet.to_bytes

    def counted(self):
        count["n"] += 1
        return original(self)

    monkeypatch.setattr(Packet, "to_bytes", counted)
    return count


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
class TestLazySentBytes:
    def _connect(self, world, batched):
        engine = world.sim.batch_engine() if batched else ScalarEngine(world.sim)
        return open_connection(
            world.sim, world.client, ENDPOINT_IP, 80, engine=engine
        )

    def test_equal_to_eager_after_zero_copy_delivery(self, batched):
        world = build_linear_world()
        conn = self._connect(world, batched)
        payload = HTTPRequest.normal(OK_DOMAIN).build()
        result = conn.send_payload(payload)
        assert any(p.tcp is not None and p.tcp.payload for p in result.received)
        assert result.sent_bytes == _expected_bytes(conn, payload, result.sent, 64)
        assert Packet.from_bytes(result.sent_bytes).ip.ttl == 64

    def test_equal_to_eager_after_retransmissions(self, batched):
        world = build_linear_world(device=make_profile_device(KZ_STATE))
        conn = self._connect(world, batched)
        payload = HTTPRequest.normal(BLOCKED_DOMAIN).build()
        result = conn.send_payload(payload, retries=2, retry_wait=1.0)
        assert result.timed_out and result.retries_used == 2
        assert result.sent_bytes == _expected_bytes(conn, payload, result.sent, 64)

    def test_full_ttl_probe_serializes_only_when_read(self, batched, encodes):
        world = build_linear_world()
        conn = self._connect(world, batched)
        result = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build())
        assert result.received
        assert encodes["n"] == 0
        wire = result.sent_bytes
        assert encodes["n"] == 1
        assert result.sent_bytes is wire
        assert encodes["n"] == 1

    def test_limited_ttl_probe_serializes_up_front(self, batched, encodes):
        world = build_linear_world()
        conn = self._connect(world, batched)
        payload = HTTPRequest.normal(OK_DOMAIN).build()
        result = conn.send_payload(payload, ttl=2)
        assert [p.is_icmp for p in result.received] == [True]
        before = encodes["n"]
        assert result.sent_bytes == _expected_bytes(conn, payload, result.sent, 2)
        # Read back without a second serialization of the probe (the
        # expected copy above is the one extra encode).
        assert encodes["n"] == before + 1
