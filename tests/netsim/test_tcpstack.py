"""Client TCP connection emulation: handshakes, probes, ports."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import ENDPOINT_IP, OK_DOMAIN, build_linear_world

from repro.netmodel.http import HTTPRequest
from repro.netmodel.netctx import NetContext
from repro.netsim.tcpstack import Connection, open_connection


class TestPorts:
    def test_ephemeral_ports_unique_in_sequence(self):
        net = NetContext()
        ports = {net.next_ephemeral_port() for _ in range(100)}
        assert len(ports) == 100

    def test_ephemeral_ports_in_range(self):
        net = NetContext()
        for _ in range(50):
            port = net.next_ephemeral_port()
            assert 32768 <= port < 65536


class TestConnection:
    def test_handshake_succeeds(self, linear_world):
        conn = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        assert conn is not None and conn.established

    def test_handshake_to_closed_port_fails(self, linear_world):
        assert (
            open_connection(
                linear_world.sim, linear_world.client, ENDPOINT_IP, 31337, retries=0
            )
            is None
        )

    def test_send_before_connect_raises(self, linear_world):
        conn = Connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        with pytest.raises(RuntimeError):
            conn.send_payload(b"x")

    def test_probe_result_carries_sent_bytes(self, linear_world):
        conn = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        result = conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=2)
        assert result.sent_bytes.startswith(b"\x45")  # IPv4, IHL 5
        assert result.timed_out is (len(result.received) == 0)

    def test_distinct_connections_use_distinct_ports(self, linear_world):
        a = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        b = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        assert a.sport != b.sport

    def test_explicit_source_port_honoured(self, linear_world):
        conn = open_connection(
            linear_world.sim, linear_world.client, ENDPOINT_IP, 80, sport=45000
        )
        assert conn.sport == 45000

    def test_retries_ride_out_loss(self):
        # loss_rate applies per hop crossing, so 5% per hop is already a
        # very lossy path end to end.
        world = build_linear_world(loss_rate=0.05, seed=11)
        successes = 0
        for _ in range(10):
            conn = open_connection(world.sim, world.client, ENDPOINT_IP, 80, retries=4)
            if conn is not None:
                successes += 1
        assert successes >= 8

    def test_close_is_idempotent(self, linear_world):
        conn = open_connection(linear_world.sim, linear_world.client, ENDPOINT_IP, 80)
        conn.close()
        conn.close()  # no error
        assert not conn.established
