"""The reference walk's pcap-like capture log (``tests/oracle``)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
    make_profile_device,
)

from repro.devices.vendors import KZ_STATE
from repro.netmodel.http import HTTPRequest
from repro.netsim.tcpstack import open_connection

from ..oracle.scalar import ScalarEngine


def _connect(device=None, capture=True):
    """A connection over the capturing oracle on a linear world."""
    world = build_linear_world(device=device, device_link=2)
    oracle = ScalarEngine(world.sim, capture=capture)
    conn = open_connection(
        world.sim, world.client, ENDPOINT_IP, 80, engine=oracle
    )
    return conn, oracle


class TestCapture:
    def test_disabled_by_default(self):
        conn, oracle = _connect(capture=False)
        conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=2)
        assert oracle.capture == []

    def test_records_expiry_and_arrival(self):
        conn, oracle = _connect()
        conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=2)
        events = {record.event for record in oracle.capture}
        assert "ttl-expired" in events
        assert "arrived" in events

    def test_records_delivery_to_endpoint(self):
        conn, oracle = _connect()
        conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=64)
        deliveries = [r for r in oracle.capture if r.event == "delivered"]
        assert deliveries
        assert deliveries[0].location == "endpoint"

    def test_records_device_actions_with_note(self):
        conn, oracle = _connect(device=make_profile_device(KZ_STATE))
        conn.send_payload(HTTPRequest.normal(BLOCKED_DOMAIN).build(), ttl=64)
        actions = [r for r in oracle.capture if r.event == "device"]
        assert actions
        assert "triggered:" in actions[0].detail

    def test_clock_stamps_monotonic(self):
        conn, oracle = _connect()
        for ttl in (1, 2, 3):
            conn.send_payload(HTTPRequest.normal(OK_DOMAIN).build(), ttl=ttl)
        stamps = [record.clock for record in oracle.capture]
        assert stamps == sorted(stamps)
