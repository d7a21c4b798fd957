"""Measuring residual censorship (the stateful behaviour of §4.1).

CenTrace and CenFuzz both pace probes 120 seconds apart because "some
stateful censorship devices track packets across the same flow, and
react differently once the state has been changed" — the Quack-style
residual censorship where one trigger poisons the (client, server[,
port]) tuple for a while.

:class:`ResidualProbe` measures that behaviour directly:

1. trigger the device once with the censored domain;
2. immediately re-probe with the *control* domain — if that is now
   interfered with, the device is stateful;
3. binary-search the punishment duration by re-triggering and waiting
   increasing intervals until the control domain works again;
4. check whether a different destination port is also punished
   (3-tuple vs host-pair scope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...netmodel import tcp as tcpmod
from ...netmodel.http import HTTPRequest
from ...netsim.simulator import Simulator
from ...netsim.tcpstack import open_connection
from ...netsim.topology import Client

SCOPE_NONE = "stateless"
SCOPE_3TUPLE = "3-tuple"
SCOPE_HOSTS = "host-pair"


@dataclass
class ResidualMeasurement:
    """What the probe learned about one device's state tracking."""

    endpoint_ip: str
    test_domain: str
    stateful: bool = False
    scope: str = SCOPE_NONE
    duration_bounds: Optional[tuple] = None  # (low, high) seconds
    probes_used: int = 0

    def summary(self) -> str:
        if not self.stateful:
            return "stateless: control traffic unaffected after a trigger"
        low, high = self.duration_bounds or (None, None)
        return (
            f"stateful ({self.scope}); punishment lasts between"
            f" {low:.0f}s and {high:.0f}s"
        )


class ResidualProbe:
    """Measures residual censorship against one endpoint's path."""

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        *,
        control_domain: str = "www.example.com",
        max_duration: float = 600.0,
    ) -> None:
        self.sim = sim
        self.client = client
        self.engine = sim.batch_engine()
        self.control_domain = control_domain
        self.max_duration = max_duration
        self.probes_used = 0

    # -- primitives ---------------------------------------------------------

    def _request_ok(self, endpoint_ip: str, domain: str, port: int = 80) -> bool:
        """True when a request for ``domain`` gets application data back."""
        self.probes_used += 1
        conn = open_connection(
            self.sim, self.client, endpoint_ip, port, retries=1,
            engine=self.engine,
        )
        if conn is None:
            return False
        result = conn.send_payload(HTTPRequest.normal(domain).build(), retries=1)
        conn.close()
        for packet in result.received:
            if packet.is_tcp and packet.tcp.flags & tcpmod.RST:
                return False
            if packet.is_tcp and packet.tcp.payload:
                return True
        return False

    def _trigger(self, endpoint_ip: str, domain: str) -> None:
        self.probes_used += 1
        conn = open_connection(
            self.sim, self.client, endpoint_ip, 80, retries=1,
            engine=self.engine,
        )
        if conn is not None:
            conn.send_payload(HTTPRequest.normal(domain).build())
            conn.close()

    # -- measurement -----------------------------------------------------------

    def measure(self, endpoint_ip: str, test_domain: str) -> ResidualMeasurement:
        measurement = ResidualMeasurement(
            endpoint_ip=endpoint_ip, test_domain=test_domain
        )
        # Settle any prior state, verify the control baseline.
        self.sim.advance(self.max_duration)
        if not self._request_ok(endpoint_ip, self.control_domain):
            measurement.scope = "control-unreachable"
            measurement.probes_used = self.probes_used
            return measurement

        # 1-2: trigger, then immediately try the control domain.
        self._trigger(endpoint_ip, test_domain)
        self.sim.advance(0.5)
        if self._request_ok(endpoint_ip, self.control_domain):
            measurement.probes_used = self.probes_used
            return measurement  # stateless
        measurement.stateful = True

        # 3: bracket the punishment duration by doubling waits.
        low, high = 0.5, None
        wait = 4.0
        while wait <= self.max_duration:
            self.sim.advance(self.max_duration)  # clean slate
            self._trigger(endpoint_ip, test_domain)
            self.sim.advance(wait)
            if self._request_ok(endpoint_ip, self.control_domain):
                high = wait
                break
            low = wait
            wait *= 2
        if high is None:
            high = self.max_duration
        # Narrow with a few bisection steps.
        for _ in range(4):
            middle = (low + high) / 2
            self.sim.advance(self.max_duration)
            self._trigger(endpoint_ip, test_domain)
            self.sim.advance(middle)
            if self._request_ok(endpoint_ip, self.control_domain):
                high = middle
            else:
                low = middle
        measurement.duration_bounds = (low, high)

        # 4: scope — does a different destination port also suffer?
        self.sim.advance(self.max_duration)
        self._trigger(endpoint_ip, test_domain)
        self.sim.advance(0.5)
        other_port_ok = self._request_ok(endpoint_ip, self.control_domain, port=443)
        measurement.scope = SCOPE_3TUPLE if other_port_ok else SCOPE_HOSTS
        self.sim.advance(self.max_duration)
        measurement.probes_used = self.probes_used
        return measurement
