"""CenTrace: the censorship traceroute (§4).

For each (endpoint, test domain, protocol) CenTrace:

1. runs repeated Control-Domain TTL sweeps to map the path and its
   variance (each probe is a fresh TCP connection with a fresh source
   port, so ECMP may move hops around — §4.1);
2. runs repeated Test-Domain sweeps the same way;
3. classifies the terminating response of each sweep (TCP from the
   endpoint address, a timeout streak, or an injected blockpage) and
4. aggregates the repetitions into one :class:`CenTraceResult` with the
   blocking hop attributed via the Control-Domain path (see
   ``classify.py``).

Probe pacing follows the paper: 120 (virtual) seconds after any sign of
blocking — enough for residual censorship to expire — and a short pause
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

from ...geo.asdb import ASDatabase
from ...netmodel import tcp as tcpmod
from ...netmodel.dns import query
from ...netmodel.http import HTTPRequest
from ...netmodel.packet import Packet, udp_packet
from ...netmodel.tls import ClientHello
from ...netsim.simulator import Simulator
from ...netsim.tcpstack import open_connection
from ...netsim.topology import Client
from ...telemetry_registry import (
    CENTRACE_BLOCKED,
    CENTRACE_DEGRADED_MEASUREMENTS,
    CENTRACE_DEGRADED_SWEEPS,
    CENTRACE_HANDSHAKE_FAILURES,
    CENTRACE_HOPS_RATE_LIMITED,
    CENTRACE_MEASUREMENTS,
    CENTRACE_PROBES,
    CENTRACE_PROBE_RETRIES,
    CENTRACE_SWEEPS,
    EVENT_CENTRACE_BLOCKED,
    SPAN_CENTRACE_SWEEP,
)
from ..blockpages import DEFAULT_MATCHER, BlockpageMatcher
from .classify import classify_measurement
from .results import (
    PROTO_DNS,
    PROTO_HTTP,
    PROTO_TLS,
    ProbeObservation,
    ResponseSummary,
    TraceSweep,
    TYPE_FIN,
    TYPE_HTTP,
    TYPE_NORMAL,
    TYPE_RST,
    TYPE_TIMEOUT,
)


@dataclass
class CenTraceConfig:
    """Tunables for a CenTrace run.

    ``repetitions`` defaults to 3 for tractable simulation; the paper
    uses 11 (derived from its path-variance calibration, §4.1), which
    remains available for full-fidelity runs.
    """

    repetitions: int = 3
    max_ttl: int = 30
    probe_retries: int = 2  # paper: retry up to three times total
    retry_base_wait: float = 1.0  # virtual seconds before the first retry
    retry_backoff: float = 2.0  # exponential growth per further retry
    timeout_streak_stop: int = 4  # consecutive timeouts before giving up
    wait_after_block: float = 120.0  # §4.1 / §6.2
    wait_normal: float = 3.0
    http_port: int = 80
    tls_port: int = 443
    extra_probes_past_terminating: int = 2

    def __post_init__(self) -> None:
        # A run with no repetitions or TTLs sends nothing and would
        # classify every endpoint as reachable and unblocked.
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.max_ttl < 1:
            raise ValueError(f"max_ttl must be >= 1, got {self.max_ttl}")
        if self.probe_retries < 0:
            raise ValueError(
                f"probe_retries must be >= 0, got {self.probe_retries}"
            )


@lru_cache(maxsize=1024)
def build_probe_payload(domain: str, protocol: str) -> bytes:
    """The application payload CenTrace sends: GET, ClientHello or a
    DNS query (the §8 DNS extension).

    Cached per (domain, protocol): every builder is deterministic (the
    ClientHello "random" is seeded from the SNI) and a campaign sweeps
    the same payload thousands of times across TTLs and repetitions.
    """
    if protocol == PROTO_HTTP:
        return HTTPRequest.normal(domain).build()
    if protocol == PROTO_TLS:
        return ClientHello.normal(domain).build()
    if protocol == PROTO_DNS:
        return query(domain).to_bytes()
    raise ValueError(f"unknown protocol: {protocol!r}")


def _summarize(packet: Packet) -> ResponseSummary:
    # Positional, in ResponseSummary's field order: kind, src_ip,
    # arrival_ttl, tcp_flags, payload, quote, ip_id, ip_tos, ip_flags,
    # tcp_window, tcp_options.
    ip = packet.ip
    if packet.icmp is not None:
        return ResponseSummary("icmp", ip.src, ip.ttl, 0, b"", packet.icmp.quote)
    if packet.udp is not None:
        return ResponseSummary(
            "udp",
            ip.src,
            ip.ttl,
            0,
            packet.udp.payload,
            b"",
            ip.identification,
            ip.tos,
            ip.flags,
        )
    segment = packet.tcp
    return ResponseSummary(
        "tcp",
        ip.src,
        ip.ttl,
        segment.flags,
        segment.payload,
        b"",
        ip.identification,
        ip.tos,
        ip.flags,
        segment.window,
        segment.option_kinds(),
    )


class CenTrace:
    """Runs censorship traceroutes from one client through a simulator."""

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        asdb: Optional[ASDatabase] = None,
        config: Optional[CenTraceConfig] = None,
        blockpage_matcher: Optional[BlockpageMatcher] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.asdb = asdb
        self.config = config or CenTraceConfig()
        self.matcher = blockpage_matcher or DEFAULT_MATCHER
        # All probe traffic goes through the batched packet plane.
        self.engine = sim.batch_engine()

    # -- public API -------------------------------------------------------

    def measure(
        self,
        endpoint_ip: str,
        test_domain: str,
        protocol: str = PROTO_HTTP,
        control_domain: str = "www.example.com",
    ):
        """One full CenTrace measurement: control + test sweeps, classified."""
        cfg = self.config
        control_sweeps = [
            self.sweep(endpoint_ip, control_domain, protocol)
            for _ in range(cfg.repetitions)
        ]
        test_sweeps = [
            self.sweep(endpoint_ip, test_domain, protocol)
            for _ in range(cfg.repetitions)
        ]
        result = classify_measurement(
            endpoint_ip=endpoint_ip,
            test_domain=test_domain,
            protocol=protocol,
            control_sweeps=control_sweeps,
            test_sweeps=test_sweeps,
            asdb=self.asdb,
            matcher=self.matcher,
        )
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count(CENTRACE_MEASUREMENTS)
            if result.blocked:
                tel.count(CENTRACE_BLOCKED)
                tel.event(
                    EVENT_CENTRACE_BLOCKED,
                    endpoint=endpoint_ip,
                    domain=test_domain,
                    protocol=protocol,
                    type=result.blocking_type,
                    ttl=result.terminating_ttl,
                )
            if result.degraded:
                tel.count(CENTRACE_DEGRADED_MEASUREMENTS)
        return result

    # -- sweeps -----------------------------------------------------------

    def sweep(self, endpoint_ip: str, domain: str, protocol: str) -> TraceSweep:
        """One TTL sweep: probe with TTL 1, 2, ... classifying as we go."""
        cfg = self.config
        if protocol == PROTO_HTTP:
            port = cfg.http_port
        elif protocol == PROTO_DNS:
            port = 53
        else:
            port = cfg.tls_port
        payload = build_probe_payload(domain, protocol)
        sweep = TraceSweep(domain=domain, protocol=protocol)
        timeout_streak = 0
        streak_start_ttl = 0
        past_terminating = 0
        with self.sim.telemetry.span(SPAN_CENTRACE_SWEEP, sim=self.sim), \
                self.engine.batch("centrace.sweep"):
            for ttl in range(1, cfg.max_ttl + 1):
                if protocol == PROTO_DNS:
                    probe = self._probe_dns(endpoint_ip, domain, ttl)
                else:
                    probe = self._probe(endpoint_ip, port, payload, ttl)
                sweep.probes.append(probe)
                # Pace the next probe: long wait whenever this one may
                # have tripped a stateful device.
                suspicious = (
                    probe.handshake_failed
                    or probe.timed_out
                    or any(
                        r.kind == "tcp" and (r.tcp_flags & tcpmod.RST)
                        for r in probe.responses
                    )
                    or self._has_terminating(probe, endpoint_ip)
                )
                self.sim.advance(
                    cfg.wait_after_block if suspicious else cfg.wait_normal
                )
                if probe.timed_out or probe.handshake_failed:
                    if timeout_streak == 0:
                        streak_start_ttl = ttl
                    timeout_streak += 1
                    # TTL-copying injectors (§4.3) only get a forged RST
                    # back to us once the probe TTL reaches ~2x the
                    # device distance, so a timeout streak starting at
                    # TTL s must be probed out to at least 2s+1 before
                    # concluding the device simply drops.
                    if (
                        timeout_streak >= cfg.timeout_streak_stop
                        and ttl >= 2 * streak_start_ttl + 1
                    ):
                        break
                    continue
                timeout_streak = 0
                terminating = self._terminating_response(probe, endpoint_ip)
                if terminating is not None and not probe.icmp_responses():
                    # "Only a terminating response" (§4.1): stop, with a
                    # couple of confirmation probes to detect TTL-copying
                    # injectors whose responses keep shifting.
                    past_terminating += 1
                    if past_terminating > cfg.extra_probes_past_terminating:
                        break
            self._finalize_sweep(sweep, endpoint_ip)
        return sweep

    def _probe(
        self, endpoint_ip: str, port: int, payload: bytes, ttl: int
    ) -> ProbeObservation:
        """One TTL-limited probe over a fresh TCP connection."""
        conn = open_connection(
            self.sim, self.client, endpoint_ip, port, engine=self.engine
        )
        if conn is None:
            # Likely residual censorship from the previous probe: wait
            # it out once and retry before recording a failure.
            self.sim.advance(self.config.wait_after_block)
            conn = open_connection(
                self.sim, self.client, endpoint_ip, port, engine=self.engine
            )
            if conn is None:
                return ProbeObservation(ttl=ttl, handshake_failed=True)
        result = conn.send_payload(
            payload,
            ttl=ttl,
            retries=self.config.probe_retries,
            retry_wait=self.config.retry_base_wait,
            retry_backoff=self.config.retry_backoff,
        )
        conn.close()
        # Positional: ttl, sent_bytes, responses, handshake_failed,
        # retries_used.
        return ProbeObservation(
            ttl,
            result.sent_bytes,
            [_summarize(p) for p in result.received],
            False,
            result.retries_used,
        )

    def _probe_dns(
        self, endpoint_ip: str, domain: str, ttl: int
    ) -> ProbeObservation:
        """A TTL-limited UDP DNS query (no handshake; §8 extension).

        Each retry is a *new* query — fresh source port, fresh IP ID,
        fresh DNS transaction ID — paced by exponential backoff, the
        way a real resolver retransmits. Reusing the identical packet
        would make retries indistinguishable from the original on the
        wire and defeat loss modeling.
        """
        cfg = self.config
        received = []
        sent_bytes = b""
        retries_used = 0
        wait = cfg.retry_base_wait
        net = self.sim.net_context
        for attempt in range(cfg.probe_retries + 1):
            sport = net.next_ephemeral_port()
            payload = query(domain, txid=(sport * 7919) & 0xFFFF).to_bytes()
            packet = udp_packet(
                self.client.ip,
                endpoint_ip,
                sport,
                53,
                payload=payload,
                ttl=ttl,
                net=net,
            )
            sent_bytes = packet.to_bytes()
            retries_used = attempt
            received = self.engine.send(packet, wire_bytes=sent_bytes)
            if received:
                break
            if attempt < cfg.probe_retries and wait > 0:
                self.sim.advance(wait)
                wait *= cfg.retry_backoff
        return ProbeObservation(
            ttl,
            sent_bytes,
            [_summarize(p) for p in received],
            retries_used=retries_used,
        )

    # -- terminating-response logic ----------------------------------------

    @staticmethod
    def _has_terminating(probe: ProbeObservation, endpoint_ip: str) -> bool:
        return any(
            r.kind in ("tcp", "udp") and r.src_ip == endpoint_ip
            for r in probe.responses
        )

    @staticmethod
    def _terminating_response(
        probe: ProbeObservation, endpoint_ip: str
    ) -> Optional[ResponseSummary]:
        """The endpoint-addressed transport response of this probe.

        Payload-carrying responses win over bare RST/FIN so blockpage
        injections are classified as HTTP, not as the FIN that follows.
        """
        udp = [
            r
            for r in probe.responses
            if r.kind == "udp" and r.src_ip == endpoint_ip
        ]
        if udp:
            return udp[0]
        tcp = [
            r
            for r in probe.responses
            if r.kind == "tcp" and r.src_ip == endpoint_ip
        ]
        if not tcp:
            return None
        with_payload = [r for r in tcp if r.payload]
        if with_payload:
            return with_payload[0]
        rst = [r for r in tcp if r.tcp_flags & tcpmod.RST]
        if rst:
            return rst[0]
        return tcp[0]

    def _finalize_sweep(self, sweep: TraceSweep, endpoint_ip: str) -> None:
        """Determine the sweep's terminating TTL and response type.

        A probe's response terminates the sweep when it is TCP traffic
        from the endpoint address. Timeouts terminate only when every
        subsequent probe also timed out (§4.1, "Accounting for packet
        drops").

        Also tallies the sweep's degradation counters: probes that
        needed retransmission, and silent hops strictly below the last
        responding TTL (ICMP-rate-limited or lossy routers mid-path).
        """
        sweep.probes_retried = sum(
            1 for probe in sweep.probes if probe.retries_used > 0
        )
        responding = [
            probe.ttl
            for probe in sweep.probes
            if not (probe.timed_out or probe.handshake_failed)
        ]
        last_responding = max(responding) if responding else 0
        sweep.hops_rate_limited = sum(
            1
            for probe in sweep.probes
            if (probe.timed_out or probe.handshake_failed)
            and probe.ttl < last_responding
        )
        sweep.degraded = bool(sweep.probes_retried or sweep.hops_rate_limited)
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count(CENTRACE_SWEEPS)
            tel.count(CENTRACE_PROBES, len(sweep.probes))
            tel.count(
                CENTRACE_PROBE_RETRIES,
                sum(probe.retries_used for probe in sweep.probes),
            )
            handshake_failures = sum(
                1 for probe in sweep.probes if probe.handshake_failed
            )
            if handshake_failures:
                tel.count(CENTRACE_HANDSHAKE_FAILURES, handshake_failures)
            if sweep.hops_rate_limited:
                tel.count(CENTRACE_HOPS_RATE_LIMITED, sweep.hops_rate_limited)
            if sweep.degraded:
                tel.count(CENTRACE_DEGRADED_SWEEPS)
        first_terminating: Optional[ProbeObservation] = None
        for probe in sweep.probes:
            if self._terminating_response(probe, endpoint_ip) is not None:
                first_terminating = probe
                break
        if first_terminating is not None:
            response = self._terminating_response(first_terminating, endpoint_ip)
            sweep.terminating_ttl = first_terminating.ttl
            sweep.terminating_response = response
            sweep.terminating_type = self._response_type(response)
            return
        # No endpoint traffic at all: find the trailing timeout streak.
        streak_start: Optional[int] = None
        for probe in sweep.probes:
            if probe.timed_out or probe.handshake_failed:
                if streak_start is None:
                    streak_start = probe.ttl
            else:
                streak_start = None
        if streak_start is not None:
            sweep.terminating_ttl = streak_start
            sweep.terminating_type = TYPE_TIMEOUT
        else:
            sweep.terminating_type = TYPE_NORMAL

    def _response_type(self, response: ResponseSummary) -> str:
        if response.kind == "udp":
            # A DNS answer is "normal" at the transport level; whether
            # it was injected is decided against the control distance
            # during classification (see classify.py).
            return TYPE_NORMAL
        if response.payload:
            if self.matcher.match_payload(response.payload) is not None:
                return TYPE_HTTP
            return TYPE_NORMAL
        if response.tcp_flags & tcpmod.RST:
            return TYPE_RST
        if response.tcp_flags & tcpmod.FIN:
            return TYPE_FIN
        return TYPE_NORMAL
