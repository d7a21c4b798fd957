"""CenFuzz measurement runner (§6.2).

For each endpoint and protocol CenFuzz:

1. sends the *Normal* (unfuzzed) request for the Test Domain and for
   the Control Domain;
2. for every strategy permutation, sends the fuzzed request for both
   domains;
3. labels a permutation **successful** (evasion) when the Normal Test
   request is blocked but neither the fuzzed Test request nor the
   fuzzed Control request is, and **not successful** when the fuzzed
   Test request is still blocked while the fuzzed Control request is
   fine;
4. additionally labels **circumvention** when the fuzzed request also
   elicited the intended resource from the endpoint (§6.1, §6.3).

Blocking is judged by the same conservative definition as CenTrace:
repeated packet drops, connection resets/failures, or known blockpages.
Pacing follows §6.2: 120 virtual seconds after a blocked measurement,
3 seconds otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ...netmodel import tcp as tcpmod
from ...netmodel.http import HTTPResponse
from ...netsim.simulator import Simulator
from ...netsim.tcpstack import open_connection
from ...netsim.topology import Client
from ...services.webserver import TLS_SERVED_MARKER
from ..blockpages import DEFAULT_MATCHER, BlockpageMatcher
from .strategies import (
    PROTO_HTTP,
    Permutation,
    all_strategies,
    normal_permutation,
)

OUTCOME_TIMEOUT = "timeout"
OUTCOME_RST = "rst"
OUTCOME_BLOCKPAGE = "blockpage"
OUTCOME_HANDSHAKE_FAILED = "handshake_failed"
OUTCOME_RESPONSE = "response"  # endpoint answered (any app response)
OUTCOME_FIN = "fin"

BLOCKED_OUTCOMES = frozenset(
    {OUTCOME_TIMEOUT, OUTCOME_RST, OUTCOME_BLOCKPAGE, OUTCOME_HANDSHAKE_FAILED}
)


@dataclass
class FuzzProbeOutcome:
    """What one fuzzed request observed."""

    outcome: str
    status_code: Optional[int] = None
    served_vhost: Optional[str] = None  # resource actually delivered
    reprobed: bool = False  # an ambiguous timeout was probed again

    @property
    def blocked(self) -> bool:
        return self.outcome in BLOCKED_OUTCOMES

    def served(self, domain: str) -> bool:
        """Did the endpoint deliver content for ``domain``?"""
        if self.served_vhost is None:
            return False
        return self.served_vhost.lower() == domain.lower()


@dataclass
class PermutationResult:
    """The evaluation of one permutation against one endpoint.

    Persisted as a row of its :class:`EndpointFuzzReport`: the fields
    marked ``"persist": "parent"`` are the report's own and are not
    saved per row.
    """

    endpoint_ip: str = field(metadata={"persist": "parent"})
    test_domain: str = field(metadata={"persist": "parent"})
    strategy: str
    label: str
    protocol: str = field(metadata={"persist": "parent"})
    normal_blocked: bool = field(metadata={"persist": "parent"})
    successful: bool = False
    unsuccessful: bool = False
    circumvented: bool = False
    degraded: bool = False  # a re-probe disagreed with the first attempt
    test: FuzzProbeOutcome = field(kw_only=True)
    control: FuzzProbeOutcome = field(kw_only=True)


@dataclass
class EndpointFuzzReport:
    """All permutation results for one endpoint/protocol/domain."""

    endpoint_ip: str
    test_domain: str
    protocol: str
    normal_test: FuzzProbeOutcome = field(
        default_factory=lambda: FuzzProbeOutcome(OUTCOME_RESPONSE)
    )
    normal_control: FuzzProbeOutcome = field(
        default_factory=lambda: FuzzProbeOutcome(OUTCOME_RESPONSE)
    )
    degraded: bool = False  # any permutation needed a tie-breaking re-probe
    results: List[PermutationResult] = field(default_factory=list)

    @property
    def normal_blocked(self) -> bool:
        return self.normal_test.blocked and not self.normal_control.blocked

    def success_by_strategy(self) -> Dict[str, tuple]:
        """strategy -> (successful, evaluated) permutation counts."""
        counts: Dict[str, List[int]] = {}
        for result in self.results:
            entry = counts.setdefault(result.strategy, [0, 0])
            if result.successful or result.unsuccessful:
                entry[1] += 1
                if result.successful:
                    entry[0] += 1
        return {k: (v[0], v[1]) for k, v in counts.items()}


@dataclass
class CenFuzzConfig:
    """Tunables for a CenFuzz run."""

    probe_retries: int = 2
    wait_after_block: float = 120.0  # §6.2
    wait_normal: float = 3.0
    http_port: int = 80
    tls_port: int = 443


class CenFuzz:
    """Runs the deterministic fuzzing campaign from one client."""

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        config: Optional[CenFuzzConfig] = None,
        matcher: Optional[BlockpageMatcher] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.config = config or CenFuzzConfig()
        self.matcher = matcher or DEFAULT_MATCHER
        # Probe traffic rides the batched packet plane (scalar fallback
        # applies automatically while capture is on).
        self.engine = sim.batch_engine()
        self._strategies = all_strategies()
        # Built payload per (permutation, domain): permutation builders
        # are deterministic and every endpoint re-sends the same fuzzed
        # request for the same domains. (strategy, label, protocol) is
        # unique across all permutations.
        self._payload_cache: Dict[tuple, bytes] = {}

    def _payload(self, permutation: Permutation, domain: str) -> bytes:
        key = (
            permutation.strategy,
            permutation.label,
            permutation.protocol,
            domain,
        )
        payload = self._payload_cache.get(key)
        if payload is None:
            payload = permutation.payload(domain)
            self._payload_cache[key] = payload
        return payload

    # -- single request -----------------------------------------------------

    def probe(
        self, endpoint_ip: str, permutation: Permutation, domain: str
    ) -> FuzzProbeOutcome:
        """Send one fuzzed request; classify what happened."""
        cfg = self.config
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count("cenfuzz.probes")
        port = cfg.http_port if permutation.protocol == PROTO_HTTP else cfg.tls_port
        conn = open_connection(
            self.sim, self.client, endpoint_ip, port, engine=self.engine
        )
        if conn is None:
            self.sim.advance(cfg.wait_after_block)
            conn = open_connection(
                self.sim, self.client, endpoint_ip, port, engine=self.engine
            )
            if conn is None:
                if tel.enabled:
                    tel.count("cenfuzz.handshake_failures")
                    tel.count("cenfuzz.blocked_probes")
                return FuzzProbeOutcome(OUTCOME_HANDSHAKE_FAILED)
        payload = self._payload(permutation, domain)
        result = conn.send_payload(payload, retries=cfg.probe_retries)
        conn.close()
        outcome = self._classify(result.received)
        if tel.enabled and outcome.blocked:
            tel.count("cenfuzz.blocked_probes")
        self.sim.advance(
            cfg.wait_after_block if outcome.blocked else cfg.wait_normal
        )
        return outcome

    def _probe_confirmed(
        self,
        endpoint_ip: str,
        permutation: Permutation,
        domain: str,
        baseline: FuzzProbeOutcome,
    ) -> FuzzProbeOutcome:
        """Probe, re-probing ambiguous timeouts once before labeling.

        A timeout is *ambiguous* when the Normal baseline for the same
        domain did not time out: silence is then as likely packet loss
        as blocking. The tie-breaking probe's verdict wins; when the
        two attempts disagree, the outcome is marked ``reprobed`` so
        the permutation can be flagged degraded. (When the baseline
        itself timed out — e.g. a drop-device path — the timeout is
        expected and no extra probe is spent.)
        """
        outcome = self.probe(endpoint_ip, permutation, domain)
        if (
            outcome.outcome != OUTCOME_TIMEOUT
            or baseline.outcome == OUTCOME_TIMEOUT
        ):
            return outcome
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count("cenfuzz.reprobes")
        confirm = self.probe(endpoint_ip, permutation, domain)
        confirm.reprobed = True
        return confirm

    def _classify(self, received) -> FuzzProbeOutcome:
        """Classify received packets in arrival order.

        Order matters: an on-path injector's RST races the endpoint's
        legitimate response, and because the device sits closer the
        RST arrives first — the client's connection dies before any
        content lands (§4.1's on-path behaviour). A payload that
        arrives first wins instead.
        """
        if not received:
            return FuzzProbeOutcome(OUTCOME_TIMEOUT)
        for packet in received:
            if not packet.is_tcp:
                continue
            if packet.tcp.payload:
                return self._classify_payload(received)
            if packet.tcp.flags & tcpmod.RST:
                return FuzzProbeOutcome(OUTCOME_RST)
        fin = [p for p in received if p.is_tcp and p.tcp.flags & tcpmod.FIN]
        if fin:
            return FuzzProbeOutcome(OUTCOME_FIN)
        return FuzzProbeOutcome(OUTCOME_TIMEOUT)

    def _classify_payload(self, received) -> FuzzProbeOutcome:
        payloads = [p for p in received if p.is_tcp and p.tcp.payload]
        body = payloads[0].tcp.payload
        if self.matcher.match_payload(body) is not None:
            return FuzzProbeOutcome(OUTCOME_BLOCKPAGE)
        # TLS: ServerHello followed by the served-vhost marker.
        served = None
        for packet in payloads:
            if packet.tcp.payload.startswith(TLS_SERVED_MARKER):
                marker = packet.tcp.payload[len(TLS_SERVED_MARKER) :]
                served = marker.split(b":")[0].decode("ascii", "replace")
        if served is not None:
            return FuzzProbeOutcome(OUTCOME_RESPONSE, served_vhost=served)
        response = HTTPResponse.parse(body)
        if response is not None:
            served_vhost = None
            if response.status_code == 200:
                # The page body names the vhost that served it.
                for line in response.body.splitlines():
                    if "<title>" in line:
                        served_vhost = (
                            line.split("<title>")[1].split("</title>")[0]
                        )
                        break
            return FuzzProbeOutcome(
                OUTCOME_RESPONSE,
                status_code=response.status_code,
                served_vhost=served_vhost,
            )
        return FuzzProbeOutcome(OUTCOME_RESPONSE)

    # -- full campaign -------------------------------------------------------

    def run_endpoint(
        self,
        endpoint_ip: str,
        test_domain: str,
        protocol: str,
        control_domain: str = "www.example.com",
        strategies: Optional[Sequence[str]] = None,
    ) -> EndpointFuzzReport:
        """Fuzz one endpoint with every permutation of ``protocol``."""
        report = EndpointFuzzReport(
            endpoint_ip=endpoint_ip, test_domain=test_domain, protocol=protocol
        )
        with self.sim.telemetry.span("cenfuzz.endpoint", sim=self.sim), \
                self.engine.batch("cenfuzz.endpoint"):
            normal = normal_permutation(protocol)
            report.normal_test = self.probe(endpoint_ip, normal, test_domain)
            report.normal_control = self.probe(
                endpoint_ip, normal, control_domain
            )
            for strategy, permutations in sorted(self._strategies.items()):
                if permutations[0].protocol != protocol:
                    continue
                if strategies is not None and strategy not in strategies:
                    continue
                for permutation in permutations:
                    report.results.append(
                        self._evaluate(
                            report,
                            permutation,
                            endpoint_ip,
                            test_domain,
                            control_domain,
                        )
                    )
        report.degraded = any(r.degraded for r in report.results)
        tel = self.sim.telemetry
        if tel.enabled:
            evasions = sum(1 for r in report.results if r.successful)
            tel.count("cenfuzz.endpoints")
            tel.count("cenfuzz.permutations", len(report.results))
            tel.count("cenfuzz.evasions", evasions)
            if report.degraded:
                tel.count("cenfuzz.degraded_endpoints")
            tel.event(
                "cenfuzz.endpoint",
                endpoint=endpoint_ip,
                domain=test_domain,
                protocol=protocol,
                normal_blocked=report.normal_blocked,
                permutations=len(report.results),
                evasions=evasions,
            )
        return report

    def _evaluate(
        self,
        report: EndpointFuzzReport,
        permutation: Permutation,
        endpoint_ip: str,
        test_domain: str,
        control_domain: str,
    ) -> PermutationResult:
        control = self._probe_confirmed(
            endpoint_ip, permutation, control_domain, report.normal_control
        )
        test = self._probe_confirmed(
            endpoint_ip, permutation, test_domain, report.normal_test
        )
        result = PermutationResult(
            endpoint_ip=endpoint_ip,
            test_domain=test_domain,
            strategy=permutation.strategy,
            label=permutation.label,
            protocol=permutation.protocol,
            normal_blocked=report.normal_blocked,
            test=test,
            control=control,
        )
        # Degraded: a tie-breaking re-probe overturned the original
        # timeout verdict, i.e. the first attempt was loss, not policy.
        result.degraded = (
            test.reprobed and test.outcome != OUTCOME_TIMEOUT
        ) or (control.reprobed and control.outcome != OUTCOME_TIMEOUT)
        if report.normal_blocked and not control.blocked:
            if test.blocked:
                result.unsuccessful = True
            else:
                result.successful = True
                result.circumvented = test.served(test_domain)
        return result
