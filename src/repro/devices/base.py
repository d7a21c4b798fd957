"""The censorship device: rules × parser quirks × action × state.

A :class:`CensorshipDevice` is a :class:`~repro.netsim.interfaces.LinkDevice`
attached to a link in a path. On every forward packet it:

1. applies residual censorship if the flow's tuple is still punished;
2. ignores packets without an application payload (handshakes pass;
   :meth:`~CensorshipDevice.passes_control` answers for them without a
   packet);
3. runs its vendor-specific HTTP/TLS parsing engine (``quirks``) over
   the payload to extract a hostname/SNI — a parse failure means the
   probe *evaded* inspection. Each distinct payload is parsed and
   matched once per work unit; repeats reuse the cached outcome;
4. matches the extracted hostname against its blocklist; on a match it
   executes its configured action (drop / RST / FIN / blockpage) and
   starts the residual timer.

``in_path`` controls whether drops take effect (§4.1: on-path devices
only see a copy and can inject but not drop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..netmodel.http import looks_like_http_request
from ..netmodel.ip import FlowKey
from ..netmodel.packet import Packet
from ..netmodel.tls import looks_like_client_hello
from ..netsim.interfaces import (
    DIRECTION_FORWARD,
    InspectionContext,
    LinkDevice,
    Verdict,
)
from .actions import (
    KIND_DROP,
    BlockAction,
    DNSBlockAction,
    build_dns_injections,
    build_injections,
)
from .quirks import (
    ParserQuirks,
    extract_dns_qname,
    extract_http_host,
    extract_tls_sni,
    path_matches,
)
from .rules import PROTO_DNS, PROTO_HTTP, PROTO_TLS, Blocklist, BlockRule
from .state import (
    RESIDUAL_OFF,
    FlowInjectionCounter,
    ResidualTracker,
)

# What one engine makes of one TCP payload: (evaded, protocol, rule).
_Outcome = Tuple[bool, Optional[str], Optional[BlockRule]]


@dataclass
class DeviceStats:
    """Ground-truth counters (for tests and world validation only)."""

    inspected: int = 0
    triggered: int = 0
    residual_hits: int = 0
    evaded: int = 0


class CensorshipDevice(LinkDevice):
    """A configurable censorship middlebox."""

    def __init__(
        self,
        name: str,
        *,
        blocklist: Blocklist,
        quirks: ParserQuirks = ParserQuirks(),
        action: BlockAction = BlockAction(),
        action_tls: Optional[BlockAction] = None,
        action_dns: Optional[DNSBlockAction] = None,
        in_path: bool = True,
        vendor: Optional[str] = None,
        residual_mode: str = RESIDUAL_OFF,
        residual_duration: float = 90.0,
        injection_limit: Optional[int] = None,
        bidirectional: bool = True,
    ) -> None:
        self.name = name
        self.blocklist = blocklist
        self.quirks = quirks
        self.action = action
        # TLS blocking cannot inject a blockpage into an encrypted
        # stream; vendors typically RST or drop instead (§5.3).
        self.action_tls = action_tls if action_tls is not None else action
        # Devices without a DNS action ignore DNS entirely (the common
        # case; DNS injection is the §8 extension).
        self.action_dns = action_dns
        self.in_path = in_path
        self.vendor = vendor  # ground truth; measurement code must not read
        self.bidirectional = bidirectional
        self.residual = ResidualTracker(mode=residual_mode, duration=residual_duration)
        self.injections = FlowInjectionCounter(limit=injection_limit)
        self.stats = DeviceStats()
        # payload bytes -> _classify(payload), valid for the quirks and
        # blocklist recorded beside it (both frozen: only rebinding
        # changes them). reset_state() empties it once per work unit,
        # which bounds it by one unit's payloads.
        self._parsed: Dict[bytes, _Outcome] = {}
        self._parsed_quirks = quirks
        self._parsed_blocklist = blocklist
        # note -> the one drop verdict carrying it. Verdicts are frozen
        # and ``name``/``in_path`` are fixed at construction, so the
        # entries stay valid for the device's life (bounded by its
        # blocklist: one note per rule, plus "residual").
        self._drop_verdicts: Dict[str, Verdict] = {}

    # ------------------------------------------------------------------

    def reset_state(self) -> None:
        """Forget all per-flow state (residual timers, injection counts)
        and every cached payload parse.

        Ground-truth ``stats`` counters keep accumulating: they never
        influence measurement results, only tests and world validation.
        """
        self.residual.clear()
        self.injections.clear()
        self._parsed.clear()

    # ------------------------------------------------------------------

    def inspect(self, packet: Packet, ctx: InspectionContext) -> Verdict:
        if packet.injected:
            return Verdict.pass_through()
        tcp = packet.tcp
        if tcp is None:
            if packet.udp is not None:
                return self._inspect_dns(packet, ctx)
            return Verdict.pass_through()
        if ctx.direction != DIRECTION_FORWARD and not self.bidirectional:
            return Verdict.pass_through()
        # Residual censorship applies to *every* packet of a punished
        # tuple, including fresh SYNs for the control domain.
        flow = None
        if self.residual.holds_entries():
            flow = packet.flow_key()
            if self.residual.is_punished(flow, ctx.clock):
                self.stats.residual_hits += 1
                return self._execute(packet, ctx, "residual", flow)
        payload = tcp.payload
        if not payload:
            return Verdict.pass_through()
        self.stats.inspected += 1
        if (
            self._parsed_quirks is not self.quirks
            or self._parsed_blocklist is not self.blocklist
        ):
            self._parsed.clear()
            self._parsed_quirks = self.quirks
            self._parsed_blocklist = self.blocklist
        outcome = self._parsed.get(payload)
        if outcome is None:
            outcome = self._parsed[payload] = self._classify(payload)
        evaded, protocol, rule = outcome
        if rule is None:
            if evaded:
                self.stats.evaded += 1
            return Verdict.pass_through()
        self.stats.triggered += 1
        if flow is None:
            flow = packet.flow_key()
        self.residual.punish(flow, ctx.clock)
        action = self.action_tls if protocol == PROTO_TLS else self.action
        return self._execute(
            packet, ctx, f"triggered:{rule.domain}", flow, action=action
        )

    def passes_control(self, flow: FlowKey, clock: float) -> bool:
        # A payload-less client segment meets only the residual check in
        # inspect(): it passes unless its tuple is still punished.
        return not self.residual.punishes(flow, clock)

    def _classify(self, payload: bytes) -> _Outcome:
        """``(evaded, protocol, rule)``: this engine's reading of a TCP
        payload.

        ``rule`` is the blocklist rule the payload triggers, or None.
        ``evaded`` is True when the engine could not extract a hostname,
        or the request path falls outside a URL-scoped rule. The result
        depends only on the payload, ``quirks`` and ``blocklist``.
        """
        hostname = None
        path = None
        protocol = None
        if looks_like_client_hello(payload):
            protocol = PROTO_TLS
            hostname = extract_tls_sni(payload, self.quirks)
        elif looks_like_http_request(payload) or b"\r\n" in payload or b"\n" in payload:
            protocol = PROTO_HTTP
            hostname, path = extract_http_host(payload, self.quirks)
        if hostname is None or protocol is None:
            return True, protocol, None
        rule = self.blocklist.match(hostname, protocol)
        if rule is None:
            return False, protocol, None
        if protocol == PROTO_HTTP and not path_matches(path, rule.paths, self.quirks):
            return True, protocol, None
        return False, protocol, rule

    # ------------------------------------------------------------------

    def _inspect_dns(self, packet: Packet, ctx: InspectionContext) -> Verdict:
        """DNS-injection handling (the §8 extension)."""
        if self.action_dns is None or packet.udp.dport != 53:
            return Verdict.pass_through()
        payload = packet.udp.payload
        if not payload:
            return Verdict.pass_through()
        self.stats.inspected += 1
        qname = extract_dns_qname(payload, self.quirks)
        if qname is None:
            self.stats.evaded += 1
            return Verdict.pass_through()
        rule = self.blocklist.match(qname, PROTO_DNS)
        if rule is None:
            return Verdict.pass_through()
        self.stats.triggered += 1
        to_client = build_dns_injections(
            self.action_dns, packet, ctx.remaining_ttl, self.name, net=ctx.net
        )
        return Verdict(
            drop=self.in_path and self.action_dns.drop_query,
            inject_to_client=tuple(to_client),
            note=f"{self.name}:dns:{rule.domain}",
        )

    def _execute(
        self,
        packet: Packet,
        ctx: InspectionContext,
        note: str,
        flow: FlowKey,
        action: Optional[BlockAction] = None,
    ) -> Verdict:
        if action is None:
            action = self.action
        if action.kind == KIND_DROP:
            verdict = self._drop_verdicts.get(note)
            if verdict is None:
                verdict = self._drop_verdicts[note] = Verdict(
                    drop=self.in_path, note=f"{self.name}:{note}"
                )
            return verdict
        note = f"{self.name}:{note}"
        drop = self.in_path and action.drop_original
        if not packet.tcp.payload:
            # Residual handling of handshake packets: injecting devices
            # reset them; the client sees the connection refused.
            to_client, _ = build_injections(
                action, packet, ctx.remaining_ttl, self.name, net=ctx.net
            )
            return Verdict(drop=drop, inject_to_client=tuple(to_client), note=note)
        if not self.injections.may_inject(flow):
            return Verdict(drop=drop, note=note)
        to_client, to_server = build_injections(
            action, packet, ctx.remaining_ttl, self.name, net=ctx.net
        )
        self.injections.record(flow)
        return Verdict(
            drop=drop,
            inject_to_client=tuple(to_client),
            inject_to_server=tuple(to_server),
            note=note,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CensorshipDevice {self.name} vendor={self.vendor}"
            f" action={self.action.kind} in_path={self.in_path}>"
        )
