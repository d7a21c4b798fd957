"""The packet-walking network simulator.

The simulator is synchronous and deterministic: a client hands it a
packet, the packet walks the selected path hop by hop, and every packet
that makes it back to the client is returned in arrival order. Virtual
time only moves when someone advances the clock, so the 120-second
"stateful blocking" waits the paper's tools perform are free.

Mechanics reproduced from the paper (§4.1):

* TTL decrement at every router; expiry produces ICMP Time Exceeded
  with per-router quoting policy (RFC 792 vs RFC 1812) — or silence for
  routers that do not respond with ICMP errors.
* In-path devices inspect at line rate and may drop/inject; on-path
  devices see a copy and may only inject (their drops are ignored).
* Injected packets walk the reverse path with normal TTL decrementing,
  so TTL-copying injectors ("Past E" in Figure 3) behave exactly as
  described in §4.3.
* Routers may rewrite the IP TOS byte or IP flags in flight; the quoted
  packet in later ICMP errors then differs from what was sent (§4.3:
  32.06% of quotes show a TOS delta).
* Optional per-hop random loss exercises CenTrace's retry logic.

Every packet walk — the client's forward traffic, device forgeries
carried on to the server, and all return traffic — goes through **one**
transit engine (:meth:`Simulator._run_transit`). A :class:`Transit`
names the packet, the path, where on the path the packet enters, and a
:class:`TransitPolicy` whose bits declare the only semantic differences
between walk kinds (device inspection, ICMP on expiry, first-link loss,
router header transforms, endpoint delivery mode). Loss rolls, TTL
decrement, fault fates, capture and telemetry are therefore provably
shared: a divergence between directions has to be a declared policy
bit, not copy-paste drift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netmodel import tcp as tcpmod
from ..netmodel.icmp import time_exceeded
from ..netmodel.ip import FlowKey, IPHeader
from ..netmodel.netctx import NetContext, default_context
from ..netmodel.packet import Packet, icmp_packet
from ..telemetry import NULL_TELEMETRY
from ..telemetry_registry import (
    SIM_CLIENT_PACKETS,
    SIM_DELIVERIES,
    SIM_DEVICE_ACTIONS,
    SIM_DEVICE_DROPS,
    SIM_DEVICE_INSPECTIONS,
    SIM_FAULT_DEVICE_ROLLS,
    SIM_FAULT_LOSS_ROLLS,
    SIM_ICMP_GENERATED,
    SIM_ICMP_RATE_LIMITED,
    SIM_ICMP_SILENT,
    SIM_INJECTED_TO_CLIENT,
    SIM_INJECTED_TO_SERVER,
    SIM_INJECTED_TTL_EXPIRED,
    SIM_PACKETS_LOST,
    SIM_REVERSE_TTL_EXPIRED,
)
from .faults import FATE_FAIL_CLOSED, FATE_FAIL_OPEN, FaultPlan, FaultState
from .interfaces import (
    DIRECTION_FORWARD,
    DIRECTION_REVERSE,
    AppReply,
    InspectionContext,
    Verdict,
)
from .routing import Path
from .topology import Endpoint, Router, Topology


@dataclass
class CaptureRecord:
    """One event in the simulator's pcap-like capture log."""

    clock: float
    location: str
    event: str
    detail: str


@dataclass(frozen=True, slots=True)
class TransitPolicy:
    """The declared semantic differences between packet-walk kinds.

    The transit engine runs the same hop loop for every walk; these
    bits are the *only* places the walks may diverge. Capture labels
    ride along so the pcap-like log keeps naming the walk kind.
    """

    direction: str  # traversal orientation (forward / reverse)
    inspect_devices: bool = False  # link devices see the packet (+ fault fates)
    emit_icmp_on_expiry: bool = False  # routers answer TTL expiry with ICMP
    loss_on_first_link: bool = True  # roll loss on the entry link too
    apply_router_transforms: bool = False  # TOS / IP-flag rewrites en route
    deliver_via_services: bool = False  # resolver + TCP stack vs stack only
    loss_event: str = "loss"  # capture label for a lost packet
    expiry_event: str = "ttl-expired"  # capture label for TTL expiry
    expiry_counter: Optional[str] = None  # telemetry counter for silent expiry


#: Client traffic toward the endpoint: full semantics — loss on every
#: link, device inspection with fault fates, ICMP Time Exceeded on
#: expiry, router header transforms, resolver/TCP-stack delivery.
POLICY_FORWARD = TransitPolicy(
    direction=DIRECTION_FORWARD,
    inspect_devices=True,
    emit_icmp_on_expiry=True,
    loss_on_first_link=True,
    apply_router_transforms=True,
    deliver_via_services=True,
    loss_event="loss",
    expiry_event="ttl-expired",
)

#: A device forgery carried the rest of the way to the endpoint. Not
#: re-inspected by other devices; its first link is the device's own
#: attachment (no loss roll); expiry dies silently — the ICMP error
#: would go to the spoofed source, not our client. The endpoint's TCP
#: stack still reacts (e.g. RST for data on an unknown flow).
POLICY_INJECTED_TO_SERVER = TransitPolicy(
    direction=DIRECTION_FORWARD,
    inspect_devices=False,
    emit_icmp_on_expiry=False,
    loss_on_first_link=False,
    apply_router_transforms=True,
    deliver_via_services=False,
    loss_event="loss-injected",
    expiry_event="injected-ttl-expired",
    expiry_counter=SIM_INJECTED_TTL_EXPIRED,
)

#: Return traffic toward the client: endpoint responses, router ICMP
#: errors and device injections to the client. Routers decrement TTL
#: but do not transform headers or answer expiry (the resulting ICMP
#: would chase a spoofed source); every link rolls loss, including the
#: final link into the client.
POLICY_REVERSE = TransitPolicy(
    direction=DIRECTION_REVERSE,
    inspect_devices=False,
    emit_icmp_on_expiry=False,
    loss_on_first_link=True,
    apply_router_transforms=False,
    deliver_via_services=False,
    loss_event="loss-reverse",
    expiry_event="reverse-ttl-expired",
    expiry_counter=SIM_REVERSE_TTL_EXPIRED,
)


#: Sentinel hop index for the link from hop 0 back into the client.
CLIENT_LINK = -1


@dataclass(slots=True)
class Transit:
    """One packet's traversal: where it enters a path and under which
    policy it walks.

    ``start_index`` is direction-dependent, matching how devices and
    nodes are indexed on a :class:`~repro.netsim.routing.Path`:

    * forward-direction policies enter on the link leading to hop
      ``start_index`` and proceed toward the endpoint;
    * the reverse policy treats ``start_index`` as the hop already
      *behind* the packet — it still has to cross hops
      ``start_index - 1 .. 0`` and the final client link.
    """

    packet: Packet
    path: Path
    start_index: int
    policy: TransitPolicy
    client_ip: str


class Simulator:
    """Walks packets through a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        loss_rate: float = 0.0,
        capture: bool = False,
        per_packet_time: float = 0.01,
        fault_plan: Optional[FaultPlan] = None,
        net_context: Optional[NetContext] = None,
    ) -> None:
        self.topology = topology
        self.seed = seed
        self.loss_rate = loss_rate
        self.clock = 0.0
        self.per_packet_time = per_packet_time
        self._rng = random.Random(seed)
        self._capture_enabled = capture
        self.capture: List[CaptureRecord] = []
        self._endpoint_stacks: Dict[str, "EndpointStack"] = {}
        self.fault_plan: Optional[FaultPlan] = None
        self._faults: Optional[FaultState] = None
        # The simulator owns the identifier context for everything that
        # allocates on its behalf: client connections (ephemeral ports,
        # IP IDs), endpoint stacks, router ICMP, resolver replies and
        # device forgeries. One per-simulator stream, reset per work
        # unit, is what makes serial and parallel campaigns allocate
        # identifiers in the same interleaved order.
        self.net_context = net_context if net_context is not None else NetContext()
        # Observability sink (repro.telemetry). NULL_TELEMETRY keeps the
        # hot path allocation-free; counters never influence the walk,
        # the clock or any RNG stream, so instrumented and
        # uninstrumented runs produce identical measurements.
        self.telemetry = NULL_TELEMETRY
        # Lazily-built batched fast path (repro.netsim.batch); compiled
        # path plans survive reset, batch framing does not.
        self._batch_engine = None
        self.set_fault_plan(fault_plan)

    def batch_engine(self):
        """The simulator's :class:`~repro.netsim.batch.BatchEngine`.

        One engine per simulator: measurement tools share its compiled
        path plans and batch framing. The engine's ``send`` is
        semantically identical to :meth:`send_from_client`, fault plans
        included, falling back to it only while capture is active.
        """
        if self._batch_engine is None:
            from .batch import BatchEngine  # local import: avoids a cycle

            self._batch_engine = BatchEngine(self)
        return self._batch_engine

    def set_telemetry(self, telemetry) -> None:
        """Install an observability sink (``NULL_TELEMETRY`` disables)."""
        self.telemetry = telemetry

    # -- time -----------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Move virtual time forward."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.clock += seconds

    # -- deterministic replay ---------------------------------------------

    def reset(self, rng_seed: Optional[int] = None) -> None:
        """Return the simulator to its just-built state.

        The campaign executor calls this before every work unit so that
        a measurement's outcome depends only on the world's construction
        parameters and the unit itself — never on which measurements ran
        before it or in which process. ``rng_seed`` overrides the seed
        of the per-hop loss RNG (the executor derives one per unit).
        """
        self.clock = 0.0
        seed = self.seed if rng_seed is None else rng_seed
        self._rng = random.Random(seed)
        self._endpoint_stacks.clear()
        self.capture.clear()
        # Rewind identifier allocation in place (never rebind: stacks
        # and connections hold references to this context).
        self.net_context.reset()
        if self._batch_engine is not None:
            self._batch_engine.reset_batches()
        if self._faults is not None:
            # Fault state (token buckets, churn counters, the fault
            # RNG) is part of the replayed state: rebuilding it here is
            # what keeps faulted campaigns bit-identical across runs
            # and across serial/parallel execution.
            self._faults.reset(seed)

    def current_path_seed(self) -> int:
        """The ECMP hash seed in effect for the *next* path selection.

        With no fault plan (or no churn) this is the construction seed;
        under churn it advances with the fault state's epoch. Because
        ``send_from_client`` counts the packet *before* selecting its
        path, the value read immediately after a send is also the seed
        that send used — which is how evidence builders
        (``repro.localize``) recompute a probe's traversed links
        without reaching into the walk.
        """
        if self._faults is None:
            return self.seed
        return self._faults.path_seed(self.seed)

    @property
    def churn_epoch(self) -> int:
        """The fault state's current ECMP re-hash epoch (0 = no churn)."""
        return 0 if self._faults is None else self._faults.epoch

    def set_fault_plan(self, fault_plan: Optional[FaultPlan]) -> None:
        """Install (or remove) a fault plan, resetting its runtime state."""
        self.fault_plan = fault_plan
        if fault_plan is None or fault_plan.is_noop():
            self._faults = None
        else:
            self._faults = FaultState(fault_plan, self.seed)

    # -- capture ----------------------------------------------------------

    def _record(self, location: str, event: str, detail: str) -> None:
        if self._capture_enabled:
            self.capture.append(
                CaptureRecord(self.clock, location, event, detail)
            )

    # -- endpoint stacks ---------------------------------------------------

    def _stack_for(self, endpoint: Endpoint) -> "EndpointStack":
        stack = self._endpoint_stacks.get(endpoint.ip)
        if stack is None:
            stack = EndpointStack(endpoint, net=self.net_context)
            self._endpoint_stacks[endpoint.ip] = stack
        return stack

    # -- the walk ---------------------------------------------------------

    def send_from_client(self, packet: Packet) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``.

        Returns every packet delivered back to that client, in arrival
        order. An empty list is a timeout.
        """
        self.clock += self.per_packet_time
        # Work on a copy: routers transform headers in flight and the
        # caller's packet must keep reflecting what was actually sent.
        packet = self._clone(packet)
        client_ip = packet.ip.src
        route = self.topology.route_between(client_ip, packet.ip.dst)
        flow = (
            packet.flow_key()
            if packet.is_tcp
            else FlowKey(packet.ip.src, packet.ip.dst, 0, 0, 1)
        )
        faults = self._faults
        path_seed = self.seed
        if faults is not None:
            faults.note_client_packet(self.clock)
            path_seed = faults.path_seed(self.seed)
        path = route.select(flow, seed=path_seed)
        deliveries: List[Packet] = []
        self._run_transit(
            Transit(packet, path, 0, POLICY_FORWARD, client_ip), deliveries
        )
        if faults is not None:
            deliveries = faults.shape_deliveries(deliveries, self._clone)
        tel = self.telemetry
        if tel.enabled:
            tel.count(SIM_CLIENT_PACKETS)
            if deliveries:
                tel.count(SIM_DELIVERIES, len(deliveries))
        return deliveries

    @staticmethod
    def _clone(packet: Packet) -> Packet:
        """An independent copy of ``packet`` (fresh header object).

        Transport payloads are immutable in the walk, so sharing them is
        safe; the IP header is the piece routers rebind in flight.
        """
        return Packet(
            packet.ip.copy(),
            packet.tcp,
            packet.icmp,
            packet.udp,
            packet.emitted_by,
            packet.injected,
        )

    def _lost(self) -> bool:
        return self.loss_rate > 0 and self._rng.random() < self.loss_rate

    def _link_lost(self, node) -> bool:
        """Loss roll for the link leading to ``node`` (None = client link).

        With a fault-plan loss profile installed, the per-link/per-AS
        rates replace the uniform ``loss_rate``; draws then come from
        the fault RNG so plans never perturb the base RNG stream.
        """
        faults = self._faults
        if faults is not None and faults.per_link_loss:
            if self.telemetry.enabled:
                self.telemetry.count(SIM_FAULT_LOSS_ROLLS)
            return faults.link_lost(node)
        return self.loss_rate > 0 and self._rng.random() < self.loss_rate

    def _run_transit(self, transit: Transit, deliveries: List[Packet]) -> None:
        """THE hop loop: walk one :class:`Transit` to completion.

        Every packet the simulator moves — forward client traffic,
        injected forgeries continuing to the server, and all return
        traffic — runs through this loop. Each hop applies the same
        staged pipeline, with :class:`TransitPolicy` bits gating the
        stages:

        1. **link loss** — one RNG roll per link crossed (the entry
           link only if ``loss_on_first_link``; the reverse walk also
           rolls the final link into the client);
        2. **fault fates + device inspection** — only if
           ``inspect_devices``; fail-open skips the device, fail-closed
           swallows in-path packets, verdicts may drop and inject;
        3. **node arrival** — routers decrement TTL (expiry handled per
           ``emit_icmp_on_expiry``) and optionally transform headers;
           an endpoint terminates a forward-direction walk via
           :meth:`_deliver_to_endpoint`; the client link terminates a
           reverse walk by appending to ``deliveries``. Interior
           non-router hops are transparent to reverse traffic.

        This loop is the simulator's hottest code: policy bits and
        instance attributes are hoisted into locals once per transit,
        and the reverse walk's final client link (:data:`CLIENT_LINK`)
        is handled after the loop so the per-hop body never tests for
        it.
        """
        policy = transit.policy
        packet = transit.packet
        path = transit.path
        start_index = transit.start_index
        client_ip = transit.client_ip
        ttl = packet.ip.ttl
        nodes = path.nodes
        if nodes is None:
            nodes = path.resolve(self.topology)
        hops = path.hops
        capture = self._capture_enabled
        faults = self._faults
        lossy = (
            faults is not None and faults.per_link_loss
        ) or self.loss_rate > 0
        inspect = policy.inspect_devices
        flaky = (
            inspect
            and faults is not None
            and faults.plan.flaky_devices is not None
        )
        tel = self.telemetry
        telemetry_on = tel.enabled
        forward = policy.direction == DIRECTION_FORWARD
        loss_on_entry = policy.loss_on_first_link
        apply_transforms = policy.apply_router_transforms
        if forward:
            # Enter on the link leading to hop start_index, proceed
            # toward the endpoint.
            indices = range(start_index, len(hops))
        else:
            # start_index is the hop already behind the packet: cross
            # hops start_index-1 .. 0, then the client link (below).
            indices = range(start_index - 1, -1, -1)
        for index in indices:
            node = nodes[index]
            # 1. The link leading to this hop: loss roll.
            if (
                lossy
                and (loss_on_entry or index != start_index)
                and self._link_lost(node)
            ):
                if telemetry_on:
                    tel.count(SIM_PACKETS_LOST)
                if capture:
                    self._record(
                        hops[index].node_name,
                        policy.loss_event,
                        packet.brief(),
                    )
                return
            # 2. Devices on the link (fault fates, then inspection).
            if inspect:
                for device in hops[index].link_devices:
                    if flaky:
                        if telemetry_on:
                            tel.count(SIM_FAULT_DEVICE_ROLLS)
                        fate = faults.device_fate(device)
                        if fate == FATE_FAIL_OPEN:
                            # Enforcement lapses: the packet passes
                            # without inspection (the device also misses
                            # any state it would have built from it).
                            if capture:
                                self._record(
                                    device.name, "fail-open", packet.brief()
                                )
                            continue
                        if fate == FATE_FAIL_CLOSED and device.in_path:
                            if capture:
                                self._record(
                                    device.name, "fail-closed", packet.brief()
                                )
                            return
                    ctx = InspectionContext(
                        self.clock, ttl, index, policy.direction, self.net_context
                    )
                    verdict = device.inspect(packet, ctx)
                    if telemetry_on:
                        tel.count(SIM_DEVICE_INSPECTIONS)
                        if verdict.acted:
                            tel.count(SIM_DEVICE_ACTIONS)
                    if capture and verdict.acted:
                        self._record(
                            device.name,
                            "device",
                            f"{verdict.note} {packet.brief()}",
                        )
                    self._dispatch_injections(
                        verdict, path, index, deliveries, client_ip
                    )
                    if verdict.drop and device.in_path:
                        if telemetry_on:
                            tel.count(SIM_DEVICE_DROPS)
                        return
            # 3. Arrive at the node.
            if isinstance(node, Router):
                ttl -= 1
                if ttl <= 0:
                    self._expire_at_router(
                        node,
                        packet,
                        path,
                        index,
                        deliveries,
                        client_ip,
                        policy,
                    )
                    return
                if apply_transforms:
                    self._apply_router_transforms(node, packet)
            elif forward:
                if isinstance(node, Endpoint):
                    packet.ip.ttl = ttl
                    self._deliver_to_endpoint(
                        node,
                        packet,
                        path,
                        index,
                        deliveries,
                        client_ip,
                        policy,
                    )
                return
            # Reverse traffic passes interior non-router hops (e.g. an
            # endpoint mid-path) transparently: no TTL spent.
        if forward:
            # A forward walk normally terminates inside the loop; an
            # empty or endpoint-less path simply times out.
            return
        # The reverse walk crossed hop 0: one last loss roll for the
        # CLIENT_LINK itself (silent — the capture vantage point is the
        # client, so a packet lost here was never seen), then arrival.
        if lossy and self._link_lost(None):
            if telemetry_on:
                tel.count(SIM_PACKETS_LOST)
            return
        packet.ip = packet.ip.copy(ttl=ttl)
        if capture:
            self._record(client_ip, "arrived", packet.brief())
        deliveries.append(packet)

    def _hop_ip(self, path: Path, index: int) -> str:
        nodes = path.nodes
        if nodes is None:
            nodes = path.resolve(self.topology)
        return nodes[index].ip

    def _apply_router_transforms(self, router: Router, packet: Packet) -> None:
        if router.rewrite_tos is not None and packet.ip.tos != router.rewrite_tos:
            packet.ip = packet.ip.copy(tos=router.rewrite_tos)
        if (
            router.rewrite_ip_flags is not None
            and packet.ip.flags != router.rewrite_ip_flags
        ):
            packet.ip = packet.ip.copy(flags=router.rewrite_ip_flags)

    def _expire_at_router(
        self,
        router: Router,
        packet: Packet,
        path: Path,
        index: int,
        deliveries: List[Packet],
        client_ip: str,
        policy: TransitPolicy,
    ) -> None:
        """TTL hit zero at ``router``: maybe emit ICMP Time Exceeded."""
        tel = self.telemetry
        if self._capture_enabled:
            self._record(router.name, policy.expiry_event, packet.brief())
        if not policy.emit_icmp_on_expiry:
            # Injected and reverse traffic dies silently: the ICMP
            # error would chase the spoofed source, not our client.
            if tel.enabled and policy.expiry_counter is not None:
                tel.count(policy.expiry_counter)
            return
        if not router.responds_icmp:
            if tel.enabled:
                tel.count(SIM_ICMP_SILENT)
            return
        if self._faults is not None and self._faults.icmp_suppressed(
            router, self.clock
        ):
            # Token bucket empty: the router stays silent for this
            # expiry, exactly like rate-limited real-world hops during
            # dense TTL sweeps.
            if tel.enabled:
                tel.count(SIM_ICMP_RATE_LIMITED)
            if self._capture_enabled:
                self._record(router.name, "icmp-rate-limited", packet.brief())
            return
        # The quoted copy reflects the packet as received here: any
        # in-flight header rewrites are visible, and the TTL has been
        # decremented all the way down.
        if tel.enabled:
            tel.count(SIM_ICMP_GENERATED)
        packet.ip = packet.ip.copy(ttl=1)
        quoted = packet.to_bytes()
        message = time_exceeded(quoted, policy=router.quoting)
        response = icmp_packet(
            router.ip, client_ip, message, ttl=64, net=self.net_context
        )
        response.emitted_by = router.name
        self._run_transit(
            Transit(response, path, index, POLICY_REVERSE, client_ip),
            deliveries,
        )

    def _deliver_to_endpoint(
        self,
        endpoint: Endpoint,
        packet: Packet,
        path: Path,
        index: int,
        deliveries: List[Packet],
        client_ip: str,
        policy: TransitPolicy,
    ) -> None:
        if self._capture_enabled:
            self._record(endpoint.name, "delivered", packet.brief())
        if policy.deliver_via_services:
            if packet.is_udp:
                if endpoint.resolver is not None:
                    for response in endpoint.resolver.handle_query(
                        packet, endpoint.ip, net=self.net_context
                    ):
                        self._run_transit(
                            Transit(
                                response, path, index, POLICY_REVERSE, client_ip
                            ),
                            deliveries,
                        )
                return
            if not packet.is_tcp:
                return
        # Injected forgeries bypass application services but still meet
        # the endpoint's TCP stack — e.g. the RST a real stack sends
        # for injected data on an unknown flow.
        stack = self._stack_for(endpoint)
        for response in stack.receive(packet, self.clock):
            self._run_transit(
                Transit(response, path, index, POLICY_REVERSE, client_ip),
                deliveries,
            )

    def _dispatch_injections(
        self,
        verdict: Verdict,
        path: Path,
        link_index: int,
        deliveries: List[Packet],
        client_ip: str,
    ) -> None:
        tel = self.telemetry
        for injected in verdict.inject_to_client:
            # The device sits on the link leading to hop ``link_index``,
            # so its injections must cross every router at indices
            # link_index-1 .. 0 — exactly what the reverse policy does
            # when told the packet originates "at" hop link_index. Walk
            # a copy: the walk rebinds headers (TTL rewrite on arrival)
            # and the device may reuse its injection template.
            if tel.enabled:
                tel.count(SIM_INJECTED_TO_CLIENT)
            self._run_transit(
                Transit(
                    self._clone(injected),
                    path,
                    link_index,
                    POLICY_REVERSE,
                    client_ip,
                ),
                deliveries,
            )
        for injected in verdict.inject_to_server:
            # Forged packets to the server next arrive at hop
            # ``link_index`` itself (the device's own link carries no
            # loss roll) and continue toward the endpoint.
            if tel.enabled:
                tel.count(SIM_INJECTED_TO_SERVER)
            self._run_transit(
                Transit(
                    self._clone(injected),
                    path,
                    link_index,
                    POLICY_INJECTED_TO_SERVER,
                    client_ip,
                ),
                deliveries,
            )


#: :meth:`EndpointStack.transition`'s answer for a data segment that the
#: application must answer.
TO_APPLICATION = "application"


class EndpointStack:
    """A minimal TCP state machine living at an endpoint.

    Supports exactly what the measurement tools exercise: handshakes,
    one or more data segments answered by the application server, RST
    teardown (including device-forged RSTs arriving from the network),
    and FIN close. :meth:`transition` is the one state machine: both
    :meth:`receive` and the batched plane's packet-less control
    segments (``BatchEngine.connect``/``close``) go through it.
    """

    ISN = 1_000_000
    REPLY_TTL = 64

    def __init__(
        self, endpoint: Endpoint, net: Optional[NetContext] = None
    ) -> None:
        self.endpoint = endpoint
        # Reply IP IDs come from the owning simulator's identifier
        # context (the process-wide default only for hand-built stacks
        # in unit tests).
        self.net = net if net is not None else default_context()
        # Ports come from the endpoint's configured services; a web
        # server additionally listens on 80/443. A DNS-only endpoint
        # therefore refuses HTTP handshakes instead of faking them.
        self.open_ports = set(endpoint.services)
        if endpoint.server is not None:
            self.open_ports.update((80, 443))
        # (client ip, client port, endpoint port) -> connection state;
        # the endpoint's own address is implied.
        self.flows: Dict[Tuple[str, int, int], str] = {}
        # (payload, client ip) -> the server's reply. handle_payload is
        # a pure function of its arguments (ApplicationServer), so a
        # repeated payload reuses the reply; the stack, and with it the
        # memo, lives for one work unit (Simulator.reset drops both).
        self._replies: Dict[Tuple[bytes, str], AppReply] = {}

    def transition(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        flags: int,
        seq: int,
        ack: int,
        data: bool = False,
    ):
        """Apply a segment's header to the flow state.

        Returns the reply header ``(flags, seq, ack)``, None when the
        stack stays silent, or :data:`TO_APPLICATION` when the segment
        carries ``data`` for an established flow. A payload-less
        segment never reaches the application, so its whole effect is
        this call.
        """
        if dst != self.endpoint.ip:
            return None
        flow = (src, sport, dport)
        if flags & tcpmod.RST:
            self.flows.pop(flow, None)
            return None
        if flags & tcpmod.SYN and not flags & tcpmod.ACK:
            if dport not in self.open_ports:
                return (tcpmod.RST | tcpmod.ACK, 0, seq + 1)
            self.flows[flow] = "SYN_RECEIVED"
            return (tcpmod.SYN | tcpmod.ACK, self.ISN, seq + 1)
        state = self.flows.get(flow)
        if state is None:
            # Data for a torn-down or unknown flow: real stacks reset.
            return (tcpmod.RST, ack, 0)
        if flags & tcpmod.FIN:
            self.flows.pop(flow, None)
            return (tcpmod.FIN | tcpmod.ACK, self.ISN + 1, seq + 1)
        if data:
            return TO_APPLICATION
        if state == "SYN_RECEIVED" and flags & tcpmod.ACK:
            self.flows[flow] = "ESTABLISHED"
        return None

    def receive(self, packet: Packet, clock: float) -> List[Packet]:
        segment = packet.tcp
        if segment is None:
            return []
        ip = packet.ip

        def reply(flags: int, payload: bytes = b"", seq: int = 0, ack: int = 0) -> Packet:
            # Positional (field order): keyword matching costs more
            # than the rest of the construction on this hot path.
            return Packet(
                IPHeader(
                    self.endpoint.ip,  # src
                    ip.src,  # dst
                    self.REPLY_TTL,  # ttl
                    ip.protocol,
                    0,  # tos
                    self.net.next_ip_id(),  # identification
                    ip.flags,
                    ip.frag_offset,
                    ip.total_length,
                    ip.checksum,
                ),
                tcpmod.TCPSegment(
                    segment.dport,  # sport
                    segment.sport,  # dport
                    seq,
                    ack,
                    flags,
                    65535,  # window
                    0,  # urgent
                    [],  # options
                    payload,
                ),
                None,  # icmp
                None,  # udp
                self.endpoint.name,  # emitted_by
            )

        action = self.transition(
            ip.src,
            ip.dst,
            segment.sport,
            segment.dport,
            segment.flags,
            segment.seq,
            segment.ack,
            bool(segment.payload),
        )
        if action is None:
            return []
        if action is not TO_APPLICATION:
            flags, seq, ack = action
            return [reply(flags, seq=seq, ack=ack)]
        flow = (ip.src, segment.sport, segment.dport)
        server = self.endpoint.server
        if server is None:
            # Nothing listens behind the port: reset, tearing down.
            self.flows.pop(flow, None)
            return [reply(tcpmod.RST, seq=segment.ack)]
        self.flows[flow] = "ESTABLISHED"
        key = (segment.payload, ip.src)
        app = self._replies.get(key)
        if app is None:
            app = server.handle_payload(segment.payload, ip.src)
            self._replies[key] = app
        if app.drop:
            return []
        if app.reset:
            self.flows.pop(flow, None)
            return [reply(tcpmod.RST | tcpmod.ACK, seq=segment.ack, ack=segment.seq)]
        ack_value = segment.seq + len(segment.payload)
        responses: List[Packet] = []
        for i, body in enumerate(app.responses):
            responses.append(
                reply(
                    tcpmod.PSH | tcpmod.ACK,
                    payload=body,
                    seq=self.ISN + 1 + i,
                    ack=ack_value,
                )
            )
        if app.close:
            responses.append(
                reply(
                    tcpmod.FIN | tcpmod.ACK,
                    seq=self.ISN + 1 + len(app.responses),
                    ack=ack_value,
                )
            )
            self.flows.pop(flow, None)
        return responses
