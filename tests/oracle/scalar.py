"""The scalar transit walk: the packet plane's reference semantics.

``ScalarEngine`` walks one packet at a time, hop by hop, through
**one** hop loop (:meth:`ScalarEngine._run_transit`). A :class:`Transit`
names the packet, the path, where on the path the packet enters, and a
:class:`TransitPolicy` whose bits declare the only semantic differences
between walk kinds (device inspection, ICMP on expiry, first-link loss,
router header transforms, endpoint delivery mode). Loss rolls, TTL
decrement, fault fates, capture and telemetry are therefore shared: a
divergence between directions has to be a declared policy bit.

The engine exposes the same interface as
:class:`repro.netsim.batch.BatchEngine` (``send``, ``connect``,
``close``, ``run_udp_ladder``), so a connection, a parity workload or a
ladder runs unchanged on either one; the parity suites drive the
batched plane against this walk. It reads and advances the simulator's
own state (clock, base RNG, fault state, identifier context, endpoint
stacks, telemetry), so both engines consume the same streams.

With ``capture=True`` every hop event is appended to :attr:`capture`,
a pcap-like log of :class:`CaptureRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netmodel import tcp as tcpmod
from repro.netmodel.icmp import time_exceeded
from repro.netmodel.ip import DEFAULT_TTL, FlowKey
from repro.netmodel.packet import Packet, icmp_packet, tcp_packet, udp_packet
from repro.netsim.faults import FATE_FAIL_CLOSED, FATE_FAIL_OPEN
from repro.netsim.interfaces import (
    DIRECTION_FORWARD,
    DIRECTION_REVERSE,
    InspectionContext,
    Verdict,
)
from repro.netsim.routing import Path
from repro.netsim.topology import Endpoint, Router
from repro.telemetry_registry import (
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


@dataclass
class CaptureRecord:
    """One event in the oracle's pcap-like capture log."""

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


class ScalarEngine:
    """The hop-by-hop reference walk over one simulator's state."""

    def __init__(self, sim, capture: bool = False) -> None:
        self.sim = sim
        self.capture_enabled = capture
        self.capture: List[CaptureRecord] = []

    def _record(self, location: str, event: str, detail: str) -> None:
        if self.capture_enabled:
            self.capture.append(
                CaptureRecord(self.sim.clock, location, event, detail)
            )

    # -- the engine interface ---------------------------------------------

    def send(
        self,
        packet: Packet,
        wire_bytes: Optional[bytes] = None,
        flow: Optional[FlowKey] = None,
    ) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``.

        Returns every packet delivered back to that client, in arrival
        order. An empty list is a timeout. ``wire_bytes`` and ``flow``
        are the batched plane's shortcuts; the walk derives both from
        the packet.
        """
        sim = self.sim
        sim.clock += sim.per_packet_time
        # Work on a copy: routers transform headers in flight and the
        # caller's packet must keep reflecting what was actually sent.
        packet = sim._clone(packet)
        client_ip = packet.ip.src
        route = sim.topology.route_between(client_ip, packet.ip.dst)
        flow = (
            packet.flow_key()
            if packet.is_tcp
            else FlowKey(packet.ip.src, packet.ip.dst, 0, 0, 1)
        )
        faults = sim._faults
        path_seed = sim.seed
        if faults is not None:
            faults.note_client_packet(sim.clock)
            path_seed = faults.path_seed(sim.seed)
        path = route.select(flow, seed=path_seed)
        deliveries: List[Packet] = []
        self._run_transit(
            Transit(packet, path, 0, POLICY_FORWARD, client_ip), deliveries
        )
        if faults is not None:
            deliveries = faults.shape_deliveries(deliveries, sim._clone)
        tel = sim.telemetry
        if tel.enabled:
            tel.count(SIM_CLIENT_PACKETS)
            if deliveries:
                tel.count(SIM_DELIVERIES, len(deliveries))
        return deliveries

    def connect(self, conn, retries: int) -> bool:
        """The three-way handshake at full TTL, every segment a packet."""
        net = self.sim.net_context
        for _ in range(retries + 1):
            syn = tcp_packet(
                conn.client.ip,
                conn.dst_ip,
                conn.sport,
                conn.dst_port,
                flags=tcpmod.SYN,
                seq=conn.CLIENT_ISN,
                ttl=DEFAULT_TTL,
                net=net,
            )
            for response in self.send(syn):
                if (
                    response.is_tcp
                    and response.tcp.flags & tcpmod.SYN
                    and response.tcp.flags & tcpmod.ACK
                ):
                    conn.server_isn = response.tcp.seq
                    ack = tcp_packet(
                        conn.client.ip,
                        conn.dst_ip,
                        conn.sport,
                        conn.dst_port,
                        flags=tcpmod.ACK,
                        seq=conn.CLIENT_ISN + 1,
                        ack=conn.server_isn + 1,
                        ttl=DEFAULT_TTL,
                        net=net,
                    )
                    self.send(ack)
                    conn.established = True
                    return True
                if response.is_tcp and response.tcp.flags & tcpmod.RST:
                    return False
        return False

    def close(self, conn) -> None:
        """Send the connection's FIN as a packet, discarding replies."""
        fin = tcp_packet(
            conn.client.ip,
            conn.dst_ip,
            conn.sport,
            conn.dst_port,
            flags=tcpmod.FIN | tcpmod.ACK,
            seq=conn._next_seq,
            ack=(conn.server_isn + 1) if conn.server_isn is not None else 0,
            ttl=DEFAULT_TTL,
            net=self.sim.net_context,
        )
        self.send(fin)

    def run_udp_ladder(
        self, client_ip, dst_ip, dport, ttls, payload_for, *, tos=0, label=""
    ) -> List[List[Packet]]:
        """One UDP probe per TTL in ``ttls``, each a fresh source port
        (``payload_for(sport)`` builds its payload)."""
        net = self.sim.net_context
        results = []
        for ttl in ttls:
            sport = net.next_ephemeral_port()
            probe = udp_packet(
                client_ip,
                dst_ip,
                sport,
                dport,
                payload=payload_for(sport),
                ttl=ttl,
                tos=tos,
                net=net,
            )
            results.append(self.send(probe))
        return results

    # -- the walk ---------------------------------------------------------

    def _link_lost(self, node) -> bool:
        """Loss roll for the link leading to ``node`` (None = client link).

        With a fault-plan loss profile installed, the per-link/per-AS
        rates replace the uniform ``loss_rate``; draws then come from
        the fault RNG so plans never perturb the base RNG stream, and a
        zero-rate link takes no draw.
        """
        sim = self.sim
        faults = sim._faults
        if faults is not None and faults.per_link_loss:
            if sim.telemetry.enabled:
                sim.telemetry.count(SIM_FAULT_LOSS_ROLLS)
            rate = faults.plan.loss.rate_for(node)
            if rate <= 0.0:
                return False
            if faults.rng.random() < rate:
                faults.counters.packets_lost += 1
                return True
            return False
        return sim.loss_rate > 0 and sim._rng.random() < sim.loss_rate

    def _run_transit(self, transit: Transit, deliveries: List[Packet]) -> None:
        """THE hop loop: walk one :class:`Transit` to completion.

        Every packet the engine moves — forward client traffic,
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

        The reverse walk's final client link (:data:`CLIENT_LINK`) is
        handled after the loop so the per-hop body never tests for it.
        """
        sim = self.sim
        policy = transit.policy
        packet = transit.packet
        path = transit.path
        start_index = transit.start_index
        client_ip = transit.client_ip
        ttl = packet.ip.ttl
        nodes = path.nodes
        if nodes is None:
            nodes = path.resolve(sim.topology)
        hops = path.hops
        capture = self.capture_enabled
        faults = sim._faults
        lossy = (
            faults is not None and faults.per_link_loss
        ) or sim.loss_rate > 0
        inspect = policy.inspect_devices
        flaky = (
            inspect
            and faults is not None
            and faults.plan.flaky_devices is not None
        )
        tel = sim.telemetry
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
                        sim.clock, ttl, index, policy.direction, sim.net_context
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

    @staticmethod
    def _apply_router_transforms(router: Router, packet: Packet) -> None:
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
        sim = self.sim
        tel = sim.telemetry
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
        if sim._faults is not None and sim._faults.icmp_suppressed(
            router, sim.clock
        ):
            # Token bucket empty: the router stays silent for this
            # expiry, exactly like rate-limited real-world hops during
            # dense TTL sweeps.
            if tel.enabled:
                tel.count(SIM_ICMP_RATE_LIMITED)
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
            router.ip, client_ip, message, ttl=64, net=sim.net_context
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
        sim = self.sim
        self._record(endpoint.name, "delivered", packet.brief())
        if policy.deliver_via_services:
            if packet.is_udp:
                if endpoint.resolver is not None:
                    for response in endpoint.resolver.handle_query(
                        packet, endpoint.ip, net=sim.net_context
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
        stack = sim._stack_for(endpoint)
        for response in stack.receive(packet, sim.clock):
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
        sim = self.sim
        tel = sim.telemetry
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
                    sim._clone(injected),
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
                    sim._clone(injected),
                    path,
                    link_index,
                    POLICY_INJECTED_TO_SERVER,
                    client_ip,
                ),
                deliveries,
            )
