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

:class:`Simulator` holds the world and the replayed state every walk
reads and advances — the virtual clock, the base loss RNG, the fault
state, the identifier context, the endpoint stacks and the telemetry
sink. The walks themselves are the batched packet plane's
(:class:`repro.netsim.batch.BatchEngine`, one per simulator), the one
packet engine; :meth:`Simulator.send_from_client` hands it a packet.
:class:`EndpointStack` is the endpoints' TCP state machine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..netmodel import tcp as tcpmod
from ..netmodel.ip import IPHeader
from ..netmodel.netctx import NetContext
from ..netmodel.packet import Packet
from ..telemetry import NULL_TELEMETRY
from .faults import FaultPlan, FaultState
from .interfaces import AppReply
from .topology import Endpoint, Topology


class Simulator:
    """A :class:`Topology` and the state its packet walks replay."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        loss_rate: float = 0.0,
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
        # Lazily-built packet engine (repro.netsim.batch); compiled
        # path plans survive reset, batch framing does not.
        self._batch_engine = None
        self.set_fault_plan(fault_plan)

    def batch_engine(self):
        """The simulator's :class:`~repro.netsim.batch.BatchEngine`.

        One engine per simulator: measurement tools and connections
        share its compiled path plans and batch framing.
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

    # -- endpoint stacks ---------------------------------------------------

    def _stack_for(self, endpoint: Endpoint) -> "EndpointStack":
        stack = self._endpoint_stacks.get(endpoint.ip)
        if stack is None:
            stack = EndpointStack(endpoint, net=self.net_context)
            self._endpoint_stacks[endpoint.ip] = stack
        return stack

    # -- sending --------------------------------------------------------

    def send_from_client(self, packet: Packet) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``.

        Returns every packet delivered back to that client, in arrival
        order. An empty list is a timeout.
        """
        return self.batch_engine().send(packet)

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

    def __init__(self, endpoint: Endpoint, net: NetContext) -> None:
        self.endpoint = endpoint
        # Reply IP IDs come from the owning simulator's identifier
        # context.
        self.net = net
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
