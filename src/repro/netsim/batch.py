"""The packet plane: compiled path plans walked event hop to event hop.

This is the simulator's one packet engine (``sim.batch_engine()``).
Most hops are pure routers whose only observable effects are a TTL
decrement and (possibly) one loss draw, so a walk does not interpret
the path hop by hop:

* :class:`PathPlan` compiles a :class:`~repro.netsim.routing.Path` once
  into flat per-hop arrays — router flags, cumulative router counts,
  device attachment points, header-rewrite sites, the terminal hop —
  so a walk only has to visit its *event* hops (devices, TTL expiry,
  the endpoint) and can resolve everything between them arithmetically.
* Its :class:`WalkSchedule` lists, in walk order, every loss draw and
  flaky-device fate any walk on the plan can take under the fault plan
  (or none) and uniform loss rate in force, then the reverse walk's
  loss draws: which RNG, which threshold. It is compiled when a send
  first meets a new configuration. :meth:`BatchEngine._lottery`, one
  plain ``for`` loop over a slice of it that stops at the first loss,
  takes every such draw there is; each walk runs the slice its kind
  and TTL fix.
* :meth:`BatchEngine.send` walks one client packet on its plan. Its
  lottery stops at each device the packet reaches (after the device's
  fate, if it rolls one) for the inspection, and resumes after it.
  Full :class:`~repro.netmodel.packet.Packet` clones are materialized
  lazily — only when a router's header rewrite (or the arrival TTL)
  makes the in-flight packet differ from the caller's. Devices inspect
  the caller's packet itself unless a rewrite precedes them
  (:meth:`~repro.netsim.interfaces.LinkDevice.inspect` is read-only).
  Every packet back to the client — endpoint replies, ICMP errors,
  control replies, forgeries — takes the reverse lottery: every link
  when the TTL exceeds the routers crossed, else up to the router that
  expires it. A device's forgeries toward the server take the loss
  draws of the links after the device's own (:meth:`_walk_injected`).
* :meth:`BatchEngine.connect` and :meth:`BatchEngine.close` carry a
  TCP connection's payload-less control segments — the SYN, the
  handshake ACK and the FIN that every CenTrace probe's fresh
  connection costs — without a packet at all. Each segment allocates
  its IP ID, asks every device it reaches (the plan's flat
  ``control_devices`` span) whether it passes the flow untouched
  (:meth:`~repro.netsim.interfaces.LinkDevice.passes_control`), runs
  its forward lottery straight through to the plan's
  ``control_terminal``, meets the endpoint's TCP transition, and draws
  the reply's IP ID and reverse lottery; only the reply's flags and
  sequence number come back. A segment some device may act on (a
  residually punished tuple) is built and walked by the per-send path
  instead.

Fault plans run on the same compiled plans: loss profiles and flaky
devices through the schedule, token-bucket ICMP suppression on expiry,
and path churn and delivery shaping around each send, control segments
included. Every walk reproduces the reference semantics of the scalar
transit walk kept with the tests (``tests/oracle``) exactly —
deliveries, the RNG draw streams, identifier streams, the clock and
telemetry — which the parity suites check. ``sim.batch_fast_path``
counts client sends, ``sim.batch_control_resolved`` the control
segments that never became packets, and a ``sim.batch`` event records
each logical batch's size.

Like every allocator-adjacent module, this file must hold **no**
module-level state (lintkit RP503 enforces it): plans are cached on the
engine, the engine is owned by a simulator, and everything mutable is
rewound by the per-unit reset protocol.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional, Sequence, Tuple

from ..netmodel import tcp as tcpmod
from ..netmodel.ip import DEFAULT_TTL, FlowKey, IPHeader, checksum16
from ..netmodel.icmp import time_exceeded
from ..netmodel.packet import Packet, icmp_packet, tcp_packet, udp_packet
from ..telemetry_registry import (
    EVENT_SIM_BATCH,
    SIM_BATCHES,
    SIM_BATCH_CONTROL_RESOLVED,
    SIM_BATCH_FAST_PATH,
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
from .faults import FaultState
from .interfaces import DIRECTION_FORWARD, InspectionContext, LinkDevice, Verdict
from .routing import Path
from .simulator import Simulator
from .topology import Endpoint, Router

# Terminal kinds a forward walk can reach (plan-resolved, not searched).
_EXPIRE = "expire"  # TTL hits zero at a router
_DELIVER = "deliver"  # first non-router hop is an Endpoint
_SINK = "sink"  # first non-router hop is neither (walk ends silently)
_TIMEOUT = "timeout"  # path is all routers and the TTL outlives them


#: The TTL of a connection's handshake and teardown segments.
_CONTROL_TTL = DEFAULT_TTL


def patched_quote(wire_bytes: bytes, ttl: int) -> bytes:
    """``wire_bytes`` re-serialized as if ``ip.ttl`` were ``ttl``.

    The transport bytes (and their checksum) do not cover the TTL, so
    only the IP header changes: patch the TTL byte and recompute the
    header checksum over the 20 header bytes. This is byte-identical to
    rebuilding the packet with ``ip.copy(ttl=ttl)`` and serializing —
    the expiry fast path uses it to avoid re-serializing the transport
    payload for every ICMP quote.
    """
    header = bytearray(wire_bytes[: IPHeader.HEADER_LEN])
    header[8] = ttl & 0xFF
    header[10:12] = b"\x00\x00"
    header[10:12] = checksum16(bytes(header)).to_bytes(2, "big")
    return bytes(header) + wire_bytes[IPHeader.HEADER_LEN :]


class PathPlan:
    """A :class:`Path` compiled to flat arrays for array-speed walks.

    Plans are pure functions of the path and topology (no per-unit
    state), so they survive ``Simulator.reset`` and are cached on the
    engine keyed by path identity. The :class:`WalkSchedule` of the
    fault configuration last walked is cached on the plan too.
    """

    __slots__ = (
        "path",
        "n_hops",
        "is_router",
        "routers_before",
        "router_hops",
        "terminal_index",
        "endpoint",
        "routers_reachable",
        "device_hops",
        "rewrites",
        "nodes",
        "control_terminal",
        "control_devices",
        "schedule",
    )

    def __init__(self, path: Path, topology) -> None:
        nodes = path.nodes if path.nodes is not None else path.resolve(topology)
        hops = path.hops
        self.path = path
        self.n_hops = len(hops)
        is_router = []
        routers_before = [0]
        terminal_index: Optional[int] = None
        endpoint: Optional[Endpoint] = None
        router_hops: List[Tuple[int, Router]] = []
        rewrites: List[Tuple[int, Optional[int], Optional[int]]] = []
        count = 0
        for index, node in enumerate(nodes):
            router = isinstance(node, Router)
            is_router.append(router)
            if router and terminal_index is None:
                router_hops.append((index, node))
                if (
                    node.rewrite_tos is not None
                    or node.rewrite_ip_flags is not None
                ):
                    rewrites.append(
                        (index, node.rewrite_tos, node.rewrite_ip_flags)
                    )
                count += 1
            elif terminal_index is None:
                terminal_index = index
                if isinstance(node, Endpoint):
                    endpoint = node
            routers_before.append(count)
        self.is_router = tuple(is_router)
        self.routers_before = tuple(routers_before)
        self.router_hops = tuple(router_hops)
        self.terminal_index = terminal_index
        self.endpoint = endpoint
        self.routers_reachable = (
            routers_before[terminal_index]
            if terminal_index is not None
            else count
        )
        last_reachable = (
            terminal_index if terminal_index is not None else self.n_hops - 1
        )
        self.device_hops = tuple(
            (index, tuple(hop.link_devices))
            for index, hop in enumerate(hops[: last_reachable + 1])
            if hop.link_devices
        )
        self.rewrites = tuple(rewrites)
        self.nodes = nodes
        # Every handshake and teardown segment is sent at one TTL, so
        # its terminal and the devices it reaches are fixed per path.
        self.control_terminal = self.terminal_for(_CONTROL_TTL)
        control_last = self.control_terminal[1]
        self.control_devices = tuple(
            device
            for index, devices in self.device_hops
            if index <= control_last
            for device in devices
        )
        self.schedule: Optional[WalkSchedule] = None

    def terminal_for(self, ttl: int) -> Tuple[str, int, Optional[Router]]:
        """``(terminal kind, last hop, expiring router)`` of a forward
        walk sent with ``ttl``, resolved arithmetically.

        The k-th router if the TTL runs out there, else the first
        non-router hop, else the path just ends (timeout).
        """
        reachable = self.routers_reachable
        if reachable and ttl <= reachable:
            # A TTL of k expires at the k-th router; anything <= 0 dies
            # at the first router it meets (the decrement goes negative).
            hop, router = self.router_hops[ttl - 1 if ttl > 0 else 0]
            return _EXPIRE, hop, router
        if self.terminal_index is not None:
            kind = _DELIVER if self.endpoint is not None else _SINK
            return kind, self.terminal_index, None
        return _TIMEOUT, self.n_hops - 1, None


# What a lottery does at a device step.
_SKIP = 0  # forgeries and reverse walks: no fate, no inspection
_PASS = 1  # control segments: roll the fate, the device passes the flow
_INSPECT = 2  # data segments: roll the fate, stop for the inspection


class WalkSchedule:
    """Every loss draw and fate roll a walk on one plan can take, under
    one fault state (the simulator's, or None) and uniform loss rate, in
    walk order.

    Links are numbered in walk order: forward link ``j`` leads to hop
    ``j``; then the reverse walk's links, from the one leading back to
    hop ``n_hops - 1`` (link ``n_hops``) to the client link (link
    ``2 * n_hops``). A reverse walk from hop ``s`` starts at link
    ``2 * n_hops - s``.

    ``steps`` holds each link's steps as ``(threshold, device, index)``
    triples:

    * a loss step, for a link with a positive rate: no device, and the
      rate as threshold — a loss profile's rate, drawn from the fault
      RNG, else the uniform rate, drawn from the base RNG (``profiled``
      says which; the RNG itself is looked up per walk, because a reset
      or a new fault plan replaces it);
    * then a device step for each device on a forward link: the fate
      roll's threshold (the sum of the flaky profile's fail-open and
      fail-closed rates, drawn from the fault RNG), or None when the
      device rolls no fate.

    ``step_at[j]`` is the index of link ``j``'s first step (so a walk
    over links ``a .. b-1`` runs ``steps[step_at[a]:step_at[b]]``),
    ``link_of[i]`` the link of step ``i`` and ``reached[i]`` the number
    of device steps before step ``i``.
    """

    __slots__ = (
        "faults",
        "loss_rate",
        "profiled",
        "flaky",
        "fail_open_rate",
        "steps",
        "step_at",
        "link_of",
        "reached",
    )

    def __init__(
        self,
        plan: PathPlan,
        faults: Optional[FaultState],
        loss_rate: float,
    ) -> None:
        self.faults = faults
        self.loss_rate = loss_rate
        loss = flaky = None
        if faults is not None:
            loss, flaky = faults.plan.loss, faults.plan.flaky_devices
        self.profiled = loss is not None
        self.flaky = flaky is not None
        self.fail_open_rate = flaky.fail_open_rate if flaky is not None else 0.0
        if loss is not None:
            # The profile replaces the uniform rate wholesale.
            rates = [loss.rate_for(node) for node in plan.nodes]
            client_rate = loss.rate_for(None)
        else:
            rates = [loss_rate] * plan.n_hops
            client_rate = loss_rate
        devices_at = dict(plan.device_hops)
        links = [(rate, devices_at.get(j, ())) for j, rate in enumerate(rates)]
        links += [(rate, ()) for rate in reversed(rates)]
        links.append((client_rate, ()))
        steps: List[Tuple[Optional[float], Optional[LinkDevice], int]] = []
        step_at: List[int] = []
        link_of: List[int] = []
        reached = [0]
        for link, (rate, devices) in enumerate(links):
            step_at.append(len(steps))
            if rate > 0.0:
                steps.append((rate, None, len(steps)))
                link_of.append(link)
                reached.append(reached[-1])
            for device in devices:
                fate = None
                if flaky is not None and flaky.applies_to(device):
                    fate = flaky.fail_open_rate + flaky.fail_closed_rate
                steps.append((fate, device, len(steps)))
                link_of.append(link)
                reached.append(reached[-1] + 1)
        step_at.append(len(steps))
        self.steps = tuple(steps)
        self.step_at = tuple(step_at)
        self.link_of = tuple(link_of)
        self.reached = tuple(reached)


class BatchEngine:
    """The packet plane of one simulator.

    One engine per simulator (``sim.batch_engine()``); the measurement
    tools route their sends through it and frame logical batches (a
    CenTrace sweep, a CenFuzz endpoint run) so the batch hit rate and
    size distribution are observable in telemetry.
    """

    __slots__ = ("sim", "_plans", "_routes", "_batches")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        # id(path) -> (path, plan): the path reference keeps the id stable.
        self._plans = {}
        # (src, dst) -> (route, plan of its only path, or None when ECMP
        # picks one of several per flow).
        self._routes = {}
        self._batches = []  # stack of [label, size]

    # -- batch framing -------------------------------------------------

    def begin_batch(self, label: str = "") -> None:
        """Open a logical batch (a sweep, an endpoint run, a ladder)."""
        self._batches.append([label, 0])

    def end_batch(self) -> None:
        """Close the innermost batch, emitting its size histogram event."""
        label, size = self._batches.pop()
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count(SIM_BATCHES)
            tel.event(EVENT_SIM_BATCH, label=label, size=size)

    def reset_batches(self) -> None:
        """Drop in-flight batch framing (part of ``Simulator.reset``)."""
        self._batches.clear()

    class _BatchFrame:
        __slots__ = ("engine",)

        def __init__(self, engine: "BatchEngine") -> None:
            self.engine = engine

        def __enter__(self) -> "BatchEngine":
            return self.engine

        def __exit__(self, *exc) -> None:
            self.engine.end_batch()

    def batch(self, label: str = "") -> "BatchEngine._BatchFrame":
        """Context manager variant of ``begin_batch``/``end_batch``."""
        self.begin_batch(label)
        return BatchEngine._BatchFrame(self)

    # -- plan / route caches -------------------------------------------

    def plan_for(self, path: Path) -> PathPlan:
        entry = self._plans.get(id(path))
        if entry is None or entry[0] is not path:
            entry = (path, PathPlan(path, self.sim.topology))
            self._plans[id(path)] = entry
        return entry[1]

    def _route_for(self, src: str, dst: str):
        """``(route, plan)`` from ``src`` to ``dst``; ``plan`` is the
        compiled only path, or None on a multi-path route."""
        key = (src, dst)
        entry = self._routes.get(key)
        if entry is None:
            route = self.sim.topology.route_between(src, dst)
            paths = route.paths
            plan = self.plan_for(paths[0]) if len(paths) == 1 else None
            entry = self._routes[key] = (route, plan)
        return entry

    # -- the per-send walk ---------------------------------------------

    def send(
        self,
        packet: Packet,
        wire_bytes: Optional[bytes] = None,
        flow: Optional[FlowKey] = None,
    ) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``;
        returns every packet delivered back to it, in arrival order (an
        empty list is a timeout).

        ``wire_bytes``, when the caller already serialized the packet
        (CenTrace records ``sent_bytes`` for every probe), lets the
        expiry path derive the ICMP quote by patching the TTL byte
        instead of re-serializing the transport payload. ``flow``, when
        the caller holds the packet's flow key (a connection's data
        segment), is used for the ECMP hash instead of rebuilding it.

        Under a fault plan the send counts toward path churn before its
        path is picked, and the deliveries are shaped (duplication,
        reordering) after the walk.
        """
        ip = packet.ip
        plan = self._enter(ip.src, ip.dst, flow, packet)
        deliveries: List[Packet] = []
        self._walk_forward(plan, packet, deliveries, wire_bytes)
        return self._leave(deliveries)

    def _enter(
        self,
        src: str,
        dst: str,
        flow: Optional[FlowKey],
        packet: Optional[Packet] = None,
    ) -> PathPlan:
        """Start one client send from ``src`` to ``dst``: tally it,
        advance the clock, count it toward path churn, then pick its
        path. ``flow`` is the ECMP hash key; on a multi-path route a
        missing one is taken from ``packet``."""
        sim = self.sim
        if sim.telemetry.enabled:
            sim.telemetry.count(SIM_BATCH_FAST_PATH)
        if self._batches:
            self._batches[-1][1] += 1
        sim.clock += sim.per_packet_time
        faults = sim._faults
        if faults is not None:
            faults.note_client_packet(sim.clock)
        entry = self._routes.get((src, dst))
        route, plan = entry if entry is not None else self._route_for(src, dst)
        if plan is None:
            if flow is None:
                # TCP hashes its real 5-tuple, everything else a
                # degenerate per-pair key.
                flow = (
                    packet.flow_key()
                    if packet.tcp is not None
                    else FlowKey(src, dst, 0, 0, 1)
                )
            # Churn moves the ECMP hash seed (Simulator.current_path_seed).
            seed = sim.seed if faults is None else faults.path_seed(sim.seed)
            plan = self.plan_for(route.select(flow, seed=seed))
        # Every walk of this send runs the plan's schedule: recompile it
        # if the fault plan or the uniform loss rate changed since.
        schedule = plan.schedule
        if (
            schedule is None
            or schedule.faults is not faults
            or schedule.loss_rate != sim.loss_rate
        ):
            plan.schedule = WalkSchedule(plan, faults, sim.loss_rate)
        return plan

    def _leave(self, deliveries: List[Packet]) -> List[Packet]:
        """Finish one client send: shape its deliveries, count it."""
        sim = self.sim
        if sim._faults is not None:
            deliveries = sim._faults.shape_deliveries(deliveries, sim._clone)
        tel = sim.telemetry
        if tel.enabled:
            tel.count(SIM_CLIENT_PACKETS)
            if deliveries:
                tel.count(SIM_DELIVERIES, len(deliveries))
        return deliveries

    def _walk_forward(
        self,
        plan: PathPlan,
        packet: Packet,
        deliveries: List[Packet],
        wire_bytes: Optional[bytes],
    ) -> None:
        sim = self.sim
        tel = sim.telemetry
        tel_on = tel.enabled
        start_ttl = packet.ip.ttl
        client_ip = packet.ip.src
        terminal, last_hop, terminal_router = plan.terminal_for(start_ttl)
        walk_pkt: Optional[Packet] = None
        rewrite_pos = 0
        end = last_hop + 1
        step = self._lottery(plan, 0, end, _INSPECT)
        schedule = plan.schedule
        stop = schedule.step_at[end]
        while step != stop:
            if step < 0:
                return
            # Stopped at a device that did not fail open: inspect.
            device = schedule.steps[step][1]
            dev_hop = schedule.link_of[step]
            if walk_pkt is None and (
                plan.rewrites and plan.rewrites[0][0] < dev_hop
            ):
                # A router upstream rewrites the header: devices from
                # here on must see the rewritten copy. Otherwise they
                # read the caller's packet (LinkDevice.inspect is
                # read-only).
                walk_pkt = sim._clone(packet)
            if walk_pkt is not None:
                rewrite_pos = self._apply_rewrites(
                    plan, walk_pkt, rewrite_pos, dev_hop
                )
                inspected = walk_pkt
            else:
                inspected = packet
            ctx = InspectionContext(
                sim.clock,
                start_ttl - plan.routers_before[dev_hop],
                dev_hop,
                DIRECTION_FORWARD,
                sim.net_context,
            )
            verdict = device.inspect(inspected, ctx)
            if tel_on:
                tel.count(SIM_DEVICE_INSPECTIONS)
                if verdict.acted:
                    tel.count(SIM_DEVICE_ACTIONS)
            if verdict.inject_to_client or verdict.inject_to_server:
                self._dispatch_injections(verdict, plan, dev_hop, deliveries)
            if verdict.drop and device.in_path:
                if tel_on:
                    tel.count(SIM_DEVICE_DROPS)
                return
            step = self._lottery(plan, dev_hop + 1, end, _INSPECT, step + 1)
        if terminal is _EXPIRE:
            self._expire(
                plan,
                packet,
                walk_pkt,
                wire_bytes,
                rewrite_pos,
                last_hop,
                terminal_router,
                deliveries,
                client_ip,
            )
        elif terminal is _DELIVER:
            self._deliver(
                plan, packet, walk_pkt, rewrite_pos, start_ttl, last_hop,
                deliveries,
            )
        # _SINK / _TIMEOUT: the walk ends without an observable event.

    def _lottery(
        self,
        plan: PathPlan,
        first: int,
        end: int,
        mode: int,
        start: Optional[int] = None,
    ) -> int:
        """Walk links ``first .. end-1`` of ``plan``'s schedule (see
        :class:`WalkSchedule`), from step ``start`` when a data segment
        resumes after a device: every loss draw and fate roll any walk
        takes is taken here, in order.

        A loss ends the walk. ``mode`` says what a device step does:
        nothing (``_SKIP``: forgeries and reverse walks), or roll its
        fate and then pass the flow (``_PASS``: control segments) or
        stop so that the caller inspects (``_INSPECT``: data segments).
        A device that fails open is passed over; a fail-closed fate ends
        the walk at an in-path device, and lets any other inspect.
        Returns -1 when the walk ended, the index of the device step it
        stopped at, or ``step_at[end]`` when it ran through.

        :meth:`_enter` recompiled the schedule if the fault state or the
        uniform loss rate changed. The fault counters move as the draws
        fall; the telemetry follows from where the lottery
        stopped: the links rolled (under a loss profile, zero-rate links
        included), the devices reached (under a flaky profile, those the
        profile skips included) and, for a control segment, the devices
        inspected.
        """
        sim = self.sim
        faults = sim._faults
        schedule = plan.schedule
        step_at = schedule.step_at
        stop = step_at[end]
        if start is None:
            start = step_at[first]
        rnd = (faults.rng if schedule.profiled else sim._rng).random
        ended = False
        opened = 0
        for threshold, device, step in schedule.steps[start:stop]:
            if device is None:
                if rnd() < threshold:
                    ended = True
                    break
            elif mode:
                if threshold is not None:
                    roll = faults.rng.random()
                    if roll < threshold:
                        if roll < schedule.fail_open_rate:
                            faults.counters.fail_open += 1
                            opened += 1
                            continue
                        faults.counters.fail_closed += 1
                        if device.in_path:
                            ended = True
                            break
                if mode == _INSPECT:
                    break
        else:
            step = stop
        tel = sim.telemetry
        if not (ended or tel.enabled):
            return step
        lost = ended and device is None
        if lost and schedule.profiled:
            faults.counters.packets_lost += 1
        if tel.enabled:
            if step == stop:
                links = end - first
                upto = stop
            else:
                links = schedule.link_of[step] + 1 - first
                upto = step if device is None else step + 1
            if schedule.profiled and links:
                tel.count(SIM_FAULT_LOSS_ROLLS, links)
            if lost:
                tel.count(SIM_PACKETS_LOST)
            if mode:
                reached = schedule.reached[upto] - schedule.reached[start]
                if schedule.flaky and reached:
                    tel.count(SIM_FAULT_DEVICE_ROLLS, reached)
                # A device that failed open, or closed and ended the
                # walk, was not inspected.
                inspected = reached - opened - (ended and not lost)
                if mode == _PASS and inspected:
                    tel.count(SIM_DEVICE_INSPECTIONS, inspected)
        return -1 if ended else step

    @staticmethod
    def _apply_rewrites(
        plan: PathPlan, pkt: Packet, pos: int, upto_hop: int
    ) -> int:
        """Apply header rewrites of routers at hop indices < ``upto_hop``.

        Incremental (``pos`` is the resume point) so rewrites interleave
        correctly with device inspections, as on a hop-by-hop walk.
        """
        rewrites = plan.rewrites
        while pos < len(rewrites) and rewrites[pos][0] < upto_hop:
            _, rtos, rflags = rewrites[pos]
            ip = pkt.ip
            if rtos is not None and ip.tos != rtos:
                pkt.ip = ip = ip.copy(tos=rtos)
            if rflags is not None and ip.flags != rflags:
                pkt.ip = ip.copy(flags=rflags)
            pos += 1
        return pos

    def _expire(
        self,
        plan: PathPlan,
        packet: Packet,
        walk_pkt: Optional[Packet],
        wire_bytes: Optional[bytes],
        rewrite_pos: int,
        hop: int,
        router: Router,
        deliveries: List[Packet],
        client_ip: str,
    ) -> None:
        """TTL hit zero at ``router`` — the plan-resolved expiry event."""
        sim = self.sim
        tel = sim.telemetry
        if not router.responds_icmp:
            if tel.enabled:
                tel.count(SIM_ICMP_SILENT)
            return
        faults = sim._faults
        if faults is not None and faults.icmp_suppressed(router, sim.clock):
            # Token bucket empty: this expiry goes unanswered.
            if tel.enabled:
                tel.count(SIM_ICMP_RATE_LIMITED)
            return
        if tel.enabled:
            tel.count(SIM_ICMP_GENERATED)
        if walk_pkt is not None:
            # Rewrites already materialized the in-flight copy for a
            # device: finish its rewrites and serialize it.
            self._apply_rewrites(plan, walk_pkt, rewrite_pos, hop)
            walk_pkt.ip = walk_pkt.ip.copy(ttl=1)
            quoted = walk_pkt.to_bytes()
        elif wire_bytes is not None and not (
            plan.rewrites and plan.rewrites[0][0] < hop
        ):
            # Nothing rewrote the packet before the expiring router: the
            # quote is the sent bytes with only the TTL (and therefore
            # the IP checksum) changed.
            quoted = patched_quote(wire_bytes, 1)
        else:
            clone = sim._clone(packet)
            self._apply_rewrites(plan, clone, rewrite_pos, hop)
            clone.ip = clone.ip.copy(ttl=1)
            quoted = clone.to_bytes()
        message = time_exceeded(quoted, policy=router.quoting)
        response = icmp_packet(
            router.ip, client_ip, message, ttl=64, net=sim.net_context
        )
        response.emitted_by = router.name
        self._lean_reverse(plan, response, hop, deliveries)

    def _deliver(
        self,
        plan: PathPlan,
        packet: Packet,
        walk_pkt: Optional[Packet],
        rewrite_pos: int,
        start_ttl: int,
        last_hop: int,
        deliveries: List[Packet],
    ) -> None:
        """Arrival at the endpoint hop (services + TCP stack delivery)."""
        sim = self.sim
        endpoint = plan.endpoint
        remaining = start_ttl - plan.routers_before[last_hop]
        restore = False
        if walk_pkt is not None:
            self._apply_rewrites(plan, walk_pkt, rewrite_pos, last_hop)
            walk_pkt.ip.ttl = remaining
            arrived = walk_pkt
        elif plan.rewrites and plan.rewrites[0][0] < last_hop:
            arrived = sim._clone(packet)
            self._apply_rewrites(plan, arrived, 0, last_hop)
            arrived.ip.ttl = remaining
        else:
            # Zero-copy delivery: no rewrite touched the header, so the
            # stack/resolver may read the caller's packet directly; only
            # the on-wire TTL differs, set for the call and restored.
            arrived = packet
            restore = True
            saved_ttl = packet.ip.ttl
            packet.ip.ttl = remaining
        try:
            if arrived.udp is not None:
                if endpoint.resolver is not None:
                    for response in endpoint.resolver.handle_query(
                        arrived, endpoint.ip, net=sim.net_context
                    ):
                        self._lean_reverse(plan, response, last_hop, deliveries)
                return
            if arrived.tcp is None:
                return
            stack = sim._stack_for(endpoint)
            for response in stack.receive(arrived, sim.clock):
                self._lean_reverse(plan, response, last_hop, deliveries)
        finally:
            if restore:
                packet.ip.ttl = saved_ttl

    def _lean_reverse(
        self,
        plan: PathPlan,
        pkt: Packet,
        start_index: int,
        deliveries: List[Packet],
    ) -> None:
        """Walk ``pkt`` from hop ``start_index`` back into the client,
        delivering it with its arrival TTL unless it dies en route."""
        ttl = self._reverse_ttl(plan, pkt.ip.ttl, start_index)
        if ttl is not None:
            pkt.ip.ttl = ttl
            deliveries.append(pkt)

    def _reverse_ttl(
        self, plan: PathPlan, ttl: int, start_index: int
    ) -> Optional[int]:
        """The arrival TTL of a packet sent with ``ttl`` from hop
        ``start_index`` back to the client; None when it dies en route.

        The reverse walk: one loss roll per link (hops
        ``start_index-1 .. 0`` plus the client link, in order), TTL
        decrement at routers with silent expiry. Its lottery covers as
        many links as the TTL lets it cross: all ``start_index + 1``
        when the TTL exceeds the routers crossed (every TTL-64 reply),
        else the links up to the router that expires it.
        """
        crossed = plan.routers_before[start_index]
        if ttl > crossed:
            links = start_index + 1
        else:
            # The router at hop j expires it, the last hop with
            # routers_before[j] == crossed - ttl, after the rolls for
            # links start_index-1 .. j.
            links = start_index + 1 - bisect_left(
                plan.routers_before, crossed - ttl + 1
            )
        first = 2 * plan.n_hops - start_index
        if self._lottery(plan, first, first + links, _SKIP) < 0:
            return None
        if ttl <= crossed:
            tel = self.sim.telemetry
            if tel.enabled:
                tel.count(SIM_REVERSE_TTL_EXPIRED)
            return None
        return ttl - crossed

    def _dispatch_injections(
        self,
        verdict: Verdict,
        plan: PathPlan,
        link_index: int,
        deliveries: List[Packet],
    ) -> None:
        sim = self.sim
        tel = sim.telemetry
        tel_on = tel.enabled
        for injected in verdict.inject_to_client:
            if tel_on:
                tel.count(SIM_INJECTED_TO_CLIENT)
            self._lean_reverse(
                plan, sim._clone(injected), link_index, deliveries
            )
        for injected in verdict.inject_to_server:
            if tel_on:
                tel.count(SIM_INJECTED_TO_SERVER)
            self._walk_injected(
                plan, sim._clone(injected), link_index, deliveries
            )

    def _walk_injected(
        self,
        plan: PathPlan,
        pkt: Packet,
        link_index: int,
        deliveries: List[Packet],
    ) -> None:
        """Carry a device's forgery ``pkt`` toward the server from hop
        ``link_index``, the hop its link leads to.

        The device's own link takes no loss draw; the later links take
        the loss steps of the plan's schedule, in order, and no device
        step. Routers decrement the TTL and rewrite
        headers; expiry is silent, since its ICMP error would go to the
        spoofed source. No device inspects a forgery, and the endpoint's
        TCP stack alone answers it (e.g. the RST for data on an unknown
        flow); the replies walk back to the client.
        """
        sim = self.sim
        ttl = pkt.ip.ttl
        behind = plan.routers_before[link_index]
        ahead = plan.routers_reachable - behind
        if ahead and ttl <= ahead:
            # Expires at the ttl-th router from link_index on (a TTL at
            # or below 0 at the first one).
            hop, _ = plan.router_hops[behind + max(ttl, 1) - 1]
            if self._lottery(plan, link_index + 1, hop + 1, _SKIP) >= 0:
                tel = sim.telemetry
                if tel.enabled:
                    tel.count(SIM_INJECTED_TTL_EXPIRED)
            return
        terminal = plan.terminal_index
        if terminal is None:
            # An all-router path the forgery outlives: it just ends.
            self._lottery(plan, link_index + 1, plan.n_hops, _SKIP)
            return
        if self._lottery(plan, link_index + 1, terminal + 1, _SKIP) < 0:
            return
        endpoint = plan.endpoint
        if endpoint is None:
            return
        # The rewrites of the routers from link_index on.
        pos = bisect_left(plan.rewrites, (link_index,))
        self._apply_rewrites(plan, pkt, pos, terminal)
        pkt.ip.ttl = ttl - ahead
        stack = sim._stack_for(endpoint)
        for response in stack.receive(pkt, sim.clock):
            self._lean_reverse(plan, response, terminal, deliveries)

    # -- connection-level control segments -----------------------------

    def connect(self, conn, retries: int) -> bool:
        """``conn.connect(retries)``: the three-way handshake at full
        TTL, each segment sent by :meth:`_control`.

        Sets ``conn.server_isn`` and ``conn.established`` when a SYN-ACK
        comes back; an RST (or silence after every retry) fails it.
        """
        isn = conn.CLIENT_ISN
        for _ in range(retries + 1):
            for flags, seq in self._control(conn, tcpmod.SYN, isn, 0):
                if flags & tcpmod.SYN and flags & tcpmod.ACK:
                    conn.server_isn = seq
                    self._control(conn, tcpmod.ACK, isn + 1, seq + 1)
                    conn.established = True
                    return True
                if flags & tcpmod.RST:
                    return False
        return False

    def close(self, conn) -> None:
        """``conn.close()``: send the FIN, discard the replies."""
        ack = conn.server_isn + 1 if conn.server_isn is not None else 0
        self._control(conn, tcpmod.FIN | tcpmod.ACK, conn._next_seq, ack)

    def _control(
        self, conn, flags: int, seq: int, ack: int
    ) -> List[Tuple[int, int]]:
        """Send one payload-less segment of ``conn`` at TTL 64; returns
        ``(flags, seq)`` of each TCP packet delivered back, in order.

        Equivalent to building the segment with ``tcp_packet`` and
        :meth:`send`-ing it. When every device the segment reaches
        (``plan.control_devices``) ``passes_control`` the flow, and the
        segment is not going to expire at a router, no packet is built:
        the segment's IP ID is allocated, its loss and flaky-device
        fates are drawn as :meth:`_walk_forward` draws them, the
        endpoint applies its TCP transition, and the reply's IP ID and
        reverse walk follow. A delivery profile shapes the reply's
        ``(flags, seq)``, so the reply is never built either. Otherwise
        the segment is built and walked by :meth:`_walk_forward`.
        """
        sim = self.sim
        net = sim.net_context
        flow = conn.flow
        ip_id = net.next_ip_id()
        plan = self._enter(flow.src, flow.dst, flow)
        terminal, last_hop, _ = plan.control_terminal
        resolvable = terminal is not _EXPIRE
        if resolvable:
            clock = sim.clock
            for device in plan.control_devices:
                if not device.passes_control(flow, clock):
                    resolvable = False
                    break
        if not resolvable:
            packet = tcp_packet(
                flow.src,
                flow.dst,
                flow.sport,
                flow.dport,
                flags=flags,
                seq=seq,
                ack=ack,
                ttl=_CONTROL_TTL,
                ip_id=ip_id,
            )
            deliveries: List[Packet] = []
            self._walk_forward(plan, packet, deliveries, None)
            return [
                (p.tcp.flags, p.tcp.seq)
                for p in self._leave(deliveries)
                if p.tcp is not None
            ]
        reached = self._lottery(plan, 0, last_hop + 1, _PASS) >= 0
        faults = sim._faults
        replies: List[Tuple[int, int]] = []
        if reached and terminal is _DELIVER:
            stack = sim._stack_for(plan.endpoint)
            reply = stack.transition(
                flow.src, flow.dst, flow.sport, flow.dport, flags, seq, ack
            )
            if reply is not None:
                net.next_ip_id()  # the reply's IP ID
                if self._reverse_ttl(plan, stack.REPLY_TTL, last_hop) is not None:
                    replies.append(reply[:2])
                    if faults is not None:
                        # Duplication and reordering draw per delivery;
                        # the reply's (flags, seq) is all they move.
                        replies = faults.shape_deliveries(replies, tuple)
        tel = sim.telemetry
        if tel.enabled:
            tel.count(SIM_CLIENT_PACKETS)
            tel.count(SIM_BATCH_CONTROL_RESOLVED)
            if replies:
                tel.count(SIM_DELIVERIES, len(replies))
        return replies

    # -- TTL ladders ----------------------------------------------------

    def run_udp_ladder(
        self,
        client_ip: str,
        dst_ip: str,
        dport: int,
        ttls: Sequence[int],
        payload_for: Callable[[int], bytes],
        *,
        tos: int = 0,
        label: str = "udp-ladder",
    ) -> List[List[Packet]]:
        """Send one UDP probe per TTL in ``ttls`` through :meth:`send`,
        inside one batch frame; returns each probe's deliveries.

        Each probe takes a fresh source port, and ``payload_for(sport)``
        builds its payload (the DNS case: the transaction ID is derived
        from the port).
        """
        net = self.sim.net_context
        results = []
        with self.batch(label):
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
