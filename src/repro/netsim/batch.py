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
* :meth:`BatchEngine.send` walks one client packet on its plan.
  Uniform loss draws are taken from the simulator's RNG in tight
  in-order loops between event hops, one draw per link crossed. A
  reverse walk under uniform loss is one *lottery*: a plain ``for``
  loop of draws that stops at the first loss, as long as the TTL fixes
  — every link when the TTL exceeds the routers crossed (every TTL-64
  reply: endpoint replies, ICMP errors, control replies), else up to
  the router that expires it. Full
  :class:`~repro.netmodel.packet.Packet` clones are materialized
  lazily — only when a router's header rewrite (or the arrival TTL)
  makes the in-flight packet differ from the caller's. Devices inspect
  the caller's packet itself unless a rewrite precedes them
  (:meth:`~repro.netsim.interfaces.LinkDevice.inspect` is read-only).
  A device's forgeries walk the same plan: toward the client through
  the reverse walk, toward the server through :meth:`_walk_injected`.
* :meth:`BatchEngine.connect` and :meth:`BatchEngine.close` carry a
  TCP connection's payload-less control segments — the SYN, the
  handshake ACK and the FIN that every CenTrace probe's fresh
  connection costs — without a packet at all. Each segment allocates
  its IP ID, asks every device it reaches (the plan's flat
  ``control_devices`` span) whether it passes the flow untouched
  (:meth:`~repro.netsim.interfaces.LinkDevice.passes_control`), draws
  its forward walk as one lottery (with no fault plan, ``last_hop + 1``
  uniform loss draws; under one, the plan's :class:`ControlSchedule`:
  every loss draw and flaky-device fate the walk takes, in order,
  compiled once per fault configuration), meets the endpoint's TCP
  transition, and draws the reply's IP ID and reverse walk; only the
  reply's flags and sequence number come back.
  A segment some device may act on (a residually punished tuple) is
  built and walked by the per-send path instead.

Fault plans run on the same compiled plans: per-link loss profiles
draw from the fault RNG against per-hop rates cached on the plan (a
reverse walk under one is a lottery too, over the rates in reverse-walk
order), flaky-device fates are rolled before each inspection,
token-bucket ICMP suppression is checked on expiry, and path churn and
delivery shaping wrap each send, control segments included. Every walk
reproduces the reference semantics of the scalar transit walk kept
with the tests (``tests/oracle``) exactly — deliveries, the RNG draw
streams, identifier streams, the clock and telemetry — which the
parity suites check. ``sim.batch_fast_path`` counts client sends,
``sim.batch_control_resolved`` the control segments that never became
packets, and a ``sim.batch`` event records each logical batch's size.

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
from .faults import FATE_FAIL_CLOSED, FATE_FAIL_OPEN, FaultPlan, LossProfile
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
    engine keyed by path identity. The loss rates a fault plan's
    profile assigns to the path's links are cached on the plan too.
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
        "control_schedule",
        "_loss_profile",
        "_loss_rates",
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
        self.control_schedule: Optional[ControlSchedule] = None
        self._loss_profile: Optional[LossProfile] = None
        self._loss_rates: Tuple[Tuple[float, ...], Tuple[float, ...]] = ((), ())

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

    def loss_rates(
        self, profile: LossProfile
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """``profile``'s rate for the link leading to each hop, and the
        same rates in reverse-walk order followed by the client link's
        rate — cached for the last profile seen.

        The fault-plan walks index these tuples instead of resolving
        ``LossProfile.rate_for`` link by link. A reverse walk from hop
        ``s`` rolls ``reverse[n_hops - s:]``, in order.
        """
        if self._loss_profile is not profile:
            rates = tuple(profile.rate_for(node) for node in self.nodes)
            reverse = rates[::-1] + (profile.rate_for(None),)
            self._loss_rates = (rates, reverse)
            self._loss_profile = profile
        return self._loss_rates


class ControlSchedule:
    """Every draw a TTL-64 control segment takes on one plan under one
    fault plan and uniform loss rate, in walk order, up to the plan's
    ``control_terminal``.

    A step is a loss draw for a link with a positive rate — from the
    fault RNG at a loss profile's rate, else from the base RNG at the
    uniform rate — or a fate roll from the fault RNG for a device the
    flaky profile applies to. ``thresholds[i]`` is what a step's draw
    must fall below for anything to happen: the loss rate, or the sum
    of the fail-open and fail-closed rates. ``devices[i]`` is the
    rolled device, None for a loss step. A lottery stops at the first
    loss or at a fail-closed fate on an in-path device, and the
    telemetry of the walk follows from where it stopped:
    ``links_at[i]`` links were rolled and ``reached_at[i]`` devices
    reached (the rolled device included) when it stops at step ``i``;
    ``links`` and ``reached`` when it runs through.
    """

    __slots__ = (
        "fault_plan",
        "loss_rate",
        "profiled",
        "flaky",
        "fail_open_rate",
        "fault_rng",
        "fault_draws",
        "thresholds",
        "devices",
        "links_at",
        "reached_at",
        "links",
        "reached",
    )

    def __init__(
        self,
        plan: PathPlan,
        fault_plan: FaultPlan,
        loss_rate: float,
    ) -> None:
        self.fault_plan = fault_plan
        self.loss_rate = loss_rate
        loss = fault_plan.loss
        flaky = fault_plan.flaky_devices
        self.profiled = loss is not None
        self.flaky = flaky is not None
        self.fail_open_rate = flaky.fail_open_rate if flaky is not None else 0.0
        last_hop = plan.control_terminal[1]
        if loss is not None:
            # The profile replaces the uniform rate wholesale.
            rates = plan.loss_rates(loss)[0]
        else:
            rates = (loss_rate,) * (last_hop + 1)
        devices_at = dict(plan.device_hops)
        thresholds: List[float] = []
        devices: List[Optional[LinkDevice]] = []
        links_at: List[int] = []
        reached_at: List[int] = []
        fault_draws: List[bool] = []
        reached = 0
        for link in range(last_hop + 1):
            if rates[link] > 0.0:
                thresholds.append(rates[link])
                devices.append(None)
                links_at.append(link + 1)
                reached_at.append(reached)
                fault_draws.append(loss is not None)
            for device in devices_at.get(link, ()):
                reached += 1
                if flaky is not None and flaky.applies_to(device):
                    thresholds.append(
                        flaky.fail_open_rate + flaky.fail_closed_rate
                    )
                    devices.append(device)
                    links_at.append(link + 1)
                    reached_at.append(reached)
                    fault_draws.append(True)
        self.thresholds = tuple(thresholds)
        self.devices = tuple(devices)
        self.links_at = tuple(links_at)
        self.reached_at = tuple(reached_at)
        self.links = last_hop + 1
        self.reached = reached
        # Uniform loss under a flaky profile interleaves the two RNGs;
        # otherwise one of them serves every step.
        self.fault_rng = all(fault_draws)
        mixed = any(fault_draws) and not all(fault_draws)
        self.fault_draws = tuple(fault_draws) if mixed else None


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
        if plan is not None:
            return plan
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
        return self.plan_for(route.select(flow, seed=seed))

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

    def _forward_lost(
        self, rates: Optional[Tuple[float, ...]], start: int, stop: int
    ) -> bool:
        """Loss on the links leading to hops ``start .. stop-1``.

        One draw per link in walk order: from the fault RNG at a loss
        profile's per-hop ``rates`` (every link rolled counts one
        ``sim.fault_loss_rolls``, and only a positive rate draws), else
        from the base RNG at the uniform rate.
        """
        sim = self.sim
        tel = sim.telemetry
        if rates is None:
            rate = sim.loss_rate
            if rate > 0:
                rnd = sim._rng.random
                for _ in range(start, stop):
                    if rnd() < rate:
                        if tel.enabled:
                            tel.count(SIM_PACKETS_LOST)
                        return True
            return False
        rnd = sim._faults.rng.random
        for j in range(start, stop):
            rate = rates[j]
            if rate > 0.0 and rnd() < rate:
                self._fault_lost(j + 1 - start)
                return True
        if tel.enabled and stop > start:
            tel.count(SIM_FAULT_LOSS_ROLLS, stop - start)
        return False

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
        rates, flaky = self._fault_walk(plan)
        # Uniform loss is drawn in place; a profile's through _forward_lost.
        rate = sim.loss_rate if rates is None else 0.0
        rnd = sim._rng.random
        faults = sim._faults
        start_ttl = packet.ip.ttl
        client_ip = packet.ip.src
        terminal, last_hop, terminal_router = plan.terminal_for(start_ttl)
        walk_pkt: Optional[Packet] = None
        rewrite_pos = 0
        cursor = 0  # next link index still owing a loss draw
        for dev_hop, devices in plan.device_hops:
            if dev_hop > last_hop:
                break
            if rates is not None:
                if self._forward_lost(rates, cursor, dev_hop + 1):
                    return
                cursor = dev_hop + 1
            elif rate > 0:
                for _ in range(cursor, dev_hop + 1):
                    if rnd() < rate:
                        if tel_on:
                            tel.count(SIM_PACKETS_LOST)
                        return
                cursor = dev_hop + 1
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
            remaining = start_ttl - plan.routers_before[dev_hop]
            for device in devices:
                if flaky:
                    if tel_on:
                        tel.count(SIM_FAULT_DEVICE_ROLLS)
                    fate = faults.device_fate(device)
                    if fate == FATE_FAIL_OPEN:
                        continue
                    if fate == FATE_FAIL_CLOSED and device.in_path:
                        return
                ctx = InspectionContext(
                    sim.clock, remaining, dev_hop, DIRECTION_FORWARD, sim.net_context
                )
                verdict = device.inspect(inspected, ctx)
                if tel_on:
                    tel.count(SIM_DEVICE_INSPECTIONS)
                    if verdict.acted:
                        tel.count(SIM_DEVICE_ACTIONS)
                if verdict.inject_to_client or verdict.inject_to_server:
                    self._dispatch_injections(
                        verdict, plan, dev_hop, deliveries
                    )
                if verdict.drop and device.in_path:
                    if tel_on:
                        tel.count(SIM_DEVICE_DROPS)
                    return
        if rates is not None:
            if self._forward_lost(rates, cursor, last_hop + 1):
                return
        elif rate > 0:
            for _ in range(cursor, last_hop + 1):
                if rnd() < rate:
                    if tel_on:
                        tel.count(SIM_PACKETS_LOST)
                    return
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

    def _fault_walk(
        self, plan: PathPlan
    ) -> Tuple[Optional[Tuple[float, ...]], bool]:
        """A forward walk's fault setup: the loss profile's per-hop
        rates on ``plan`` (None: the uniform rate applies), and whether
        devices roll flaky fates."""
        faults = self.sim._faults
        if faults is None:
            return None, False
        rates = None
        if faults.per_link_loss:
            # The profile replaces the uniform rate wholesale.
            rates = plan.loss_rates(faults.plan.loss)[0]
        return rates, faults.plan.flaky_devices is not None

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

        The reverse walk: one loss draw per link
        (hops ``start_index-1 .. 0`` plus the client link, in order),
        TTL decrement at routers with silent expiry. It is one lottery
        whose length the TTL fixes: all ``start_index + 1`` links when
        the TTL exceeds the routers crossed (every TTL-64 reply), else
        the links up to the router that expires it. Under a fault-plan
        loss profile the draws come from the fault RNG at the plan's
        cached per-link rates in reverse-walk order (a zero-rate link is
        rolled without a draw), else from the base RNG at the uniform
        rate. With no loss at all the whole walk reduces to one
        subtraction against the plan's router counts.
        """
        sim = self.sim
        tel = sim.telemetry
        crossed = plan.routers_before[start_index]
        faults = sim._faults
        profiled = faults is not None and faults.per_link_loss
        rate = sim.loss_rate
        if profiled or rate > 0:
            if ttl > crossed:
                draws = start_index + 1
            else:
                # The router at hop j expires it, the last hop with
                # routers_before[j] == crossed - ttl, after the draws for
                # links start_index-1 .. j.
                draws = start_index + 1 - bisect_left(
                    plan.routers_before, crossed - ttl + 1
                )
            if profiled:
                first = plan.n_hops - start_index
                rates = plan.loss_rates(faults.plan.loss)[1]
                rnd = faults.rng.random
                for rolls, rate in enumerate(rates[first : first + draws], 1):
                    if rate > 0.0 and rnd() < rate:
                        self._fault_lost(rolls)
                        return None
                if tel.enabled:
                    tel.count(SIM_FAULT_LOSS_ROLLS, draws)
            else:
                rnd = sim._rng.random
                for _ in range(draws):
                    if rnd() < rate:
                        if tel.enabled:
                            tel.count(SIM_PACKETS_LOST)
                        return None
        if ttl <= crossed:
            if tel.enabled:
                tel.count(SIM_REVERSE_TTL_EXPIRED)
            return None
        return ttl - crossed

    def _fault_lost(self, rolls: int) -> None:
        """Account a fault-plan loss after ``rolls`` links rolled."""
        sim = self.sim
        sim._faults.counters.packets_lost += 1
        tel = sim.telemetry
        if tel.enabled:
            tel.count(SIM_FAULT_LOSS_ROLLS, rolls)
            tel.count(SIM_PACKETS_LOST)

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

        The device's own link takes no loss draw; each later link takes
        one, in order, from the base RNG or from the fault RNG at the
        plan's per-link rates. Routers decrement the TTL and rewrite
        headers; expiry is silent, since its ICMP error would go to the
        spoofed source. No device inspects a forgery, and the endpoint's
        TCP stack alone answers it (e.g. the RST for data on an unknown
        flow); the replies walk back to the client.
        """
        sim = self.sim
        tel = sim.telemetry
        rates, _ = self._fault_walk(plan)
        ttl = pkt.ip.ttl
        behind = plan.routers_before[link_index]
        ahead = plan.routers_reachable - behind
        if ahead and ttl <= ahead:
            # Expires at the ttl-th router from link_index on (a TTL at
            # or below 0 at the first one).
            hop, _ = plan.router_hops[behind + max(ttl, 1) - 1]
            if not self._forward_lost(rates, link_index + 1, hop + 1):
                if tel.enabled:
                    tel.count(SIM_INJECTED_TTL_EXPIRED)
            return
        terminal = plan.terminal_index
        if terminal is None:
            # An all-router path the forgery outlives: it just ends.
            self._forward_lost(rates, link_index + 1, plan.n_hops)
            return
        if self._forward_lost(rates, link_index + 1, terminal + 1):
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
        faults = sim._faults
        if faults is None:
            reached = self._control_lottery(plan, last_hop)
        else:
            reached = self._fault_lottery(plan)
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

    def _control_lottery(self, plan: PathPlan, last_hop: int) -> bool:
        """The forward walk of a control segment that every device
        passes, with no fault plan: one lottery of ``last_hop + 1``
        uniform loss draws from the base RNG, exactly the draws of
        :meth:`_walk_forward`. True when the segment reaches hop
        ``last_hop``.

        Nothing happens between the draws but device inspections, so
        ``sim.device_inspections`` is counted afterwards, for the
        devices before the link where the lottery stopped.
        """
        sim = self.sim
        tel = sim.telemetry
        stop = last_hop + 1
        crossed = stop  # links crossed before the losing one
        rate = sim.loss_rate
        if rate > 0:
            rnd = sim._rng.random
            for link in range(stop):
                if rnd() < rate:
                    if tel.enabled:
                        tel.count(SIM_PACKETS_LOST)
                    crossed = link
                    break
        if tel.enabled and plan.control_devices:
            inspected = 0
            for dev_hop, devices in plan.device_hops:
                if dev_hop >= crossed:
                    break
                inspected += len(devices)
            if inspected:
                tel.count(SIM_DEVICE_INSPECTIONS, inspected)
        return crossed == stop

    def _fault_lottery(self, plan: PathPlan) -> bool:
        """:meth:`_control_lottery` under a fault plan: one lottery over
        the plan's :class:`ControlSchedule` for the fault plan and the
        uniform loss rate in force, exactly the draws of
        :meth:`_walk_forward` in its order. True when the segment
        reaches the plan's control terminal.

        The walk's counters follow from the step where the lottery
        stopped (and the fail-open fates it met on the way).
        """
        sim = self.sim
        faults = sim._faults
        schedule = plan.control_schedule
        if (
            schedule is None
            or schedule.fault_plan is not faults.plan
            or schedule.loss_rate != sim.loss_rate
        ):
            schedule = plan.control_schedule = ControlSchedule(
                plan, faults.plan, sim.loss_rate
            )
        if schedule.fault_draws is None:
            rnd = (faults.rng if schedule.fault_rng else sim._rng).random
        else:
            # Uniform loss under a flaky profile: each step's own RNG.
            draws = iter(
                [
                    faults.rng.random if fault else sim._rng.random
                    for fault in schedule.fault_draws
                ]
            )
            rnd = lambda: next(draws)()
        stopped = -1
        opened = 0
        for step, threshold in enumerate(schedule.thresholds):
            roll = rnd()
            if roll < threshold:
                device = schedule.devices[step]
                if device is None:
                    stopped = step  # lost on this link
                    break
                if roll < schedule.fail_open_rate:
                    faults.counters.fail_open += 1
                    opened += 1
                    continue
                faults.counters.fail_closed += 1
                if device.in_path:
                    stopped = step
                    break
        lost = stopped >= 0 and schedule.devices[stopped] is None
        if lost and schedule.profiled:
            faults.counters.packets_lost += 1
        tel = sim.telemetry
        if tel.enabled:
            if stopped < 0:
                links, reached = schedule.links, schedule.reached
            else:
                links = schedule.links_at[stopped]
                reached = schedule.reached_at[stopped]
            if schedule.profiled:
                tel.count(SIM_FAULT_LOSS_ROLLS, links)
            if lost:
                tel.count(SIM_PACKETS_LOST)
            if schedule.flaky and reached:
                tel.count(SIM_FAULT_DEVICE_ROLLS, reached)
            # A device that failed open, or closed and ended the walk,
            # was not inspected.
            inspected = reached - opened - (stopped >= 0 and not lost)
            if inspected:
                tel.count(SIM_DEVICE_INSPECTIONS, inspected)
        return stopped < 0

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
