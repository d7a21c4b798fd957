"""Interfaces between the simulator and the things plugged into it.

``repro.devices`` implements :class:`LinkDevice` (censorship middleboxes
attached to links) and ``repro.services`` implements
:class:`ApplicationServer` (the payload-level behaviour of endpoints).
Keeping the interfaces here avoids circular imports and documents exactly
what a device may observe and do.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

from ..netmodel.ip import FlowKey
from ..netmodel.netctx import NetContext
from ..netmodel.packet import Packet

DIRECTION_FORWARD = "forward"  # client -> endpoint
DIRECTION_REVERSE = "reverse"  # endpoint -> client


@dataclass(slots=True)
class InspectionContext:
    """What a device knows when a packet passes its attachment point."""

    clock: float
    remaining_ttl: int  # the packet's TTL on the wire at this link
    link_index: int  # 0 = link leaving the client
    direction: str = DIRECTION_FORWARD
    # The owning simulator's identifier context: devices draw forged-
    # packet IP IDs / DNS cursors from here so injections replay
    # bit-identically under the per-unit reset protocol. None (a
    # hand-built context, e.g. in unit tests) falls back to the
    # process-wide default stream.
    net: Optional[NetContext] = None


@dataclass(frozen=True, slots=True)
class Verdict:
    """The action a device takes on a packet.

    ``inject_to_client``/``inject_to_server`` carry fully-formed spoofed
    packets; the simulator walks them to their destinations with normal
    TTL decrementing (so TTL-copying injections can die en route, which
    is what produces the paper's "Past E" observations).

    Frozen with tuple fields, so every inspection that lets a packet by
    can share the one :meth:`pass_through` instance, and a device can
    share one drop verdict per note.
    """

    drop: bool = False
    inject_to_client: Tuple[Packet, ...] = ()
    inject_to_server: Tuple[Packet, ...] = ()
    note: str = ""  # ground-truth annotation for tests/debugging

    @property
    def acted(self) -> bool:
        return bool(self.drop or self.inject_to_client or self.inject_to_server)

    @staticmethod
    def pass_through() -> "Verdict":
        """The shared verdict of a device that lets the packet by."""
        return _PASS_THROUGH


_PASS_THROUGH = Verdict()


class LinkDevice(abc.ABC):
    """A middlebox attached to a link.

    ``in_path`` devices sit in the link: they may drop traffic at line
    rate. On-path devices receive a *copy* of each packet: they may
    inject but their ``drop`` verdicts are ignored by the simulator.
    """

    name: str = "device"
    in_path: bool = True

    @abc.abstractmethod
    def inspect(self, packet: Packet, ctx: InspectionContext) -> Verdict:
        """Observe ``packet``; return the device's action.

        ``packet`` is read-only. The batched walk hands a device the
        caller's own packet whenever no router rewrote its header
        first, so a device must not assign to the packet or its
        headers, and must not keep a reference to it after returning.
        Everything a device does to traffic goes through the returned
        verdict. ``packet.ip.ttl`` is the TTL the client sent; the TTL
        left at this link is ``ctx.remaining_ttl``.
        """

    def passes_control(self, flow: FlowKey, clock: float) -> bool:
        """Would :meth:`inspect` let a client's payload-less TCP segment
        of ``flow`` (SYN, handshake ACK, FIN) pass untouched at ``clock``?

        True promises that ``inspect`` would return a pass-through
        verdict and change no state that any later inspection or
        verdict depends on. The batched plane then resolves the segment
        without building a packet for the device to read. False (the
        default) makes the batched plane build the packet and call
        :meth:`inspect`. Read-only, like ``inspect``.
        """
        return False


@dataclass(frozen=True)
class AppReply:
    """An application server's reaction to a payload.

    Frozen with a tuple of responses, so one reply can be shared by
    every delivery of the same payload (``EndpointStack`` memoizes
    them).
    """

    responses: Tuple[bytes, ...] = ()  # payload bytes
    drop: bool = False  # silently ignore (endpoint-local filtering)
    reset: bool = False  # respond with TCP RST
    close: bool = False  # send FIN after responses

    @classmethod
    def respond(cls, *payloads: bytes, close: bool = False) -> "AppReply":
        return cls(responses=payloads, close=close)


class ApplicationServer(abc.ABC):
    """Payload-level behaviour of an endpoint (one per endpoint)."""

    @abc.abstractmethod
    def handle_payload(self, payload: bytes, client_ip: str) -> AppReply:
        """React to application-layer ``payload`` from ``client_ip``.

        A pure function of ``payload``, ``client_ip`` and the server's
        construction: no state may change between calls, and no clock,
        RNG or connection state may be read. ``EndpointStack`` relies on
        this to answer a repeated payload from its memo instead of
        calling the server again.
        """
