"""Client-side TCP connection emulation.

CenTrace's probes are stateful: it completes a real TCP handshake at
full TTL, then sends the application payload (HTTP request or TLS
ClientHello) with a *limited* TTL — and every probe uses a fresh
connection with a fresh source port (§4.1, "Network path variance").
This module provides exactly that workflow on top of the simulator's
packet engine, to which a :class:`Connection` hands every segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netmodel import tcp as tcpmod
from ..netmodel.ip import DEFAULT_TTL, FlowKey
from ..netmodel.packet import Packet, tcp_packet
from .simulator import Simulator
from .topology import Client


@dataclass(slots=True)
class ProbeResult:
    """Everything the client received in reaction to one sent segment."""

    sent: Packet
    received: List[Packet] = field(default_factory=list)
    # How many retransmissions were needed before anything came back
    # (0 = first attempt answered, or silence with no retries left).
    retries_used: int = 0
    # The serialized probe, when the sender already built it.
    _sent_bytes: Optional[bytes] = field(default=None, repr=False)

    @property
    def sent_bytes(self) -> bytes:
        """The probe's wire bytes, serialized on first read.

        The walk leaves ``sent`` as it was sent (devices read it
        without writing, and a zero-copy delivery restores its TTL), so
        serializing late gives the bytes that went on the wire.
        """
        if self._sent_bytes is None:
            self._sent_bytes = self.sent.to_bytes()
        return self._sent_bytes

    @property
    def timed_out(self) -> bool:
        return not self.received


class Connection:
    """One client TCP connection through the simulator.

    Every segment goes through the connection's packet engine (the
    simulator's :class:`~repro.netsim.batch.BatchEngine` unless another
    object with its ``connect``/``send``/``close`` interface is given).
    The batched plane resolves the handshake and the FIN on the path
    plan: those payload-less segments become packets only when a
    device on the path might act on them. Data segments
    (:meth:`send_payload`) are always packets.
    """

    CLIENT_ISN = 42_000

    __slots__ = (
        "sim",
        "client",
        "dst_ip",
        "dst_port",
        "sport",
        "_engine",
        "established",
        "server_isn",
        "_next_seq",
        "flow",
    )

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        dst_ip: str,
        dst_port: int,
        sport: Optional[int] = None,
        engine=None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        # Source ports feed the ECMP flow hash: drawn from the owning
        # simulator's context, whose per-unit reset replays a
        # measurement's path selection bit-identically.
        self.sport = (
            sport
            if sport is not None
            else sim.net_context.next_ephemeral_port()
        )
        self._engine = engine if engine is not None else sim.batch_engine()
        self.established = False
        self.server_isn: Optional[int] = None
        self._next_seq = self.CLIENT_ISN + 1
        # The ECMP hash and residual-censorship key of every segment.
        self.flow = FlowKey(client.ip, dst_ip, self.sport, dst_port)

    # -- handshake ------------------------------------------------------

    def connect(self, retries: int = 2) -> bool:
        """Perform the three-way handshake at full TTL.

        Returns True when a SYN-ACK came back (retrying to ride out
        simulated loss). A censored or unreachable endpoint leaves the
        connection unestablished.
        """
        return self._engine.connect(self, retries)

    # -- data -----------------------------------------------------------

    def send_payload(
        self,
        payload: bytes,
        *,
        ttl: int = DEFAULT_TTL,
        tos: int = 0,
        retries: int = 0,
        retry_wait: float = 0.0,
        retry_backoff: float = 2.0,
    ) -> ProbeResult:
        """Send application ``payload`` on the established connection.

        ``ttl`` is the probe TTL CenTrace manipulates. Retries re-send
        the identical segment (same seq), mimicking TCP retransmission,
        and are only used by callers that treat silence as loss. A
        non-zero ``retry_wait`` advances the virtual clock before each
        retransmission, growing by ``retry_backoff`` per attempt — the
        exponential backoff a real TCP sender applies.
        """
        if not self.established:
            raise RuntimeError("connection not established")
        ack_value = (self.server_isn + 1) if self.server_isn is not None else 0
        probe = tcp_packet(
            self.client.ip,
            self.dst_ip,
            self.sport,
            self.dst_port,
            flags=tcpmod.PSH | tcpmod.ACK,
            seq=self._next_seq,
            ack=ack_value,
            ttl=ttl,
            tos=tos,
            payload=payload,
            net=self.sim.net_context,
        )
        # Only a limited-TTL probe is serialized up front: its ICMP
        # quote is derived from these bytes (patching the TTL byte) and
        # CenTrace compares the quote with them. A full-TTL probe is
        # serialized if ``sent_bytes`` is read.
        sent_bytes = probe.to_bytes() if ttl < DEFAULT_TTL else None
        result = ProbeResult(sent=probe, _sent_bytes=sent_bytes)
        attempt = 0
        wait = retry_wait
        send = self._engine.send
        while True:
            received = send(probe, wire_bytes=sent_bytes, flow=self.flow)
            result.received.extend(received)
            if received or attempt >= retries:
                break
            if wait > 0:
                self.sim.advance(wait)
                wait *= retry_backoff
            attempt += 1
        result.retries_used = attempt
        return result

    def close(self) -> None:
        """Send a FIN (best-effort; responses are discarded)."""
        if not self.established:
            return
        self._engine.close(self)
        self.established = False


def open_connection(
    sim: Simulator,
    client: Client,
    dst_ip: str,
    dst_port: int,
    *,
    sport: Optional[int] = None,
    retries: int = 2,
    engine=None,
) -> Optional[Connection]:
    """Open a connection; returns None when the handshake fails.

    ``engine`` is the connection's packet engine (default: the
    simulator's batched plane).
    """
    conn = Connection(sim, client, dst_ip, dst_port, sport=sport, engine=engine)
    if not conn.connect(retries=retries):
        return None
    return conn
