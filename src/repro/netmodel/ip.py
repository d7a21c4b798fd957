"""IPv4 header model with byte-accurate serialization.

The simulator mostly works with the structural :class:`IPHeader` objects,
but CenTrace's quoted-ICMP analysis (following Tracebox) compares the raw
bytes a router quoted against the bytes that were sent, so headers must
round-trip through ``to_bytes``/``from_bytes`` exactly, including the
checksum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: TTL a host sets on a packet it originates (a full-TTL packet).
DEFAULT_TTL = 64

# IP flag bits (in the 3-bit flags field).
FLAG_RESERVED = 0x4
FLAG_DF = 0x2
FLAG_MF = 0x1

_IP_STRUCT = struct.Struct("!BBHHHBBH4s4s")


@lru_cache(maxsize=4096)
def ip_to_int(address: str) -> int:
    """Convert dotted-quad ``address`` to a 32-bit integer.

    Cached: a simulated world reuses a handful of addresses across
    millions of serializations, and this sits under every checksum.
    (``lru_cache`` never caches the ``ValueError`` raised for malformed
    input, so validation behaviour is unchanged.)
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 address: {address!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=4096)
def _ip_to_packed(address: str) -> bytes:
    """``address`` as 4 network-order bytes (cached like ip_to_int)."""
    return ip_to_int(address).to_bytes(4, "big")


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to a dotted-quad string."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def checksum16(data: bytes) -> int:
    """Compute the Internet checksum (RFC 1071) over ``data``.

    The sum of big-endian 16-bit words equals the sum of even-offset
    bytes shifted left by 8 plus the sum of odd-offset bytes, which
    keeps the whole accumulation in C-level slicing instead of a
    per-word Python loop.
    """
    total = (sum(data[::2]) << 8) + sum(data[1::2])
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(slots=True)
class IPHeader:
    """A structural IPv4 header (no options).

    Field semantics follow RFC 791. ``total_length`` is filled in during
    serialization when left at 0.
    """

    src: str
    dst: str
    ttl: int = DEFAULT_TTL
    protocol: int = PROTO_TCP
    tos: int = 0
    identification: int = 0
    flags: int = FLAG_DF
    frag_offset: int = 0
    total_length: int = 0
    checksum: int = 0

    HEADER_LEN = 20

    def to_bytes(self, payload_len: int = 0) -> bytes:
        """Serialize to 20 header bytes, computing length and checksum.

        ``payload_len`` is used to fill ``total_length`` when the field is
        unset; a non-zero ``total_length`` is preserved verbatim so that
        deliberately-corrupt headers survive round-trips.
        """
        total_length = self.total_length or (self.HEADER_LEN + payload_len)
        version_ihl = (4 << 4) | 5
        flags_frag = ((self.flags & 0x7) << 13) | (self.frag_offset & 0x1FFF)
        raw = _IP_STRUCT.pack(
            version_ihl,
            self.tos & 0xFF,
            total_length & 0xFFFF,
            self.identification & 0xFFFF,
            flags_frag,
            self.ttl & 0xFF,
            self.protocol & 0xFF,
            0,
            _ip_to_packed(self.src),
            _ip_to_packed(self.dst),
        )
        csum = checksum16(raw)
        return raw[:10] + csum.to_bytes(2, "big") + raw[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> Tuple["IPHeader", int]:
        """Parse an IPv4 header; returns (header, header_length_bytes)."""
        if len(data) < cls.HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            csum,
            src_raw,
            dst_raw,
        ) = _IP_STRUCT.unpack(data[: cls.HEADER_LEN])
        version = version_ihl >> 4
        ihl = (version_ihl & 0xF) * 4
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        if ihl < cls.HEADER_LEN:
            raise ValueError(f"invalid IHL: {ihl}")
        header = cls(
            src=int_to_ip(int.from_bytes(src_raw, "big")),
            dst=int_to_ip(int.from_bytes(dst_raw, "big")),
            ttl=ttl,
            protocol=protocol,
            tos=tos,
            identification=identification,
            flags=(flags_frag >> 13) & 0x7,
            frag_offset=flags_frag & 0x1FFF,
            total_length=total_length,
            checksum=csum,
        )
        return header, ihl

    def copy(self, **changes) -> "IPHeader":
        """Return a copy with ``changes`` applied.

        Hand-rolled rather than :func:`dataclasses.replace`: headers are
        copied on every hop walk, making this one of the hottest
        allocation sites in the simulator. The class is slotted, so a
        change to a name that is not a field raises AttributeError.
        """
        new = IPHeader(
            self.src,
            self.dst,
            self.ttl,
            self.protocol,
            self.tos,
            self.identification,
            self.flags,
            self.frag_offset,
            self.total_length,
            self.checksum,
        )
        for name, value in changes.items():
            setattr(new, name, value)
        return new


@dataclass(slots=True)
class FlowKey:
    """The classic 5-tuple identifying a flow (used for ECMP hashing and
    stateful device tracking)."""

    src: str
    dst: str
    sport: int
    dport: int
    protocol: int = PROTO_TCP

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.protocol)

    def canonical(self) -> Tuple[str, str, int, int, int]:
        """A direction-independent tuple (for bidirectional state)."""
        forward = (self.src, self.dst, self.sport, self.dport, self.protocol)
        backward = (self.dst, self.src, self.dport, self.sport, self.protocol)
        return min(forward, backward)

    def as_tuple(self) -> Tuple[str, str, int, int, int]:
        return (self.src, self.dst, self.sport, self.dport, self.protocol)

    def __hash__(self) -> int:
        return hash(self.as_tuple())
