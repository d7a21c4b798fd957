"""ICMP messages and router packet-quoting behaviour.

CenTrace relies on ICMP Time Exceeded (type 11) responses from routers to
map paths (RFC 792), and — following Tracebox — on the *quoted* copy of
the expired packet inside the ICMP payload to detect in-flight header
modifications. Routers differ in how much they quote:

* RFC 792 routers quote the IP header plus the first 64 bits (8 bytes) of
  the transport payload — just enough for ports and sequence number.
* RFC 1812 routers quote as much of the original packet as fits in a
  576-byte ICMP datagram.

The paper (§4.3) measures 57.6% of quoting routers following RFC 792 and
the rest RFC 1812, with 32.06% of quotes showing an altered IP TOS field;
our router models reproduce both behaviours.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .ip import IPHeader, checksum16

TYPE_DEST_UNREACHABLE = 3
TYPE_TIME_EXCEEDED = 11

CODE_TTL_EXCEEDED = 0
CODE_PORT_UNREACHABLE = 3
CODE_HOST_UNREACHABLE = 1

# RFC 792: quote = IP header + 64 bits of original datagram's data.
RFC792_QUOTE_TRANSPORT_BYTES = 8
# RFC 1812 (§4.3.2.3): the ICMP datagram SHOULD contain as much of the
# original datagram as possible without exceeding 576 bytes.
RFC1812_MAX_DATAGRAM = 576

QUOTE_RFC792 = "rfc792"
QUOTE_RFC1812 = "rfc1812"


@dataclass(slots=True)
class ICMPMessage:
    """A structural ICMP error message carrying a quoted packet."""

    icmp_type: int
    code: int
    quote: bytes = b""

    def to_bytes(self) -> bytes:
        header = struct.pack("!BBHI", self.icmp_type, self.code, 0, 0)
        body = header + self.quote
        csum = checksum16(body)
        return body[:2] + struct.pack("!H", csum) + body[4:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "ICMPMessage":
        if len(data) < 8:
            raise ValueError("truncated ICMP message")
        icmp_type, code, _csum, _unused = struct.unpack("!BBHI", data[:8])
        return cls(icmp_type=icmp_type, code=code, quote=data[8:])

    @property
    def is_time_exceeded(self) -> bool:
        return self.icmp_type == TYPE_TIME_EXCEEDED


def build_quote(original: bytes, policy: str) -> bytes:
    """Extract the quoted bytes of ``original`` per the router's policy.

    ``original`` is the full serialized IP packet (header + transport).
    """
    if policy == QUOTE_RFC792:
        return original[: IPHeader.HEADER_LEN + RFC792_QUOTE_TRANSPORT_BYTES]
    if policy == QUOTE_RFC1812:
        # Leave room for the outer IP (20) and ICMP (8) headers.
        budget = RFC1812_MAX_DATAGRAM - IPHeader.HEADER_LEN - 8
        return original[:budget]
    raise ValueError(f"unknown quoting policy: {policy!r}")


def time_exceeded(original: bytes, policy: str = QUOTE_RFC792) -> ICMPMessage:
    """Build a Time Exceeded (TTL) message quoting ``original``."""
    return ICMPMessage(
        TYPE_TIME_EXCEEDED, CODE_TTL_EXCEEDED, build_quote(original, policy)
    )


@dataclass
class QuoteDelta:
    """Differences between a sent packet and a router's quoted copy.

    Used both by CenTrace's Tracebox-style analysis (§4.1) and as
    clustering features (§7.1, Table 3).
    """

    tos_changed: bool = False
    ip_flags_changed: bool = False
    ttl_delta: int = 0
    identification_changed: bool = False
    length_changed: bool = False
    transport_bytes_quoted: int = 0
    follows_rfc792: bool = False
    payload_modified: bool = False

    def any_header_change(self) -> bool:
        return (
            self.tos_changed
            or self.ip_flags_changed
            or self.identification_changed
            or self.length_changed
        )


def compare_quote(sent_packet: bytes, quote: bytes, sent_ttl: int) -> QuoteDelta:
    """Compare the packet we sent against the router-quoted copy.

    ``sent_ttl`` is the TTL we put on the wire; the quoted TTL will have
    been decremented along the way, so only *unexpected* deltas (beyond
    full decrement to 0/1) are interesting.
    """
    delta = QuoteDelta()
    if len(quote) < IPHeader.HEADER_LEN:
        return delta
    sent_ip, _ = IPHeader.from_bytes(sent_packet)
    quoted_ip, _ = IPHeader.from_bytes(quote)
    delta.tos_changed = quoted_ip.tos != sent_ip.tos
    delta.ip_flags_changed = quoted_ip.flags != sent_ip.flags
    delta.ttl_delta = sent_ttl - quoted_ip.ttl
    delta.identification_changed = (
        quoted_ip.identification != sent_ip.identification
    )
    delta.length_changed = quoted_ip.total_length != sent_ip.total_length
    transport_quoted = len(quote) - IPHeader.HEADER_LEN
    delta.transport_bytes_quoted = transport_quoted
    delta.follows_rfc792 = transport_quoted <= RFC792_QUOTE_TRANSPORT_BYTES
    sent_transport = sent_packet[IPHeader.HEADER_LEN :]
    quoted_transport = quote[IPHeader.HEADER_LEN :]
    # Compare only the overlapping prefix; skip the TCP checksum bytes
    # (offsets 16-17 in the TCP header) which legitimately differ when a
    # middlebox rewrites and re-checksums.
    overlap = min(len(sent_transport), len(quoted_transport))
    for i in range(overlap):
        if 16 <= i < 18:
            continue
        if sent_transport[i] != quoted_transport[i]:
            delta.payload_modified = True
            break
    return delta
