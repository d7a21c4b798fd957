"""TCP segment model with byte-accurate serialization.

Injected responses from censorship devices differ in TCP-level details
(flags, window, options, sequence behaviour); the clustering pipeline in
§7 uses those as features, so the model keeps them all explicit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from .ip import checksum16, ip_to_int

# TCP flag bits.
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20
ECE = 0x40
CWR = 0x80

_FLAG_NAMES = [
    (CWR, "CWR"),
    (ECE, "ECE"),
    (URG, "URG"),
    (ACK, "ACK"),
    (PSH, "PSH"),
    (RST, "RST"),
    (SYN, "SYN"),
    (FIN, "FIN"),
]

# Common TCP option kinds.
OPT_EOL = 0
OPT_NOP = 1
OPT_MSS = 2
OPT_WSCALE = 3
OPT_SACK_PERMITTED = 4
OPT_TIMESTAMP = 8

_TCP_STRUCT = struct.Struct("!HHIIBBHHH")


def flags_to_str(flags: int) -> str:
    """Render TCP flag bits as e.g. ``"SYN|ACK"`` (``"-"`` when empty)."""
    names = [name for bit, name in _FLAG_NAMES if flags & bit]
    return "|".join(names) if names else "-"


@dataclass
class TCPOption:
    """A single TCP option (kind + raw data)."""

    kind: int
    data: bytes = b""

    def to_bytes(self) -> bytes:
        if self.kind in (OPT_EOL, OPT_NOP):
            return bytes([self.kind])
        return bytes([self.kind, 2 + len(self.data)]) + self.data

    @staticmethod
    def mss(value: int) -> "TCPOption":
        return TCPOption(OPT_MSS, struct.pack("!H", value))

    @staticmethod
    def window_scale(shift: int) -> "TCPOption":
        return TCPOption(OPT_WSCALE, bytes([shift]))

    @staticmethod
    def sack_permitted() -> "TCPOption":
        return TCPOption(OPT_SACK_PERMITTED)

    @staticmethod
    def timestamp(tsval: int, tsecr: int = 0) -> "TCPOption":
        return TCPOption(OPT_TIMESTAMP, struct.pack("!II", tsval, tsecr))


def parse_options(data: bytes) -> List[TCPOption]:
    """Parse the options region of a TCP header."""
    options: List[TCPOption] = []
    i = 0
    while i < len(data):
        kind = data[i]
        if kind == OPT_EOL:
            options.append(TCPOption(OPT_EOL))
            break
        if kind == OPT_NOP:
            options.append(TCPOption(OPT_NOP))
            i += 1
            continue
        if i + 1 >= len(data):
            break  # truncated option
        length = data[i + 1]
        if length < 2 or i + length > len(data):
            break  # malformed option
        options.append(TCPOption(kind, data[i + 2 : i + length]))
        i += length
    return options


@dataclass(slots=True)
class TCPSegment:
    """A structural TCP segment (header + payload)."""

    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = SYN
    window: int = 65535
    urgent: int = 0
    options: List[TCPOption] = field(default_factory=list)
    payload: bytes = b""
    checksum: int = 0

    BASE_HEADER_LEN = 20

    @property
    def header_len(self) -> int:
        """Header length in bytes, including padded options."""
        opts_len = sum(len(o.to_bytes()) for o in self.options)
        return self.BASE_HEADER_LEN + ((opts_len + 3) // 4) * 4

    def option_kinds(self) -> Tuple[int, ...]:
        """The option kinds present, in order (a device fingerprint)."""
        return tuple(o.kind for o in self.options)

    def to_bytes(self, src_ip: str = "0.0.0.0", dst_ip: str = "0.0.0.0") -> bytes:
        """Serialize with checksum over the IPv4 pseudo-header."""
        if self.options:
            opts = b"".join(o.to_bytes() for o in self.options)
            opts += b"\x00" * ((-len(opts)) % 4)
        else:
            opts = b""
        data_offset = (self.BASE_HEADER_LEN + len(opts)) // 4
        header = _TCP_STRUCT.pack(
            self.sport & 0xFFFF,
            self.dport & 0xFFFF,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            (data_offset << 4),
            self.flags & 0xFF,
            self.window & 0xFFFF,
            0,
            self.urgent & 0xFFFF,
        )
        segment = header + opts + self.payload
        pseudo = struct.pack(
            "!IIBBH",
            ip_to_int(src_ip),
            ip_to_int(dst_ip),
            0,
            6,
            len(segment),
        )
        csum = checksum16(pseudo + segment)
        return segment[:16] + csum.to_bytes(2, "big") + segment[18:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "TCPSegment":
        """Parse a TCP segment (header, options, payload)."""
        if len(data) < cls.BASE_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (
            sport,
            dport,
            seq,
            ack,
            offset_byte,
            flags,
            window,
            csum,
            urgent,
        ) = _TCP_STRUCT.unpack(data[: cls.BASE_HEADER_LEN])
        header_len = (offset_byte >> 4) * 4
        if header_len < cls.BASE_HEADER_LEN or header_len > len(data):
            raise ValueError(f"invalid TCP data offset: {header_len}")
        options = parse_options(data[cls.BASE_HEADER_LEN : header_len])
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            urgent=urgent,
            options=options,
            payload=data[header_len:],
            checksum=csum,
        )

    def copy(self, **changes) -> "TCPSegment":
        """Return a copy with ``changes`` applied (options list is shared)."""
        return replace(self, **changes)

    def describe_flags(self) -> str:
        return flags_to_str(self.flags)
