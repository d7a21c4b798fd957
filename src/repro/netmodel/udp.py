"""UDP datagram model (the substrate for the DNS extension).

§4.1 notes CenTrace "can be easily extended to other protocols such as
DNS"; §8 lists DNS packet injection as future work. The UDP model is
deliberately minimal — header + payload with a real checksum — since
DNS is its only consumer here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .ip import checksum16, ip_to_int

_UDP_STRUCT = struct.Struct("!HHHH")


@dataclass
class UDPDatagram:
    """A structural UDP datagram."""

    sport: int
    dport: int
    payload: bytes = b""
    checksum: int = 0

    HEADER_LEN = 8

    def to_bytes(self, src_ip: str = "0.0.0.0", dst_ip: str = "0.0.0.0") -> bytes:
        length = self.HEADER_LEN + len(self.payload)
        header = _UDP_STRUCT.pack(
            self.sport & 0xFFFF, self.dport & 0xFFFF, length & 0xFFFF, 0
        )
        datagram = header + self.payload
        pseudo = struct.pack(
            "!IIBBH", ip_to_int(src_ip), ip_to_int(dst_ip), 0, 17, length
        )
        csum = checksum16(pseudo + datagram)
        if csum == 0:
            csum = 0xFFFF  # RFC 768: transmitted as all-ones
        return datagram[:6] + struct.pack("!H", csum) + datagram[8:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "UDPDatagram":
        if len(data) < cls.HEADER_LEN:
            raise ValueError("truncated UDP datagram")
        sport, dport, length, csum = _UDP_STRUCT.unpack(data[: cls.HEADER_LEN])
        if length < cls.HEADER_LEN or length > len(data):
            raise ValueError(f"invalid UDP length: {length}")
        return cls(
            sport=sport,
            dport=dport,
            payload=data[cls.HEADER_LEN : length],
            checksum=csum,
        )
