"""TLS ClientHello model (build + parse) for SNI-based censorship.

Censorship devices block HTTPS connections by inspecting the Server Name
Indication (SNI) extension of the ClientHello — everything after it is
encrypted (§3.1, Appendix B). CenFuzz's TLS strategies permute the
client version fields, cipher-suite list, SNI value and padding, so the
builder exposes each of those, and the parser mimics a middlebox
extracting the SNI from raw bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

RECORD_TYPE_HANDSHAKE = 22
RECORD_TYPE_ALERT = 21
HANDSHAKE_CLIENT_HELLO = 1
HANDSHAKE_SERVER_HELLO = 2

EXT_SERVER_NAME = 0
EXT_SUPPORTED_VERSIONS = 43
EXT_PADDING = 21
EXT_ALPN = 16

VERSION_TLS10 = 0x0301
VERSION_TLS11 = 0x0302
VERSION_TLS12 = 0x0303
VERSION_TLS13 = 0x0304

VERSION_NAMES = {
    VERSION_TLS10: "TLS 1.0",
    VERSION_TLS11: "TLS 1.1",
    VERSION_TLS12: "TLS 1.2",
    VERSION_TLS13: "TLS 1.3",
}

ALL_VERSIONS = (VERSION_TLS10, VERSION_TLS11, VERSION_TLS12, VERSION_TLS13)

# The cipher suites CenFuzz iterates over (Table 2 lists 25 permutations;
# this catalog provides the pool drawn from real TLS registries).
CIPHER_SUITES: Dict[str, int] = {
    "TLS_AES_128_GCM_SHA256": 0x1301,
    "TLS_AES_256_GCM_SHA384": 0x1302,
    "TLS_CHACHA20_POLY1305_SHA256": 0x1303,
    "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256": 0xC02B,
    "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384": 0xC02C,
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256": 0xC02F,
    "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384": 0xC030,
    "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256": 0xCCA9,
    "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256": 0xCCA8,
    "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA": 0xC013,
    "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA": 0xC014,
    "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA": 0xC009,
    "TLS_ECDHE_ECDSA_WITH_AES_256_CBC_SHA": 0xC00A,
    "TLS_RSA_WITH_AES_128_GCM_SHA256": 0x009C,
    "TLS_RSA_WITH_AES_256_GCM_SHA384": 0x009D,
    "TLS_RSA_WITH_AES_128_CBC_SHA": 0x002F,
    "TLS_RSA_WITH_AES_256_CBC_SHA": 0x0035,
    "TLS_RSA_WITH_AES_128_CBC_SHA256": 0x003C,
    "TLS_RSA_WITH_AES_256_CBC_SHA256": 0x003D,
    "TLS_RSA_WITH_3DES_EDE_CBC_SHA": 0x000A,
    "TLS_RSA_WITH_RC4_128_SHA": 0x0005,
    "TLS_RSA_WITH_RC4_128_MD5": 0x0004,
    "TLS_DHE_RSA_WITH_AES_128_CBC_SHA": 0x0033,
    "TLS_DHE_RSA_WITH_AES_256_CBC_SHA": 0x0039,
    "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA256": 0xC027,
}

CIPHER_NAMES = {code: name for name, code in CIPHER_SUITES.items()}

DEFAULT_CIPHERS = [
    "TLS_AES_128_GCM_SHA256",
    "TLS_AES_256_GCM_SHA384",
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
    "TLS_RSA_WITH_AES_128_GCM_SHA256",
]


def _deterministic_random(seed_text: str) -> bytes:
    """32 bytes of deterministic 'client random' (simulation-friendly)."""
    return hashlib.sha256(seed_text.encode()).digest()


@dataclass
class Extension:
    """A raw TLS extension (type + body bytes)."""

    ext_type: int
    data: bytes = b""

    def to_bytes(self) -> bytes:
        return struct.pack("!HH", self.ext_type, len(self.data)) + self.data


def sni_extension(server_name: str) -> Extension:
    """Build an RFC 6066 server_name extension."""
    name_bytes = server_name.encode("utf-8", errors="surrogateescape")
    entry = struct.pack("!BH", 0, len(name_bytes)) + name_bytes
    body = struct.pack("!H", len(entry)) + entry
    return Extension(EXT_SERVER_NAME, body)


def supported_versions_extension(versions: List[int]) -> Extension:
    """Build an RFC 8446 supported_versions extension."""
    body = bytes([2 * len(versions)]) + b"".join(
        struct.pack("!H", v) for v in versions
    )
    return Extension(EXT_SUPPORTED_VERSIONS, body)


@dataclass
class ClientHello:
    """A structural TLS ClientHello.

    ``min_version``/``max_version`` drive both the legacy version field
    and the supported_versions extension, matching how real stacks (and
    CenFuzz's Min/Max Version strategies) express version bounds.
    """

    server_name: Optional[str]
    min_version: int = VERSION_TLS10
    max_version: int = VERSION_TLS13
    cipher_suites: List[str] = field(
        default_factory=lambda: list(DEFAULT_CIPHERS)
    )
    session_id: bytes = b""
    include_sni: bool = True
    sni_padding: str = ""
    offers_client_certificate: bool = False
    client_certificate_cn: Optional[str] = None
    extra_extensions: List[Extension] = field(default_factory=list)

    @property
    def effective_sni(self) -> Optional[str]:
        """The server name as it appears on the wire (with padding)."""
        if not self.include_sni or self.server_name is None:
            return None
        return self.sni_padding + self.server_name if self.sni_padding else self.server_name

    def supported_versions(self) -> List[int]:
        return [v for v in ALL_VERSIONS if self.min_version <= v <= self.max_version]

    def build(self) -> bytes:
        """Serialize to record-layer bytes."""
        versions = self.supported_versions()
        if not versions:
            versions = [self.max_version]
        legacy_version = min(self.max_version, VERSION_TLS12)
        random = _deterministic_random(
            f"{self.server_name}|{self.min_version}|{self.max_version}"
        )
        body = struct.pack("!H", legacy_version)
        body += random
        body += bytes([len(self.session_id)]) + self.session_id
        suite_codes = [CIPHER_SUITES[name] for name in self.cipher_suites]
        body += struct.pack("!H", 2 * len(suite_codes))
        body += b"".join(struct.pack("!H", c) for c in suite_codes)
        body += b"\x01\x00"  # compression: null only
        extensions: List[Extension] = []
        effective = self.effective_sni
        if effective is not None:
            extensions.append(sni_extension(effective))
        extensions.append(supported_versions_extension(versions))
        extensions.extend(self.extra_extensions)
        ext_bytes = b"".join(e.to_bytes() for e in extensions)
        body += struct.pack("!H", len(ext_bytes)) + ext_bytes
        handshake = (
            bytes([HANDSHAKE_CLIENT_HELLO])
            + len(body).to_bytes(3, "big")
            + body
        )
        record = (
            bytes([RECORD_TYPE_HANDSHAKE])
            + struct.pack("!H", VERSION_TLS10)
            + struct.pack("!H", len(handshake))
            + handshake
        )
        return record

    @classmethod
    def normal(cls, server_name: str) -> "ClientHello":
        """The unfuzzed baseline ClientHello (CenFuzz's 'Normal')."""
        return cls(server_name=server_name)


@dataclass
class ParsedClientHello:
    """Fields a middlebox can extract from raw ClientHello bytes."""

    ok: bool
    legacy_version: int = 0
    cipher_suites: Tuple[int, ...] = ()
    sni: Optional[str] = None
    supported_versions: Tuple[int, ...] = ()
    has_padding_extension: bool = False
    error: str = ""


def parse_client_hello(data: bytes) -> ParsedClientHello:
    """Parse raw record-layer bytes as a ClientHello.

    Mirrors the extraction a DPI middlebox performs; fails gracefully on
    anything that is not a well-formed ClientHello.
    """
    try:
        if len(data) < 5 or data[0] != RECORD_TYPE_HANDSHAKE:
            return ParsedClientHello(ok=False, error="not a handshake record")
        record_len = struct.unpack("!H", data[3:5])[0]
        body = data[5 : 5 + record_len]
        if len(body) < 4 or body[0] != HANDSHAKE_CLIENT_HELLO:
            return ParsedClientHello(ok=False, error="not a ClientHello")
        hs_len = int.from_bytes(body[1:4], "big")
        hello = body[4 : 4 + hs_len]
        offset = 0
        legacy_version = struct.unpack("!H", hello[offset : offset + 2])[0]
        offset += 2 + 32  # version + random
        sid_len = hello[offset]
        offset += 1 + sid_len
        suites_len = struct.unpack("!H", hello[offset : offset + 2])[0]
        offset += 2
        suites = tuple(
            struct.unpack("!H", hello[offset + i : offset + i + 2])[0]
            for i in range(0, suites_len, 2)
        )
        offset += suites_len
        comp_len = hello[offset]
        offset += 1 + comp_len
        result = ParsedClientHello(
            ok=True, legacy_version=legacy_version, cipher_suites=suites
        )
        if offset >= len(hello):
            return result
        ext_total = struct.unpack("!H", hello[offset : offset + 2])[0]
        offset += 2
        end = offset + ext_total
        while offset + 4 <= min(end, len(hello)):
            ext_type, ext_len = struct.unpack("!HH", hello[offset : offset + 4])
            ext_data = hello[offset + 4 : offset + 4 + ext_len]
            offset += 4 + ext_len
            if ext_type == EXT_SERVER_NAME and len(ext_data) >= 5:
                name_len = struct.unpack("!H", ext_data[3:5])[0]
                result.sni = ext_data[5 : 5 + name_len].decode(
                    "utf-8", errors="surrogateescape"
                )
            elif ext_type == EXT_SUPPORTED_VERSIONS and ext_data:
                count = ext_data[0] // 2
                result.supported_versions = tuple(
                    struct.unpack("!H", ext_data[1 + 2 * i : 3 + 2 * i])[0]
                    for i in range(count)
                )
            elif ext_type == EXT_PADDING:
                result.has_padding_extension = True
        return result
    except (struct.error, IndexError) as exc:
        return ParsedClientHello(ok=False, error=f"malformed: {exc}")


def looks_like_client_hello(data: bytes) -> bool:
    """Quick sniff for record type 22 / handshake type 1."""
    return len(data) >= 6 and data[0] == RECORD_TYPE_HANDSHAKE and data[5] == 1


@dataclass
class ServerHello:
    """A minimal ServerHello used by simulated TLS endpoints."""

    version: int = VERSION_TLS12
    cipher_suite: int = 0xC02F

    def build(self) -> bytes:
        body = struct.pack("!H", self.version)
        body += _deterministic_random("server")
        body += b"\x00"  # empty session id
        body += struct.pack("!H", self.cipher_suite)
        body += b"\x00"  # null compression
        handshake = (
            bytes([HANDSHAKE_SERVER_HELLO]) + len(body).to_bytes(3, "big") + body
        )
        return (
            bytes([RECORD_TYPE_HANDSHAKE])
            + struct.pack("!H", VERSION_TLS12)
            + struct.pack("!H", len(handshake))
            + handshake
        )


def tls_alert(description: int = 40) -> bytes:
    """A fatal TLS alert record (default: handshake_failure)."""
    return bytes([RECORD_TYPE_ALERT]) + struct.pack("!H", VERSION_TLS12) + struct.pack(
        "!H", 2
    ) + bytes([2, description])
