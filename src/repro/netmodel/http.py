"""Raw HTTP/1.1 request model for fuzzing.

CenFuzz (§6) crafts deliberately malformed HTTP requests — wrong method
words, mangled ``HTTP/1.1`` tokens, missing delimiters, alternative Host
header spellings — so every token in the request line and headers is
represented verbatim and serialized without normalization. The
complementary :func:`parse_request` is the *tolerant* parser used by
censorship devices and web servers, with per-consumer strictness knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

CRLF = "\r\n"
DEFAULT_USER_AGENT = "Mozilla/5.0 (X11; Linux x86_64) repro-cenfuzz/1.0"

KNOWN_METHODS = ("GET", "POST", "PUT", "PATCH", "DELETE", "HEAD", "OPTIONS")


@dataclass
class RawHeader:
    """One header line, kept as raw tokens.

    ``name`` includes everything before the separator and ``separator``
    is usually ``": "`` but fuzz strategies replace it (e.g. removing the
    colon entirely).
    """

    name: str
    value: str
    separator: str = ": "

    def render(self) -> str:
        return f"{self.name}{self.separator}{self.value}"


@dataclass
class HTTPRequest:
    """A raw HTTP request built from explicit tokens.

    The default values produce a well-formed ``GET / HTTP/1.1`` request
    with a Host header; fuzz strategies override individual tokens.
    """

    host: str
    method: str = "GET"
    path: str = "/"
    http_word: str = "HTTP/1.1"
    host_word: str = "Host"
    host_separator: str = ": "
    line_delimiter: str = CRLF
    request_line_spaces: Tuple[str, str] = (" ", " ")
    extra_headers: List[RawHeader] = field(default_factory=list)
    include_host_header: bool = True
    body: str = ""

    def build(self) -> bytes:
        """Serialize the request exactly as specified, no normalization."""
        sp1, sp2 = self.request_line_spaces
        lines = [f"{self.method}{sp1}{self.path}{sp2}{self.http_word}"]
        if self.include_host_header:
            lines.append(f"{self.host_word}{self.host_separator}{self.host}")
        for header in self.extra_headers:
            lines.append(header.render())
        raw = self.line_delimiter.join(lines)
        raw += self.line_delimiter * 2
        raw += self.body
        return raw.encode("utf-8", errors="surrogateescape")

    def copy(self, **changes) -> "HTTPRequest":
        return replace(self, **changes)

    @classmethod
    def normal(cls, host: str, path: str = "/") -> "HTTPRequest":
        """The unfuzzed baseline request used as CenFuzz's 'Normal'."""
        return cls(
            host=host,
            path=path,
            extra_headers=[RawHeader("User-Agent", DEFAULT_USER_AGENT)],
        )


@dataclass
class ParsedRequest:
    """The result of a tolerant parse of raw request bytes."""

    ok: bool
    method: str = ""
    path: str = ""
    http_word: str = ""
    version_valid: bool = False
    host: Optional[str] = None
    host_word: str = ""
    headers: Dict[str, str] = field(default_factory=dict)
    malformed_request_line: bool = False
    malformed_host_header: bool = False
    used_bare_lf: bool = False
    error: str = ""


_VALID_HTTP_WORDS = {"HTTP/1.0", "HTTP/1.1"}


def parse_request(data: bytes, *, accept_bare_lf: bool = True) -> ParsedRequest:
    """Parse raw request bytes tolerantly.

    This models the *observable* parsing behaviour of real HTTP servers:
    it extracts what it can and flags what was malformed, letting each
    consumer (web server, censorship device) decide how strict to be.
    """
    try:
        text = data.decode("utf-8", errors="surrogateescape")
    except Exception as exc:  # pragma: no cover - decode never fails here
        return ParsedRequest(ok=False, error=f"undecodable: {exc}")
    used_bare_lf = False
    if CRLF in text:
        head = text.split(CRLF + CRLF, 1)[0]
        lines = head.split(CRLF)
    elif "\n" in text and accept_bare_lf:
        used_bare_lf = True
        head = text.split("\n\n", 1)[0]
        lines = head.split("\n")
    else:
        return ParsedRequest(ok=False, error="no line delimiter found")
    if not lines or not lines[0].strip():
        return ParsedRequest(ok=False, error="empty request line")

    result = ParsedRequest(ok=True, used_bare_lf=used_bare_lf)
    request_line = lines[0]
    parts = request_line.split()
    if len(parts) == 3:
        result.method, result.path, result.http_word = parts
    elif len(parts) == 2:
        result.method, result.path = parts
        result.malformed_request_line = True
    elif len(parts) == 1:
        result.method = parts[0]
        result.malformed_request_line = True
    else:
        # >3 tokens: path contained spaces; treat first and last as
        # method/version, the middle as the path.
        result.method = parts[0]
        result.http_word = parts[-1]
        result.path = " ".join(parts[1:-1])
        result.malformed_request_line = True
    result.version_valid = result.http_word in _VALID_HTTP_WORDS

    for line in lines[1:]:
        if not line.strip():
            continue
        if ":" in line:
            name, _, value = line.partition(":")
            name_clean = name.strip()
            value_clean = value.strip()
            result.headers[name_clean.lower()] = value_clean
            if name_clean.lower() == "host":
                result.host = value_clean
                result.host_word = name_clean
        else:
            # Header line without a colon (e.g. Host-word fuzzing that
            # removed the separator). Try to salvage a hostname: lines
            # like "Host www.example.com" or "ost: ..." variants.
            tokens = line.split()
            if len(tokens) >= 2 and "." in tokens[-1]:
                result.malformed_host_header = True
            else:
                result.malformed_host_header = True
    if result.host is None:
        # Look for fuzzy host-ish headers ("HostHeader", "HoST", etc.).
        for name, value in result.headers.items():
            if "host" in name and "." in value:
                result.host = value
                result.host_word = name
                result.malformed_host_header = name != "host"
                break
    return result


def looks_like_http_request(data: bytes) -> bool:
    """Quick sniff: does ``data`` begin like an HTTP request line?"""
    prefix = data[:10].upper()
    return any(prefix.startswith(m.encode()) for m in KNOWN_METHODS) or (
        b" HTTP/" in data[:100].upper()
    )


@dataclass
class HTTPResponse:
    """A minimal HTTP response (status line + headers + body)."""

    status_code: int
    reason: str = ""
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: str = ""

    _REASONS = {
        200: "OK",
        301: "Moved Permanently",
        302: "Found",
        400: "Bad Request",
        403: "Forbidden",
        404: "Not Found",
        405: "Method Not Allowed",
        501: "Not Implemented",
        505: "HTTP Version Not Supported",
    }

    def build(self) -> bytes:
        # surrogateescape, as in parse(): a body echoing request bytes
        # that are not UTF-8 (a fuzzed path) goes back out byte for byte.
        reason = self.reason or self._REASONS.get(self.status_code, "")
        lines = [f"HTTP/1.1 {self.status_code} {reason}"]
        headers = list(self.headers)
        body = self.body.encode("utf-8", "surrogateescape")
        if not any(name.lower() == "content-length" for name, _ in headers):
            headers.append(("Content-Length", str(len(body))))
        for name, value in headers:
            lines.append(f"{name}: {value}")
        head = CRLF.join(lines) + CRLF * 2
        return head.encode("utf-8", "surrogateescape") + body

    @classmethod
    def parse(cls, data: bytes) -> Optional["HTTPResponse"]:
        """Parse response bytes; returns None if not an HTTP response."""
        try:
            text = data.decode("utf-8", errors="surrogateescape")
        except Exception:  # pragma: no cover
            return None
        if not text.startswith("HTTP/"):
            return None
        head, _, body = text.partition(CRLF + CRLF)
        lines = head.split(CRLF)
        status_parts = lines[0].split(" ", 2)
        if len(status_parts) < 2:
            return None
        try:
            code = int(status_parts[1])
        except ValueError:
            return None
        reason = status_parts[2] if len(status_parts) == 3 else ""
        headers = []
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers.append((name.strip(), value.strip()))
        return cls(status_code=code, reason=reason, headers=headers, body=body)
