"""Endpoint application behaviour: HTTP and TLS serving with profiles.

CenFuzz distinguishes *evasion* (the censor did not block) from
*circumvention* (the censor did not block AND the endpoint served the
intended resource, §6.1). That second half depends entirely on how
strictly real web servers parse, and §6.3 reports exactly the error
codes we produce here: 400 Bad Request, 403 Forbidden, 301 Moved
Permanently and 505 HTTP Version Not Supported.

A :class:`WebServer` handles both HTTP (port 80) payloads and TLS
ClientHellos (port 443). Because the simulator does not run a full TLS
handshake, a successful TLS exchange is represented by the ServerHello
followed by a ``SIMTLS-SERVED:<vhost>`` marker — the stand-in for "the
handshake completed and the intended resource loaded" (documented as a
substitution in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..netmodel.http import HTTPResponse, ParsedRequest, parse_request
from ..netmodel.tls import (
    ParsedClientHello,
    ServerHello,
    looks_like_client_hello,
    parse_client_hello,
    tls_alert,
)
from ..netsim.interfaces import ApplicationServer, AppReply

TLS_SERVED_MARKER = b"SIMTLS-SERVED:"


@dataclass(frozen=True)
class ServerProfile:
    """How strictly this endpoint's web server parses requests."""

    requires_valid_version: bool = True  # else 505 on weird versions
    requires_crlf: bool = False  # reject bare-LF requests with 400
    tolerates_malformed_request_line: bool = False  # else 400
    allowed_methods: Tuple[str, ...] = ("GET", "HEAD", "POST")
    strict_host: bool = True  # unknown Host -> 404 (else default vhost)
    default_vhost: Optional[str] = None  # served when Host is unknown
    wildcard_subdomains: bool = False  # serve *.domain for its domains
    redirect_unknown_paths: bool = False  # 301 instead of 200 on odd paths
    trim_host_padding: bool = False  # strip non-hostname chars from Host
    tls_requires_known_sni: bool = False  # alert on unknown SNI (else default cert)

    @classmethod
    def lenient(cls, default_vhost: str) -> "ServerProfile":
        """A forgiving server: default vhost, wildcard subdomains,
        padding-tolerant — the kind that makes circumvention work."""
        return cls(
            requires_valid_version=False,
            tolerates_malformed_request_line=True,
            strict_host=False,
            default_vhost=default_vhost,
            wildcard_subdomains=True,
            trim_host_padding=True,
        )


def _page(domain: str, path: str) -> str:
    return (
        f"<html><head><title>{domain}</title></head>"
        f"<body><h1>Welcome to {domain}</h1><p>resource {path}</p></body></html>"
    )


_HOST_PAD_CHARS = "*-_~!@#$%^&()+= "


class WebServer(ApplicationServer):
    """The application server for one endpoint."""

    def __init__(
        self,
        domains: Sequence[str],
        profile: ServerProfile = ServerProfile(),
    ) -> None:
        self.domains = tuple(d.lower() for d in domains)
        self.profile = profile

    # -- helpers --------------------------------------------------------

    def _resolve_vhost(self, host: Optional[str]) -> Optional[str]:
        """Map a request Host/SNI to one of our vhosts (or None)."""
        if host is None:
            return None if self.profile.strict_host else self.profile.default_vhost
        candidate = host.strip().lower().rstrip(".")
        if ":" in candidate:
            head, _, tail = candidate.rpartition(":")
            if tail.isdigit():
                candidate = head
        if self.profile.trim_host_padding:
            candidate = candidate.strip(_HOST_PAD_CHARS)
        if candidate in self.domains:
            return candidate
        if self.profile.wildcard_subdomains:
            for domain in self.domains:
                base = domain.split(".", 1)[-1] if domain.startswith("www.") else domain
                if candidate == base or candidate.endswith("." + base):
                    return domain
        if not self.profile.strict_host:
            return self.profile.default_vhost or (
                self.domains[0] if self.domains else None
            )
        return None

    # -- ApplicationServer ----------------------------------------------

    def handle_payload(self, payload: bytes, client_ip: str) -> AppReply:
        # Parsed once, here: the local-filtering hook and the serving
        # logic read the same parse.
        if looks_like_client_hello(payload):
            hello = parse_client_hello(payload)
            refused = self._refuse(hello.sni if hello.ok else None)
            return refused if refused is not None else self._handle_tls(hello)
        # Parsed accepting bare LF: a profile that requires CRLF still
        # answers 400 through ``used_bare_lf`` in ``_handle_http``.
        request = parse_request(payload)
        refused = self._refuse(request.host if request.ok else None)
        return refused if refused is not None else self._handle_http(request)

    def _refuse(self, host: Optional[str]) -> Optional[AppReply]:
        """The reply of an endpoint that filters ``host`` itself, or
        None to serve the request (a plain web server filters nothing)."""
        return None

    def _handle_http(self, request: ParsedRequest) -> AppReply:
        profile = self.profile
        if not request.ok:
            return AppReply.respond(
                HTTPResponse(400, body="Bad Request").build(), close=True
            )
        if request.used_bare_lf and profile.requires_crlf:
            return AppReply.respond(
                HTTPResponse(400, body="Bad Request").build(), close=True
            )
        if request.malformed_request_line and not profile.tolerates_malformed_request_line:
            return AppReply.respond(
                HTTPResponse(400, body="Bad Request").build(), close=True
            )
        if profile.requires_valid_version and not request.version_valid:
            return AppReply.respond(
                HTTPResponse(505, body="HTTP Version Not Supported").build(),
                close=True,
            )
        method = request.method.upper()
        if method not in profile.allowed_methods:
            return AppReply.respond(
                HTTPResponse(405, body="Method Not Allowed").build(), close=True
            )
        vhost = self._resolve_vhost(request.host)
        if vhost is None:
            code = 403 if request.host else 400
            return AppReply.respond(
                HTTPResponse(code, body="Forbidden").build(), close=True
            )
        path = request.path or "/"
        if profile.redirect_unknown_paths and path != "/":
            return AppReply.respond(
                HTTPResponse(
                    301, headers=[("Location", f"http://{vhost}/")], body=""
                ).build(),
                close=True,
            )
        return AppReply.respond(
            HTTPResponse(200, body=_page(vhost, path)).build(), close=True
        )

    def _handle_tls(self, hello: ParsedClientHello) -> AppReply:
        if not hello.ok:
            return AppReply.respond(tls_alert(50), close=True)  # decode_error
        vhost = self._resolve_vhost(hello.sni)
        if vhost is None:
            if self.profile.tls_requires_known_sni:
                return AppReply.respond(tls_alert(112), close=True)  # unrecognized_name
            vhost = self.profile.default_vhost or (
                self.domains[0] if self.domains else "default"
            )
            return AppReply.respond(
                ServerHello().build(),
                TLS_SERVED_MARKER + vhost.encode() + b":default-cert",
                close=True,
            )
        return AppReply.respond(
            ServerHello().build(),
            TLS_SERVED_MARKER + vhost.encode(),
            close=True,
        )


class FilteringWebServer(WebServer):
    """An endpoint that *itself* filters certain hostnames.

    Models the paper's "At E" cases (16.19% of blocked CenTraces):
    the endpoint, or a NAT/firewall in front of it, responds
    differently (or not at all) to the Test Domain — visible as
    blocking at the endpoint IP but not ISP censorship (§4.3).
    """

    def __init__(
        self,
        domains: Sequence[str],
        blocked_hosts: Sequence[str],
        *,
        mode: str = "drop",  # "drop" | "reset"
        profile: ServerProfile = ServerProfile(),
    ) -> None:
        super().__init__(domains, profile)
        self.blocked_hosts = tuple(h.lower() for h in blocked_hosts)
        if mode not in ("drop", "reset"):
            raise ValueError(f"unknown filtering mode: {mode}")
        self.mode = mode

    def _refuse(self, host: Optional[str]) -> Optional[AppReply]:
        if not host:
            return None
        candidate = host.strip().lower()
        if any(
            candidate == blocked or candidate.endswith("." + blocked)
            for blocked in self.blocked_hosts
        ):
            if self.mode == "drop":
                return AppReply(drop=True)
            return AppReply(reset=True)
        return None
