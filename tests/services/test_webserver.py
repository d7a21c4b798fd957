"""Endpoint web-server behaviour: parsing strictness and vhosts."""

import pytest

from repro.netmodel.http import HTTPRequest, HTTPResponse
from repro.netmodel.tls import ClientHello, ServerHello
from repro.services.webserver import (
    FilteringWebServer,
    ServerProfile,
    TLS_SERVED_MARKER,
    WebServer,
)

DOMAIN = "www.site.example"


def _http_reply(server, request_bytes):
    reply = server.handle_payload(request_bytes, "10.0.0.1")
    if reply.drop or reply.reset:
        return reply, None
    return reply, HTTPResponse.parse(reply.responses[0])


class TestStrictServer:
    server = WebServer([DOMAIN])

    def test_serves_known_host(self):
        _, response = _http_reply(self.server, HTTPRequest.normal(DOMAIN).build())
        assert response.status_code == 200
        assert DOMAIN in response.body

    def test_unknown_host_403(self):
        raw = HTTPRequest(host="www.other.example").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 403

    def test_invalid_version_505(self):
        raw = HTTPRequest(host=DOMAIN, http_word="HTTP/9").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 505

    def test_disallowed_method_405(self):
        raw = HTTPRequest(host=DOMAIN, method="PATCH").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 405

    def test_malformed_request_line_400(self):
        _, response = _http_reply(self.server, b"GET /\r\nHost: x\r\n\r\n")
        assert response.status_code == 400

    def test_padded_host_rejected(self):
        raw = HTTPRequest(host="**" + DOMAIN + "*").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code in (400, 403)

    def test_garbage_400(self):
        _, response = _http_reply(self.server, b"\x00\x01\x02")
        assert response.status_code == 400


class TestLenientServer:
    server = WebServer([DOMAIN], ServerProfile.lenient(DOMAIN))

    def test_padded_host_trimmed_and_served(self):
        raw = HTTPRequest(host="**" + DOMAIN + "*").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 200
        assert DOMAIN in response.body

    def test_unknown_host_falls_back_to_default_vhost(self):
        raw = HTTPRequest(host="www.whatever.example").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 200

    def test_weird_version_tolerated(self):
        raw = HTTPRequest(host=DOMAIN, http_word="HTTP/9").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 200

    def test_non_utf8_path_echoed_byte_for_byte(self):
        # The served page names the requested path; a fuzzed path that
        # is not UTF-8 goes back out as sent instead of crashing.
        raw = f"GET /a\xff HTTP/1.1\r\nHost: {DOMAIN}\r\n\r\n".encode("latin-1")
        reply, response = _http_reply(self.server, raw)
        assert response.status_code == 200
        assert b"resource /a\xff<" in reply.responses[0]
        body = reply.responses[0].partition(b"\r\n\r\n")[2]
        assert int(dict(response.headers)["Content-Length"]) == len(body)


class TestWildcardServer:
    server = WebServer(
        [DOMAIN], ServerProfile(wildcard_subdomains=True)
    )

    def test_subdomain_served(self):
        raw = HTTPRequest(host="wiki.site.example").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 200

    def test_bare_domain_served(self):
        raw = HTTPRequest(host="site.example").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 200

    def test_unrelated_host_still_rejected(self):
        raw = HTTPRequest(host="www.unrelated.example").build()
        _, response = _http_reply(self.server, raw)
        assert response.status_code == 403


class TestTLS:
    server = WebServer([DOMAIN])

    def test_known_sni_served_with_marker(self):
        reply = self.server.handle_payload(
            ClientHello.normal(DOMAIN).build(), "10.0.0.1"
        )
        assert reply.responses[0][0] == 22  # handshake record
        assert reply.responses[1].startswith(TLS_SERVED_MARKER + DOMAIN.encode())

    def test_unknown_sni_default_cert(self):
        reply = self.server.handle_payload(
            ClientHello.normal("www.other.example").build(), "10.0.0.1"
        )
        assert b"default-cert" in reply.responses[1]

    def test_strict_sni_alert(self):
        strict = WebServer([DOMAIN], ServerProfile(tls_requires_known_sni=True))
        reply = strict.handle_payload(
            ClientHello.normal("www.other.example").build(), "10.0.0.1"
        )
        assert reply.responses[0][0] == 21  # alert record

    def test_malformed_hello_alert(self):
        reply = self.server.handle_payload(b"\x16\x03\x01\x00\x02\x01\x00", "10.0.0.1")
        assert reply.responses[0][0] == 21


class TestFilteringWebServer:
    def test_drop_mode_silent_on_blocked_host(self):
        server = FilteringWebServer([DOMAIN], ["www.banned.example"], mode="drop")
        raw = HTTPRequest(host="www.banned.example").build()
        reply = server.handle_payload(raw, "10.0.0.1")
        assert reply.drop

    def test_reset_mode_resets(self):
        server = FilteringWebServer([DOMAIN], ["www.banned.example"], mode="reset")
        raw = HTTPRequest(host="www.banned.example").build()
        reply = server.handle_payload(raw, "10.0.0.1")
        assert reply.reset

    def test_blocked_sni_also_filtered(self):
        server = FilteringWebServer([DOMAIN], ["www.banned.example"], mode="drop")
        reply = server.handle_payload(
            ClientHello.normal("www.banned.example").build(), "10.0.0.1"
        )
        assert reply.drop

    def test_other_hosts_served_normally(self):
        server = FilteringWebServer([DOMAIN], ["www.banned.example"], mode="drop")
        reply = server.handle_payload(HTTPRequest.normal(DOMAIN).build(), "10.0.0.1")
        assert not reply.drop and reply.responses

    def test_bare_lf_request_filtered_by_crlf_only_server(self):
        # The filter reads the server's one tolerant parse: a bare-LF
        # request for a filtered host is dropped, and any other bare-LF
        # request is refused with 400 by a server that requires CRLF.
        server = FilteringWebServer(
            [DOMAIN],
            ["www.banned.example"],
            mode="drop",
            profile=ServerProfile(requires_crlf=True),
        )
        banned = HTTPRequest(host="www.banned.example").build()
        assert server.handle_payload(banned.replace(b"\r\n", b"\n"), "10.0.0.1").drop
        own = HTTPRequest.normal(DOMAIN).build().replace(b"\r\n", b"\n")
        _, response = _http_reply(server, own)
        assert response.status_code == 400

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            FilteringWebServer([DOMAIN], ["x"], mode="tarpit")
