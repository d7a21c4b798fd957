"""Memoized and fresh replies agree (hypothesis), over CenFuzz
permutations and arbitrary bytes: the endpoint stack's reply memo
against direct ``handle_payload`` calls, and the blockpage matcher's
verdict memo against an uncached scan of the corpus."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    CONTROL_DOMAIN,
    ENDPOINT_IP,
    OK_DOMAIN,
    deliver_payload,
)

from repro.core.blockpages import FINGERPRINTS, BlockpageMatcher
from repro.core.cenfuzz.strategies import all_strategies, normal_permutation
from repro.devices import vendors
from repro.netmodel.http import HTTPResponse
from repro.netmodel.netctx import NetContext
from repro.netsim.simulator import EndpointStack
from repro.netsim.topology import Endpoint
from repro.services.webserver import (
    FilteringWebServer,
    ServerProfile,
    WebServer,
)

DOMAINS = (OK_DOMAIN, BLOCKED_DOMAIN, CONTROL_DOMAIN)
BLOCKED = (BLOCKED_DOMAIN,)

PERMUTATIONS = [normal_permutation("http"), normal_permutation("tls")] + [
    permutation
    for _, permutations in sorted(all_strategies().items())
    for permutation in permutations
]

SERVERS = {
    "strict": lambda: WebServer(DOMAINS),
    "crlf-only": lambda: WebServer(
        DOMAINS, ServerProfile(requires_crlf=True, redirect_unknown_paths=True)
    ),
    "lenient": lambda: WebServer(DOMAINS, ServerProfile.lenient(DOMAINS[0])),
    "known-sni": lambda: WebServer(
        DOMAINS, ServerProfile(tls_requires_known_sni=True)
    ),
    "filter-drop": lambda: FilteringWebServer(DOMAINS, BLOCKED, mode="drop"),
    "filter-reset": lambda: FilteringWebServer(
        DOMAINS,
        BLOCKED,
        mode="reset",
        profile=ServerProfile.lenient(DOMAINS[0]),
    ),
}

BLOCKPAGES = [
    getattr(vendors, name) for name in dir(vendors) if name.endswith("_BLOCKPAGE")
]


@st.composite
def payloads(draw):
    """A CenFuzz permutation's payload for one of the domains, or
    arbitrary bytes (sometimes behind a TLS handshake record header)."""
    if draw(st.booleans()):
        permutation = draw(st.sampled_from(PERMUTATIONS))
        return permutation.payload(draw(st.sampled_from(DOMAINS)))
    prefix = draw(st.sampled_from([b"", b"\x16\x03\x01", b"GET / HTTP/1.1\r\n"]))
    return prefix + draw(st.binary(min_size=1, max_size=200))


# One long-lived stack per server profile: its memo fills across
# examples, the way a unit's stack fills across a CenFuzz run.
STACKS = {
    name: EndpointStack(
        Endpoint("endpoint", ENDPOINT_IP, asn=64999, server=build()),
        net=NetContext(),
    )
    for name, build in SERVERS.items()
}
MATCHER = BlockpageMatcher()


def check_replies(payload):
    for name, stack in STACKS.items():
        server = stack.endpoint.server
        memoized = [deliver_payload(stack, payload, port) for port in (5000, 5001)]
        assert stack._replies[(payload, CLIENT_IP)] == server.handle_payload(
            payload, CLIENT_IP
        ), name
        fresh_stack = EndpointStack(stack.endpoint, net=NetContext())
        assert memoized[1] == deliver_payload(fresh_stack, payload, 5001), name
        # A second server built the same way answers the same: the
        # reply depends on the payload and construction only.
        assert SERVERS[name]().handle_payload(payload, CLIENT_IP) == (
            server.handle_payload(payload, CLIENT_IP)
        ), name


def _uncached_verdict(payload):
    response = HTTPResponse.parse(payload)
    body = (
        response.body
        if response is not None
        else payload.decode("utf-8", errors="surrogateescape")
    )
    return next((f for f in FINGERPRINTS if f.matches(body)), None)


def check_verdicts(payload):
    candidates = [payload]
    for stack in STACKS.values():
        reply = stack.endpoint.server.handle_payload(payload, CLIENT_IP)
        candidates.extend(reply.responses)
    for candidate in candidates:
        for _ in range(2):  # the second lookup comes from the memo
            assert MATCHER.match_payload(candidate) == _uncached_verdict(candidate)


@st.composite
def response_payloads(draw):
    """Blockpages as devices inject them, with or without their status
    line, optionally cut short or followed by arbitrary bytes."""
    html = draw(st.sampled_from(BLOCKPAGES)).encode()
    head = b"HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\n\r\n"
    payload = draw(st.sampled_from([head, b""])) + html
    payload = payload[: draw(st.integers(min_value=0, max_value=len(payload)))]
    return payload + draw(st.binary(max_size=40))


class TestReplyMemoAgreement:
    @settings(max_examples=25, deadline=None)
    @given(payload=payloads())
    def test_memoized_replies_match_fresh(self, payload):
        check_replies(payload)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(payload=payloads())
    def test_memoized_replies_match_fresh_exhaustive(self, payload):
        check_replies(payload)


class TestMatcherMemoAgreement:
    @settings(max_examples=25, deadline=None)
    @given(payload=st.one_of(payloads(), response_payloads()))
    def test_memoized_verdicts_match_uncached(self, payload):
        check_verdicts(payload)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(payload=st.one_of(payloads(), response_payloads()))
    def test_memoized_verdicts_match_uncached_exhaustive(self, payload):
        check_verdicts(payload)
