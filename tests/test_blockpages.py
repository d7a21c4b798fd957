"""The blockpage matcher: match order, the fixed corpus and the verdict memo."""

import pytest

from repro.core.blockpages import (
    DEFAULT_MATCHER,
    FINGERPRINTS,
    BlockpageFingerprint,
    BlockpageMatcher,
)
from repro.devices.vendors import FORTINET_BLOCKPAGE

EARLY = BlockpageFingerprint(name="early", pattern=r"first marker")
LATE = BlockpageFingerprint(name="late", pattern=r"second marker")


def _page(html: str) -> bytes:
    return (
        "HTTP/1.1 403 Forbidden\r\nContent-Type: text/html\r\n"
        f"Content-Length: {len(html.encode())}\r\n\r\n{html}"
    ).encode()


class TestMatchOrder:
    def test_first_fingerprint_in_list_order_wins(self):
        # LATE's pattern occurs earlier in the body, but EARLY comes
        # first in the corpus, and corpus order decides.
        matcher = BlockpageMatcher([EARLY, LATE])
        payload = _page("second marker ... first marker")
        assert matcher.match_payload(payload) is EARLY
        assert BlockpageMatcher([LATE, EARLY]).match_payload(payload) is LATE

    def test_match_is_case_insensitive_across_lines(self):
        matcher = BlockpageMatcher(
            [BlockpageFingerprint(name="span", pattern=r"first.*marker")]
        )
        assert matcher.match_payload(_page("FIRST\nMARKER")) is not None

    def test_status_line_optional(self):
        matcher = BlockpageMatcher([EARLY])
        assert matcher.match_payload(b"<html>first marker</html>") is EARLY

    def test_default_corpus_attributes_vendor_page(self):
        match = DEFAULT_MATCHER.match_payload(_page(FORTINET_BLOCKPAGE))
        assert match is not None and match.vendor == "Fortinet"
        assert DEFAULT_MATCHER.fingerprints == FINGERPRINTS


class TestCorpus:
    def test_fingerprints_are_a_read_only_tuple(self):
        assert isinstance(BlockpageMatcher().fingerprints, tuple)
        matcher = BlockpageMatcher([EARLY])
        assert isinstance(matcher.fingerprints, tuple)
        with pytest.raises(AttributeError):
            matcher.fingerprints = (LATE,)  # fixed at construction

    def test_explicitly_empty_corpus_matches_nothing(self):
        matcher = BlockpageMatcher([])
        assert matcher.fingerprints == ()
        assert matcher.match_payload(_page(FORTINET_BLOCKPAGE)) is None


class TestMemo:
    def test_repeated_payload_is_answered_from_the_memo(self, monkeypatch):
        matcher = BlockpageMatcher()
        payload = _page(FORTINET_BLOCKPAGE)
        first = matcher.match_payload(payload)

        def rematch(body):
            raise AssertionError("a memoized payload was matched again")

        monkeypatch.setattr(matcher, "match_body", rematch)
        assert matcher.match_payload(payload) is first

    def test_cap_bounds_the_memo(self, monkeypatch):
        matcher = BlockpageMatcher([EARLY, LATE])
        monkeypatch.setattr(matcher, "MEMO_CAP", 8)
        for i in range(50):
            marker = ("first", "second", "no")[i % 3]
            payload = _page(f"page {i}: {marker} marker")
            expected = {"first": EARLY, "second": LATE}.get(marker)
            assert matcher.match_payload(payload) is expected
            assert len(matcher._memo) <= 8
        assert BlockpageMatcher.MEMO_CAP > 8
