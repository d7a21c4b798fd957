"""The record codec over every persisted record type (Hypothesis).

``from_dict(json round-trip(to_dict(x)))`` equals ``x`` on every
persisted field, with keys written in field order; and a record
stripped of every defaulted key loads with the defaults. Records are
drawn from their own type hints, so a field added to a persisted
dataclass is covered without touching this file.
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cenfuzz.runner import (
    EndpointFuzzReport,
    FuzzProbeOutcome,
    PermutationResult,
)
from repro.core.cenprobe.scanner import BannerGrab, ProbeReport
from repro.core.centrace.results import CenTraceResult, HopInfo
from repro.localize import LocalizationVerdict, PathEvidence
from repro.netmodel.icmp import QuoteDelta
from repro.persist import VERSIONED_RECORDS, from_dict, to_dict


def persisted(cls):
    """The fields ``cls`` saves, in the order it writes them."""
    return [
        f for f in dataclasses.fields(cls) if f.metadata.get("persist", True) is True
    ]


def hinted(hint):
    """A strategy for values of type ``hint``."""
    if dataclasses.is_dataclass(hint):
        return records(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return st.one_of([hinted(arg) for arg in args])
    if origin is list:
        return st.lists(hinted(args[0]), max_size=3)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(hinted(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*[hinted(arg) for arg in args])
    if origin is dict:
        return st.dictionaries(hinted(args[0]), hinted(args[1]), max_size=3)
    if hint is type(None):
        return st.none()
    if hint is float:
        return st.floats(allow_nan=False)  # NaN never equals itself
    if hint is str:
        return st.text(max_size=8)
    return st.from_type(hint)


def records(cls, **overrides):
    """``cls`` records with every field it persists or inherits drawn."""
    hints = typing.get_type_hints(cls)
    fields = {
        f.name: hinted(hints[f.name])
        for f in dataclasses.fields(cls)
        if f.metadata.get("persist", True)
    }
    return st.builds(cls, **{**fields, **overrides})


@st.composite
def fuzz_reports(draw):
    """Reports whose rows carry the report's own inherited fields."""
    report = draw(records(EndpointFuzzReport, results=st.just([])))
    inherited = {
        f.name: st.just(getattr(report, f.name))
        for f in dataclasses.fields(PermutationResult)
        if f.metadata.get("persist") == "parent"
    }
    report.results = draw(
        st.lists(records(PermutationResult, **inherited), max_size=3)
    )
    return report


RECORDS = {
    "trace": records(CenTraceResult),
    "hop": records(HopInfo),
    "quote": records(QuoteDelta),
    "fuzz": fuzz_reports(),
    "outcome": records(FuzzProbeOutcome),
    "probe": records(ProbeReport),
    "grab": records(BannerGrab),
    "evidence": records(PathEvidence),
    "verdict": records(LocalizationVerdict),
}


def assert_keys_in_field_order(cls, data):
    version = ["version"] if cls in VERSIONED_RECORDS else []
    assert list(data) == version + [f.name for f in persisted(cls)]
    hints = typing.get_type_hints(cls)
    for f in persisted(cls):
        hint = hints[f.name]
        nested = [t for t in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(t)]
        value = data[f.name]
        for item in value if isinstance(value, list) else [value]:
            if nested and item is not None:
                assert_keys_in_field_order(nested[0], item)


def check_round_trip(record):
    cls = type(record)
    data = to_dict(record)
    assert_keys_in_field_order(cls, data)
    restored = from_dict(cls, json.loads(json.dumps(data, ensure_ascii=False)))
    for f in persisted(cls):
        assert getattr(restored, f.name) == getattr(record, f.name), f.name
    for name in ("links", "candidate_links", "injected_tcp_options"):
        value = getattr(restored, name, ())
        assert type(value) is tuple, name
        assert all(type(x) is tuple for x in value if not isinstance(x, int)), name


@pytest.mark.parametrize("kind", sorted(RECORDS))
class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_persisted_fields_round_trip(self, kind, data):
        check_round_trip(data.draw(RECORDS[kind]))

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_persisted_fields_round_trip_exhaustive(self, kind, data):
        check_round_trip(data.draw(RECORDS[kind]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stripped_defaulted_keys_load_as_defaults(self, kind, data):
        record = data.draw(RECORDS[kind])
        cls = type(record)
        hints = typing.get_type_hints(cls)
        defaults = {}
        for f in persisted(cls):
            if f.default is not dataclasses.MISSING:
                defaults[f.name] = f.default
            elif f.default_factory is not dataclasses.MISSING:
                defaults[f.name] = f.default_factory()
            elif type(None) in typing.get_args(hints[f.name]):
                defaults[f.name] = None
        saved = to_dict(record)
        for name in defaults:
            del saved[name]
        restored = from_dict(cls, saved)
        for f in persisted(cls):
            expected = defaults.get(f.name, getattr(record, f.name))
            assert getattr(restored, f.name) == expected, f.name
