"""Feature extraction (Table 3)."""

import math

import numpy as np
import pytest

from repro.analysis.features import (
    EndpointFeatures,
    all_feature_names,
    drop_empty_columns,
    extract_features,
    feature_matrix,
    strategy_feature_names,
)
from repro.core.cenfuzz.strategies import all_strategies
from repro.core.centrace.results import (
    CenTraceResult,
    TYPE_HTTP,
    TYPE_RST,
    TYPE_TIMEOUT,
)
from repro.netmodel.icmp import QuoteDelta


def _trace(
    blocked=True,
    blocking_type=TYPE_TIMEOUT,
    protocol="http",
    in_path=True,
    **kwargs,
) -> CenTraceResult:
    result = CenTraceResult(
        endpoint_ip="10.0.0.9",
        endpoint_asn=64500,
        test_domain="www.blocked.example",
        protocol=protocol,
        blocked=blocked,
        blocking_type=blocking_type,
        in_path=in_path,
    )
    for key, value in kwargs.items():
        setattr(result, key, value)
    return result


class TestExtraction:
    def test_names_cover_strategies_and_base(self):
        names = all_feature_names()
        assert "CensorResponse" in names
        assert "Get Word Alt." in names
        assert "Normal" in names
        assert len(names) == len(set(names))

    def test_strategy_names_follow_the_strategy_catalog(self):
        assert strategy_feature_names() == sorted(all_strategies()) + ["Normal"]
        assert all_feature_names()[-len(strategy_feature_names()):] == (
            strategy_feature_names()
        )

    def test_feature_name_lists_are_fresh(self):
        # The names are derived once; callers still get their own list.
        first = strategy_feature_names()
        first.append("Mutated")
        all_feature_names().append("Mutated")
        assert "Mutated" not in strategy_feature_names()
        assert "Mutated" not in all_feature_names()

    def test_unblocked_endpoint_all_missing(self):
        features = extract_features("10.0.0.9", [_trace(blocked=False)])
        assert all(math.isnan(v) for v in features.values.values())

    def test_censor_response_combines_protocols(self):
        http = _trace(blocking_type=TYPE_HTTP, protocol="http")
        tls = _trace(blocking_type=TYPE_RST, protocol="tls")
        features = extract_features("10.0.0.9", [http, tls])
        # HTTP code 3, TLS code 1 -> 4*3 + 1.
        assert features.values["CensorResponse"] == 13.0

    def test_censor_response_single_protocol_mirrors(self):
        features = extract_features("10.0.0.9", [_trace(blocking_type=TYPE_RST)])
        assert features.values["CensorResponse"] == 4.0 * 1 + 1

    def test_injected_fields_copied(self):
        trace = _trace(
            blocking_type=TYPE_RST,
            injected_tcp_flags=4,
            injected_ip_id=0x1234,
            injected_ip_flags=2,
            injected_tcp_window=8192,
            injected_initial_ttl=64,
            injected_ttl=60,
            injected_tcp_options=(2, 4),
        )
        features = extract_features("10.0.0.9", [trace])
        assert features.values["InjectedIPID"] == 0x1234
        assert features.values["InjectedTCPWindow"] == 8192
        assert features.values["InjectedIPTTL"] == 64
        assert features.values["InjectedTCPOptionCount"] == 2

    def test_injected_zero_values_preserved(self):
        # IP-ID 0 and window 0 are genuine observations (some injectors
        # always send IP-ID 0); they must survive as 0.0, not be
        # conflated with "not observed".
        trace = _trace(
            blocking_type=TYPE_RST,
            injected_tcp_flags=4,
            injected_ip_id=0,
            injected_ip_flags=0,
            injected_tcp_window=0,
        )
        features = extract_features("10.0.0.9", [trace])
        assert features.values["InjectedIPID"] == 0.0
        assert features.values["InjectedIPFlags"] == 0.0
        assert features.values["InjectedTCPWindow"] == 0.0

    def test_injected_unobserved_fields_are_missing(self):
        # An injection that exposed TCP flags but not IP-ID/flags/window
        # leaves those features NaN (missing) for median imputation.
        trace = _trace(blocking_type=TYPE_RST, injected_tcp_flags=4)
        features = extract_features("10.0.0.9", [trace])
        assert features.values["InjectedTCPFlags"] == 4.0
        assert math.isnan(features.values["InjectedIPID"])
        assert math.isnan(features.values["InjectedIPFlags"])
        assert math.isnan(features.values["InjectedTCPWindow"])

    def test_unknown_fuzz_strategy_not_widened(self):
        # A fuzz report naming a strategy this build doesn't know (e.g.
        # older saved data) must not grow the feature dict beyond
        # all_feature_names() — that would desync matrix columns.
        from repro.core.cenfuzz.runner import (
            EndpointFuzzReport,
            FuzzProbeOutcome,
            PermutationResult,
        )

        report = EndpointFuzzReport(
            endpoint_ip="10.0.0.9",
            test_domain="www.blocked.example",
            protocol="http",
        )
        report.results.append(
            PermutationResult(
                endpoint_ip="10.0.0.9",
                test_domain="www.blocked.example",
                strategy="Retired Strategy",
                label="retired[0]",
                protocol="http",
                normal_blocked=True,
                test=FuzzProbeOutcome("response"),
                control=FuzzProbeOutcome("response"),
                successful=True,
            )
        )
        features = extract_features(
            "10.0.0.9", [_trace()], fuzz_reports=[report]
        )
        assert "Retired Strategy" not in features.values
        assert set(features.values) == set(all_feature_names())

    def test_quote_delta_features(self):
        trace = _trace(
            quote_delta=QuoteDelta(tos_changed=True, follows_rfc792=True)
        )
        features = extract_features("10.0.0.9", [trace])
        assert features.values["IPTOSChanged"] == 1.0
        assert features.values["QuoteRFC792"] == 1.0
        assert features.values["IPFlagsChanged"] == 0.0

    def test_on_path_encoding(self):
        features = extract_features("10.0.0.9", [_trace(in_path=False)])
        assert features.values["OnPath"] == 1.0
        features2 = extract_features("10.0.0.9", [_trace(in_path=True)])
        assert features2.values["OnPath"] == 0.0

    def test_label_prefers_blockpage(self):
        from repro.core.cenprobe.scanner import ProbeReport

        probe = ProbeReport(ip="10.0.0.3", reachable=True, vendor="Cisco")
        features = extract_features(
            "10.0.0.9", [_trace()], probe_report=probe, blockpage_vendor="Fortinet"
        )
        assert features.label == "Fortinet"
        assert features.label_source == "blockpage"

    def test_label_falls_back_to_banner(self):
        from repro.core.cenprobe.scanner import ProbeReport

        probe = ProbeReport(ip="10.0.0.3", reachable=True, vendor="Cisco")
        features = extract_features("10.0.0.9", [_trace()], probe_report=probe)
        assert features.label == "Cisco"
        assert features.label_source == "banner"

    def test_open_ports_encoded(self):
        from repro.core.cenprobe.scanner import ProbeReport

        probe = ProbeReport(
            ip="10.0.0.3", reachable=True, open_ports=[22, 443]
        )
        features = extract_features("10.0.0.9", [_trace()], probe_report=probe)
        assert features.values["OpenPortCount"] == 2.0
        assert features.values["Port22Open"] == 1.0
        assert features.values["Port80Open"] == 0.0


class TestMatrix:
    def test_matrix_shape_and_labels(self):
        features = [
            extract_features("10.0.0.1", [_trace()], blockpage_vendor="A"),
            extract_features("10.0.0.2", [_trace()]),
        ]
        names, X, labels = feature_matrix(features)
        assert X.shape == (2, len(names))
        assert labels == ["A", None]

    def test_drop_empty_columns(self):
        features = [extract_features("10.0.0.1", [_trace()])]
        names, X, _ = feature_matrix(features)
        kept, X2 = drop_empty_columns(list(names), X)
        assert X2.shape[1] == len(kept) < len(names)
        assert not np.all(np.isnan(X2), axis=0).any()

    def test_vector_order_matches_names(self):
        features = extract_features("10.0.0.1", [_trace(blocking_type=TYPE_RST)])
        names = ["CensorResponse"]
        assert features.vector(names)[0] == 5.0
