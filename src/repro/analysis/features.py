"""Feature extraction for clustering censorship deployments (§7.1).

Each endpoint that encountered blocking contributes one feature vector
built from its CenTrace, CenFuzz and banner-grab measurements —
Table 3's feature set. Feature names follow Figure 9's labels so the
importance plot reads like the paper's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cenfuzz.runner import EndpointFuzzReport
from ..core.cenfuzz.strategies import all_strategies
from ..core.cenprobe.scanner import ProbeReport
from ..core.centrace.results import (
    CenTraceResult,
    TYPE_FIN,
    TYPE_HTTP,
    TYPE_RST,
    TYPE_TIMEOUT,
)

_RESPONSE_CODES = {TYPE_TIMEOUT: 0.0, TYPE_RST: 1.0, TYPE_FIN: 2.0, TYPE_HTTP: 3.0}

# Ports whose presence is individually informative (management planes).
_SIGNATURE_PORTS = (22, 23, 80, 443, 8080, 8443, 161, 21)


@lru_cache(maxsize=None)
def _strategy_names() -> Tuple[str, ...]:
    # Strategy names are static; building every permutation to list
    # them is done once per process, not per feature vector.
    return tuple(sorted(all_strategies())) + ("Normal",)


def strategy_feature_names() -> List[str]:
    """The CenFuzz-derived feature names (one per strategy) + Normal."""
    return list(_strategy_names())


def base_feature_names() -> List[str]:
    names = [
        "CensorResponse",
        "OnPath",
        "InjectedIPTTL",
        "InjectedIPID",
        "InjectedIPFlags",
        "InjectedTCPFlags",
        "InjectedTCPWindow",
        "InjectedTCPOptionCount",
        "IPTOSChanged",
        "IPFlagsChanged",
        "QuoteRFC792",
        "OpenPortCount",
    ]
    names.extend(f"Port{p}Open" for p in _SIGNATURE_PORTS)
    # Nmap-style crafted-probe features (§5.1 / os_probes).
    from ..core.cenprobe.os_probes import OS_FEATURE_NAMES

    names.extend(OS_FEATURE_NAMES)
    return names


def all_feature_names() -> List[str]:
    return base_feature_names() + strategy_feature_names()


@dataclass
class EndpointFeatures:
    """One endpoint's feature vector plus metadata."""

    endpoint_ip: str
    country: Optional[str] = None
    asn: Optional[int] = None
    values: Dict[str, float] = field(default_factory=dict)  # NaN = missing
    label: Optional[str] = None  # vendor label (blockpage or banner)
    label_source: Optional[str] = None  # "blockpage" | "banner"

    def vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array(
            [self.values.get(name, float("nan")) for name in names], dtype=float
        )


def extract_features(
    endpoint_ip: str,
    trace_results: Sequence[CenTraceResult],
    fuzz_reports: Sequence[EndpointFuzzReport] = (),
    probe_report: Optional[ProbeReport] = None,
    *,
    country: Optional[str] = None,
    asn: Optional[int] = None,
    blockpage_vendor: Optional[str] = None,
) -> EndpointFeatures:
    """Build the Table-3 feature vector for one endpoint."""
    features = EndpointFeatures(endpoint_ip=endpoint_ip, country=country, asn=asn)
    nan = float("nan")
    values = {name: nan for name in all_feature_names()}

    blocked = [r for r in trace_results if r.blocked and r.valid]
    if blocked:
        # The censorship response type, encoded per protocol: devices
        # frequently blockpage HTTP but RST or drop TLS, and that
        # *combination* is what distinguishes vendors (Figure 9's
        # top-ranked "CensorResponse" feature).
        def _proto_code(protocol: str) -> Optional[float]:
            votes = Counter(
                r.blocking_type for r in blocked if r.protocol == protocol
            )
            if not votes:
                return None
            return _RESPONSE_CODES.get(votes.most_common(1)[0][0])

        http_code = _proto_code("http")
        tls_code = _proto_code("tls")
        if http_code is None:
            http_code = tls_code
        if tls_code is None:
            tls_code = http_code
        if http_code is not None:
            values["CensorResponse"] = 4.0 * http_code + tls_code
        in_path_votes = [r.in_path for r in blocked if r.in_path is not None]
        if in_path_votes:
            values["OnPath"] = 1.0 - float(
                sum(in_path_votes) / len(in_path_votes) >= 0.5
            )
        injected = [r for r in blocked if r.injected_tcp_flags is not None]
        if injected:
            first = injected[0]

            # A field the injection never exposed is *missing* (NaN, so
            # imputation fills it), not 0 — IP-ID 0 and window 0 are
            # legitimate observed values that distinguish injectors.
            def _observed(value: Optional[float]) -> float:
                return nan if value is None else float(value)

            values["InjectedIPTTL"] = _observed(
                first.injected_initial_ttl
                if first.injected_initial_ttl is not None
                else first.injected_ttl
            )
            values["InjectedIPID"] = _observed(first.injected_ip_id)
            values["InjectedIPFlags"] = _observed(first.injected_ip_flags)
            values["InjectedTCPFlags"] = _observed(first.injected_tcp_flags)
            values["InjectedTCPWindow"] = _observed(first.injected_tcp_window)
            values["InjectedTCPOptionCount"] = float(
                len(first.injected_tcp_options)
            )
        quotes = [r.quote_delta for r in blocked if r.quote_delta is not None]
        if quotes:
            delta = quotes[0]
            values["IPTOSChanged"] = float(delta.tos_changed)
            values["IPFlagsChanged"] = float(delta.ip_flags_changed)
            values["QuoteRFC792"] = float(delta.follows_rfc792)

    if probe_report is not None and probe_report.reachable:
        values["OpenPortCount"] = float(len(probe_report.open_ports))
        for port in _SIGNATURE_PORTS:
            values[f"Port{port}Open"] = float(port in probe_report.open_ports)
        for name, value in getattr(probe_report, "os_features", {}).items():
            if name in values:
                values[name] = float(value)

    if fuzz_reports:
        per_strategy: Dict[str, List[Tuple[int, int]]] = {}
        normal_blocked_flags = []
        for report in fuzz_reports:
            normal_blocked_flags.append(float(report.normal_blocked))
            for strategy, (ok, evaluated) in report.success_by_strategy().items():
                per_strategy.setdefault(strategy, []).append((ok, evaluated))
        for strategy, counts in per_strategy.items():
            if strategy not in values:
                # Reports can carry strategy names this build doesn't
                # know (older saved data, renamed strategies); writing
                # them through would silently widen the feature vector
                # beyond all_feature_names() and break column alignment.
                continue
            ok = sum(c[0] for c in counts)
            evaluated = sum(c[1] for c in counts)
            if evaluated:
                values[strategy] = ok / evaluated
        if normal_blocked_flags:
            values["Normal"] = float(np.mean(normal_blocked_flags))

    features.values = values

    # Labels (§7.1): prefer the blockpage fingerprint; fall back to the
    # banner-grab vendor.
    if blockpage_vendor:
        features.label = blockpage_vendor
        features.label_source = "blockpage"
    elif probe_report is not None and probe_report.vendor:
        features.label = probe_report.vendor
        features.label_source = "banner"
    return features


def feature_matrix(
    features: Sequence[EndpointFeatures],
    names: Optional[Sequence[str]] = None,
) -> Tuple[List[str], np.ndarray, List[Optional[str]]]:
    """Stack features into (names, X, labels); NaN marks missing."""
    names = list(names or all_feature_names())
    X = np.stack([f.vector(names) for f in features]) if features else np.zeros((0, len(names)))
    labels = [f.label for f in features]
    return names, X, labels


def drop_empty_columns(
    names: List[str], X: np.ndarray
) -> Tuple[List[str], np.ndarray]:
    """Remove all-NaN columns (features never measured in this run)."""
    if X.size == 0:
        return names, X
    keep = [i for i in range(X.shape[1]) if not np.all(np.isnan(X[:, i]))]
    return [names[i] for i in keep], X[:, keep]
