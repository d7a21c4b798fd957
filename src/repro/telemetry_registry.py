"""The declared telemetry registry — the documented ops surface.

Every counter, span, and event name is declared here once, as a
constant with a one-line description, filling the tables ``repro report
--registry`` renders. Emitters and readers import the constants
(``from ..telemetry_registry import SIM_CLIENT_PACKETS``), so a
misspelt name is an ``ImportError``, not a silently forked metric;
declaring a name twice raises too. Span and event constants carry a
``SPAN_``/``EVENT_`` prefix: the event kinds ``centrace.blocked`` and
``cenfuzz.endpoint`` are also a counter and a span name. Runtime-suffixed
names come from the family functions, which only build names under
their declared prefix. This module imports nothing from the project.

Adding a counter (also in the README): declare it below with a
description worth reading in a report, then import it where it is
emitted. ``tests/test_telemetry.py`` fails on a name no module uses.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

#: Exact counter names -> what the number means.
COUNTERS: Dict[str, str] = {}

#: Counter-name prefixes emitted with runtime-computed suffixes.
DYNAMIC_COUNTERS: Dict[str, str] = {}

#: Exact span names (virtual-clock spans, plus the wall-clock
#: campaign envelope) -> what the duration covers.
SPANS: Dict[str, str] = {}

#: Span-name prefixes with runtime-computed suffixes.
DYNAMIC_SPANS: Dict[str, str] = {}

#: Exact event kinds -> what one event records.
EVENTS: Dict[str, str] = {}


def _declare(table: Dict[str, str], name: str, description: str) -> str:
    """Enter ``name`` in ``table`` and return it; twice is an error."""
    if name in table:
        raise ValueError(f"telemetry name {name!r} declared twice")
    table[name] = description
    return name


def _family(
    table: Dict[str, str], prefix: str, description: str
) -> Callable[[str], str]:
    """Declare a name prefix; return the builder of names under it."""
    _declare(table, prefix, description)

    def name(suffix: str) -> str:
        return prefix + suffix

    return name


_counter = partial(_declare, COUNTERS)
_span = partial(_declare, SPANS)
_event = partial(_declare, EVENTS)


# -- packet plane (netsim) --------------------------------------
SIM_CLIENT_PACKETS = _counter(
    "sim.client_packets", "probe packets sent by simulated clients"
)
SIM_DELIVERIES = _counter(
    "sim.deliveries", "packets delivered end-to-end (either direction)"
)
SIM_PACKETS_LOST = _counter(
    "sim.packets_lost", "packets dropped by loss rolls or fault plans"
)
SIM_FAULT_LOSS_ROLLS = _counter(
    "sim.fault_loss_rolls", "fault-layer loss lotteries drawn"
)
SIM_FAULT_DEVICE_ROLLS = _counter(
    "sim.fault_device_rolls", "fault-layer flaky-device lotteries drawn"
)
SIM_DEVICE_INSPECTIONS = _counter(
    "sim.device_inspections", "packets inspected by a censorship device"
)
SIM_DEVICE_ACTIONS = _counter(
    "sim.device_actions", "device verdicts that acted on a packet"
)
SIM_DEVICE_DROPS = _counter("sim.device_drops", "packets a device silently dropped")
SIM_ICMP_SILENT = _counter(
    "sim.icmp_silent", "TTL expiries that produced no ICMP (silent hop)"
)
SIM_ICMP_RATE_LIMITED = _counter(
    "sim.icmp_rate_limited", "ICMP replies suppressed by rate limiting"
)
SIM_ICMP_GENERATED = _counter(
    "sim.icmp_generated", "ICMP time-exceeded replies generated"
)
SIM_INJECTED_TO_CLIENT = _counter(
    "sim.injected_to_client", "forged packets injected toward the client"
)
SIM_INJECTED_TO_SERVER = _counter(
    "sim.injected_to_server", "forged packets injected toward the server"
)
SIM_INJECTED_TTL_EXPIRED = _counter(
    "sim.injected_ttl_expired", "injected packets that expired in transit"
)
SIM_REVERSE_TTL_EXPIRED = _counter(
    "sim.reverse_ttl_expired", "reverse-path packets that expired in transit"
)
SIM_BATCHES = _counter("sim.batches", "batched sweeps walked by the packet plane")
SIM_BATCH_FAST_PATH = _counter(
    "sim.batch_fast_path", "client sends walked by the batched packet plane"
)
SIM_BATCH_CONTROL_RESOLVED = _counter(
    "sim.batch_control_resolved",
    "handshake/teardown segments resolved without a packet",
)

# -- measurement tools (core) -----------------------------------
CENTRACE_MEASUREMENTS = _counter(
    "centrace.measurements", "CenTrace endpoint measurements started"
)
CENTRACE_BLOCKED = _counter("centrace.blocked", "measurements that observed censorship")
CENTRACE_DEGRADED_MEASUREMENTS = _counter(
    "centrace.degraded_measurements", "measurements degraded by weather"
)
CENTRACE_SWEEPS = _counter("centrace.sweeps", "TTL sweeps executed")
CENTRACE_DEGRADED_SWEEPS = _counter(
    "centrace.degraded_sweeps", "sweeps with rate-limited/lossy hops"
)
CENTRACE_PROBES = _counter("centrace.probes", "individual TTL-limited probes sent")
CENTRACE_PROBE_RETRIES = _counter(
    "centrace.probe_retries", "probes retried after silence"
)
CENTRACE_HANDSHAKE_FAILURES = _counter(
    "centrace.handshake_failures", "application handshakes that failed"
)
CENTRACE_HOPS_RATE_LIMITED = _counter(
    "centrace.hops_rate_limited", "hops that answered only some probes"
)
CENFUZZ_ENDPOINTS = _counter("cenfuzz.endpoints", "CenFuzz endpoints fuzzed")
CENFUZZ_PERMUTATIONS = _counter(
    "cenfuzz.permutations", "fuzzing permutations evaluated"
)
CENFUZZ_PROBES = _counter("cenfuzz.probes", "fuzz probes sent (test + control)")
CENFUZZ_BLOCKED_PROBES = _counter(
    "cenfuzz.blocked_probes", "fuzz probes that observed blocking"
)
CENFUZZ_HANDSHAKE_FAILURES = _counter(
    "cenfuzz.handshake_failures", "fuzz handshakes that failed"
)
CENFUZZ_REPROBES = _counter("cenfuzz.reprobes", "tie-breaking re-probes issued")
CENFUZZ_EVASIONS = _counter("cenfuzz.evasions", "permutations that evaded the censor")
CENFUZZ_DEGRADED_ENDPOINTS = _counter(
    "cenfuzz.degraded_endpoints", "endpoints needing degraded handling"
)
CENPROBE_SCANS = _counter("cenprobe.scans", "CenProbe device scans started")
CENPROBE_PORTS_SCANNED = _counter(
    "cenprobe.ports_scanned", "ports probed across all scans"
)
CENPROBE_OPEN_PORTS = _counter("cenprobe.open_ports", "ports found open")
CENPROBE_UNREACHABLE = _counter(
    "cenprobe.unreachable", "scan targets that never answered"
)
CENPROBE_BANNER_GRABS = _counter(
    "cenprobe.banner_grabs", "banners grabbed from open ports"
)
CENPROBE_VENDOR_LABELS = _counter(
    "cenprobe.vendor_labels", "scans that yielded a vendor label"
)

# -- localization layer (repro.localize) ------------------------
LOCALIZE_PROBES = _counter(
    "localize.probes", "plain outcome probes sent for path evidence"
)
LOCALIZE_EVIDENCE_RECORDS = _counter(
    "localize.evidence_records", "path-evidence records collected"
)
LOCALIZE_BLOCKED_EVIDENCE = _counter(
    "localize.blocked_evidence", "evidence records that observed blocking"
)
LOCALIZE_VERDICTS = _counter("localize.verdicts", "localization verdicts produced")

# -- campaign service (repro.service) ---------------------------
SERVICE_REQUESTS = _counter(
    "service.requests", "client requests admitted by the service"
)
SERVICE_UNITS_REQUESTED = _counter(
    "service.units_requested", "work units named across all requests"
)
SERVICE_COALESCED = _counter(
    "service.coalesced", "unit requests answered by coalescing"
)
SERVICE_COALESCED_CACHED = _counter(
    "service.coalesced_cached", "coalesced hits served from finished units"
)
SERVICE_COALESCED_INFLIGHT = _counter(
    "service.coalesced_inflight", "coalesced hits joined to in-flight units"
)
SERVICE_UNITS_ENQUEUED = _counter(
    "service.units_enqueued", "units enqueued for execution"
)
SERVICE_UNITS_EXECUTED = _counter("service.units_executed", "units actually executed")
SERVICE_UNIT_RETRIES = _counter(
    "service.unit_retries", "unit executions retried after faults"
)
SERVICE_UNIT_FAILURES = _counter(
    "service.unit_failures", "units abandoned after exhausting retries"
)
SERVICE_CACHE_RESTORED = _counter(
    "service.cache_restored", "units answered from the persistent cache"
)
SERVICE_RATE_LIMITED_WAITS = _counter(
    "service.rate_limited_waits", "token-bucket waits imposed on tenants"
)
SERVICE_BACKPRESSURE_WAITS = _counter(
    "service.backpressure_waits", "admissions stalled on queue depth"
)

# -- persistence + fact store (repro.persist / repro.store) -----
STORE_UNIT_CACHE_LOADED = _counter(
    "store.unit_cache_loaded", "unit-cache records loaded from disk"
)
STORE_UNIT_CACHE_TORN_TAIL = _counter(
    "store.unit_cache_torn_tail", "truncated trailing cache records dropped"
)
STORE_UNIT_CACHE_HITS = _counter("store.unit_cache_hits", "unit-cache lookups that hit")
STORE_UNIT_CACHE_MISSES = _counter(
    "store.unit_cache_misses", "unit-cache lookups that missed"
)
STORE_UNIT_CACHE_WRITES = _counter(
    "store.unit_cache_writes", "unit results appended to the cache"
)
STORE_FACTS_LOADED = _counter("store.facts_loaded", "facts loaded from a fact store")
STORE_FACTS_APPENDED = _counter(
    "store.facts_appended", "facts appended to a fact store"
)
STORE_EPOCHS_APPENDED = _counter("store.epochs_appended", "epoch manifests appended")
STORE_EPOCHS_RUN = _counter("store.epochs_run", "observatory epochs executed")
STORE_QUERIES = _counter("store.queries", "fact-store queries answered")

# -- counter families (dynamic suffix) --------------------------
fault_counter = _family(
    DYNAMIC_COUNTERS,
    "faults.",
    "per-fault-kind totals merged from FaultCounters "
    "(packets_lost, icmp_suppressed, duplicated, reordered, "
    "churn_epochs, fail_open, fail_closed)",
)
units_reused_counter = _family(
    DYNAMIC_COUNTERS, "store.units_reused.", "cache-reused units per work-unit kind"
)
units_executed_counter = _family(
    DYNAMIC_COUNTERS, "store.units_executed.", "re-simulated units per work-unit kind"
)

# -- spans ------------------------------------------------------
SPAN_CAMPAIGN = _span("campaign", "whole-campaign wall-clock envelope")
SPAN_CAMPAIGN_PROBE = _span("campaign.probe", "CenProbe stage of a campaign")
SPAN_CENTRACE_SWEEP = _span("centrace.sweep", "one CenTrace TTL sweep")
SPAN_CENFUZZ_ENDPOINT = _span(
    "cenfuzz.endpoint", "all permutations for one fuzzed endpoint"
)
SPAN_LOCALIZE_COLLECT = _span(
    "localize.collect", "one outcome-evidence collection campaign"
)
SPAN_LOCALIZE_XVAL = _span("localize.xval", "whole localization cross-validation sweep")
SPAN_SERVICE_UNIT = _span(
    "service.unit", "one work unit executed by the campaign service"
)
campaign_stage_span = _family(
    DYNAMIC_SPANS,
    "campaign.",
    "per-stage campaign time (campaign.traces, "
    "campaign.fuzz, ... — one per executor stage)",
)

# -- events -----------------------------------------------------
EVENT_STAGE = _event("stage", "one executor stage finished (stage name, unit count)")
EVENT_SIM_BATCH = _event("sim.batch", "one batched sweep walked (label, size)")
EVENT_CENTRACE_BLOCKED = _event(
    "centrace.blocked", "a measurement observed blocking (endpoint, type)"
)
EVENT_CENFUZZ_ENDPOINT = _event(
    "cenfuzz.endpoint", "one endpoint fuzzed (evasion/permutation counts)"
)
EVENT_LOCALIZE_PLACEMENT = _event(
    "localize.placement", "one placement world scored (true index, methods)"
)


#: Section ordering used by ``repro report --registry``.
SECTIONS = (
    ("Counters", COUNTERS),
    ("Counter families (dynamic suffix)", DYNAMIC_COUNTERS),
    ("Spans", SPANS),
    ("Span families (dynamic suffix)", DYNAMIC_SPANS),
    ("Events", EVENTS),
)


def render_registry() -> str:
    """Human-readable registry listing (``repro report --registry``)."""
    lines = ["Telemetry registry — the documented ops surface"]
    lines.append("=" * len(lines[0]))
    for title, table in SECTIONS:
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))
        width = max(len(name) for name in table)
        for name in sorted(table):
            lines.append(f"  {name:<{width}}  {table[name]}")
    return "\n".join(lines)


def registry_as_dict() -> Dict[str, Dict[str, str]]:
    """JSON-able registry (``repro report --registry --json``)."""
    return {
        "counters": dict(sorted(COUNTERS.items())),
        "dynamic_counters": dict(sorted(DYNAMIC_COUNTERS.items())),
        "spans": dict(sorted(SPANS.items())),
        "dynamic_spans": dict(sorted(DYNAMIC_SPANS.items())),
        "events": dict(sorted(EVENTS.items())),
    }
