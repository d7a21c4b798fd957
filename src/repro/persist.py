"""Persistence: serialize measurement results to JSON(L) and back.

The real measurement platforms publish their raw data (Censored Planet
"raw data" releases, OONI measurements); this module provides the same
capability for campaign outputs:

* one JSON object per CenTrace result / CenFuzz report / banner grab,
  written and read by one codec (:func:`to_dict` / :func:`from_dict`)
  planned from each record's dataclass fields,
* directory-level save/load for a whole campaign
  (``traces.jsonl`` / ``fuzz.jsonl`` / ``banners.jsonl`` / ``meta.json``),
* loaded results reconstruct the dataclasses the analysis pipeline
  consumes, so saved campaigns can be re-clustered offline.

Sweep-level packet observations are summarized (hop maps and
terminating responses), not archived byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from .core.cenfuzz.runner import EndpointFuzzReport
from .core.cenprobe.scanner import ProbeReport
from .core.centrace.results import CenTraceResult
from .localize.evidence import PathEvidence
from .localize.verdicts import LocalizationVerdict
from .telemetry import NULL_TELEMETRY, RunReport

# 2: adds optional report.json (telemetry run report) + has_report meta.
# 3: meta.json gains "kind" + "provenance" (world seed/scale/fault plan/
#    drift plan/epoch) + "environment" (workers); service-run dirs gain
#    their own kind-tagged meta.json. Version-1/2 directories (no kind,
#    no provenance) load unchanged.
FORMAT_VERSION = 3

VANTAGE_VALUES = ("remote", "in-country")


class PersistError(RuntimeError):
    """A persisted run directory is missing, truncated, or corrupt.

    Raised instead of raw ``FileNotFoundError``/``JSONDecodeError`` so
    analysis CLI paths can catch one exception type and exit cleanly;
    the message always names the offending path. ``key`` names the
    offending key of a malformed record ("" when none applies).
    """

    def __init__(self, message: str, key: str = "") -> None:
        super().__init__(message)
        self.key = key


def _read_json(path: Path, what: str) -> Dict:
    """Read one JSON file, converting failures into PersistError."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise PersistError(
            f"{what} not found: {path} (is this a saved run directory?)"
        ) from None
    except OSError as exc:
        raise PersistError(f"cannot read {what} {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistError(
            f"corrupt {what} {path}: {exc} (truncated write?)"
        ) from None
    if not isinstance(data, dict):
        raise PersistError(
            f"corrupt {what} {path}: expected a JSON object, got "
            f"{type(data).__name__}"
        )
    return data


# ---------------------------------------------------------------------------
# The record codec
# ---------------------------------------------------------------------------
#
# One codec writes and reads every persisted dataclass, driven by
# ``dataclasses.fields`` and the fields' type hints, so a record's saved
# form cannot drift from its class. Keys are written in field order.
# A field's ``metadata["persist"]`` opts it out: ``False`` means not
# saved (a load leaves the field's default), ``"parent"`` means not
# saved because a load copies the same-named attribute of the
# enclosing record. On load, an absent key takes the field's default;
# an ``Optional`` field without one reads as None; any other absent
# field is required.

#: Records whose saved form starts with the format version.
VERSIONED_RECORDS = (CenTraceResult, EndpointFuzzReport, ProbeReport)

#: Work-unit kind -> the record its result is.
UNIT_RECORDS = {"trace": CenTraceResult, "fuzz": EndpointFuzzReport}

_ABSENT = object()


def _optional_of(hint):
    """``X`` for ``Optional[X]``, else None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not Union or type(None) not in args:
        return None
    if len(args) != 2:
        return None
    return args[0] if args[1] is type(None) else args[1]


def _encoder(hint) -> Optional[Callable]:
    """The converter writing a ``hint`` value as JSON (None: as is)."""
    if dataclasses.is_dataclass(hint):
        return _codec(hint).encode
    inner = _optional_of(hint)
    if inner is not None:
        item = _encoder(inner)
        if item is None:
            return None
        return lambda value: None if value is None else item(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or origin is tuple:
        item = _encoder(args[0])
        if item is None:
            return list
        return lambda value: [item(x) for x in value]
    if origin is dict:
        item = _encoder(args[1])
        if item is None:
            if args[0] is str:
                return dict
            return lambda value: {str(k): x for k, x in value.items()}
        return lambda value: {str(k): item(x) for k, x in value.items()}
    return None


def _type_name(value) -> str:
    return type(value).__name__


def _within(step: str, key: str) -> str:
    """``key`` (relative to a nested value) as seen from its container."""
    if not key:
        return step
    return step + key if key.startswith("[") else f"{step}.{key}"


def _sequence_decoder(make: type, item: Optional[Callable]) -> Callable:
    def decode(value, parent):
        if not isinstance(value, (list, tuple)):
            raise PersistError(f"is not a list (got {_type_name(value)})")
        if item is None:
            return make(value)
        out = []
        for index, x in enumerate(value):
            try:
                out.append(item(x, parent))
            except PersistError as exc:
                exc.key = _within(f"[{index}]", exc.key)
                raise
        return out if make is list else make(out)

    return decode


def _dict_decoder(key_type, item: Optional[Callable]) -> Callable:
    def decode(value, parent):
        if not isinstance(value, dict):
            raise PersistError(
                f"is not an object (got {_type_name(value)})"
            )
        if key_type is str and item is None:
            return dict(value)
        out = {}
        for raw, x in value.items():
            try:
                key = raw if key_type is str else key_type(raw)
            except ValueError:
                raise PersistError(
                    f"has a non-{key_type.__name__} key {raw!r}"
                ) from None
            if item is None:
                out[key] = x
                continue
            try:
                out[key] = item(x, parent)
            except PersistError as exc:
                exc.key = _within(f"[{raw!r}]", exc.key)
                raise
        return out

    return decode


def _decoder(hint) -> Optional[Callable]:
    """The converter reading a ``hint`` value back (None: as is).

    Converters take ``(value, parent)``; ``parent`` is the enclosing
    record, for nested records that inherit fields from it. Tuples are
    homogeneous: ``Tuple[X, ...]`` or a fixed ``Tuple[X, X]``.
    """
    if dataclasses.is_dataclass(hint):
        return _codec(hint).decode
    inner = _optional_of(hint)
    if inner is not None:
        item = _decoder(inner)
        if item is None:
            return None
        return lambda value, parent: (
            None if value is None else item(value, parent)
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or origin is tuple:
        return _sequence_decoder(origin, _decoder(args[0]))
    if origin is dict:
        return _dict_decoder(args[0], _decoder(args[1]))
    return None


def _needs_parent(hint) -> bool:
    if dataclasses.is_dataclass(hint):
        return bool(_codec(hint).inherited)
    return any(_needs_parent(arg) for arg in typing.get_args(hint))


class _RecordCodec:
    """How one dataclass is written and read, planned once per class."""

    def __init__(self, cls: type) -> None:
        hints = typing.get_type_hints(cls)
        self.cls = cls
        self.versioned = cls in VERSIONED_RECORDS
        self.writers: List[Tuple[str, Optional[Callable]]] = []
        # (name, converter, what an absent key reads as: "default",
        # "none" or "required")
        self.readers: List[Tuple[str, Optional[Callable], str]] = []
        # Read after the record exists: they hold records inheriting
        # fields from it.
        self.late: List[Tuple[str, Callable]] = []
        self.inherited: List[str] = []
        for f in dataclasses.fields(cls):
            persist = f.metadata.get("persist", True)
            if persist == "parent":
                self.inherited.append(f.name)
                continue
            if not persist:
                continue
            hint = hints[f.name]
            self.writers.append((f.name, _encoder(hint)))
            if _needs_parent(hint):
                self.late.append((f.name, _decoder(hint)))
                continue
            if f.default is not MISSING or f.default_factory is not MISSING:
                absent = "default"
            elif _optional_of(hint) is not None:
                absent = "none"
            else:
                absent = "required"
            self.readers.append((f.name, _decoder(hint), absent))

    def encode(self, record) -> Dict:
        out: Dict = {"version": FORMAT_VERSION} if self.versioned else {}
        for name, encode in self.writers:
            value = getattr(record, name)
            out[name] = value if encode is None else encode(value)
        return out

    def decode(self, data, parent=None):
        if not isinstance(data, dict):
            raise PersistError(
                f"is not an object (got {_type_name(data)})"
            )
        kwargs = {name: getattr(parent, name) for name in self.inherited}
        for name, decode, absent in self.readers:
            value = data.get(name, _ABSENT)
            if value is _ABSENT:
                if absent == "required":
                    raise PersistError("is missing", key=name)
                if absent == "none":
                    kwargs[name] = None
                continue
            if decode is not None:
                value = _convert(name, decode, value, None)
            kwargs[name] = value
        record = self.cls(**kwargs)
        for name, decode in self.late:
            value = data.get(name, _ABSENT)
            if value is not _ABSENT:
                setattr(record, name, _convert(name, decode, value, record))
        return record


def _convert(name: str, decode: Callable, value, parent):
    try:
        return decode(value, parent)
    except PersistError as exc:
        exc.key = _within(name, exc.key)
        raise


_CODECS: Dict[type, _RecordCodec] = {}


def _codec(cls: type) -> _RecordCodec:
    codec = _CODECS.get(cls)
    if codec is None:
        codec = _CODECS[cls] = _RecordCodec(cls)
    return codec


def to_dict(record) -> Dict:
    """A persisted dataclass as a JSON-ready dict, keys in field order."""
    return _codec(type(record)).encode(record)


def from_dict(cls: type, data, where: str = "record"):
    """Rebuild a ``cls`` record from :func:`to_dict` output.

    A missing required key, a non-object record or a value that does
    not convert raises :class:`PersistError` naming ``where`` and the
    key (dotted, with ``[i]`` list indices, for nested values).
    """
    try:
        return _codec(cls).decode(data)
    except PersistError as exc:
        subject = f"key {exc.key!r}" if exc.key else "record"
        raise PersistError(
            f"malformed {where}: {subject} {exc}", key=exc.key
        ) from None


# perfbench's workloads import these two names.
localization_verdict_to_dict = to_dict


def unit_result_to_dict(kind: str, result) -> Dict:
    """Serialize one executor work-unit result.

    The campaign service delivers results per work unit rather than per
    campaign; the record is the one ``save_campaign`` writes, so a
    streamed payload is byte-identical to the corresponding record in a
    directly-saved campaign. ``kind`` mirrors
    :func:`unit_result_from_dict`; the result's own class decides its
    form.
    """
    return to_dict(result)


def unit_result_from_dict(kind: str, payload: Dict):
    """Inverse of :func:`unit_result_to_dict` (epoch-scheduler reuse)."""
    # The kind is read back from a stored fact payload: corrupt or
    # hand-edited stores reach this, so it reports as a typed error.
    if kind not in UNIT_RECORDS:
        raise PersistError(f"unknown work-unit kind {kind!r}")
    return from_dict(UNIT_RECORDS[kind], payload, f"{kind} unit payload")


# ---------------------------------------------------------------------------
# Localization evidence and verdicts
# ---------------------------------------------------------------------------


def save_localization(
    verdicts: Sequence[LocalizationVerdict],
    evidence: Sequence[PathEvidence],
    directory: Union[str, Path],
    *,
    xval: Optional[Dict] = None,
) -> Dict[str, int]:
    """Write one localization run: verdicts + the evidence behind them.

    Produces ``verdicts.jsonl``, ``evidence.jsonl`` and a kind-tagged
    ``meta.json``; ``xval`` (a cross-validation report dict, see
    ``experiments.localize_xval.XvalReport.to_dict``) lands in
    ``xval.json`` when given.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {
        "verdicts": _write_jsonl(
            directory / "verdicts.jsonl",
            (to_dict(v) for v in verdicts),
        ),
        "evidence": _write_jsonl(
            directory / "evidence.jsonl",
            (to_dict(e) for e in evidence),
        ),
    }
    if xval is not None:
        (directory / "xval.json").write_text(
            json.dumps(xval, indent=2, sort_keys=True)
        )
        counts["xval"] = 1
    meta = {
        "version": FORMAT_VERSION,
        "kind": "localization",
        "counts": counts,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


@dataclass
class LoadedLocalization:
    """A localization run reloaded from disk."""

    meta: Dict
    verdicts: List[LocalizationVerdict]
    evidence: List[PathEvidence]
    xval: Optional[Dict] = None

    def by_method(self) -> Dict[str, List[LocalizationVerdict]]:
        grouped: Dict[str, List[LocalizationVerdict]] = {}
        for verdict in self.verdicts:
            grouped.setdefault(verdict.method, []).append(verdict)
        return grouped


def load_localization(directory: Union[str, Path]) -> LoadedLocalization:
    """Reload a ``save_localization`` directory (PersistError on rot)."""
    directory = Path(directory)
    meta = _read_json(directory / "meta.json", "localization meta")
    kind = meta.get("kind", "localization")
    if kind != "localization":
        raise PersistError(
            f"{directory} holds a {kind!r} run, not a localization run "
            "(load_localization reads what 'repro localize --out DIR' "
            "writes)"
        )
    verdicts = _load_records(
        directory / "verdicts.jsonl", LocalizationVerdict
    )
    evidence = _load_records(directory / "evidence.jsonl", PathEvidence)
    xval_path = directory / "xval.json"
    xval = _read_json(xval_path, "xval report") if xval_path.exists() else None
    return LoadedLocalization(meta, verdicts, evidence, xval)


# ---------------------------------------------------------------------------
# Campaign-level save/load
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, records: Iterable[Dict]) -> int:
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def read_jsonl(path: Path) -> Iterator[Tuple[int, object]]:
    """Hardened JSONL reader: ``(line number, value)`` per non-blank line.

    A missing file yields nothing; a corrupt line raises PersistError
    naming the file and line. Public because the fact store
    (``repro.store``) builds on the same hardened readers as campaign
    persistence.
    """
    if not path.exists():
        return
    with path.open() as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PersistError(
                    f"corrupt record in {path} at line {lineno}: {exc} "
                    "(truncated write?)"
                ) from None
            yield lineno, value


def _where(path: Path, lineno: int) -> str:
    return f"record in {path} at line {lineno}"


def _load_records(path: Path, cls: type) -> List:
    return [
        from_dict(cls, record, _where(path, lineno))
        for lineno, record in read_jsonl(path)
    ]


def save_campaign(campaign, directory: Union[str, Path]) -> Dict[str, int]:
    """Write a campaign's measurements to ``directory``.

    Produces ``traces.jsonl`` (remote + in-country CenTraces),
    ``fuzz.jsonl``, ``banners.jsonl`` and ``meta.json`` — plus
    ``report.json`` when the campaign carries a telemetry
    :class:`~repro.telemetry.RunReport`; returns the per-file record
    counts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {
        "traces": _write_jsonl(
            directory / "traces.jsonl",
            (
                {**to_dict(r), "vantage": vantage}
                for vantage, results in (
                    ("remote", campaign.remote_results),
                    ("in-country", campaign.in_country_results),
                )
                for r in results
            ),
        ),
        "fuzz": _write_jsonl(
            directory / "fuzz.jsonl",
            (to_dict(r) for r in campaign.fuzz_reports),
        ),
        "banners": _write_jsonl(
            directory / "banners.jsonl",
            (to_dict(r) for r in campaign.probe_reports.values()),
        ),
    }
    run_report = getattr(campaign, "run_report", None)
    if run_report is not None:
        (directory / "report.json").write_text(
            json.dumps(run_report.to_dict(), indent=2, sort_keys=True)
        )
        counts["report"] = 1
    meta = {
        "version": FORMAT_VERSION,
        "kind": "campaign",
        "country": campaign.world.country,
        "world": campaign.world.name,
        "test_domains": list(campaign.world.test_domains),
        "control_domain": campaign.world.control_domain,
        "endpoints": len(campaign.world.endpoints),
        "repetitions": campaign.config.repetitions,
        "has_report": run_report is not None,
        "counts": counts,
        "provenance": _campaign_provenance(campaign),
        # Environment facts (how fast, not what): excluded from identity
        # comparisons the same way workers_requested lives in the run
        # report's wall section — serial and parallel runs of one
        # campaign must stay identical everywhere else.
        "environment": {"workers": getattr(campaign, "workers", None)},
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


def _campaign_provenance(campaign) -> Dict:
    """The configuration that produced a campaign, replayably.

    Drawn from ``world.spec`` when the world was built through
    ``build_world`` (the normal path — it carries seed/scale/fault plan/
    drift plan/epoch); hand-built worlds fall back to what the campaign
    itself knows.
    """
    spec = getattr(campaign.world, "spec", None)
    fault_plan = spec.fault_plan if spec is not None else campaign.config.fault_plan
    drift_plan = spec.drift_plan if spec is not None else None
    return {
        "country": spec.country if spec is not None else campaign.world.country,
        "seed": spec.seed if spec is not None else None,
        "scale": spec.scale if spec is not None else None,
        "fault_plan": fault_plan.to_dict() if fault_plan is not None else None,
        "drift_plan": drift_plan.to_dict() if drift_plan is not None else None,
        "epoch": spec.epoch if spec is not None else 0,
    }


def save_service_run(
    run_report: RunReport,
    payloads: Iterable[Dict],
    directory: Union[str, Path],
) -> Dict[str, int]:
    """Write one service run: delivered unit payloads + its run report.

    Produces ``results.jsonl`` (one record per *delivered* unit, in
    delivery order — coalesced duplicates appear once per subscriber,
    as each client received them) and ``report.json`` in the same
    format ``save_campaign`` uses, so ``repro report --run`` reads it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {"results": _write_jsonl(directory / "results.jsonl", payloads)}
    (directory / "report.json").write_text(
        json.dumps(run_report.to_dict(), indent=2, sort_keys=True)
    )
    counts["report"] = 1
    # Kind-tagged so load_campaign can reject this directory with a
    # clear message instead of crashing on the absent campaign files.
    meta = {
        "version": FORMAT_VERSION,
        "kind": "service-run",
        "counts": counts,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


@dataclass
class LoadedCampaign:
    """Measurement data reloaded from disk (analysis-ready)."""

    meta: Dict
    remote_results: List[CenTraceResult]
    in_country_results: List[CenTraceResult]
    fuzz_reports: List[EndpointFuzzReport]
    probe_reports: Dict[str, ProbeReport]
    run_report: Optional[RunReport] = None

    def blocked_remote(self) -> List[CenTraceResult]:
        return [r for r in self.remote_results if r.blocked and r.valid]


def load_campaign(directory: Union[str, Path]) -> LoadedCampaign:
    """Reload a campaign saved by :func:`save_campaign`.

    Raises :class:`PersistError` on missing/corrupt files or records,
    on directories of a different kind (e.g. ``save_service_run``
    output), and on records whose ``vantage`` tag is missing or unknown
    — a typo'd vantage must not silently land in the remote bucket.
    """
    directory = Path(directory)
    meta = _read_json(directory / "meta.json", "campaign meta")
    # "kind" arrived in version 3; version-1/2 metas are campaigns.
    kind = meta.get("kind", "campaign")
    if kind != "campaign":
        raise PersistError(
            f"{directory} holds a {kind!r} run, not a campaign "
            "(use 'repro report --run' for service runs)"
        )
    remote: List[CenTraceResult] = []
    in_country: List[CenTraceResult] = []
    traces_path = directory / "traces.jsonl"
    for lineno, record in read_jsonl(traces_path):
        result = from_dict(CenTraceResult, record, _where(traces_path, lineno))
        vantage = record.get("vantage")
        if vantage == "in-country":
            in_country.append(result)
        elif vantage == "remote":
            remote.append(result)
        else:
            raise PersistError(
                f"record {lineno} in {traces_path} has "
                f"{'no vantage' if vantage is None else f'unknown vantage {vantage!r}'}"
                f"; expected one of {VANTAGE_VALUES}"
            )
    fuzz = _load_records(directory / "fuzz.jsonl", EndpointFuzzReport)
    banners = {
        report.ip: report
        for report in _load_records(directory / "banners.jsonl", ProbeReport)
    }
    # report.json appeared in FORMAT_VERSION 2; version-1 directories
    # (and version-2 runs without telemetry) simply have none.
    run_report = None
    report_path = directory / "report.json"
    if report_path.exists():
        run_report = RunReport.from_dict(
            _read_json(report_path, "run report")
        )
    return LoadedCampaign(meta, remote, in_country, fuzz, banners, run_report)


# ---------------------------------------------------------------------------
# Persistent work-unit cache (longitudinal observatory / service restarts)
# ---------------------------------------------------------------------------


def unit_cache_key(
    world_identity: Sequence,
    work_key: Sequence,
    touching_ops: Sequence = (),
) -> str:
    """Canonical :class:`UnitCache` key for one work unit.

    ``world_identity`` is the JSON-serializable identity of the base
    world (country, seed, scale, fault-plan dict); ``work_key`` the
    executor's :func:`~repro.experiments.executor.unit_work_key` parts;
    ``touching_ops`` the serialized drift ops that can affect this unit
    (empty outside the epoch scheduler). The service and the epoch
    scheduler both derive keys here, so an undrifted unit hashes the
    same for either — their caches interoperate.
    """
    material = json.dumps(
        [list(world_identity), list(work_key), list(touching_ops)],
        sort_keys=True,
        default=list,
    )
    return hashlib.blake2b(
        material.encode("utf-8"), digest_size=16
    ).hexdigest()


class UnitCache:
    """Append-only content-keyed cache of serialized work-unit results.

    One ``units.jsonl`` under ``directory``; each line is
    ``{"key": ..., "kind": "trace"|"fuzz", "payload": {...}}``. Keys are
    caller-computed content hashes (the epoch scheduler hashes the world
    spec + unit + the drift ops that can touch the unit; the service
    uses its coalescing work key), so a hit is by construction the
    payload an actual run would have produced — byte-identity is the
    repo-wide contract that makes this sound.

    Loads are tolerant of a corrupt *final* line (a crash mid-append
    loses that one record, never the cache); corruption anywhere else is
    a :class:`PersistError`. ``store.unit_cache_*`` counters flow to the
    supplied telemetry sink.
    """

    FILENAME = "units.jsonl"

    def __init__(
        self, directory: Union[str, Path], telemetry=NULL_TELEMETRY
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.telemetry = telemetry
        self._entries: Dict[str, Dict] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open() as handle:
            lines = handle.readlines()
        last_content = len(lines)
        while last_content and not lines[last_content - 1].strip():
            last_content -= 1
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key, kind, payload = (
                    record["key"], record["kind"], record["payload"]
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if lineno == last_content:
                    # Torn final append: drop the lost record, keep the
                    # cache usable (misses re-run and re-append).
                    self.telemetry.count("store.unit_cache_torn_tail")
                    break
                raise PersistError(
                    f"corrupt unit cache {self.path} at line {lineno}: "
                    f"{exc}"
                ) from None
            self._entries[key] = {"kind": kind, "payload": payload}
        self.telemetry.count("store.unit_cache_loaded", len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict]:
        """The ``{"kind", "payload"}`` entry for ``key``, counting hits."""
        entry = self._entries.get(key)
        if entry is None:
            self.telemetry.count("store.unit_cache_misses")
            return None
        self.telemetry.count("store.unit_cache_hits")
        return entry

    def put(self, key: str, kind: str, payload: Dict) -> None:
        """Record a freshly computed unit result (idempotent per key)."""
        if key in self._entries:
            return
        self._entries[key] = {"kind": kind, "payload": payload}
        record = {"key": key, "kind": kind, "payload": payload}
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self.telemetry.count("store.unit_cache_writes")
