"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions at each module boundary of
``repro`` — it patches class attributes and module globals, and
:func:`Tracer.uninstall` puts the originals back. Nothing in ``src/`` is
edited. The worker installs the wrappers only in a ``--trace 1``
process, for its one traced pass, so timed runs never carry them.

Each wrapped call pushes a frame on one shared stack. A layer's *self*
time is its calls' durations minus the time covered by wrapped calls
nested inside them, so ``netsim.self_s`` excludes the ``devices`` and
``netmodel`` time spent under it. Per-unit boundaries (CenTrace and
CenFuzz measurements, service executions, service requests) are also
kept as spans with a parent and a cause id; per-packet boundaries
(``netsim``, ``devices``, ``netmodel``) only aggregate count, time and
self time, so memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Dict, List

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        #: layer -> [calls, inclusive seconds (outermost calls), self seconds]
        self.stats: Dict[str, List[float]] = {}
        self._levels: Dict[str, List[int]] = {}
        #: One frame per active wrapped call (see ``timed``).
        self._stack: List[List] = []
        self.spans: List[Dict] = []
        self._patches: List = []

    def _stat(self, layer: str) -> List[float]:
        if layer not in self.stats:
            self.stats[layer] = [0, 0.0, 0.0]
            self._levels[layer] = [0]
        return self.stats[layer]

    def span(self, name: str, start: float, end: float, cause: str, parent=None) -> int:
        span_id = len(self.spans) + 1
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "cause": cause,
            }
        )
        return span_id

    def timed(self, layer: str, fn, cause=None):
        """``fn`` wrapped to add its time to ``layer``.

        ``cause(args)`` turns the call into a span whose cause id it
        returns; without it the call only aggregates.
        """
        stat = self._stat(layer)
        level = self._levels[layer]
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # [seconds covered by wrapped children, ids of child spans]
            frame = [0.0, []]
            stack.append(frame)
            level[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                level[0] -= 1
                stat[0] += 1
                stat[2] += elapsed - frame[0]
                if level[0] == 0:
                    stat[1] += elapsed
                children = frame[1]
                if cause is not None:
                    # Children end before their parent, so they are
                    # linked to this span now that it exists.
                    span_id = self.span(layer, start, start + elapsed, cause(args))
                    for child in children:
                        spans[child - 1]["parent"] = span_id
                    children = [span_id]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1].extend(children)

        return wrapper

    def counted(self, layer: str, fn):
        """``fn`` wrapped to count its calls only (no clock reads)."""
        stat = self._stat(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def busy(self, layer: str, fn):
        """An ``async def`` wrapped to add the time its steps ran on the loop.

        Time a coroutine spends parked at an ``await`` is not counted:
        only the synchronous segments between suspensions are.
        """
        stat = self._stat(layer)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            stat[0] += 1
            coro = fn(*args, **kwargs)
            value, error = None, None
            while True:
                start = clock()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    stat[1] += clock() - start
                    return stop.value
                except BaseException:
                    stat[1] += clock() - start
                    raise
                stat[1] += clock() - start
                try:
                    value, error = await _Forward(yielded), None
                except BaseException as exc:
                    # Forwarded into the wrapped coroutine, which
                    # re-raises it unless it handles it itself.
                    value, error = None, exc

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class _Forward:
    """Re-yield one value from a wrapped coroutine to the event loop."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __await__(self):
        return (yield self.value)


def _unit_cause(args) -> str:
    # (self, endpoint_ip, domain, protocol, ...) for both measure() and
    # run_endpoint(): the unit's content, shared by all of its spans.
    return "|".join(str(a) for a in args[1:4])


def _execute_cause(args) -> str:
    # CampaignExecutor.run_unit(self, kind, unit, ...)
    return "|".join([str(args[1]), *map(str, args[2].key)])


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    executor = importlib.import_module("repro.experiments.executor")
    centrace = importlib.import_module("repro.core.centrace.tracer")
    cenfuzz = importlib.import_module("repro.core.cenfuzz.runner")
    cenprobe = importlib.import_module("repro.core.cenprobe.scanner")
    tcpstack = importlib.import_module("repro.netsim.tcpstack")
    batch = importlib.import_module("repro.netsim.batch")
    simulator = importlib.import_module("repro.netsim.simulator")
    devices = importlib.import_module("repro.devices.base")
    packet = importlib.import_module("repro.netmodel.packet")
    queue = importlib.import_module("repro.service.queue")
    xval = importlib.import_module("repro.experiments.localize_xval")
    localize = importlib.import_module("repro.localize")

    t = tracer
    t.patch(executor, "prepare_unit", lambda f: t.timed("executor.prepare", f))
    t.patch(centrace.CenTrace, "measure", lambda f: t.timed("centrace", f, _unit_cause))
    t.patch(cenfuzz.CenFuzz, "run_endpoint", lambda f: t.timed("cenfuzz", f, _unit_cause))
    t.patch(cenprobe.CenProbe, "scan", lambda f: t.timed("cenprobe", f))
    for attr in ("connect", "send_payload", "close"):
        t.patch(tcpstack.Connection, attr, lambda f: t.timed("netsim", f))
    for attr in ("send", "run_udp_ladder"):
        t.patch(batch.BatchEngine, attr, lambda f: t.timed("netsim", f))
    t.patch(simulator.Simulator, "send_from_client", lambda f: t.timed("netsim", f))
    t.patch(devices.CensorshipDevice, "inspect", lambda f: t.timed("devices", f))
    t.patch(packet.Packet, "to_bytes", lambda f: t.timed("netmodel.encode", f))
    t.patch(packet.Packet, "from_bytes", lambda f: t.timed("netmodel.decode", f))
    t.patch(packet.Packet, "__post_init__", lambda f: t.counted("netmodel.materialized", f))
    t.patch(
        queue.CampaignExecutor, "run_unit", lambda f: t.timed("service.execute", f, _execute_cause)
    )
    t.patch(queue, "unit_result_to_dict", lambda f: t.timed("service.serialize", f))
    t.patch(queue.CampaignService, "submit", lambda f: t.busy("service.submit", f))
    t.patch(xval, "collect_outcome_evidence", lambda f: t.timed("localize.collect", f))
    for name in ("TomographyLocalizer", "InconsistencyLocalizer", "TtlLocalizer"):
        t.patch(getattr(localize, name), "localize", lambda f: t.timed("localize.localize", f))
    return t


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    setup: Dict[str, float],
    traced,
) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead``, from one traced pass.

    ``setup`` timings arrive in reference seconds; pass timings are
    scaled here by the traced pass's ``scale``.
    """

    layer = traced.layer
    scale = traced.scale
    fast = counters.get("sim.batch_fast_path", 0)
    fallback = counters.get("sim.batch_scalar_fallback", 0)
    client_packets = counters.get("sim.client_packets", 0)

    def calls(name: str) -> int:
        return int(tracer.stats.get(name, [0, 0.0, 0.0])[0])

    def inclusive(name: str) -> float:
        return tracer.stats.get(name, [0, 0.0, 0.0])[1] * scale

    def self_s(name: str) -> float:
        return tracer.stats.get(name, [0, 0.0, 0.0])[2] * scale

    return {
        "import.s": setup["import.s"],
        "geo.build_s": setup["geo.build_s"],
        "executor.toolset_s": setup["executor.toolset_s"],
        "executor.units": calls("executor.prepare"),
        "executor.prepare_s": inclusive("executor.prepare"),
        "centrace.calls": calls("centrace"),
        "centrace.self_s": self_s("centrace"),
        "cenfuzz.calls": calls("cenfuzz"),
        "cenfuzz.self_s": self_s("cenfuzz"),
        "cenprobe.calls": calls("cenprobe"),
        "cenprobe.s": inclusive("cenprobe"),
        "netsim.calls": calls("netsim"),
        "netsim.self_s": self_s("netsim"),
        "netsim.client_packets": client_packets,
        # Sweeps on the array fast path / all batched sweeps; 0.0 when
        # the pass batched nothing.
        "netsim.fast_path_ratio": fast / (fast + fallback) if fast + fallback else 0.0,
        "devices.inspections": calls("devices"),
        "devices.s": inclusive("devices"),
        "netmodel.encodes": calls("netmodel.encode"),
        "netmodel.decodes": calls("netmodel.decode"),
        "netmodel.s": inclusive("netmodel.encode") + inclusive("netmodel.decode"),
        "netmodel.materialized_per_packet": (
            calls("netmodel.materialized") / client_packets if client_packets else 0.0
        ),
        "persist.save_s": layer.get("persist.save_s", 0.0) * scale,
        "persist.load_s": layer.get("persist.load_s", 0.0) * scale,
        "persist.bytes": layer.get("persist.bytes", 0),
        "analysis.features_s": layer.get("analysis.features_s", 0.0) * scale,
        "analysis.cluster_s": layer.get("analysis.cluster_s", 0.0) * scale,
        "service.submit_s": inclusive("service.submit"),
        "service.execute_s": inclusive("service.execute"),
        "service.self_s": (
            traced.wall_s * scale
            - inclusive("service.execute")
            - inclusive("service.serialize")
            if calls("service.execute")
            else 0.0
        ),
        "service.units_executed": layer.get("service.units_executed", 0),
        "service.coalescing_hit_rate": layer.get("service.coalescing_hit_rate", 0.0),
        "service.rate_limited_waits": layer.get("service.rate_limited_waits", 0),
        "service.backpressure_waits": layer.get("service.backpressure_waits", 0),
        "service.queue_depth_max": layer.get("service.queue_depth_max", 0),
        "serve.gen_late_ms_max": layer.get("serve.gen_late_ms_max", 0.0) * scale,
        "localize.collect_s": inclusive("localize.collect"),
        "localize.localize_s": inclusive("localize.localize"),
        "localize.probes": counters.get("localize.probes", 0),
    }
