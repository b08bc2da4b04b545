"""Per-layer tracing by wrapping the program's public functions at run time.

The program carries no tracing code: :class:`Tracer` replaces each public
function named in :data:`TARGETS` with a wrapper that records a span (id,
parent id, name, start, end) and feeds the counters the layer metrics need.
Module-level functions are replaced in every loaded ``nellab`` module that
imported them by name, so calls between layers are seen too. A target that
no longer exists is an error: a rename must not silently zero a layer.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# metric prefix -> (module, attribute path)
TARGETS = {
    "headers.parse_nel_header": ("nellab.headers", "parse_nel_header"),
    "headers.parse_report_to_header": ("nellab.headers", "parse_report_to_header"),
    "headers.parse_report_batch": ("nellab.headers", "parse_report_batch"),
    "headers.serialize_report_batch": ("nellab.headers", "serialize_report_batch"),
    "headers.serialize_nel_header": ("nellab.headers", "serialize_nel_header"),
    "policy_store.process_policy_headers":
        ("nellab.policy_store", "PolicyStore.process_policy_headers"),
    "policy_store.lookup": ("nellab.policy_store", "PolicyStore.lookup"),
    "report_engine.observe": ("nellab.report_engine", "ReportEngine.observe"),
    "report_engine.deliver_due": ("nellab.report_engine", "ReportEngine.deliver_due"),
    "report_engine.next_due": ("nellab.report_engine", "ReportEngine.next_due"),
    "collector.ingest": ("nellab.collector", "Collector.ingest"),
    "collector.minimize": ("nellab.collector", "minimize"),
    "collector.to_line": ("nellab.collector", "StoredRecord.to_line"),
    "collector.response_headers": ("nellab.collector", "Collector.response_headers"),
    "sim.run_scenario": ("nellab.sim", "run_scenario"),
    "sim.to_json": ("nellab.sim", "ScenarioTrace.to_json"),
}

# Spans whose call count and self time are reported; the two sim spans
# report self time only.
TIMED = [name for name in TARGETS if not name.startswith("sim.")]

# The time a counter hook takes, recorded as a child of the wrapped call's
# caller; it is tracing overhead, not program time.
HOOK_SPAN = "trace.hook"


class TraceSetupError(RuntimeError):
    """A wrapped public name is missing from the program."""


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    ``spans`` holds ``(id, parent, name, start, end)`` tuples. Self time is
    a span's duration minus the durations of its direct children; spans of
    one thread nest, so children never overlap each other.
    """
    covered: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    result: dict[str, tuple[int, float]] = {}
    for span_id, _, name, start, end in spans:
        calls, total = result.get(name, (0, 0.0))
        result[name] = (calls + 1, total + (end - start) - covered.get(span_id, 0.0))
    return result


def add_self_times(times: dict[str, tuple[int, float]], spans) -> None:
    """Adds the calls and self times of ``spans`` into ``times``."""
    for name, (calls, self_s) in self_times(spans).items():
        total_calls, total_s = times.get(name, (0, 0.0))
        times[name] = (total_calls + calls, total_s + self_s)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# Counter hooks, run after each wrapped call: (counters, tracer, args, result, exc).

def _count_batch(counters, tracer, args, result, exc):
    if exc is None:
        counters["headers.parse_report_batch.reports"] += len(result)


def _count_bytes(counters, tracer, args, result, exc):
    if exc is None:
        counters["headers.serialize_report_batch.bytes"] += len(result)


def _count_effect(counters, tracer, args, result, exc):
    if exc is None and result.kind in ("installed", "replaced"):
        counters["policy_store.writes"] += 1
        counters["policy_store.replaced"] += result.kind == "replaced"


def _count_lookup(counters, tracer, args, result, exc):
    counters["policy_store.lookup.hits"] += result is not None


def _count_observe(counters, tracer, args, result, exc):
    counters["report_engine.observe.queued"] += result is not None
    tracer.note_engine(args[0])


def _count_deliver(counters, tracer, args, result, exc):
    if exc is None:
        counters["report_engine.deliver_due.idle"] += not result
        counters["report_engine.attempts"] += len(result)
        counters["report_engine.delivered"] += sum(a.result == "delivered"
                                                   for a in result)
    tracer.note_engine(args[0])


def _count_ingest(counters, tracer, args, result, exc):
    if exc is None:
        counters["collector.ingest.reports"] += result
    elif type(exc).__name__ == "RejectError":
        counters["collector.ingest.rejects"] += 1


HOOKS = {
    "headers.parse_report_batch": _count_batch,
    "headers.serialize_report_batch": _count_bytes,
    "policy_store.process_policy_headers": _count_effect,
    "policy_store.lookup": _count_lookup,
    "report_engine.observe": _count_observe,
    "report_engine.deliver_due": _count_deliver,
    "collector.ingest": _count_ingest,
}


class Tracer:
    """Installs span-recording wrappers around :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.queue_depth_max = 0
        self._engines: dict[int, object] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def note_engine(self, engine) -> None:
        self._engines[id(engine)] = engine
        depth = len(engine.pending())
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def pending_at_end(self) -> int:
        """Tasks still queued in every engine seen; call after a run ends."""
        return sum(len(engine.pending()) for engine in self._engines.values())

    def _wrap(self, name: str, fn):
        spans, counters, local = self.spans, self.counters, self._local
        ids, clock, hook = self._ids, time.perf_counter, HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                if hook is not None:
                    hook(counters, tracer, args, result, exc)
                    # A sibling span, so the caller's self time excludes the hook.
                    spans.append((next(ids), parent, HOOK_SPAN, end, clock()))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target; raises :class:`TraceSetupError` if one is gone.

        Spans and engines start afresh, so ``spans`` holds one traced unit of
        work at a time; counters and the queue-depth maximum carry over.
        """
        self.spans = []
        self._engines.clear()
        for name, (module_name, path) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if not callable(original):
                self.uninstall()
                raise TraceSetupError(f"{module_name}.{path} no longer exists; "
                                      f"cannot trace {name}")
            wrapper = self._wrap(name, original)
            if owner is not module:
                self._patch(owner, attr, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").split(".")[0] == "nellab"
                        and loaded.__dict__.get(attr) is original):
                    self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write spans and counters; the spans are kept in memory until now."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        document = {
            "names": names,
            "spans": [[i, p, index[n], s, e] for i, p, n, s, e in self.spans],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(document, separators=(",", ":")))


def load_dump(path: Path) -> tuple[list[tuple], Counter]:
    """Spans and counters written by :meth:`Tracer.dump`."""
    document = json.loads(path.read_text())
    names = document["names"]
    spans = [(i, p, names[n], s, e) for i, p, n, s, e in document["spans"]]
    return spans, Counter(document["counters"])


def layer_metrics(times: dict[str, tuple[int, float]], counters: Counter, *,
                  units: int, queue_depth_max: int, overhead_s: float,
                  pending_at_end: int = 0, trace_bytes: int = 0, events: int = 0,
                  log_bytes: int = 0, late_p99_ms: float = 0.0) -> dict:
    """Every per-layer metric, per unit of work; absent layers read zero.

    ``times`` maps span names to calls and self time, as :func:`self_times`.
    """
    per = max(units, 1)
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / per, "count")
        metrics[f"{name}.self_s"] = (self_s / per, "s")
    for name in ("sim.run_scenario", "sim.to_json"):
        metrics[f"{name}.self_s"] = (times.get(name, (0, 0.0))[1] / per, "s")
    c = counters
    calls = {name: times.get(name, (0, 0.0))[0] for name in TARGETS}
    metrics.update({
        "headers.parse_report_batch.reports":
            (c["headers.parse_report_batch.reports"] / per, "count"),
        "headers.serialize_report_batch.bytes":
            (c["headers.serialize_report_batch.bytes"] / per, "bytes"),
        "policy_store.process_policy_headers.replaced_ratio":
            (_ratio(c["policy_store.replaced"], c["policy_store.writes"]), "ratio"),
        "policy_store.lookup.hit_ratio":
            (_ratio(c["policy_store.lookup.hits"], calls["policy_store.lookup"]), "ratio"),
        "report_engine.observe.queued_ratio":
            (_ratio(c["report_engine.observe.queued"],
                    calls["report_engine.observe"]), "ratio"),
        "report_engine.deliver_due.idle_ratio":
            (_ratio(c["report_engine.deliver_due.idle"],
                    calls["report_engine.deliver_due"]), "ratio"),
        "report_engine.attempts": (c["report_engine.attempts"] / per, "count"),
        "report_engine.delivered_ratio":
            (_ratio(c["report_engine.delivered"], c["report_engine.attempts"]), "ratio"),
        "report_engine.queue_depth_max": (queue_depth_max, "count"),
        "report_engine.pending_at_end": (pending_at_end / per, "count"),
        "collector.ingest.reports": (c["collector.ingest.reports"] / per, "count"),
        "collector.ingest.rejects": (c["collector.ingest.rejects"] / per, "count"),
        "collector.log_bytes": (log_bytes / per, "bytes"),
        "sim.trace_bytes": (trace_bytes / per, "bytes"),
        "sim.events": (events / per, "count"),
        "loadgen.late_p99_ms": (late_p99_ms, "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return metrics
