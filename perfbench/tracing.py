"""Span recording for the traced run, installed from outside ``src/``.

The program has no timers of its own yet (ROADMAP item 4), so the
traced run wraps the layer entry points here: every wrapped call
records one span (name, start, end, parent, thread, request id) into
an in-memory :class:`Recorder`, written out when the process ends.
The client adds a request number ``rid`` to each JSON body; the
``TraceService.handle`` wrapper adopts it, so the client's round trip
and the server's spans of one request share an identifier.

Clocks: both processes stamp with ``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across the
client and the server child on one machine.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (span name, module, dotted attribute) of every wrapped entry point.
TARGETS = (
    ("service.api.handle", "repro.service.api", "TraceService.handle"),
    ("session.navigate", "repro.session", "AnalysisSession.navigate"),
    ("session.statistics", "repro.session",
     "AnalysisSession.statistics"),
    ("session.render_frame", "repro.session",
     "AnalysisSession.render_frame"),
    ("render.timeline.render", "repro.render.timeline",
     "render_timeline"),
    ("render.framebuffer.png", "repro.render.framebuffer",
     "Framebuffer.png_bytes"),
    ("render.framebuffer.ascii", "repro.render.framebuffer",
     "Framebuffer.to_ascii"),
    ("core.statistics.interval_report", "repro.core.statistics",
     "interval_report"),
    ("core.statistics.state_time_summary", "repro.core.statistics",
     "state_time_summary"),
    ("core.columnar.slice_time_window", "repro.core.columnar",
     "ColumnarTrace.slice_time_window"),
    ("analysis.experiments.diff.diff_traces",
     "repro.analysis.experiments.diff", "diff_traces"),
    ("core.anomalies.scan", "repro.core.anomalies", "scan"),
    ("trace_format.reader.read_trace", "repro.trace_format.reader",
     "read_trace"),
    ("trace_format.cache.load_cache", "repro.trace_format.cache",
     "load_cache"),
    ("trace_format.cache.write_cache", "repro.trace_format.cache",
     "write_cache"),
    ("trace_format.ingest.ingest_trace",
     "repro.trace_format.ingest.registry", "ingest_trace"),
    ("trace_format.chunked.read_window",
     "repro.trace_format.streaming", "split_time_window"),
    ("analysis.parallel.stream_stats", "repro.analysis.parallel",
     "parallel_streaming_statistics"),
    ("analysis.experiments.suite.run_suite",
     "repro.analysis.experiments.suite", "run_suite"),
    ("analysis.experiments.suite.analyze_traces",
     "repro.analysis.experiments.suite", "analyze_traces"),
    ("analysis.experiments.aggregate.sweep_table",
     "repro.analysis.experiments.aggregate", "sweep_table"),
)


class Recorder:
    """In-memory span store; one per process, safe across threads
    (``list.append`` and ``next(count)`` are atomic under the GIL)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_rid(self, rid):
        """Tag this thread's following spans with request ``rid``."""
        self._local.rid = int(rid)

    def begin(self, name):
        """Open a span under this thread's innermost open span."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = {"id": next(self._ids),
                "parent": stack[-1]["id"] if stack else 0,
                "name": name, "thread": threading.get_ident(),
                "rid": getattr(local, "rid", 0),
                "start": time.perf_counter()}
        stack.append(span)
        return span

    def end(self, span):
        """Close ``span`` (spans of one thread nest, so it is the
        innermost) and keep it."""
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def save(self, path):
        """Write every finished span as one JSON list."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _traced(recorder, name, function, before=None, after=None):
    """``function`` wrapped in a span; ``before(recorder, args,
    kwargs)`` runs ahead of it and may return replacement kwargs,
    ``after(span, args, kwargs, result)`` annotates the span."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if before is not None:
            kwargs = before(recorder, args, kwargs) or kwargs
        span = recorder.begin(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            span["error"] = True
            raise
        finally:
            recorder.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


# -- per-target annotations --------------------------------------------

def _handle_before(recorder, args, kwargs):
    """Adopt the client's ``rid`` before the handle span opens."""
    params = args[2] if len(args) > 2 else kwargs.get("params")
    rid = params.get("rid", 0) if isinstance(params, dict) else 0
    recorder.set_rid(rid if isinstance(rid, int) else 0)


def _render_after(span, args, kwargs, framebuffer):
    span["draw_calls"] = int(framebuffer.draw_calls)


def _bytes_after(span, args, kwargs, data):
    span["bytes"] = len(data)


def _read_after(span, args, kwargs, trace):
    # A cache= open either maps the sidecar or nests a parsing
    # read_trace; only the innermost (cache-less) call is a parse.
    cache = args[2] if len(args) > 2 else kwargs.get("cache")
    span["parse"] = not cache
    span["path"] = str(args[0] if args else kwargs.get("path"))


def _cache_after(position):
    """Annotate a cache span with the sidecar path it was given."""
    def after(span, args, kwargs, result):
        span["path"] = str(args[position] if len(args) > position
                           else kwargs.get("cache_path"))
    return after


def _window_before(recorder, args, kwargs):
    """Inject a ``ScanStats`` so the bytes a window read are exact."""
    if len(args) < 5 and kwargs.get("stats") is None:
        from repro.trace_format import ScanStats
        return dict(kwargs, stats=ScanStats())


def _window_after(span, args, kwargs, window):
    stats = kwargs.get("stats")
    if stats is not None:
        span["bytes"] = int(stats.bytes_read)


_BEFORE = {"service.api.handle": _handle_before,
           "trace_format.chunked.read_window": _window_before}
_AFTER = {"render.timeline.render": _render_after,
          "render.framebuffer.png": _bytes_after,
          "trace_format.reader.read_trace": _read_after,
          "trace_format.cache.load_cache": _cache_after(0),
          "trace_format.cache.write_cache": _cache_after(1),
          "trace_format.chunked.read_window": _window_after}


class _TimedLock:
    """A per-trace ``RLock`` whose acquisition wait is a span."""

    def __init__(self, lock, recorder):
        self._lock = lock
        self._recorder = recorder

    def acquire(self, *args, **kwargs):
        span = self._recorder.begin("service.pool.lock_wait")
        try:
            return self._lock.acquire(*args, **kwargs)
        finally:
            self._recorder.end(span)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


class _ModuleShim:
    """Stands in for a stdlib module inside one ``repro`` module so a
    single function of it (``json.dumps``, ``base64.b64encode``) is
    timed there and nowhere else."""

    def __init__(self, module, recorder, attribute, name):
        self._module = module
        setattr(self, attribute, _traced(
            recorder, name, getattr(module, attribute),
            after=_bytes_after))

    def __getattr__(self, attribute):
        return getattr(self._module, attribute)


def _rebind(original, replacement):
    """Point every ``repro`` module attribute that *is* ``original``
    at ``replacement`` (``from x import f`` copies and package
    re-exports included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(recorder):
    """Wrap every :data:`TARGETS` entry point with ``recorder``.

    Call once per process, before any request is served.  Imports the
    layers first so every by-name copy of a target exists to rebind.
    """
    import importlib
    for package in ("repro.service", "repro.session", "repro.render",
                    "repro.core", "repro.trace_format",
                    "repro.analysis.parallel",
                    "repro.analysis.experiments"):
        importlib.import_module(package)
    for name, module_name, dotted in TARGETS:
        module = importlib.import_module(module_name)
        owner, __, attribute = dotted.rpartition(".")
        holder = getattr(module, owner) if owner else module
        original = getattr(holder, attribute)
        wrapped = _traced(recorder, name, original,
                          before=_BEFORE.get(name),
                          after=_AFTER.get(name))
        if owner:
            setattr(holder, attribute, wrapped)
        else:
            _rebind(original, wrapped)

    from repro.service import api, pool, server
    server.json = _ModuleShim(server.json, recorder, "dumps",
                              "service.api.json_encode")
    api.base64 = _ModuleShim(api.base64, recorder, "b64encode",
                             "service.api.base64")

    # The pool entry span also learns whether it was a miss, and
    # entries get a wait-timing lock the first time they are handed
    # out.
    entry = pool.MappedCachePool.entry
    swap = threading.Lock()

    @functools.wraps(entry)
    def timed_entry(self, path):
        span = recorder.begin("service.pool.entry")
        misses = self.misses
        try:
            found = entry(self, path)
        finally:
            recorder.end(span)
        span["miss"] = self.misses > misses
        with swap:
            if not isinstance(found.lock, _TimedLock):
                found.lock = _TimedLock(found.lock, recorder)
        return found

    pool.MappedCachePool.entry = timed_entry


# -- analysis of recorded spans ----------------------------------------

def duration_ms(span):
    """A span's wall time in milliseconds."""
    return (span["end"] - span["start"]) * 1e3


def self_times_ms(spans):
    """``{span id: self time}``: duration minus the part covered by
    direct children (children of one thread never overlap)."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"]:
            covered[span["parent"]] += duration_ms(span)
    return {span["id"]: duration_ms(span) - covered[span["id"]]
            for span in spans}


def by_rid(spans):
    """``{rid: [spans]}`` for request-tagged spans."""
    grouped = defaultdict(list)
    for span in spans:
        if span["rid"]:
            grouped[span["rid"]].append(span)
    return grouped


def export_chrome(client_samples, server_spans, path):
    """The run's requests as Chrome trace-event JSON.

    Threads become lanes (one ``tid`` per client or server thread),
    request kinds become event names (task types once ingested), so
    ``repro.trace_format.ingest_trace`` opens the tool's own requests.
    Only top-level spans are exported: lanes hold non-overlapping
    tasks, which is what the importer's task model expects.
    """
    kinds = {sample.rid: sample.kind for sample in client_samples}
    rows = [(0, sample.client, sample.kind, sample.start, sample.end)
            for sample in client_samples]
    rows += [(1, span["thread"], kinds.get(span["rid"], span["name"]),
              span["start"], span["end"])
             for span in server_spans if not span["parent"]]
    if not rows:
        raise ValueError("no spans to export")
    origin = min(row[3] for row in rows)
    lanes = {}
    events = []
    for pid, thread, name, start, end in sorted(rows,
                                                key=lambda r: r[3]):
        tid = lanes.setdefault((pid, thread), len(lanes))
        events.append({"ph": "X", "cat": "request", "name": name,
                       "pid": pid, "tid": tid,
                       "ts": (start - origin) * 1e6,
                       "dur": max((end - start) * 1e6, 0.001)})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
    return len(events)
