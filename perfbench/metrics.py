"""From samples and spans to the named metrics of ``BENCHMARK.json``.

``end_to_end`` reads only client-side samples of an untraced run;
``per_layer`` reads the spans of a traced run beside them.  A metric
is ``(value, unit, n)`` with ``n`` the number of samples behind it; a
layer a workload never enters reports 0 with ``n = 0`` — that is the
"this workload bypasses it" prediction made visible.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from collections import defaultdict

from . import tracing
from .harness import WARMUP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FRAME_KINDS = ("render_png", "render_ascii")
HANDLE_KINDS = ("open", "navigate", "render_png", "render_ascii",
                "stats", "diff", "close")
SWEEP_KINDS = ("run_suite", "analyze_traces", "sweep_table", "diff",
               "rerun", "dedup")


def load_benchmark():
    """The committed ``BENCHMARK.json`` (names, units, bounds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(values, share):
    """Nearest-rank percentile; by the ten-samples-beyond rule p90
    wants at least 100 values (``n`` is reported beside it)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _median(values, unit):
    values = list(values)
    return (statistics.median(values) if values else 0.0, unit,
            len(values))


def _rate(amount, seconds, unit):
    """``amount`` per median second of ``seconds``."""
    seconds = list(seconds)
    if not seconds:
        return (0.0, unit, 0)
    return (amount / statistics.median(seconds), unit, len(seconds))


# -- end to end --------------------------------------------------------

def end_to_end(measurement, setup_seconds):
    """The user-visible metrics of one untraced measurement."""
    log = measurement.log

    def ms(*kinds):
        return [sample.ms for sample in log.measured(*kinds)]

    cold = measurement.facts.get("first_frame_cold_s") or [
        sample.ms / 1e3 for sample in log.measured("first_frame")]
    frames, stats = ms(*FRAME_KINDS), ms("stats")
    return {
        "setup_s": _median(setup_seconds, "s"),
        "first_frame_cold_s": _median(cold, "s"),
        "frame_p50_ms": _median(frames, "ms"),
        "frame_p90_ms": (percentile(frames, 0.9), "ms", len(frames)),
        "stats_p50_ms": _median(stats, "ms"),
        "stats_p90_ms": (percentile(stats, 0.9), "ms", len(stats)),
        "nav_p50_ms": _median(ms("navigate"), "ms"),
        "open_p50_ms": _median(ms("open"), "ms"),
        "diff_p50_ms": _median(ms("diff"), "ms"),
        "requests_per_s": (measurement.requests_per_s, "1/s",
                           len(log.measured())),
        "peak_rss_mb": (measurement.peak_rss_mb, "MiB", 1),
    }


# -- per layer ---------------------------------------------------------

def per_layer(measurement, inputs, untraced_requests_per_s):
    """The layer metrics of one traced measurement."""
    from repro.render import TIMELINE_MODES
    from repro.trace_format import default_cache_path

    log, facts = measurement.log, measurement.facts
    samples = {sample.rid: sample for sample in log.samples}
    selfs = tracing.self_times_ms(measurement.spans)
    by_name = defaultdict(list)
    for span in measurement.spans:
        by_name[span["name"]].append(span)

    def spans(name, kinds=None, timed=True, exact=False, **attrs):
        """Spans by name, filtered by their request's sample."""
        chosen = []
        for span in by_name[name]:
            sample = samples.get(span["rid"])
            if sample is None:
                continue
            if kinds is not None and sample.kind not in kinds:
                continue
            if timed and sample.pass_index == WARMUP:
                continue
            if exact and not (0 <= sample.pass_index
                              < measurement.exact_passes):
                continue
            if any(sample.attrs.get(key) != value
                   for key, value in attrs.items()):
                continue
            chosen.append(span)
        return chosen

    def ms(name, **filters):
        return _median(map(tracing.duration_ms, spans(name, **filters)),
                       "ms")

    def count(name, key, **filters):
        return _median((span[key] for span in spans(name, exact=True,
                                                    **filters)),
                       "count" if key == "draw_calls" else "bytes")

    def sample_s(*kinds):
        return [sample.ms / 1e3 for sample in log.measured(*kinds)]

    handles = {span["rid"]: span
               for span in by_name["service.api.handle"]}
    out = {}

    # service.server: what the client waits beyond TraceService.handle.
    out["service.server.rtt_floor_ms"] = _median(
        (sample.ms for sample in log.samples
         if sample.kind == "health"), "ms")
    for kind in ("navigate", "render_png", "render_ascii", "stats",
                 "diff"):
        out["service.server.overhead_ms." + kind] = _median(
            (sample.ms - tracing.duration_ms(handles[sample.rid])
             for sample in log.measured(kind)
             if sample.rid in handles), "ms")
    for kind in ("render_png", "render_ascii", "stats"):
        out["service.server.reply_bytes." + kind] = count(
            "service.api.json_encode", "bytes", kinds=(kind,))

    # service.api
    for kind in HANDLE_KINDS:
        out["service.api.handle_ms." + kind] = ms(
            "service.api.handle", kinds=(kind,))
    for kind in ("render_png", "stats"):
        out["service.api.self_ms." + kind] = _median(
            (selfs[span["id"]] for span in spans("service.api.handle",
                                                 kinds=(kind,))), "ms")
    out["service.api.json_encode_ms.render_png"] = ms(
        "service.api.json_encode", kinds=("render_png",))
    out["service.api.base64_ms"] = ms("service.api.base64")
    out["service.api.errors"] = (
        sum(1 for span in by_name["service.api.handle"]
            if span.get("error")), "count",
        len(by_name["service.api.handle"]))

    # service.pool
    entries = spans("service.pool.entry")
    out["service.pool.entry_ms"] = _median(
        (tracing.duration_ms(span) for span in entries
         if not span.get("miss")), "ms")
    out["service.pool.miss_open_ms"] = _median(
        (tracing.duration_ms(span)
         for span in spans("service.pool.entry", timed=False)
         if span.get("miss")), "ms")
    waits = [tracing.duration_ms(span)
             for span in spans("service.pool.lock_wait")]
    out["service.pool.lock_wait_ms"] = (
        statistics.fmean(waits) if waits else 0.0, "ms", len(waits))
    for counter in ("hits", "misses", "evictions", "invalidations",
                    "resident"):
        out["service.pool." + counter] = (
            measurement.health.get(counter, 0), "count",
            int(bool(measurement.health)))

    # session, render, statistics
    out["session.navigate_ms"] = ms("session.navigate")
    for depth in ("fit", "deep"):
        out["session.statistics_ms." + depth] = ms(
            "session.statistics", depth=depth)
        out["core.statistics.interval_report_ms." + depth] = ms(
            "core.statistics.interval_report", kinds=("stats",),
            depth=depth)
    out["core.statistics.state_time_summary_ms.fit"] = ms(
        "core.statistics.state_time_summary", kinds=("stats",),
        depth="fit")
    for mode in TIMELINE_MODES:
        out["render.timeline.render_ms.{}.fit".format(mode)] = ms(
            "render.timeline.render", mode=mode, depth="fit")
        out["render.timeline.draw_calls.{}.fit".format(mode)] = count(
            "render.timeline.render", "draw_calls", mode=mode,
            depth="fit")
    out["render.timeline.render_ms.state.deep"] = ms(
        "render.timeline.render", mode="state", depth="deep")
    out["render.timeline.draw_calls.state.deep"] = count(
        "render.timeline.render", "draw_calls", mode="state",
        depth="deep")
    out["render.framebuffer.png_ms"] = ms("render.framebuffer.png",
                                          kinds=FRAME_KINDS)
    out["render.framebuffer.ascii_ms"] = ms("render.framebuffer.ascii")
    out["render.framebuffer.png_bytes"] = count(
        "render.framebuffer.png", "bytes", kinds=FRAME_KINDS)
    out["core.columnar.slice_time_window_ms"] = ms(
        "core.columnar.slice_time_window")
    out["core.anomalies.scan_ms"] = ms("core.anomalies.scan",
                                       kinds=("diff",))
    out["analysis.experiments.diff.diff_traces_ms"] = ms(
        "analysis.experiments.diff.diff_traces")

    # trace_format: the cold path (first contact is never a timed
    # pass on a server, so these look at every span).
    first = ("open_cold", "first_frame")
    events = inputs.events["A"]
    big = {path for name, path in inputs.paths.items()
           if inputs.events[name] == events}
    big |= {default_cache_path(path) for path in big}

    def cold(name):
        """First-contact spans of the traces as large as A."""
        return [span for span in spans(name, kinds=first, timed=False)
                if span.get("path") in big]

    out["trace_format.reader.parse_events_per_s"] = _rate(
        events, ((span["end"] - span["start"]) for span in cold(
            "trace_format.reader.read_trace") if span.get("parse")),
        "events/s")
    out["trace_format.cache.write_cache_s"] = _median(
        (span["end"] - span["start"]
         for span in cold("trace_format.cache.write_cache")), "s")
    out["trace_format.cache.load_cache_ms"] = _median(
        (tracing.duration_ms(span) for span in spans(
            "trace_format.cache.load_cache", kinds=("open",))
         if span.get("path") in big), "ms")
    sidecar = default_cache_path(inputs.paths["A"])
    out["trace_format.cache.sidecar_bytes_per_event"] = (
        os.path.getsize(sidecar) / events, "bytes/event", 1)
    out["trace_format.writer.events_per_s"] = (
        events / inputs.writer_s, "events/s", 1)
    for source in ("paraver", "chrome"):
        out["trace_format.{}.import_events_per_s".format(source)] = (
            _rate(inputs.events.get("corpus_" + source, 0),
                  (sample.ms / 1e3 for sample in log.measured("ingest")
                   if sample.attrs["source"] == "corpus_" + source),
                  "events/s"))
    out["trace_format.chunked.read_window_ms"] = ms(
        "trace_format.chunked.read_window", kinds=("window",))
    out["trace_format.chunked.window_bytes_read"] = _median(
        (span["bytes"] for span in spans(
            "trace_format.chunked.read_window", kinds=("window",),
            exact=True)), "bytes")

    # analysis, engine, simulator
    out["analysis.parallel.stream_stats_events_per_s"] = _rate(
        events, (span["end"] - span["start"] for span in spans(
            "analysis.parallel.stream_stats", kinds=("scan",))),
        "events/s")
    out["analysis.experiments.suite.run_suite_s"] = _median(
        sample_s("run_suite"), "s")
    out["analysis.experiments.suite.analyze_traces_s"] = _median(
        sample_s("analyze_traces"), "s")
    out["analysis.experiments.aggregate.sweep_table_ms"] = ms(
        "analysis.experiments.aggregate.sweep_table")
    out["analysis.experiments.queue.rerun_noop_ms"] = _median(
        (sample.ms for sample in log.measured("rerun")), "ms")
    for name, fact in (("engine.resimulated", "resimulated"),
                       ("store.dedup_hits", "dedup_hits")):
        out["analysis.experiments." + name] = (
            facts.get(fact, 0), "count", int(fact in facts))
    out["runtime.simulator.tasks_per_s"] = (
        facts.get("simulator_tasks_per_s", 0.0), "tasks/s",
        int("simulator_tasks_per_s" in facts))

    # The batch stages as a user times them, and what tracing cost.
    ingests = defaultdict(list)
    for sample in log.measured("ingest"):
        ingests[sample.attrs["source"]].append(sample.ms / 1e3)
    ingest_s = sum(statistics.median(times)
                   for times in ingests.values())
    out["perfbench.stage.ingest_events_per_s"] = (
        sum(inputs.events[source] for source in ingests) / ingest_s
        if ingests else 0.0, "events/s", len(ingests))
    out["perfbench.stage.scan_events_per_s"] = _rate(
        events, sample_s("scan"), "events/s")
    sweeps = defaultdict(float)
    if log.measured("run_suite"):
        for sample in log.measured(*SWEEP_KINDS):
            sweeps[sample.pass_index] += sample.ms / 1e3
    out["perfbench.stage.sweep_wall_s"] = _median(sweeps.values(), "s")
    out["perfbench.tracing_overhead_share"] = (
        untraced_requests_per_s / measurement.requests_per_s - 1.0,
        "share", 1)
    return out


def layer_shares(measurement):
    """Each layer's share of the self time inside the timed requests
    (a layer is a span name without its last part: the module),
    largest first — where the server, or the batch process, actually
    spent its time."""
    timed = {sample.rid for sample in measurement.log.measured()}
    selfs = tracing.self_times_ms(measurement.spans)
    totals = defaultdict(float)
    for span in measurement.spans:
        if span["rid"] in timed:
            layer = span["name"].rpartition(".")[0]
            totals[layer] += selfs[span["id"]]
    whole = sum(totals.values()) or 1.0
    return sorted(((layer, value / whole)
                   for layer, value in totals.items()),
                  key=lambda item: -item[1])


def reconcile(measurement):
    """Do the parts sum to the whole?  One row per request kind, in
    means (which add up where medians do not).

    The client round trip is set against the keep-alive floor (the
    median ``GET /health``) plus ``TraceService.handle``: the residual
    is transport the floor does not explain.  ``handle`` is set
    against the self times of the spans inside it: what is left is
    its own self time, the share no child explains.  Either beyond
    10 % is flagged.
    """
    log = measurement.log
    samples = {sample.rid: sample for sample in log.measured()}
    floors = [sample.ms for sample in log.samples
              if sample.kind == "health"]
    floor = statistics.median(floors) if floors else 0.0
    selfs = tracing.self_times_ms(measurement.spans)
    grouped = tracing.by_rid(measurement.spans)
    rows = []
    for kind in HANDLE_KINDS:
        count = 0
        trip = handle = own = 0.0
        children = defaultdict(float)
        for rid, sample in samples.items():
            spans = grouped.get(rid, ())
            top = [span for span in spans
                   if span["name"] == "service.api.handle"]
            if sample.kind != kind or not top:
                continue
            count += 1
            trip += sample.ms
            handle += tracing.duration_ms(top[0])
            own += selfs[top[0]["id"]]
            for span in spans:
                if span["name"] not in ("service.api.handle",
                                        "service.api.json_encode"):
                    children[span["name"]] += selfs[span["id"]]
        if not count:
            continue
        rows.append({
            "kind": kind, "n": count, "floor_ms": floor,
            "round_trip_ms": trip / count,
            "overhead_ms": (trip - handle) / count,
            "handle_ms": handle / count, "self_ms": own / count,
            "children_ms": {name: value / count
                            for name, value in children.items()},
            "trip_residual": (trip - handle) / trip - floor * count
            / trip,
            "handle_residual": own / handle if handle else 0.0})
    return rows


# -- comparing result files --------------------------------------------

def _load_side(path):
    """Result files of one side: a file, or every ``.json`` in a
    directory."""
    if os.path.isdir(path):
        names = sorted(name for name in os.listdir(path)
                       if name.endswith(".json"))
        paths = [os.path.join(path, name) for name in names]
    else:
        paths = [path]
    values = defaultdict(list)
    for entry in paths:
        with open(entry) as handle:
            result = json.load(handle)
        for workload, body in result["workloads"].items():
            for name, metric in body["metrics"].items():
                values[workload, name].append(metric["value"])
    return {key: statistics.median(found)
            for key, found in values.items()}


def compare(first, second, out):
    """Print, per workload and end-to-end metric, how much worse
    ``second`` is than ``first`` (medians over each side's files)
    against the metric's bound; returns the number beyond it."""
    bounds = {metric["name"]: metric
              for metric in load_benchmark()["end_to_end"]}
    before, after = _load_side(first), _load_side(second)
    beyond = 0
    out.write("{:<16}{:<22}{:>12}{:>12}{:>9}{:>8}\n".format(
        "workload", "metric", "first", "second", "worse", "bound"))
    for key in sorted(set(before) & set(after)):
        workload, name = key
        if name not in bounds or not before[key]:
            continue
        change = (after[key] - before[key]) / before[key]
        if bounds[name]["better"] == "higher":
            change = -change
        over = change > bounds[name]["bound"]
        beyond += over
        out.write("{:<16}{:<22}{:>12.4f}{:>12.4f}{:>+8.1%}{:>8.0%}{}\n"
                  .format(workload, name, before[key], after[key],
                          change, bounds[name]["bound"],
                          "  REGRESSION" if over else ""))
    return beyond
