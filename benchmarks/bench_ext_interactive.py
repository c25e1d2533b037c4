"""Extension — memory-mapped columnar cache + vectorized render path.

Mapping: docs/paper-mapping.md (Section VI-B-c / Fig. 21 extensions).

The paper's interactivity rests on per-core sorted arrays, binary-
searched slices and min/max counter trees (Section VI-B-c), so that a
zoom or scroll re-renders in milliseconds (Fig. 21).  This bench
quantifies the two halves of the zero-copy interactive path on a
synthetic million-event trace:

* **cache reopen vs. cold parse** — ``read_trace(path, cache=True)``
  maps the ``.ostc`` columnar sidecar back instead of re-parsing the
  trace file; required to be at least 5x faster (in practice orders of
  magnitude), with the mapped store indistinguishable from the parsed
  one;
* **vectorized frame loop vs. the scalar reference** — a repeated
  zoom/pan script rendering counter overlays and discrete-event
  markers through the batched ``searchsorted``/``segment_minmax``
  kernels and the memoized min/max trees, against the original
  per-pixel/per-event loops; required to be at least 10x faster with
  bit-identical framebuffers across the parsed and memory-mapped
  stores.

The persisted render pyramids (ISSUE 8) add two latency ceilings on
the same trace:

* **first frame after reopen** — a cache reopen plus one counter
  overlay frame at the fit view must finish in under a millisecond:
  the sidecar serves the min/max pyramid levels, so no tree is built
  and the frame touches ~width entries (default-scale gated);
* **deep-zoom frame** — a warm counter frame at a view narrower than
  the framebuffer (``duration < width``, the widened-pixel regime) is
  O(width) by construction, so its sub-millisecond ceiling holds at
  any scale (``always`` in the perf gate).

Timings land in ``benchmarks/results/`` (human-readable) and the
``pr4``/``pr8`` sections of ``BENCH_HISTORY.json`` at the repo root
(machine-readable, uploaded as a CI artifact and enforced by
``tools/perf_gate.py``).  Speedup assertions are scale-gated: they
hold at the ``default``/``paper`` scales and are skipped at ``small``
(``--self-test``), where constant overheads dominate.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from bench_json import record
from figutils import write_result
from repro.core import anomalies, correlation, traces_equal
from repro.core.statistics import interval_report
from repro import render
from repro.render import (Framebuffer, TimelineView, reference,
                          render_counter)
from repro.trace_format import read_trace, write_synthetic_trace

_EVENTS = {"small": 60_000, "default": 1_000_000, "paper": 4_000_000}

FRAME_WIDTH = 1024
FRAME_HEIGHT = 128
RENDER_CORES = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def interactive_trace(scale, tmp_path_factory):
    events = _EVENTS.get(scale, _EVENTS["default"])
    path = tmp_path_factory.mktemp("interactive") / "big.ost"
    records = write_synthetic_trace(str(path), events=events)
    return str(path), records


def _timed(function, *args, **kwargs):
    t0 = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - t0, result


def _frame_views(trace, frames=12):
    """The zoom/pan script: fit, zoom in 4 steps, then pan right."""
    view = TimelineView.fit(trace, FRAME_WIDTH, FRAME_HEIGHT)
    views = [view]
    for __ in range(4):
        view = view.zoom(2)
        views.append(view)
    while len(views) < frames:
        view = view.scroll(0.2)
        views.append(view)
    return views


def _render_frames(store, views, vectorized):
    """Render every frame of the script through the batched kernels
    (``vectorized``) or the scalar loops of
    :mod:`repro.render.reference`; returns the framebuffers."""
    kernels = render if vectorized else reference
    frames = []
    for view in views:
        fb = Framebuffer(view.width, view.height)
        for core in RENDER_CORES:
            kernels.render_counter(store, 0, view, fb, core=core)
        kernels.render_discrete_events(store, view, fb)
        frames.append(fb.pixels)
    return frames


def test_cache_reopen_vs_cold_parse(scale, interactive_trace):
    """Tentpole criterion: reopening through the mapped sidecar must
    beat re-parsing the trace file by >= 5x (scale-gated)."""
    path, records = interactive_trace
    cold_seconds, parsed = _timed(read_trace, path)
    write_seconds, first = _timed(read_trace, path, cache=True)
    reopen_seconds = min(_timed(read_trace, path, cache=True)[0]
                         for __ in range(5))
    mapped = read_trace(path, cache=True)
    assert (interval_report(mapped).describe()
            == interval_report(parsed).describe())
    if scale == "small":
        assert traces_equal(mapped, parsed)
    speedup = cold_seconds / reopen_seconds
    write_result("ext_interactive_cache", [
        "Extension: memory-mapped columnar cache (.ostc sidecar),",
        "Section VI-B-c taken to disk: reopen maps the per-core",
        "arrays instead of re-parsing the trace file.",
        "trace: {} records".format(records),
        "cold parse:          {:.3f} s".format(cold_seconds),
        "parse + cache write: {:.3f} s (first open)".format(
            write_seconds),
        "mapped reopen:       {:.6f} s".format(reopen_seconds),
        "reopen speedup: {:.0f}x (required: >= 5x at default scale)"
        .format(speedup),
    ])
    record("cache_reopen", {
        "scale": scale, "records": records,
        "cold_parse_s": cold_seconds,
        "first_open_with_cache_write_s": write_seconds,
        "mapped_reopen_s": reopen_seconds,
        "reopen_speedup": speedup,
    }, section="pr4")
    if scale != "small":
        assert speedup >= 5.0


def test_vectorized_frame_loop(scale, interactive_trace):
    """Tentpole criterion: the vectorized zoom/pan frame loop must
    beat the scalar per-pixel/per-event reference by >= 10x
    (scale-gated), with bit-identical framebuffers on the parsed and
    memory-mapped stores."""
    path, __ = interactive_trace
    read_trace(path, cache=True)              # ensure the sidecar
    mapped = read_trace(path, cache=True)     # the mmap-backed store
    columnar = read_trace(path)
    views = _frame_views(mapped)

    scalar_seconds, scalar_frames = _timed(_render_frames, columnar,
                                           views, False)
    _render_frames(mapped, views, True)       # warm the memoized trees
    vector_seconds = min(_timed(_render_frames, mapped, views, True)[0]
                         for __ in range(5))
    vector_frames = _render_frames(mapped, views, True)

    for scalar_fb, vector_fb in zip(scalar_frames, vector_frames):
        assert np.array_equal(scalar_fb, vector_fb)
    for reference_fb, fb in zip(vector_frames,
                                _render_frames(columnar, views, True)):
        assert np.array_equal(reference_fb, fb)

    per_frame = vector_seconds / len(views)
    speedup = scalar_seconds / vector_seconds
    write_result("ext_interactive_frames", [
        "Extension: vectorized interactive render path (Fig. 21):",
        "batched searchsorted + segment min/max kernels and memoized",
        "per-(core, counter) trees vs. the scalar per-pixel loops.",
        "script: {} frames, {} cores, {}x{} px".format(
            len(views), len(RENDER_CORES), FRAME_WIDTH, FRAME_HEIGHT),
        "scalar reference: {:.3f} s".format(scalar_seconds),
        "vectorized:       {:.4f} s ({:.2f} ms/frame)".format(
            vector_seconds, 1e3 * per_frame),
        "frame-loop speedup: {:.0f}x (required: >= 10x at default "
        "scale)".format(speedup),
        "framebuffers bit-identical across parsed/mmap stores: True",
    ])
    record("frame_loop", {
        "scale": scale, "frames": len(views),
        "scalar_reference_s": scalar_seconds,
        "vectorized_s": vector_seconds,
        "vectorized_ms_per_frame": 1e3 * per_frame,
        "frame_speedup": speedup,
    }, section="pr4")
    if scale != "small":
        assert speedup >= 10.0


def _counter_cores(store):
    """Cores carrying counter lanes, ascending (the synthetic trace
    samples counters on a subset of cores)."""
    return sorted({core for core, __ in store.counter_series})


def test_first_frame_after_reopen(scale, interactive_trace):
    """ISSUE 8 criterion: a cache reopen plus the first counter
    overlay frame stays under a millisecond at default scale — the
    persisted pyramid levels mean no tree build and no lane scan."""
    path, records = interactive_trace
    read_trace(path, cache=True)              # ensure the sidecar
    probe = read_trace(path, cache=True)
    cores = _counter_cores(probe)
    core = cores[0]
    view = TimelineView.fit(probe, FRAME_WIDTH, FRAME_HEIGHT)

    def first_frame():
        store = read_trace(path, cache=True)
        fb = Framebuffer(FRAME_WIDTH, FRAME_HEIGHT)
        render_counter(store, 0, view, fb, core=core)
        return store

    def all_lanes_frame():
        store = read_trace(path, cache=True)
        fb = Framebuffer(FRAME_WIDTH, FRAME_HEIGHT)
        for lane_core in cores:
            render_counter(store, 0, view, fb, core=lane_core)
        return store

    first_frame()                             # fault in the file pages
    reopen_ms = 1e3 * min(_timed(read_trace, path, cache=True)[0]
                          for __ in range(9))
    first_frame_ms = 1e3 * min(_timed(first_frame)[0]
                               for __ in range(9))
    all_lanes_ms = 1e3 * min(_timed(all_lanes_frame)[0]
                             for __ in range(9))
    write_result("ext_interactive_first_frame", [
        "Extension: persisted render pyramids (.ostc sidecar),",
        "Section VI-B-c trees written at cache time and memory-mapped",
        "back — the first frame after a reopen builds nothing.",
        "trace: {} records".format(records),
        "mapped reopen:            {:.3f} ms".format(reopen_ms),
        "reopen + 1-lane frame:    {:.3f} ms (required: < 1 ms at "
        "default scale)".format(first_frame_ms),
        "reopen + {}-lane frame:    {:.3f} ms (reported, ungated)"
        .format(len(cores), all_lanes_ms),
    ])
    record("first_frame_reopen", {
        "scale": scale, "records": records,
        "reopen_ms": reopen_ms,
        "first_frame_reopen_ms": first_frame_ms,
        "all_lanes_frame_ms": all_lanes_ms,
        "counter_lanes": len(cores),
    }, section="pr8")
    if scale != "small":
        assert first_frame_ms < 1.0


def test_deep_zoom_frame(scale, interactive_trace):
    """ISSUE 8 criterion: a warm deep-zoom counter frame (view
    narrower than the framebuffer, the widened-pixel regime) stays
    under a millisecond — O(width) at any trace size, so the bound is
    asserted at every scale and ``always``-enforced by the gate."""
    path, records = interactive_trace
    read_trace(path, cache=True)              # ensure the sidecar
    store = read_trace(path, cache=True)
    core = _counter_cores(store)[0]
    fit = TimelineView.fit(store, FRAME_WIDTH, FRAME_HEIGHT)
    span = int(min(FRAME_WIDTH // 2, max(store.duration, 2)))
    center = (store.begin + store.end) // 2
    view = replace(fit, start=int(center - span // 2),
                   end=int(center - span // 2 + span))
    assert view.duration < view.width         # the per-cycle grid

    def deep_frame():
        fb = Framebuffer(FRAME_WIDTH, FRAME_HEIGHT)
        render_counter(store, 0, view, fb, core=core)

    deep_frame()                              # warm the memoized tree
    deep_ms = 1e3 * min(_timed(deep_frame)[0] for __ in range(9))
    write_result("ext_interactive_deep_zoom", [
        "Extension: deep-zoom counter frame (duration < width): the",
        "batched kernel on the per-cycle pixel grid (Fig. 21b).",
        "trace: {} records, view span {} cycles".format(records, span),
        "deep-zoom frame: {:.3f} ms (required: < 1 ms, any scale)"
        .format(deep_ms),
    ])
    record("deep_zoom_frame", {
        "scale": scale, "records": records,
        "view_span_cycles": span,
        "deep_zoom_frame_ms": deep_ms,
    }, section="pr8")
    assert deep_ms < 1.0


def test_analysis_identical_across_stores(scale, interactive_trace):
    """The vectorized analysis outputs (anomaly scan, per-task counter
    attribution) are bit-identical on the parsed and memory-mapped
    stores."""
    path, __ = interactive_trace
    read_trace(path, cache=True)
    mapped = read_trace(path, cache=True)
    columnar = read_trace(path)
    expected_scan = anomalies.scan(columnar)
    __, expected_increase = correlation.counter_increase_per_task(
        columnar, 0)
    assert anomalies.scan(mapped) == expected_scan
    __, increases = correlation.counter_increase_per_task(mapped, 0)
    assert np.array_equal(increases, expected_increase)
    write_result("ext_interactive_parity", [
        "Anomaly scan and per-task counter attribution bit-identical",
        "across parsed and memory-mapped stores: True",
        "findings: {}".format(len(expected_scan)),
    ])
