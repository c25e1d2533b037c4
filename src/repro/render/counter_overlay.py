"""Performance-counter overlays on the timeline (Section VI-B, Fig. 21).

A counter is rendered on top of the timeline as a curve.  The naive
approach draws one line per pair of adjacent samples; when many samples
fall within a single horizontal pixel that wastes drawing operations.
Aftermath instead determines, per pixel column, the minimum and maximum
counter values (``vmin``/``vmax``), maps them to pixels and draws one
vertical line — with the n-ary min/max search tree of Section VI-B-c
avoiding a scan of every sample in the column.

Every column's extremes come from one batched pass: the view's pixel
grid (:meth:`~repro.render.timeline.TimelineView.pixel_grid`) cuts
the sorted sample lane into contiguous segments, and the
per-``(core, counter)`` tree memoized on the trace store
(:meth:`~repro.core.columnar.ColumnarTrace.minmax_tree` — served from
the ``.ostc`` sidecar's persisted pyramid levels on memory-mapped
stores) reduces them all at once, so repeated zoom/pan frames rebuild
nothing.  The per-pixel loop this replaces lives on as the
executable specification in :mod:`repro.render.reference`.
"""

from __future__ import annotations


import numpy as np

from ..core.interval_tree import segment_minmax
from ..core.metrics import discrete_derivative


def value_bounds(trace, counter_id, cores=None):
    """Global (min, max) of a counter across cores, for axis scaling.

    Routed through the per-``(core, counter)`` min/max trees memoized
    on the trace store: the first call builds each tree once, every
    later frame reads the tree roots in O(1) instead of rescanning all
    samples (the per-frame waste this function used to pay).
    """
    cores = range(trace.num_cores) if cores is None else cores
    minimum, maximum = np.inf, -np.inf
    for core in cores:
        extremes = trace.minmax_tree(core, counter_id).bounds()
        if extremes is not None:
            minimum = min(minimum, extremes[0])
            maximum = max(maximum, extremes[1])
    if not np.isfinite(minimum):
        return 0.0, 1.0
    if maximum <= minimum:
        maximum = minimum + 1.0
    return minimum, maximum


def _value_to_y(value, bounds, top, height):
    lo, hi = bounds
    fraction = (value - lo) / (hi - lo)
    fraction = min(max(fraction, 0.0), 1.0)
    return int(top + (height - 1) * (1.0 - fraction))


def _values_to_y(values, bounds, top, height):
    """Vectorized :func:`_value_to_y` (identical floats, truncation)."""
    lo, hi = bounds
    fraction = (np.asarray(values, dtype=np.float64) - lo) / (hi - lo)
    fraction = np.clip(fraction, 0.0, 1.0)
    return (top + (height - 1) * (1.0 - fraction)).astype(np.int64)


def _column_extremes(timestamps, values, view, tree=None):
    """Per-column (vmin, vmax) of every drawable pixel, batched.

    The bins of the view's pixel grid cut the sorted sample lane into
    one contiguous partition, so every bin's extremes come from one
    ``segment_minmax``/``query_segments`` pass; empty bins
    interpolate at their center.  Each pixel then gathers its bin.
    Returns ``(xs, vmins, vmaxs)`` for the columns to draw.
    """
    empty = np.empty(0, dtype=np.float64)
    if len(timestamps) == 0:
        return np.empty(0, dtype=np.int64), empty, empty
    edges, pick = view.pixel_grid()
    boundaries = np.searchsorted(timestamps, edges, side="left")
    if tree is not None:
        vmins, vmaxs = tree.query_segments(boundaries)
    else:
        vmins, vmaxs = segment_minmax(values, boundaries)
    covered = np.diff(boundaries) > 0
    centers = (edges[:-1] + edges[1:]) // 2
    inside = (~covered & (centers >= timestamps[0])
              & (centers <= timestamps[-1]))
    if inside.any():
        interpolated = np.interp(centers[inside], timestamps, values)
        vmins[inside] = interpolated
        vmaxs[inside] = interpolated
    xs = np.flatnonzero((covered | inside)[pick])
    return xs, vmins[pick[xs]], vmaxs[pick[xs]]


def _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top, height,
                  color):
    """Emit the drawable columns as one batched vertical-line call —
    pixels and draw-call accounting identical to the per-column loop
    of :mod:`repro.render.reference`."""
    y_from_max = _values_to_y(vmaxs, bounds, top, height)
    y_from_min = _values_to_y(vmins, bounds, top, height)
    return framebuffer.vertical_lines(xs, y_from_max, y_from_min, color)


def render_counter(trace, counter, view, framebuffer, core=0,
                   color=(255, 60, 60), top=None, height=None,
                   bounds=None, optimized=True):
    """Render one core's counter curve into the framebuffer.

    With ``optimized=True`` each pixel column draws exactly one
    vertical line spanning [pmin, pmax] (Fig. 21b), the column
    extremes coming from the batched kernel over the memoized min/max
    tree (or, for a fit view on a mapped store, straight from the
    sidecar's persisted columns).  With ``optimized=False`` every
    adjacent sample pair becomes a line (Fig. 21a) — the baseline the
    rendering benchmark compares against.  Returns the number of
    drawing operations issued.
    """
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    bounds = value_bounds(trace, counter_id, cores=(core,)) \
        if bounds is None else bounds
    timestamps, values = trace.counter_samples(core, counter_id)
    before = framebuffer.draw_calls
    if len(timestamps) == 0:
        return 0
    if not optimized:
        for index in range(len(timestamps) - 1):
            x0 = view.time_to_pixel(int(timestamps[index]))
            x1 = view.time_to_pixel(int(timestamps[index + 1]))
            if x1 < 0 or x0 >= view.width:
                continue
            y0 = _value_to_y(values[index], bounds, top, height)
            y1 = _value_to_y(values[index + 1], bounds, top, height)
            framebuffer.draw_line(max(x0, 0), y0,
                                  min(x1, view.width - 1), y1, color)
        return framebuffer.draw_calls - before
    # A mapped store persisted the fit view's pixel columns at
    # cache-write time — computed by _column_extremes itself, so
    # drawing them is bit-identical to running the kernel.
    columns = trace.counter_columns(core, counter_id, view)
    if columns is None:
        columns = _column_extremes(
            timestamps, values, view,
            tree=trace.minmax_tree(core, counter_id))
    xs, vmins, vmaxs = columns
    _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top, height,
                  color)
    return framebuffer.draw_calls - before


def render_derived_series(series, view, framebuffer, color=(90, 220, 90),
                          top=None, height=None):
    """Render a materialized :class:`DerivedSeries` over the timeline.

    Derived metrics are global (not per core), so the curve spans the
    full overlay height by default; drawing uses the same one-vertical-
    line-per-pixel scheme and batched kernel as hardware counters.
    """
    timestamps, values = series.sample_points()
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    if len(timestamps) == 0:
        return 0
    lo = float(np.min(values))
    hi = float(np.max(values))
    bounds = (lo, hi if hi > lo else lo + 1.0)
    before = framebuffer.draw_calls
    xs, vmins, vmaxs = _column_extremes(timestamps, values, view)
    _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top, height,
                  color)
    return framebuffer.draw_calls - before


def render_counter_rate(trace, counter, view, framebuffer, core=0,
                        color=(255, 160, 40), top=None, height=None):
    """Render the discrete derivative of a counter on one core — the
    per-task constant-rate look of Fig. 18 (counters are sampled at task
    boundaries, so the rate is constant across each task)."""
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    timestamps, values = trace.counter_samples(core, counter_id)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    if len(timestamps) < 2:
        return 0
    rates = discrete_derivative(timestamps, values)
    bounds = (float(rates.min()), float(max(rates.max(),
                                            rates.min() + 1e-12)))
    before = framebuffer.draw_calls
    previous_y = None
    for index in range(len(rates)):
        x0 = view.time_to_pixel(int(timestamps[index]))
        x1 = view.time_to_pixel(int(timestamps[index + 1]))
        if x1 < 0 or x0 >= view.width:
            continue
        y = _value_to_y(rates[index], bounds, top, height)
        for x in range(max(x0, 0), min(x1 + 1, view.width)):
            framebuffer.put_pixel(x, y, color)
        if previous_y is not None and x0 >= 0:
            framebuffer.vertical_line(max(x0, 0), previous_y, y, color)
        previous_y = y
    return framebuffer.draw_calls - before
