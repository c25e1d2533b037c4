"""Performance-counter overlays on the timeline (Section VI-B, Fig. 21).

A counter is rendered on top of the timeline as a curve.  The naive
approach draws one line per pair of adjacent samples; when many samples
fall within a single horizontal pixel that wastes drawing operations.
Aftermath instead determines, per pixel column, the minimum and maximum
counter values (``vmin``/``vmax``), maps them to pixels and draws one
vertical line — with the n-ary min/max search tree of Section VI-B-c
avoiding a scan of every sample in the column.

Two implementations of the optimized mode coexist:

* the **vectorized kernel** (default) — one batched ``searchsorted``
  over the pixel edges and one ``segment_minmax``/
  :meth:`~repro.core.interval_tree.MinMaxTree.query_segments` pass
  computes every column's extremes at once, with the per-``(core,
  counter)`` trees memoized on the trace store
  (:meth:`~repro.core.columnar.ColumnarTrace.minmax_tree` — served from
  the ``.ostc`` sidecar's persisted pyramid levels on memory-mapped
  stores) so repeated zoom/pan frames rebuild nothing; views zoomed
  below one cycle per pixel (overlapping widened pixel intervals) use
  the gather-based :func:`_column_extremes_zoomed` variant instead of
  falling back to the per-pixel loop;
* the **scalar reference** (``vectorized=False``) — the original
  per-pixel loop, kept as the executable specification the parity
  tests and the interactive benchmark compare against.

Both produce bit-identical framebuffers and draw-call counts.
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
    memoized = getattr(trace, "minmax_tree", None)
    minimum, maximum = np.inf, -np.inf
    for core in cores:
        if memoized is not None:
            extremes = memoized(core, counter_id).bounds()
        else:
            __, values = trace.counter_samples(core, counter_id)
            extremes = ((float(values.min()), float(values.max()))
                        if len(values) else None)
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


def _pixel_edges(view):
    """t0(x) of every pixel column plus ``view.end``; a valid
    partition of the view only when ``duration >= width``."""
    x = np.arange(view.width + 1, dtype=np.int64)
    return view.start + view.duration * x // view.width


def _column_extremes(timestamps, values, view, tree=None):
    """Per-column (vmin, vmax) of every drawable pixel, batched.

    Covered columns take their extremes from one
    ``segment_minmax``/``query_segments`` pass (the pixel edges cut the
    sorted sample lane into one contiguous partition); empty columns
    interpolate at the pixel center exactly like the scalar reference.
    Returns ``(xs, vmins, vmaxs)`` for the columns to draw.
    """
    empty = np.empty(0, dtype=np.float64)
    if len(timestamps) == 0:
        # Nothing to draw, like the scalar reference (and unlike the
        # unguarded kernel, which indexed timestamps[0]/[-1]).
        return np.empty(0, dtype=np.int64), empty, empty
    edges = _pixel_edges(view)
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
    draw = covered | inside
    xs = np.flatnonzero(draw)
    return xs, vmins[draw], vmaxs[draw]


def _column_extremes_zoomed(timestamps, values, view):
    """Per-column (vmin, vmax) for views zoomed below one cycle per
    pixel, batched.

    In this regime zero-cycle pixel intervals are widened to one cycle
    (``TimelineView.pixel_interval``), so adjacent columns *overlap*
    and no single partition of the lane exists; instead each column's
    (possibly shared) sample range is gathered and reduced in one
    ``reduceat`` pass — the ranges span at most a few samples at this
    zoom, so the cost stays O(width).  Empty columns interpolate at
    the pixel center.  Bit-identical to the scalar per-pixel loop.
    Returns ``(xs, vmins, vmaxs)`` for the columns to draw.
    """
    empty = np.empty(0, dtype=np.float64)
    if len(timestamps) == 0:
        return np.empty(0, dtype=np.int64), empty, empty
    edges = _pixel_edges(view)
    t0 = edges[:-1]
    t1 = np.maximum(edges[1:], t0 + 1)
    lo = np.searchsorted(timestamps, t0, side="left")
    hi = np.searchsorted(timestamps, t1, side="left")
    covered = hi > lo
    vmins = np.full(view.width, np.nan, dtype=np.float64)
    vmaxs = np.full(view.width, np.nan, dtype=np.float64)
    if covered.any():
        range_lo = lo[covered]
        range_len = (hi - lo)[covered]
        first = np.cumsum(range_len) - range_len
        flat = (np.arange(int(range_len.sum()))
                - np.repeat(first - range_lo, range_len))
        gathered = np.asarray(values, dtype=np.float64)[flat]
        vmins[covered] = np.minimum.reduceat(gathered, first)
        vmaxs[covered] = np.maximum.reduceat(gathered, first)
    centers = (t0 + t1) // 2
    inside = (~covered & (centers >= timestamps[0])
              & (centers <= timestamps[-1]))
    if inside.any():
        interpolated = np.interp(centers[inside], timestamps, values)
        vmins[inside] = interpolated
        vmaxs[inside] = interpolated
    draw = covered | inside
    xs = np.flatnonzero(draw)
    return xs, vmins[draw], vmaxs[draw]


def _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top, height,
                  color):
    """Emit the drawable columns as one batched vertical-line call —
    pixels and draw-call accounting identical to the scalar
    reference's per-column loop."""
    y_from_max = _values_to_y(vmaxs, bounds, top, height)
    y_from_min = _values_to_y(vmins, bounds, top, height)
    return framebuffer.vertical_lines(xs, y_from_max, y_from_min, color)


def render_counter(trace, counter, view, framebuffer, core=0,
                   color=(255, 60, 60), top=None, height=None,
                   bounds=None, counter_index=None, optimized=True,
                   vectorized=True):
    """Render one core's counter curve into the framebuffer.

    With ``optimized=True`` each pixel column draws exactly one
    vertical line spanning [pmin, pmax] (Fig. 21b); the column extremes
    come from the vectorized batched kernel (or, with
    ``vectorized=False``, the scalar per-pixel reference loop, which
    uses ``counter_index`` — a :class:`CounterIndex` — when provided).
    With ``optimized=False`` every adjacent sample pair becomes a line
    (Fig. 21a) — the baseline the rendering benchmark compares against.
    Returns the number of drawing operations issued.
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
    if vectorized:
        served = getattr(trace, "counter_columns", None)
        columns = (served(core, counter_id, view)
                   if served is not None else None)
        if columns is not None:
            # A mapped store persisted this view's pixel columns at
            # cache-write time — computed by _column_extremes itself,
            # so drawing them is bit-identical to running the kernel.
            xs, vmins, vmaxs = columns
        elif view.duration >= view.width:
            tree = None
            if counter_index is not None:
                tree = counter_index.tree(core, counter_id)
            else:
                memoized = getattr(trace, "minmax_tree", None)
                if memoized is not None:
                    tree = memoized(core, counter_id)
            xs, vmins, vmaxs = _column_extremes(timestamps, values,
                                                view, tree=tree)
        else:
            xs, vmins, vmaxs = _column_extremes_zoomed(timestamps,
                                                       values, view)
        _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top,
                      height, color)
        return framebuffer.draw_calls - before
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        if counter_index is not None:
            extremes = counter_index.query_time_range(core, counter_id,
                                                      t0, t1)
        else:
            lo = int(np.searchsorted(timestamps, t0, side="left"))
            hi = int(np.searchsorted(timestamps, t1, side="left"))
            extremes = ((float(values[lo:hi].min()),
                         float(values[lo:hi].max()))
                        if hi > lo else None)
        if extremes is None:
            # No sample in this column: interpolate at the pixel center.
            center = (t0 + t1) // 2
            if center < timestamps[0] or center > timestamps[-1]:
                continue
            value = float(np.interp(center, timestamps, values))
            extremes = (value, value)
        y_max = _value_to_y(extremes[0], bounds, top, height)
        y_min = _value_to_y(extremes[1], bounds, top, height)
        framebuffer.vertical_line(x, y_min, y_max, color)
    return framebuffer.draw_calls - before


def render_derived_series(series, view, framebuffer, color=(90, 220, 90),
                          top=None, height=None, vectorized=True):
    """Render a materialized :class:`DerivedSeries` over the timeline.

    Derived metrics are global (not per core), so the curve spans the
    full overlay height by default; drawing uses the same one-vertical-
    line-per-pixel scheme as hardware counters, with the same batched
    kernel (``vectorized=False`` keeps the scalar reference loop).
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
    if vectorized:
        if view.duration >= view.width:
            xs, vmins, vmaxs = _column_extremes(timestamps, values,
                                                view)
        else:
            xs, vmins, vmaxs = _column_extremes_zoomed(timestamps,
                                                       values, view)
        _draw_columns(framebuffer, xs, vmins, vmaxs, bounds, top,
                      height, color)
        return framebuffer.draw_calls - before
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        first = int(np.searchsorted(timestamps, t0, side="left"))
        last = int(np.searchsorted(timestamps, t1, side="left"))
        if first < last:
            window = values[first:last]
            extremes = (float(window.min()), float(window.max()))
        else:
            center = (t0 + t1) // 2
            if center < timestamps[0] or center > timestamps[-1]:
                continue
            value = float(np.interp(center, timestamps, values))
            extremes = (value, value)
        y_max = _value_to_y(extremes[0], bounds, top, height)
        y_min = _value_to_y(extremes[1], bounds, top, height)
        framebuffer.vertical_line(x, y_min, y_max, color)
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
