"""Scalar reference implementations of the render kernels.

The render half of the executable specification (the statistics half
is :mod:`repro.core.reference`): per-pixel, per-event and per-cell
loops written for clarity, which the batched kernels of
:mod:`repro.render` must match pixel for pixel and draw call for draw
call.

* the parity tests (``tests/test_columnar_parity.py``,
  ``tests/test_pyramid.py``) compare every store's frames with them;
* ``benchmarks/bench_ext_interactive.py`` times them as the baseline
  of its frame-loop speedup.

Production code never imports this module (``tools/lint_lite.py``
enforces that).
"""

from __future__ import annotations

import numpy as np

from ..core.index import discrete_in_interval
from ..core.reference import counter_value_bounds
from .counter_overlay import _value_to_y
from .event_overlay import EVENT_COLORS
from .framebuffer import Framebuffer


def matrix_red(fraction):
    """White-to-deep-red ramp of the communication matrix (Fig. 15)."""
    fraction = min(max(float(fraction), 0.0), 1.0)
    return (255 - int(75 * fraction), int(255 * (1 - fraction)),
            int(255 * (1 - fraction)))


def _draw_column_loop(timestamps, values, view, framebuffer, bounds, top,
                      height, color):
    """One vertical [vmin, vmax] line per pixel column, one column at
    a time; a column without samples interpolates at its center."""
    for x in range(view.width):
        t0, t1 = view.pixel_interval(x)
        lo = int(np.searchsorted(timestamps, t0, side="left"))
        hi = int(np.searchsorted(timestamps, t1, side="left"))
        if hi > lo:
            extremes = (float(values[lo:hi].min()),
                        float(values[lo:hi].max()))
        else:
            center = (t0 + t1) // 2
            if center < timestamps[0] or center > timestamps[-1]:
                continue
            value = float(np.interp(center, timestamps, values))
            extremes = (value, value)
        y_max = _value_to_y(extremes[0], bounds, top, height)
        y_min = _value_to_y(extremes[1], bounds, top, height)
        framebuffer.vertical_line(x, y_min, y_max, color)


def render_counter(trace, counter, view, framebuffer, core=0,
                   color=(255, 60, 60), top=None, height=None,
                   bounds=None):
    """Reference for the optimized mode of
    :func:`repro.render.counter_overlay.render_counter`."""
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    top = 0 if top is None else top
    height = framebuffer.height if height is None else height
    bounds = counter_value_bounds(trace, counter_id, cores=(core,)) \
        if bounds is None else bounds
    timestamps, values = trace.counter_samples(core, counter_id)
    before = framebuffer.draw_calls
    if len(timestamps):
        _draw_column_loop(timestamps, values, view, framebuffer, bounds,
                          top, height, color)
    return framebuffer.draw_calls - before


def render_discrete_events(trace, view, framebuffer, kind=None,
                           marker_height=3):
    """Reference for
    :func:`repro.render.event_overlay.render_discrete_events`: one
    marker per visible event, skipping a repeat of the previous
    marker's column."""
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    height = min(marker_height, lane_height)
    markers = 0
    for core in range(trace.num_cores):
        columns = discrete_in_interval(trace, core, view.start, view.end,
                                       kind=kind)
        pixels = ((columns["timestamp"] - view.start) * view.width
                  // view.duration)
        kinds = columns["kind"]
        seen = None
        for index in range(len(pixels)):
            x = int(pixels[index])
            if x == seen or x < 0 or x >= view.width:
                continue
            seen = x
            color = EVENT_COLORS.get(int(kinds[index]), (200, 200, 200))
            framebuffer.vertical_line(x, lane_tops[core],
                                      lane_tops[core] + height - 1,
                                      color)
            markers += 1
    return markers


def render_matrix(matrix, cell_size=16, framebuffer=None, gap=1,
                  peak=None):
    """Reference for :func:`repro.render.matrix.render_matrix`: one
    :func:`matrix_red` evaluation per cell."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = matrix.shape
    if peak is None:
        peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    elif peak <= 0:
        peak = 1.0
    if framebuffer is None:
        framebuffer = Framebuffer(cols * (cell_size + gap) + gap,
                                  rows * (cell_size + gap) + gap,
                                  background=(255, 255, 255))
    for row in range(rows):
        for col in range(cols):
            framebuffer.fill_rect(gap + col * (cell_size + gap),
                                  gap + row * (cell_size + gap),
                                  cell_size, cell_size,
                                  matrix_red(matrix[row, col] / peak))
    return framebuffer
