"""Discrete-event overlays on the timeline (Section II-A.1).

The timeline "can be overlaid with supplemental information on ...
specific discrete events (e.g., task creation, communication between
workers)".  This renderer draws one marker per visible discrete event
in each core's lane, aggregating events that fall on the same pixel
column into a single marker (the every-pixel-drawn-once rule applies
to overlays too).
"""

from __future__ import annotations


import numpy as np

from ..core.events import DiscreteEventKind
from ..core.index import discrete_in_interval

#: Default marker colors per event kind.
EVENT_COLORS = {
    int(DiscreteEventKind.TASK_CREATED): (255, 255, 255),
    int(DiscreteEventKind.TASK_STOLEN): (255, 80, 80),
    int(DiscreteEventKind.REGION_ALLOCATED): (80, 255, 80),
    int(DiscreteEventKind.ANNOTATION): (255, 255, 0),
}


def render_discrete_events(trace, view, framebuffer, kind=None,
                           marker_height=3):
    """Draw markers for discrete events on every core lane.

    ``kind`` restricts to one :class:`DiscreteEventKind`.  Returns the
    number of markers drawn (aggregated per pixel column and lane).

    Marker placement is vectorized: per core, the visible events'
    pixel columns are computed in one pass and deduplicated with a
    shifted-compare (timestamps are sorted per core, so equal columns
    are adjacent); the markers of *all* lanes are then painted with
    one batched draw per event kind.  Lanes are disjoint pixel rows
    and marker columns are distinct within a lane, so the batches
    touch exactly the pixels — and count exactly the draw calls — of
    the per-event loop in :mod:`repro.render.reference`.
    """
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    height = min(marker_height, lane_height)
    batch_xs, batch_tops, batch_kinds = [], [], []
    for core in range(trace.num_cores):
        columns = discrete_in_interval(trace, core, view.start, view.end,
                                       kind=kind)
        pixels = ((columns["timestamp"] - view.start) * view.width
                  // view.duration)
        visible = (pixels >= 0) & (pixels < view.width)
        xs = pixels[visible]
        if len(xs) == 0:
            continue
        first = np.ones(len(xs), dtype=bool)
        first[1:] = xs[1:] != xs[:-1]
        batch_xs.append(xs[first])
        batch_kinds.append(columns["kind"][visible][first])
        batch_tops.append(np.full(int(first.sum()), lane_tops[core],
                                  dtype=np.int64))
    if not batch_xs:
        return 0
    xs = np.concatenate(batch_xs)
    tops = np.concatenate(batch_tops)
    marker_kinds = np.concatenate(batch_kinds)
    for kind_value in np.unique(marker_kinds):
        group = marker_kinds == kind_value
        color = EVENT_COLORS.get(int(kind_value), (200, 200, 200))
        framebuffer.vertical_lines(xs[group], tops[group],
                                   tops[group] + height - 1, color)
    return len(xs)


def render_annotations(store, view, framebuffer, trace,
                       color=(255, 255, 0)):
    """Draw user annotations as full-height markers at their timestamp
    (core-anchored annotations mark only that core's lane)."""
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    drawn = 0
    for note in store.in_interval(view.start, view.end):
        x = view.time_to_pixel(note.timestamp)
        if not 0 <= x < view.width:
            continue
        if note.core is None:
            framebuffer.vertical_line(x, 0, framebuffer.height - 1,
                                      color)
        else:
            top = lane_tops[note.core]
            framebuffer.vertical_line(x, top, top + lane_height - 1,
                                      color)
        drawn += 1
    return drawn
