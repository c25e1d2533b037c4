"""Binary-search indexing of per-core event arrays (Section VI-B-c).

Aftermath stores one array per core and per event type, sorted by
timestamp, and finds the array slice containing the events of any
interval with a fast binary search.  These helpers implement the
interval queries used by every timeline mode and statistics view.

State intervals on one core never overlap, and task executions on one
core never overlap, so for those both the ``start`` and the ``end``
columns are sorted — which is what makes the slice computable with two
binary searches.
"""

from __future__ import annotations

import numpy as np


def grid_edges(begin, end, count):
    """The ``count + 1`` integer edges that cut ``[begin, end)`` into
    ``count`` bins: ``begin + (end - begin) * x // count``.  This is
    the one formula behind both the timeline's pixel grid and the
    state pyramid's tiles, so a tile level of the view's width lines
    up with its pixels exactly."""
    x = np.arange(count + 1, dtype=np.int64)
    return int(begin) + (int(end) - int(begin)) * x // count


def interval_slice(starts, ends, query_start, query_end):
    """Slice of sorted, non-overlapping intervals overlapping a query.

    ``starts``/``ends`` are the per-core sorted columns; the result
    selects every interval with ``start < query_end and end > query_start``.
    """
    lo = int(np.searchsorted(ends, query_start, side="right"))
    hi = int(np.searchsorted(starts, query_end, side="left"))
    return slice(lo, max(lo, hi))


def point_slice(timestamps, query_start, query_end):
    """Slice of sorted point events falling inside [query_start, query_end)."""
    lo = int(np.searchsorted(timestamps, query_start, side="left"))
    hi = int(np.searchsorted(timestamps, query_end, side="left"))
    return slice(lo, max(lo, hi))


def states_in_interval(trace, core, query_start, query_end):
    """Column dict of the state intervals of ``core`` overlapping a query."""
    starts = trace.states.core_column(core, "start")
    ends = trace.states.core_column(core, "end")
    selection = interval_slice(starts, ends, query_start, query_end)
    return {name: trace.states.core_column(core, name)[selection]
            for name in ("state", "start", "end")}


def tasks_in_interval(trace, core, query_start, query_end):
    """Column dict of the task executions of ``core`` overlapping a query."""
    starts = trace.tasks.core_column(core, "start")
    ends = trace.tasks.core_column(core, "end")
    selection = interval_slice(starts, ends, query_start, query_end)
    return {name: trace.tasks.core_column(core, name)[selection]
            for name in ("task_id", "type_id", "start", "end")}


def counter_samples_in_interval(trace, core, counter_id, query_start,
                                query_end, pad=1):
    """Counter samples of an interval, padded by ``pad`` samples on each
    side so that line rendering can interpolate across the boundary."""
    timestamps, values = trace.counter_samples(core, counter_id)
    selection = point_slice(timestamps, query_start, query_end)
    lo = max(0, selection.start - pad)
    hi = min(len(timestamps), selection.stop + pad)
    return timestamps[lo:hi], values[lo:hi]


def discrete_in_interval(trace, core, query_start, query_end, kind=None):
    """Column dict of the discrete events of ``core`` inside a query."""
    timestamps = trace.discrete.core_column(core, "timestamp")
    selection = point_slice(timestamps, query_start, query_end)
    columns = {name: trace.discrete.core_column(core, name)[selection]
               for name in ("kind", "timestamp", "payload")}
    if kind is not None:
        keep = columns["kind"] == int(kind)
        columns = {name: values[keep] for name, values in columns.items()}
    return columns
