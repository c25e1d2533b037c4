"""Binary-search indexing of per-core event arrays (Section VI-B-c).

Aftermath stores one array per core and per event type, sorted by
timestamp, and finds the array slice containing the events of any
interval with a fast binary search.  These helpers implement the
interval queries used by every timeline mode and statistics view.

Interval lanes are sorted by ``start``.  Their ``end`` column is sorted
too unless spans nest on one core (Chrome ``B``/``E`` import); then the
search runs on the running maximum of ``end`` (:func:`end_reach`) and
the candidates are filtered, so nested lanes stay exact.
"""

from __future__ import annotations

import numpy as np


def end_reach(ends):
    """Running maximum of a start-sorted lane's ``end`` column, or
    ``None`` when the column is sorted already.  Nested spans (Chrome
    ``B``/``E`` import) break the sort: a parent ends after its
    children.  The running maximum stays sorted, so
    :func:`interval_slice` can still binary-search it."""
    reach = np.maximum.accumulate(ends) if len(ends) else ends
    return None if np.array_equal(reach, ends) else reach


def interval_slice(starts, ends, query_start, query_end, reach=None):
    """Rows of start-sorted intervals overlapping a query.

    Selects every interval with ``start < query_end and end >
    query_start``.  When ``ends`` is sorted (``reach`` is ``None``) the
    result is one slice.  Otherwise ``reach`` is :func:`end_reach` of
    ``ends``: it bounds the candidates, which are then filtered, and
    the result is an index array in lane order.
    """
    lo = int(np.searchsorted(ends if reach is None else reach,
                             query_start, side="right"))
    hi = max(lo, int(np.searchsorted(starts, query_end, side="left")))
    if reach is None:
        return slice(lo, hi)
    return lo + np.flatnonzero(ends[lo:hi] > query_start)


def point_slice(timestamps, query_start, query_end):
    """Slice of sorted point events falling inside [query_start, query_end)."""
    lo = int(np.searchsorted(timestamps, query_start, side="left"))
    hi = int(np.searchsorted(timestamps, query_end, side="left"))
    return slice(lo, max(lo, hi))


def states_in_interval(trace, core, query_start, query_end):
    """Column dict of the state intervals of ``core`` overlapping a query."""
    rows = trace.interval_rows("states", core, query_start, query_end)
    return {name: trace.states.core_column(core, name)[rows]
            for name in ("state", "start", "end")}


def tasks_in_interval(trace, core, query_start, query_end):
    """Column dict of the task executions of ``core`` overlapping a query."""
    rows = trace.interval_rows("tasks", core, query_start, query_end)
    return {name: trace.tasks.core_column(core, name)[rows]
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
