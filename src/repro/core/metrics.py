"""Derived metrics (Section II-A.5).

The paper derives metrics from high-level events or by combining
existing counters, and overlays them on the timeline.  The kernels
below *are* those derived metrics; a composite one (a ratio, the rate
of a derived series) is numpy arithmetic on their outputs.  They are:

* the number of workers simultaneously in a given state (Fig. 3) —
  computed exactly as described in Section III-A: the execution is
  divided into a user-defined number of intervals; per interval and
  worker the time spent in the state is summed over workers and divided
  by the interval duration;
* the average task duration per interval (Fig. 8);
* per-worker-to-global aggregation of counters and the discrete
  derivative (difference quotient) used for the getrusage statistics
  (Fig. 10) and the branch-misprediction rate (Fig. 18);
* ratios of counters and bytes exchanged between NUMA node pairs.

All series are returned as ``(edges, values)`` where ``edges`` has one
more element than ``values`` (``values[i]`` covers
``[edges[i], edges[i+1])``).
"""

from __future__ import annotations

import numpy as np

from .filters import filtered_tasks


def interval_edges(trace, num_intervals, start=None, end=None):
    """Bin edges dividing (a part of) the execution into equal intervals."""
    if num_intervals < 1:
        raise ValueError("need at least one interval")
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    if end <= start:
        raise ValueError("empty time range")
    return np.linspace(start, end, num_intervals + 1)


def overlap_per_bin(starts, ends, edges, weights=None):
    """Sum of interval overlap (optionally weighted) falling in each bin.

    Vectorized: each interval decomposes into a partial first bin, a
    partial last bin and a run of fully covered interior bins.  The
    partials are scatter-added; the interior runs accumulate through a
    difference array whose cumulative sum yields, per bin, the total
    weight of the intervals covering it entirely — O(events + bins)
    instead of O(events x bins-spanned).
    """
    num_bins = len(edges) - 1
    totals = np.zeros(num_bins, dtype=np.float64)
    if len(starts) == 0:
        return totals
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    weights = (np.ones(len(starts), dtype=np.float64) if weights is None
               else np.asarray(weights, dtype=np.float64))
    first = np.clip(np.searchsorted(edges, starts, side="right") - 1,
                    0, num_bins - 1)
    last = np.clip(np.searchsorted(edges, ends, side="left") - 1,
                   0, num_bins - 1)
    head = (np.minimum(ends, edges[first + 1])
            - np.maximum(starts, edges[first]))
    np.add.at(totals, first, np.clip(head, 0.0, None) * weights)
    multi = last > first
    if multi.any():
        tail = (np.minimum(ends[multi], edges[last[multi] + 1])
                - edges[last[multi]])
        np.add.at(totals, last[multi],
                  np.clip(tail, 0.0, None) * weights[multi])
        covering = np.zeros(num_bins + 1, dtype=np.float64)
        np.add.at(covering, first[multi] + 1, weights[multi])
        np.add.at(covering, last[multi], -weights[multi])
        totals += np.cumsum(covering[:num_bins]) * np.diff(edges)
    return totals


def state_count_series(trace, state, num_intervals=200, cores=None,
                       start=None, end=None):
    """Average number of workers in ``state`` per interval (Fig. 3)."""
    edges = interval_edges(trace, num_intervals, start, end)
    widths = np.diff(edges)
    cores = range(trace.num_cores) if cores is None else cores
    totals = np.zeros(num_intervals, dtype=np.float64)
    for core in cores:
        states = trace.states.core_column(core, "state")
        keep = states == int(state)
        totals += overlap_per_bin(
            trace.states.core_column(core, "start")[keep],
            trace.states.core_column(core, "end")[keep], edges)
    return edges, totals / widths


def average_task_duration_series(trace, num_intervals=200, task_filter=None,
                                 start=None, end=None):
    """Average duration of the tasks executing in each interval (Fig. 8).

    Each task contributes its *total* duration, weighted by the share of
    the task's execution overlapping the interval — so a bin covered
    only by long tasks reports a high average even if the bin is short.
    Bins without any executing task report 0 (the paper notes the value
    never drops to zero while any task runs).
    """
    edges = interval_edges(trace, num_intervals, start, end)
    columns = filtered_tasks(trace, task_filter)
    starts = columns["start"]
    ends = columns["end"]
    durations = (ends - starts).astype(np.float64)
    weighted = overlap_per_bin(starts, ends, edges, weights=durations)
    coverage = overlap_per_bin(starts, ends, edges)
    averages = np.divide(weighted, coverage,
                         out=np.zeros_like(weighted), where=coverage > 0)
    return edges, averages


def aggregate_counter_series(trace, counter, num_intervals=200, cores=None,
                             start=None, end=None):
    """Global (summed over workers) value of a counter at interval edges.

    Per-worker sample series are linearly interpolated at the bin edges
    and summed — the paper's "derived, aggregating counter [that]
    converts per-worker data into global statistics" (Section III-B).
    Returns ``(edges, totals)`` with one total per edge.
    """
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    edges = interval_edges(trace, num_intervals, start, end)
    totals = np.zeros(len(edges), dtype=np.float64)
    cores = range(trace.num_cores) if cores is None else cores
    for core in cores:
        timestamps, values = trace.counter_samples(core, counter_id)
        if len(timestamps) == 0:
            continue
        totals += np.interp(edges, timestamps, values)
    return edges, totals


def discrete_derivative(edges, values):
    """Difference quotient of a series sampled at ``edges`` (Fig. 10/18).

    Zero-width steps (repeated sample timestamps, e.g. back-to-back task
    boundaries) contribute a rate of 0 rather than dividing by zero.
    """
    edges = np.asarray(edges, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    deltas = np.diff(edges)
    changes = np.diff(values)
    return np.divide(changes, deltas, out=np.zeros_like(changes),
                     where=deltas != 0)


def counter_derivative_series(trace, counter, num_intervals=200, cores=None,
                              start=None, end=None):
    """Discrete derivative of an aggregated counter: rate per cycle."""
    edges, totals = aggregate_counter_series(trace, counter, num_intervals,
                                             cores, start, end)
    return edges, discrete_derivative(edges, totals)


def counter_ratio_series(trace, numerator, denominator, num_intervals=200,
                         cores=None, start=None, end=None):
    """Ratio of the rates of two counters (e.g. misses per cycle)."""
    edges, top = counter_derivative_series(trace, numerator, num_intervals,
                                           cores, start, end)
    __, bottom = counter_derivative_series(trace, denominator,
                                           num_intervals, cores, start, end)
    ratio = np.divide(top, bottom, out=np.zeros_like(top),
                      where=bottom != 0)
    return edges, ratio


def bytes_between_nodes_series(trace, src_node, dst_node, num_intervals=200,
                               start=None, end=None):
    """Bytes per interval flowing from ``src_node`` memory to tasks
    executing on ``dst_node`` (a derived metric from Section II-A.5)."""
    edges = interval_edges(trace, num_intervals, start, end)
    accesses = trace.accesses
    nodes = trace.nodes_of_addresses(accesses["address"])
    executing_node = accesses["core"] // trace.topology.cores_per_node
    keep = (nodes == src_node) & (executing_node == dst_node)
    totals = np.zeros(num_intervals, dtype=np.float64)
    if keep.any():
        bins = np.clip(
            np.searchsorted(edges, accesses["timestamp"][keep],
                            side="right") - 1, 0, num_intervals - 1)
        np.add.at(totals, bins, accesses["size"][keep].astype(np.float64))
    return edges, totals


def task_duration_stats(trace, task_filter=None):
    """(mean, standard deviation) of filtered task durations — the
    numbers the paper reports for the k-means branch fix (Section V)."""
    columns = filtered_tasks(trace, task_filter)
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    if len(durations) == 0:
        return 0.0, 0.0
    return float(durations.mean()), float(durations.std())
