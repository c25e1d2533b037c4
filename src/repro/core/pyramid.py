"""Persisted render pre-aggregates for timeline lanes (Section VI-B).

The counter side of the paper's scalable-rendering story is the n-ary
min/max tree (:mod:`repro.core.interval_tree`); this module supplies
the timeline side: a per-core *state index* that answers the question
a frame asks — "which state dominates this pixel's time interval?" —
without scanning the state lane.  :class:`StateIndex` is exact (no
sampling), so the index-served render path stays bit-identical to the
lane-scanning kernel, and it serializes as flat integer arrays, so
the ``.ostc`` sidecar persists it and maps it back lazily.

It holds per-state sorted interval arrays plus cumulative-duration
prefix sums.  The coverage of state ``s`` within ``[t0, t1)`` is
``C_s(t1) - C_s(t0)`` where ``C_s`` is answered by one binary search
per state, so a frame costs O(width * states * log n) regardless of
lane size or zoom.
"""

from __future__ import annotations

import numpy as np


class StateIndex:
    """Exact per-state coverage index over one core's state lane.

    Intervals are grouped by state id (ascending); within each group
    they are sorted by start and non-overlapping (guaranteed per core
    by construction of the lane — :meth:`build` validates and returns
    ``None`` otherwise, letting callers fall back to the lane scan).
    ``cum`` holds, per group, the running sum of interval durations
    with a leading zero, so the coverage of a group up to time ``t``
    is one ``searchsorted`` plus at most one partial interval.
    """

    def __init__(self, state_ids, offsets, starts, ends, cum):
        self.state_ids = np.asarray(state_ids, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.cum = np.asarray(cum, dtype=np.int64)

    @classmethod
    def build(cls, starts, ends, states):
        """Index one state lane, or ``None`` if any state's intervals
        overlap (the coverage prefix sums would be wrong)."""
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        states = np.asarray(states, dtype=np.int64)
        keep = states >= 0
        starts, ends, states = starts[keep], ends[keep], states[keep]
        order = np.lexsort((starts, states))
        starts, ends, states = starts[order], ends[order], states[order]
        state_ids, group_sizes = np.unique(states, return_counts=True)
        offsets = np.concatenate(([0], np.cumsum(group_sizes)))
        boundary = np.zeros(len(starts), dtype=bool)
        boundary[offsets[1:-1]] = True
        within = np.ones(len(starts), dtype=bool)
        within[1:] = boundary[1:] | (starts[1:] >= ends[:-1])
        if not within.all():
            return None
        durations = np.maximum(ends - starts, 0)
        cum = np.zeros(len(starts) + len(state_ids), dtype=np.int64)
        for group in range(len(state_ids)):
            lo, hi = offsets[group], offsets[group + 1]
            cum[lo + group + 1:hi + group + 1] = \
                np.cumsum(durations[lo:hi])
        return cls(state_ids, offsets, starts, ends, cum)

    @property
    def num_states(self):
        """Distinct (non-negative) state ids in the lane."""
        return len(self.state_ids)

    def _group(self, group):
        lo, hi = int(self.offsets[group]), int(self.offsets[group + 1])
        return (self.starts[lo:hi], self.ends[lo:hi],
                self.cum[lo + group:hi + group + 1])

    def coverage_before(self, times):
        """Per-state covered cycles in ``[-inf, t)`` for each ``t`` —
        a ``(len(times), num_states)`` matrix of ``C_s(t)``."""
        times = np.asarray(times, dtype=np.int64)
        result = np.zeros((len(times), self.num_states), dtype=np.int64)
        for group in range(self.num_states):
            starts, ends, cum = self._group(group)
            position = np.searchsorted(ends, times, side="right")
            total = cum[position]
            partial = (position < len(starts)) & (starts[
                np.minimum(position, len(starts) - 1)] < times)
            if partial.any():
                where = np.flatnonzero(partial)
                total[where] += (times[where]
                                 - starts[position[where]])
            result[:, group] = total
        return result

    def pixel_keys(self, view):
        """Exactly-dominant state per pixel column (-1 where nothing
        is visible) — the pyramid-served replacement for
        :func:`repro.render.timeline._predominant_keys`, binned on the
        view's :meth:`~repro.render.timeline.TimelineView.pixel_grid`
        so it holds in both zoom regimes."""
        edges, pick = view.pixel_grid()
        return self.dominant_in_edges(edges)[pick]

    def dominant_in_edges(self, edges):
        """Exactly-dominant state of each ``[edges[i], edges[i+1])``
        bin (-1 for uncovered bins) — the kernel behind
        :meth:`pixel_keys`."""
        edges = np.asarray(edges, dtype=np.int64)
        count = len(edges) - 1
        result = np.full(count, -1, dtype=np.int64)
        if self.num_states == 0 or count < 1:
            return result
        cumulative = self.coverage_before(edges)
        coverage = cumulative[1:] - cumulative[:-1]
        best = np.argmax(coverage, axis=1)
        covered = coverage[np.arange(count), best] > 0
        result[covered] = self.state_ids[best[covered]]
        return result

