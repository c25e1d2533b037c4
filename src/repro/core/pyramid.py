"""Persisted render pre-aggregates for timeline lanes (Section VI-B).

The counter side of the paper's scalable-rendering story is the n-ary
min/max tree (:mod:`repro.core.interval_tree`); this module supplies
the timeline side: per-core *state pyramids* that answer the two
questions a frame asks — "which state dominates this pixel's time
interval?" and "how busy is this tile?" — without scanning the state
lane.  Both structures are exact (no sampling), so the pyramid-served
render path stays bit-identical to the lane-scanning kernel, and both
serialize as flat integer arrays, so the ``.ostc`` sidecar can persist
them and map them back lazily.  Both bin time with
:func:`repro.core.index.grid_edges`, the pixel grid's own formula.

Two layers:

* :class:`StateIndex` — the pyramid's exact base: per-state sorted
  interval arrays plus cumulative-duration prefix sums.  The coverage
  of state ``s`` within ``[t0, t1)`` is ``C_s(t1) - C_s(t0)`` where
  ``C_s`` is answered by one binary search per state, so a frame costs
  O(width * states * log n) regardless of lane size or zoom.
* :class:`StateTiles` — fixed tilings of the trace span (coarse to
  fine), each tile holding its exactly-dominant state and the number
  of intervals starting inside it; these serve whole-trace overview
  strips at O(tiles) and are what the sidecar stores per level.
"""

from __future__ import annotations

import numpy as np

from .index import grid_edges

#: Tile counts of the pyramid levels, coarse to fine; levels wider
#: than the trace span are dropped at build time.
TILE_LEVEL_COUNTS = (16, 64, 256, 1024)


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
        tile (-1 for uncovered tiles) — the tile-build kernel."""
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


class StateTiles:
    """Dominant-state + event-count tile levels over one core's lane.

    ``levels`` is a coarse-to-fine list of ``(dominant, events)`` int64
    array pairs tiling ``[begin, end)``; tile ``i`` of an ``n``-tile
    level spans ``[edges[i], edges[i+1])`` with the pixel grid's own
    edge formula (:func:`~repro.core.index.grid_edges`), so a
    width-``n`` overview strip reads one persisted level and touches
    nothing else.
    """

    def __init__(self, begin, end, levels):
        self.begin = int(begin)
        self.end = int(end)
        self.levels = [(np.asarray(dominant, dtype=np.int64),
                        np.asarray(events, dtype=np.int64))
                       for dominant, events in levels]

    def level_counts(self):
        """Tile count of every level, coarse to fine."""
        return [len(dominant) for dominant, __ in self.levels]

    def edges(self, level):
        """Tile edge timestamps of one level (length ``count + 1``)."""
        return grid_edges(self.begin, self.end,
                          len(self.levels[level][0]))

    def level_for_width(self, width):
        """The coarsest level with at least ``width`` tiles (the finest
        level when none is that fine) — the mip-select rule."""
        for level, count in enumerate(self.level_counts()):
            if count >= width:
                return level
        return len(self.levels) - 1

    def dominant(self, level):
        """Dominant-state ids of one level (-1 = uncovered)."""
        return self.levels[level][0]

    def event_counts(self, level):
        """Intervals starting inside each tile of one level."""
        return self.levels[level][1]


def tile_level_counts(span):
    """The tile counts to build for a trace span (coarse to fine):
    the standard :data:`TILE_LEVEL_COUNTS` clipped so no level is
    finer than one cycle per tile."""
    return [count for count in TILE_LEVEL_COUNTS if count <= span]


def build_state_tiles(index, lane_starts, begin, end):
    """Tile one core's lane over ``[begin, end)`` using its
    :class:`StateIndex` for exact dominant states and the raw lane
    starts for event counts.  Returns a :class:`StateTiles` (possibly
    with zero levels for sub-16-cycle traces)."""
    span = int(end) - int(begin)
    lane_starts = np.asarray(lane_starts, dtype=np.int64)
    levels = []
    for count in tile_level_counts(span):
        edges = grid_edges(begin, end, count)
        dominant = index.dominant_in_edges(edges)
        events = np.diff(np.searchsorted(lane_starts, edges,
                                         side="left"))
        levels.append((dominant, events))
    return StateTiles(begin, end, levels)
