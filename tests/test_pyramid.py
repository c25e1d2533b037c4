"""Tests for the persisted render pyramids (state index and mapped
min/max levels) and the deep-zoom render kernels they serve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MinMaxTree, StateIndex
from repro.render import (Framebuffer, StateMode, TimelineView,
                          reference, render_counter, render_timeline)
from repro.render.counter_overlay import _column_extremes
from trace_gen import make_random_trace, mapped_copy, render_lane_scan


def brute_dominant(starts, ends, states, t0, t1):
    """Reference: the dominant non-negative state of [t0, t1), ties to
    the smallest id, -1 when nothing overlaps."""
    coverage = {}
    for start, end, state in zip(starts, ends, states):
        overlap = min(int(end), t1) - max(int(start), t0)
        if overlap > 0 and state >= 0:
            coverage[state] = coverage.get(state, 0) + overlap
    if not coverage:
        return -1
    return max(coverage, key=lambda k: (coverage[k], -k))


def lane_strategy():
    """Sorted non-overlapping per-core state intervals, like the
    builders produce."""
    return st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 40),
                  st.integers(-1, 5)),
        min_size=0, max_size=30)


def materialize(items):
    """(starts, ends, states) arrays from (gap, duration, state)."""
    starts, ends, states = [], [], []
    cursor = 0
    for gap, duration, state in items:
        cursor += gap
        starts.append(cursor)
        cursor += duration
        ends.append(cursor)
        states.append(state)
    return (np.asarray(starts, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
            np.asarray(states, dtype=np.int64))


class TestStateIndex:
    @given(items=lane_strategy(), start=st.integers(0, 500),
           span=st.integers(1, 700), width=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_pixel_keys_match_brute_force(self, items, start, span,
                                          width):
        starts, ends, states = materialize(items)
        index = StateIndex.build(starts, ends, states)
        assert index is not None
        view = TimelineView(start, start + span, width=width, height=8)
        keys = index.pixel_keys(view)
        for x in range(width):
            t0, t1 = view.pixel_interval(x)
            assert keys[x] == brute_dominant(starts, ends, states,
                                             t0, t1), x

    def test_overlapping_state_lane_is_rejected(self):
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([2, 2], dtype=np.int64)
        assert StateIndex.build(starts, ends, states) is None

    def test_overlap_across_states_is_fine(self):
        """Different states may overlap in time (only within-state
        overlap breaks the prefix sums)."""
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([1, 2], dtype=np.int64)
        index = StateIndex.build(starts, ends, states)
        assert index is not None
        view = TimelineView(0, 15, width=3, height=8)
        assert list(index.pixel_keys(view)) == [1, 1, 2]

    def test_negative_states_never_dominate(self):
        starts = np.asarray([0, 10], dtype=np.int64)
        ends = np.asarray([10, 20], dtype=np.int64)
        states = np.asarray([-1, 3], dtype=np.int64)
        index = StateIndex.build(starts, ends, states)
        view = TimelineView(0, 20, width=2, height=8)
        assert list(index.pixel_keys(view)) == [-1, 3]

    def test_empty_lane(self):
        empty = np.empty(0, dtype=np.int64)
        index = StateIndex.build(empty, empty, empty)
        assert index is not None
        view = TimelineView(0, 100, width=10, height=8)
        assert (index.pixel_keys(view) == -1).all()


class TestFromLevels:
    @given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                     allow_nan=False), min_size=0,
                           max_size=300),
           arity=st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_roundtrips_built_tree(self, values, arity):
        built = MinMaxTree(values, arity=arity)
        tree = MinMaxTree.from_levels(np.asarray(values,
                                                 dtype=np.float64),
                                      built._mins[1:], built._maxs[1:],
                                      arity=arity)
        assert tree.bounds() == built.bounds()
        boundaries = np.linspace(0, len(values), 7).astype(np.int64)
        for got, expected in zip(tree.query_segments(boundaries),
                                 built.query_segments(boundaries)):
            assert np.array_equal(got, expected, equal_nan=True)

    def test_rejects_wrong_level_sizes(self):
        built = MinMaxTree(np.arange(500, dtype=np.float64), arity=10)
        with pytest.raises(ValueError):
            MinMaxTree.from_levels(np.arange(400, dtype=np.float64),
                                   built._mins[1:], built._maxs[1:],
                                   arity=10)

    def test_rejects_missing_root(self):
        built = MinMaxTree(np.arange(500, dtype=np.float64), arity=10)
        with pytest.raises(ValueError):
            MinMaxTree.from_levels(np.arange(500, dtype=np.float64),
                                   built._mins[1:2], built._maxs[1:2],
                                   arity=10)


class TestDeepZoomCounterKernel:
    """The one counter kernel must match the scalar per-pixel loop bit
    for bit in both zoom regimes — also below one cycle per pixel,
    where pixel intervals widen to one cycle and overlap."""

    @given(samples=st.lists(st.tuples(st.integers(0, 300),
                                      st.floats(-1e6, 1e6,
                                                allow_nan=False)),
                            min_size=1, max_size=60),
           start=st.integers(-50, 320), span=st.integers(1, 400),
           width=st.integers(1, 128))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar_all_regimes(self, samples, start,
                                                   span, width):
        samples.sort(key=lambda sample: sample[0])
        timestamps = np.asarray([t for t, __ in samples],
                                dtype=np.int64)
        values = np.asarray([v for __, v in samples], dtype=np.float64)
        view = TimelineView(start, start + span, width=width, height=16)
        tree = MinMaxTree(values, arity=2)
        xs, vmins, vmaxs = _column_extremes(timestamps, values, view,
                                            tree=tree)
        plain = _column_extremes(timestamps, values, view)
        assert np.array_equal(plain[0], xs)
        assert np.array_equal(plain[1], vmins)
        assert np.array_equal(plain[2], vmaxs)
        columns = {}
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            lo = int(np.searchsorted(timestamps, t0, side="left"))
            hi = int(np.searchsorted(timestamps, t1, side="left"))
            if hi > lo:
                columns[x] = (float(values[lo:hi].min()),
                              float(values[lo:hi].max()))
            else:
                center = (t0 + t1) // 2
                if timestamps[0] <= center <= timestamps[-1]:
                    value = float(np.interp(center, timestamps, values))
                    columns[x] = (value, value)
        assert list(xs) == sorted(columns)
        for x, vmin, vmax in zip(xs, vmins, vmaxs):
            assert (vmin, vmax) == columns[int(x)], x

    def test_deep_zoom_render_parity_both_stores(self, tmp_path):
        trace = make_random_trace(5, events_per_core=50)
        mapped = mapped_copy(trace, tmp_path)
        base = TimelineView.fit(trace, width=100, height=40)
        deep = base.zoom(max(trace.duration, 2))
        for view in (deep, TimelineView(trace.begin, trace.begin + 60,
                                        width=100, height=40)):
            assert view.duration < view.width
            expected = Framebuffer(view.width, view.height)
            calls = reference.render_counter(trace, 0, view, expected)
            for store in (trace, mapped):
                fb = Framebuffer(view.width, view.height)
                assert render_counter(store, 0, view, fb) == calls
                assert np.array_equal(fb.pixels, expected.pixels)


class TestEmptyLaneGuards:
    """A counter with zero samples on a core draws nothing — on both
    stores and straight through the batched kernels (which used to
    index timestamps[0] unguarded)."""

    def empty_timestamps(self):
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))

    def test_kernels_accept_empty_lane(self):
        timestamps, values = self.empty_timestamps()
        for view in (TimelineView(0, 1000, width=50, height=20),
                     TimelineView(0, 10, width=50, height=20)):
            xs, vmins, vmaxs = _column_extremes(timestamps, values, view)
            assert len(xs) == len(vmins) == len(vmaxs) == 0

    def test_render_empty_core_draws_nothing_both_stores(self, tmp_path):
        trace = make_random_trace(9, events_per_core=20)
        mapped = mapped_copy(trace, tmp_path)
        absent = 999          # a counter no core ever sampled
        assert all(len(trace.counter_samples(core, absent)[0]) == 0
                   for core in range(trace.num_cores))
        view = TimelineView.fit(trace, width=80, height=30)
        for store in (trace, mapped):
            for core in range(trace.num_cores):
                for render in (render_counter, reference.render_counter):
                    fb = Framebuffer(view.width, view.height)
                    calls = render(store, absent, view, fb, core=core)
                    assert calls == 0
                    assert fb.draw_calls == 0


class TestIndexedTimeline:
    def test_indexed_matches_reference_both_regimes(self, tmp_path):
        trace = make_random_trace(13, events_per_core=50)
        mapped = mapped_copy(trace, tmp_path)
        base = TimelineView.fit(trace, width=160,
                                height=5 * trace.num_cores)
        views = (base, base.zoom(6),
                 base.zoom(max(trace.duration, 2)))
        for view in views:
            expected = render_lane_scan(trace, StateMode(), view)
            for store in (trace, mapped):
                fb = render_timeline(store, StateMode(), view)
                assert np.array_equal(fb.pixels, expected.pixels), view
                assert fb.draw_calls == expected.draw_calls, view

    def test_unindexable_lane_falls_back(self):
        """Lanes whose index cannot be built (within-state overlap)
        render through the reference path instead of wrong pixels."""
        trace = make_random_trace(13, events_per_core=30)
        view = TimelineView.fit(trace, width=64,
                                height=4 * trace.num_cores)
        indexed = render_timeline(trace, StateMode(), view)
        assert all(trace.state_index(core) is not None
                   for core in range(trace.num_cores))
        # Poison the memoized indexes the way an unindexable lane
        # would: state_index(core) -> None for every core.
        trace._state_indexes = {core: None
                                for core in range(trace.num_cores)}
        fb = render_timeline(trace, StateMode(), view)
        assert np.array_equal(fb.pixels, indexed.pixels)
        assert fb.draw_calls == indexed.draw_calls

    def test_overlapping_lane_build_returns_none(self):
        starts = np.asarray([0, 5], dtype=np.int64)
        ends = np.asarray([10, 15], dtype=np.int64)
        states = np.asarray([3, 3], dtype=np.int64)
        assert StateIndex.build(starts, ends, states) is None
