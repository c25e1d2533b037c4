"""Tests for timeline rendering: view model, predominant-pixel logic
and the five modes (Sections II-B, VI-B)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TopologyInfo, TraceBuilder, WorkerState
from repro.render import (HeatmapMode, NumaHeatmapMode, NumaMode, StateMode,
                          TimelineView, TypeMode, render_timeline, state_color)
from repro.render.timeline import _mean_values_per_pixel, _predominant_keys
from repro.trace_format import ingest_trace


def assert_grid_matches_pixels(view):
    """``pixel_grid`` bins reproduce ``pixel_interval`` for every
    pixel, over strictly increasing integer edges."""
    edges, pick = view.pixel_grid()
    assert edges.dtype == np.int64 and pick.dtype == np.int64
    assert len(pick) == view.width
    assert (np.diff(edges) > 0).all()
    for x in range(view.width):
        bin_interval = (int(edges[pick[x]]), int(edges[pick[x] + 1]))
        assert bin_interval == view.pixel_interval(x), x


class TestTimelineView:
    def test_fit_covers_trace(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 640, 200)
        assert view.start == seidel_trace_small.begin
        assert view.end == seidel_trace_small.end

    def test_pixel_intervals_partition_view(self):
        view = TimelineView(0, 1000, width=7, height=10)
        cursor = 0
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            assert t0 == cursor
            assert t1 > t0
            cursor = t1
        assert cursor == 1000

    def test_zoom_in_narrows_span(self):
        view = TimelineView(0, 1000, width=10, height=10)
        zoomed = view.zoom(2.0)
        assert zoomed.duration == 500
        center = (view.start + view.end) // 2
        assert zoomed.start <= center <= zoomed.end

    def test_zoom_rejects_nonpositive(self):
        view = TimelineView(0, 100)
        with pytest.raises(ValueError):
            view.zoom(0)

    def test_scroll_shifts_window(self):
        view = TimelineView(0, 1000)
        assert view.scroll(0.5).start == 500
        assert view.scroll(-0.25).start == -250

    def test_views_are_immutable(self):
        view = TimelineView(0, 100)
        with pytest.raises(Exception):
            view.start = 5

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            TimelineView(10, 10)

    @pytest.mark.parametrize("start, width, duration", [
        (0, 1, 1), (-5, 1, 1), (-5, 1, 7),
        (0, 8, 7), (0, 8, 8), (0, 8, 9),
        (-1000, 640, 639), (-1000, 640, 640), (-1000, 640, 641),
        (3, 1000, 1), (-(10 ** 12), 1024, 10 ** 9)])
    def test_pixel_grid_edge_cases(self, start, width, duration):
        assert_grid_matches_pixels(
            TimelineView(start, start + duration, width=width, height=4))

    @given(start=st.integers(-10 ** 9, 10 ** 9),
           width=st.integers(1, 300), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pixel_grid_matches_pixel_interval(self, start, width, data):
        near = st.integers(width - 2, width + 2).filter(lambda d: d >= 1)
        duration = data.draw(st.one_of(near, st.integers(1, 40 * width)))
        assert_grid_matches_pixels(
            TimelineView(start, start + duration, width=width, height=4))

    def test_lane_geometry(self):
        view = TimelineView(0, 100, width=10, height=64)
        lane, tops = view.lane_geometry(16)
        assert lane == 4
        assert tops == [4 * core for core in range(16)]


class TestPredominantKeys:
    def brute_force(self, starts, ends, keys, view):
        result = np.full(view.width, -1, dtype=np.int64)
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            coverage = {}
            for index in range(len(starts)):
                overlap = min(ends[index], t1) - max(starts[index], t0)
                if overlap > 0 and keys[index] >= 0:
                    coverage[keys[index]] = (coverage.get(keys[index], 0)
                                             + overlap)
            if coverage:
                result[x] = max(coverage,
                                key=lambda k: (coverage[k], -k))
        return result

    def test_single_event_fills_its_pixels(self):
        view = TimelineView(0, 100, width=10, height=4)
        starts = np.asarray([20])
        ends = np.asarray([50])
        keys = np.asarray([3])
        pixels = _predominant_keys(starts, ends, keys, view)
        assert list(pixels[2:5]) == [3, 3, 3]
        assert (pixels[:2] == -1).all()
        assert (pixels[5:] == -1).all()

    def test_majority_wins_within_pixel(self):
        view = TimelineView(0, 100, width=1, height=4)
        starts = np.asarray([0, 60])
        ends = np.asarray([60, 100])
        keys = np.asarray([1, 2])
        assert _predominant_keys(starts, ends, keys, view)[0] == 1

    def brute_force_mean(self, starts, ends, values, view):
        result = np.full(view.width, np.nan)
        for x in range(view.width):
            t0, t1 = view.pixel_interval(x)
            weighted = total = 0
            for index in range(len(starts)):
                overlap = min(ends[index], t1) - max(starts[index], t0)
                if overlap > 0:
                    weighted += values[index] * overlap
                    total += overlap
            if total:
                result[x] = weighted / total
        return result

    @given(seed=st.integers(min_value=0, max_value=1000),
           width=st.integers(min_value=1, max_value=40),
           overlapping=st.booleans(), deep=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, seed, width, overlapping, deep):
        """Sequential lanes and overlapping or nested ones (Chrome
        ``B``/``E`` spans), in views above and below one cycle per
        pixel: the kernels equal a per-pixel scan of every event."""
        rng = np.random.default_rng(seed)
        starts, ends, keys = random_lane(rng, overlapping)
        view = random_view(rng, ends, width, deep)
        fast = _predominant_keys(starts, ends, keys, view)
        slow = self.brute_force(starts, ends, keys, view)
        assert (fast == slow).all()
        values = rng.random(len(starts))
        means = _mean_values_per_pixel(starts, ends, values, view)
        expected = self.brute_force_mean(starts, ends, values, view)
        assert np.array_equal(np.isnan(means), np.isnan(expected))
        assert np.allclose(means, expected, rtol=1e-12, equal_nan=True)


def random_lane(rng, overlapping):
    """``(starts, ends, keys)`` sorted by start: back-to-back
    intervals with gaps, or (``overlapping``) freely overlapping and
    nested ones.  A few keys are -1 (filtered out)."""
    starts, ends = [], []
    cursor = 0
    for __ in range(rng.integers(0, 15)):
        duration = int(rng.integers(1, 60))
        if overlapping:
            start = int(rng.integers(0, 200))
        else:
            cursor += int(rng.integers(0, 30))
            start = cursor
            cursor += duration
        starts.append(start)
        ends.append(start + duration)
    order = np.argsort(starts, kind="stable")
    keys = rng.integers(-1, 4, size=len(starts))
    return (np.asarray(starts, dtype=np.int64)[order],
            np.asarray(ends, dtype=np.int64)[order],
            keys.astype(np.int64))


def random_view(rng, ends, width, deep):
    """A view over the whole lane, or (``deep``) a random window of
    fewer cycles than pixels (as narrow as the width allows)."""
    last = int(max(ends, default=0))
    if not deep:
        return TimelineView(0, max(last, 1) + 10, width=width, height=4)
    start = int(rng.integers(-5, last + 5))
    span = int(rng.integers(1, max(width, 2)))
    return TimelineView(start, start + span, width=width, height=4)


def single_core_trace():
    """One core, two states: RUNNING [0, 600), IDLE [600, 1000)."""
    builder = TraceBuilder(TopologyInfo(1, 1))
    builder.state_interval(0, int(WorkerState.RUNNING), 0, 600)
    builder.state_interval(0, int(WorkerState.IDLE), 600, 1000)
    builder.task_execution(0, 0, 0, 0, 600)
    builder.describe_task_type(
        __import__("repro.core", fromlist=["TaskTypeInfo"]).TaskTypeInfo(
            type_id=0, name="t"))
    return builder.build()


class TestStateMode:
    def test_colors_match_states(self):
        trace = single_core_trace()
        view = TimelineView(0, 1000, width=10, height=4)
        fb = render_timeline(trace, StateMode(), view)
        assert tuple(fb.pixels[0, 0]) == state_color(WorkerState.RUNNING)
        assert tuple(fb.pixels[0, 9]) == state_color(WorkerState.IDLE)

    def test_rect_aggregation_reduces_calls(self):
        trace = single_core_trace()
        view = TimelineView(0, 1000, width=100, height=4)
        fb = render_timeline(trace, StateMode(), view)
        # Two constant-color runs -> exactly two rectangles.
        assert fb.rect_calls == 2

    def test_naive_mode_draws_per_event(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 300, 120)
        optimized = render_timeline(seidel_trace_small, StateMode(), view,
                                    optimized=True)
        naive = render_timeline(seidel_trace_small, StateMode(), view,
                                optimized=False)
        assert naive.rect_calls == len(seidel_trace_small.states)
        assert optimized.rect_calls < naive.rect_calls

    def test_all_modes_render_real_trace(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 200, 100)
        for mode in (StateMode(), HeatmapMode(), TypeMode(),
                     NumaMode("read"), NumaMode("write"),
                     NumaHeatmapMode()):
            fb = render_timeline(seidel_trace_small, mode, view)
            assert len(fb.unique_colors()) > 1


class TestHeatmapMode:
    def test_longer_tasks_darker(self):
        builder = TraceBuilder(TopologyInfo(1, 1))
        builder.task_execution(0, 0, 0, 0, 100)        # short
        builder.task_execution(1, 0, 0, 500, 1500)     # long
        trace = builder.build()
        view = TimelineView(0, 1500, width=15, height=4)
        fb = render_timeline(trace, HeatmapMode(shades=10), view)
        short_pixel = fb.pixels[0, 0]
        long_pixel = fb.pixels[0, 10]
        # Darker = lower green/blue channels.
        assert long_pixel[1] < short_pixel[1]

    def test_explicit_bounds(self, seidel_trace_small):
        mode = HeatmapMode(shades=5, minimum=0, maximum=10**9)
        view = TimelineView.fit(seidel_trace_small, 100, 50)
        fb = render_timeline(seidel_trace_small, mode, view)
        # All durations tiny vs. the maximum: everything in shade 0
        # (plus the two lane backgrounds and the unused bottom strip).
        shades = set(fb.unique_colors())
        assert len(shades) <= 4

    def test_filtered_tasks_not_rendered(self, seidel_trace_small):
        from repro.core import TaskTypeFilter
        view = TimelineView.fit(seidel_trace_small, 120, 60)
        everything = render_timeline(seidel_trace_small,
                                     HeatmapMode(), view)
        only_init = render_timeline(
            seidel_trace_small,
            HeatmapMode(task_filter=TaskTypeFilter("seidel_init")), view)
        assert only_init.pixels_drawn < everything.pixels_drawn


class TestNumaModes:
    def test_numa_mode_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            NumaMode("sideways")

    def test_numa_read_map_band_colors(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 150, 64)
        fb = render_timeline(seidel_trace_small, NumaMode("read"), view)
        from repro.render import numa_palette
        palette = set(
            numa_palette(seidel_trace_small.topology.num_nodes))
        present = fb.unique_colors() & palette
        assert len(present) >= 2

    def test_numa_heatmap_gradient_colors(self, seidel_trace_small):
        view = TimelineView.fit(seidel_trace_small, 150, 64)
        fb = render_timeline(seidel_trace_small, NumaHeatmapMode(), view)
        assert len(fb.unique_colors()) > 2


class TestZoomConsistency:
    def test_zoomed_render_matches_full_render_colors(
            self, seidel_trace_small):
        """Zooming into a region renders the same states (possibly at
        finer granularity) — no events appear or vanish."""
        trace = seidel_trace_small
        full_view = TimelineView.fit(trace, 400, 64)
        full = render_timeline(trace, StateMode(), full_view)
        zoom = full_view.zoom(4.0)
        zoomed = render_timeline(trace, StateMode(), zoom)
        assert zoomed.unique_colors() <= (full.unique_colors()
                                          | {(16, 16, 16), (40, 40, 40)})


class TestNestedSpans:
    """Chrome ``B``/``E`` import nests task spans on one core; the
    nested child must win its cycles at every zoom."""

    def nested_trace(self, tmp_path):
        # parent [0, 100) ns and child [10, 20) ns; the child closes
        # first, so it gets type 0 and the parent type 1.
        events = [{"ph": "B", "name": "parent", "pid": 0, "tid": 0,
                   "ts": 0},
                  {"ph": "B", "name": "child", "pid": 0, "tid": 0,
                   "ts": 0.010},
                  {"ph": "E", "pid": 0, "tid": 0, "ts": 0.020},
                  {"ph": "E", "pid": 0, "tid": 0, "ts": 0.100}]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return ingest_trace(str(path))

    def test_same_cycle_same_color_at_both_zooms(self, tmp_path):
        trace = self.nested_trace(tmp_path)
        assert list(trace.tasks.columns["type_id"]) == [1, 0]
        mode = TypeMode()
        for width in (100, 200, 400):      # 1, 1/2, 1/4 cycle per px
            view = TimelineView(0, 100, width=width, height=4)
            fb = render_timeline(trace, mode, view)
            for time, type_id in ((12, 0), (50, 1)):
                pixel = fb.pixels[0, view.time_to_pixel(time)]
                assert tuple(pixel) == mode.color_of(type_id), width

    # Viewed over [30, 50), only the parent overlaps: the child ended
    # at 20, so the lane's ``end`` column [100, 20] is unsorted.

    def test_zoom_inside_parent_after_child_ended(self, tmp_path):
        trace = self.nested_trace(tmp_path)
        mode = TypeMode()
        view = TimelineView(30, 50, width=20, height=4)
        fb = render_timeline(trace, mode, view)
        assert all(tuple(pixel) == mode.color_of(1)
                   for pixel in fb.pixels[0])

    def test_interval_queries_find_the_parent(self, tmp_path):
        from repro.core import selection, tasks_in_interval
        trace = self.nested_trace(tmp_path)
        assert list(tasks_in_interval(trace, 0, 30, 50)["end"]) == [100]
        assert selection.task_at(trace, 0, 40).end == 100
        assert selection.task_at(trace, 0, 15).end == 20  # innermost
        window = trace.slice_time_window(30, 50)
        assert list(window.tasks.columns["end"]) == [100]

    def test_split_time_window_agrees_with_and_without_sidecar(
            self, tmp_path):
        from repro.core import traces_equal
        from repro.trace_format import (read_trace, split_time_window,
                                        write_trace)
        path = str(tmp_path / "nested.ost")
        write_trace(self.nested_trace(tmp_path), path)
        scanned = split_time_window(path, 30, 50)
        assert list(scanned.tasks.columns["end"]) == [100]
        read_trace(path, cache=True)                # writes the sidecar
        mapped = split_time_window(path, 30, 50, cache=True)
        assert traces_equal(mapped, scanned)
        assert read_trace(path, cache=True).pyramids.nested("tasks", 0)

    def test_random_nested_windows_equal_the_full_scan(self, tmp_path):
        """Randomly nested spans: the sliced window of the parsed and
        the mapped store both equal the record-by-record filter."""
        import random
        from repro.core import TaskTypeInfo, traces_equal
        from repro.trace_format import (build_window, read_trace,
                                        stream_records, write_trace)
        for seed in range(5):
            rng = random.Random(seed)
            builder = TraceBuilder(TopologyInfo(num_nodes=1,
                                                cores_per_node=2))
            builder.describe_task_type(TaskTypeInfo(type_id=0, name="t"))
            for task_id in range(60):
                start = rng.randrange(1000)
                builder.task_execution(task_id, 0, rng.randrange(2), start,
                                       start + rng.choice((1, 20, 600)))
            path = str(tmp_path / "random_{}.ost".format(seed))
            write_trace(builder.build(), path)
            parsed = read_trace(path)
            read_trace(path, cache=True)
            mapped = read_trace(path, cache=True)
            for __ in range(10):
                start = rng.randrange(1100)
                end = start + rng.randrange(1, 300)
                expected = build_window(stream_records(path), start, end)
                for store in (parsed, mapped):
                    assert traces_equal(
                        store.slice_time_window(start, end), expected)
