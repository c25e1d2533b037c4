"""Tests for out-of-core streaming trace processing."""

import pytest

from repro.analysis import (parallel_streaming_statistics,
                            parallel_task_histogram)
from repro.core import state_time_summary, task_duration_histogram
from repro.trace_format import (split_time_window, stream_records,
                                write_trace)


@pytest.fixture(scope="module")
def trace_file(seidel_trace_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "seidel.ost.gz"
    write_trace(seidel_trace_small, str(path))
    return str(path)


class TestStreamRecords:
    def test_record_count_matches_writer(self, seidel_trace_small,
                                         trace_file):
        count = sum(1 for __ in stream_records(trace_file))
        expected = write_trace(seidel_trace_small,
                               trace_file + ".again.gz")
        assert count == expected

    def test_topology_streamed_first(self, trace_file):
        kind, fields = next(stream_records(trace_file))
        assert kind == "topology"
        assert fields.num_cores == 16

    def test_event_kinds_known(self, trace_file):
        known = {"topology", "counter_description", "task_type",
                 "region", "state_interval", "task_execution",
                 "counter_sample", "discrete_event", "comm_event",
                 "memory_access"}
        for kind, __ in stream_records(trace_file):
            assert kind in known


class TestStreamingStatistics:
    def test_matches_in_memory_summary(self, seidel_trace_small,
                                       trace_file):
        stats = parallel_streaming_statistics(trace_file)
        summary = state_time_summary(seidel_trace_small)
        for state, cycles in summary.items():
            assert stats.state_cycles[state] == cycles
        assert stats.total_tasks == len(seidel_trace_small.tasks)
        assert stats.begin == seidel_trace_small.begin
        assert stats.end == seidel_trace_small.end

    def test_per_type_means(self, seidel_trace_small, trace_file):
        from repro.core import TaskTypeFilter, task_duration_stats
        stats = parallel_streaming_statistics(trace_file)
        init_id = next(info.type_id
                       for info in seidel_trace_small.task_types
                       if info.name == "seidel_init")
        expected, __ = task_duration_stats(seidel_trace_small,
                                           TaskTypeFilter("seidel_init"))
        assert stats.mean_duration(init_id) == pytest.approx(expected)

    def test_describe(self, trace_file):
        text = parallel_streaming_statistics(trace_file).describe()
        assert "seidel_block" in text


class TestStreamingHistogram:
    def test_matches_in_memory_histogram(self, seidel_trace_small,
                                         trace_file):
        columns = seidel_trace_small.tasks.columns
        durations = columns["end"] - columns["start"]
        value_range = (0, int(durations.max()) + 1)
        edges, counts = parallel_task_histogram(trace_file, 10,
                                                value_range)
        expected_edges, fractions = task_duration_histogram(
            seidel_trace_small, bins=10, value_range=value_range)
        assert edges == pytest.approx(expected_edges)
        total = counts.sum()
        assert counts / total == pytest.approx(fractions)

    def test_invalid_range_rejected(self, trace_file):
        with pytest.raises(ValueError):
            parallel_task_histogram(trace_file, 10, (100, 100))
        with pytest.raises(ValueError):
            parallel_task_histogram(trace_file, 0, (0, 100))


class TestSplitTimeWindow:
    def test_window_preserves_overlapping_events(self,
                                                 seidel_trace_small,
                                                 trace_file):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        window = split_time_window(trace_file, trace.begin, mid)
        columns = window.tasks.columns
        assert (columns["start"] < mid).all()
        expected = ((trace.tasks.columns["start"] < mid)
                    & (trace.tasks.columns["end"] > trace.begin)).sum()
        assert len(window.tasks) == expected

    def test_window_keeps_static_tables(self, seidel_trace_small,
                                        trace_file):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        window = split_time_window(trace_file, trace.begin, mid)
        assert window.task_types == trace.task_types
        assert window.regions == trace.regions
        assert (window.counter_descriptions
                == trace.counter_descriptions)

    def test_window_is_analyzable(self, seidel_trace_small, trace_file):
        """The extracted window supports the normal interactive path."""
        from repro.render import StateMode, TimelineView, render_timeline
        trace = seidel_trace_small
        quarter = trace.begin + trace.duration // 4
        window = split_time_window(trace_file, trace.begin, quarter)
        fb = render_timeline(window, StateMode(),
                             TimelineView.fit(window, 100, 64))
        assert fb.pixels_drawn > 0

    def test_empty_window(self, seidel_trace_small, trace_file):
        window = split_time_window(trace_file,
                                   seidel_trace_small.end + 10**6,
                                   seidel_trace_small.end + 10**6 + 10)
        assert len(window.tasks) == 0
        assert window.task_types       # static tables survive
