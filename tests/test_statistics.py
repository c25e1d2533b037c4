"""Tests for statistics views (Section II-A.2, Figs. 15/16)."""

import numpy as np
import pytest

from repro.core import (TaskTypeFilter, WorkerState, average_parallelism,
                        communication_matrix, counter_histogram,
                        interval_report,
                        locality_fraction, per_core_state_time,
                        state_time_summary, steal_matrix,
                        task_duration_histogram)


class TestHistogram:
    def test_fractions_sum_to_one(self, seidel_trace_small):
        __, fractions = task_duration_histogram(seidel_trace_small,
                                                bins=12)
        assert fractions.sum() == pytest.approx(1.0)

    def test_filter_restricts_population(self, seidel_trace_small):
        trace = seidel_trace_small
        __, init_only = task_duration_histogram(
            trace, bins=5, task_filter=TaskTypeFilter("seidel_init"))
        assert init_only.sum() == pytest.approx(1.0)

    def test_pinned_range(self, seidel_trace_small):
        edges, __ = task_duration_histogram(seidel_trace_small, bins=4,
                                            value_range=(0, 1000))
        assert edges[0] == 0 and edges[-1] == 1000

    def test_interval_restriction(self, seidel_trace_small):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        __, early = task_duration_histogram(trace, bins=6, start=None,
                                            end=mid)
        assert early.sum() == pytest.approx(1.0)


class TestCounterHistogram:
    def test_fractions_sum_to_one(self, kmeans_trace_small):
        __, fractions = counter_histogram(
            kmeans_trace_small, "branch_mispredictions", bins=12,
            task_filter=TaskTypeFilter("kmeans_distance"))
        assert fractions.sum() == pytest.approx(1.0)

    def test_range_pinning(self, kmeans_trace_small):
        edges, __ = counter_histogram(kmeans_trace_small,
                                      "cache_misses", bins=4,
                                      value_range=(0, 100))
        assert edges[0] == 0 and edges[-1] == 100


class TestParallelism:
    def test_bounded_by_core_count(self, seidel_trace_small):
        value = average_parallelism(seidel_trace_small)
        assert 0 < value <= seidel_trace_small.num_cores

    def test_equals_busy_time_over_duration(self, seidel_trace_small):
        trace = seidel_trace_small
        columns = trace.tasks.columns
        busy = float((columns["end"] - columns["start"]).sum())
        expected = busy / trace.duration
        assert average_parallelism(trace) == pytest.approx(expected)

    def test_empty_interval(self, seidel_trace_small):
        assert average_parallelism(seidel_trace_small, 5, 5) == 0.0


class TestStateSummary:
    def test_totals_match_simulator(self, seidel_run):
        result, trace = seidel_run
        summary = state_time_summary(trace)
        for state, cycles in summary.items():
            if state == int(WorkerState.SYNC):
                continue    # SYNC extends past the makespan
            assert cycles == result.state_cycles[state]

    def test_per_core_sums_to_total(self, seidel_trace_small):
        trace = seidel_trace_small
        total = state_time_summary(trace)[int(WorkerState.RUNNING)]
        per_core = per_core_state_time(trace, WorkerState.RUNNING)
        assert per_core.sum() == total

    def test_interval_clipping(self, seidel_trace_small):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        first = state_time_summary(trace, trace.begin, mid)
        second = state_time_summary(trace, mid, trace.end)
        full = state_time_summary(trace)
        for state in full:
            if state == int(WorkerState.SYNC):
                continue
            assert (first.get(state, 0) + second.get(state, 0)
                    == full[state])


class TestCommunicationMatrix:
    def test_normalized_sums_to_one(self, seidel_trace_small):
        matrix = communication_matrix(seidel_trace_small)
        assert matrix.sum() == pytest.approx(1.0)

    def test_shape_is_node_square(self, seidel_trace_small):
        matrix = communication_matrix(seidel_trace_small)
        nodes = seidel_trace_small.topology.num_nodes
        assert matrix.shape == (nodes, nodes)

    def test_raw_bytes_match_access_total(self, seidel_trace_small):
        trace = seidel_trace_small
        matrix = communication_matrix(trace, normalize=False)
        accesses = trace.accesses
        nodes = trace.nodes_of_addresses(accesses["address"])
        placed = accesses["size"][nodes >= 0].sum()
        assert matrix.sum() == pytest.approx(float(placed))

    def test_read_write_split(self, seidel_trace_small):
        trace = seidel_trace_small
        total = communication_matrix(trace, normalize=False)
        reads = communication_matrix(trace, normalize=False, kind="read")
        writes = communication_matrix(trace, normalize=False,
                                      kind="write")
        assert reads.sum() + writes.sum() == pytest.approx(total.sum())

    def test_locality_fraction_is_diagonal_share(self,
                                                 seidel_trace_small):
        trace = seidel_trace_small
        matrix = communication_matrix(trace)
        assert locality_fraction(trace) == pytest.approx(
            float(np.trace(matrix)))


class TestStealMatrix:
    def test_no_self_steals(self, seidel_trace_small):
        matrix = steal_matrix(seidel_trace_small)
        assert np.trace(matrix) == 0

    def test_total_matches_comm_events(self, seidel_trace_small):
        matrix = steal_matrix(seidel_trace_small)
        assert matrix.sum() == len(seidel_trace_small.comm["timestamp"])


class TestIntervalReport:
    def test_report_fields(self, seidel_trace_small):
        trace = seidel_trace_small
        report = interval_report(trace)
        assert report.tasks == len(trace.tasks)
        assert 0 <= report.locality <= 1
        text = report.describe()
        assert "average parallelism" in text
        assert "RUNNING" in text

    def test_sub_interval_report(self, seidel_trace_small):
        trace = seidel_trace_small
        mid = (trace.begin + trace.end) // 2
        report = interval_report(trace, trace.begin, mid)
        assert report.tasks <= len(trace.tasks)
