"""Tests for counter attribution and correlation analysis (Section V)."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import (TaskTypeFilter, counter_increase_per_task,
                        counter_rate_per_task, duration_vs_counter_rate,
                        export_task_table, linear_regression)


class TestCounterAttribution:
    def test_increases_non_negative(self, kmeans_trace_small):
        __, increases = counter_increase_per_task(
            kmeans_trace_small, "branch_mispredictions")
        assert (increases >= 0).all()

    def test_pinned_increments_recovered(self, kmeans_trace_small):
        """The workload pins exact per-task misprediction counts; the
        attribution from boundary samples must recover them."""
        trace = kmeans_trace_small
        columns, increases = counter_increase_per_task(
            trace, "branch_mispredictions",
            TaskTypeFilter("kmeans_distance"))
        assert len(increases) > 0
        assert (increases > 0).all()

    def test_total_attribution_bounded_by_counter_total(
            self, kmeans_trace_small):
        trace = kmeans_trace_small
        __, increases = counter_increase_per_task(trace, "cache_misses")
        final_total = sum(
            trace.counter_samples(core,
                                  trace.counter_id("cache_misses"))[1][-1]
            for core in range(trace.num_cores)
            if len(trace.counter_samples(
                core, trace.counter_id("cache_misses"))[0]))
        assert increases.sum() <= final_total + 1e-6

    def test_rates_scale_with_per(self, kmeans_trace_small):
        __, per_k = counter_rate_per_task(kmeans_trace_small,
                                          "branch_mispredictions",
                                          per=1000)
        __, per_m = counter_rate_per_task(kmeans_trace_small,
                                          "branch_mispredictions",
                                          per=1_000_000)
        assert per_m == pytest.approx(per_k * 1000)


class TestLinearRegression:
    def test_perfect_line(self):
        x = np.arange(20, dtype=float)
        result = linear_regression(x, 3 * x + 5)
        assert result.slope == pytest.approx(3)
        assert result.intercept == pytest.approx(5)
        assert result.r_squared == pytest.approx(1.0)

    def test_noise_lowers_r_squared(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 10, 200)
        clean = linear_regression(x, 2 * x)
        noisy = linear_regression(x, 2 * x + rng.normal(0, 5, 200))
        assert noisy.r_squared < clean.r_squared

    def test_predict(self):
        result = linear_regression([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert result.predict([3.0]) == pytest.approx([7.0])

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            linear_regression([1.0], [2.0])

    def test_describe_mentions_r_squared(self):
        result = linear_regression([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert "R^2" in result.describe()

    def test_importing_the_interactive_stack_leaves_scipy_unloaded(self):
        """Only the regression needs SciPy, so a fresh interpreter that
        imports the core, the service and the session must not load
        it."""
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        probe = ("import sys, repro.core, repro.service, repro.session; "
                 "print('scipy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestDurationVsCounter:
    def test_kmeans_duration_correlates_with_mispredictions(
            self, kmeans_trace_small):
        """The Section V anomaly: distance-task duration is linear in
        the branch misprediction rate."""
        rates, durations, regression = duration_vs_counter_rate(
            kmeans_trace_small, "branch_mispredictions",
            TaskTypeFilter("kmeans_distance"))
        assert regression.slope > 0
        assert regression.r_squared > 0.5
        assert len(rates) == len(durations)


class TestExport:
    def test_csv_roundtrip(self, kmeans_trace_small, tmp_path):
        path = tmp_path / "tasks.csv"
        rows = export_task_table(
            kmeans_trace_small, str(path),
            counters=("branch_mispredictions", "cache_misses"),
            task_filter=TaskTypeFilter("kmeans_distance"))
        with open(path) as handle:
            reader = csv.reader(handle)
            header = next(reader)
            body = list(reader)
        assert header == ["task_id", "type", "core", "start", "duration",
                          "branch_mispredictions", "cache_misses"]
        assert len(body) == rows
        assert all(row[1] == "kmeans_distance" for row in body)

    def test_export_all_tasks(self, kmeans_trace_small, tmp_path):
        path = tmp_path / "all.csv"
        rows = export_task_table(kmeans_trace_small, str(path))
        assert rows == len(kmeans_trace_small.tasks)
