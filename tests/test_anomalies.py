"""Tests for semi-automatic anomaly detection."""

import warnings

import pytest

from repro.core import (TaskTypeFilter, TaskTypeInfo, TopologyInfo,
                        TraceBuilder, WorkerState, correlate_counters,
                        detect_duration_outliers, detect_idle_phases,
                        detect_load_imbalance, detect_locality_anomalies,
                        detect_stragglers, scan)


def synthetic_trace(num_cores=4, idle_band=True):
    """Two phases: busy everywhere, then (optionally) 3 of 4 cores idle."""
    builder = TraceBuilder(TopologyInfo(1, num_cores))
    for core in range(num_cores):
        builder.state_interval(core, int(WorkerState.RUNNING), 0, 1000)
        if idle_band and core > 0:
            builder.state_interval(core, int(WorkerState.IDLE), 1000,
                                   2000)
        else:
            builder.state_interval(core, int(WorkerState.RUNNING), 1000,
                                   2000)
    for index in range(num_cores * 2):
        builder.task_execution(index, 0, index % num_cores,
                               index * 10, index * 10 + 100)
    return builder.build()


class TestIdlePhases:
    def test_detects_planted_band(self):
        trace = synthetic_trace(idle_band=True)
        findings = detect_idle_phases(trace, num_intervals=20,
                                      threshold=0.5)
        assert len(findings) == 1
        anomaly = findings[0]
        assert anomaly.kind == "idle-phase"
        assert anomaly.start >= 900
        assert anomaly.severity == pytest.approx(0.75)

    def test_clean_trace_no_findings(self):
        trace = synthetic_trace(idle_band=False)
        assert detect_idle_phases(trace, num_intervals=20) == []

    def test_finds_seidel_bands(self, seidel_trace_small):
        findings = detect_idle_phases(seidel_trace_small,
                                      num_intervals=100, threshold=0.5)
        assert findings
        assert all(f.severity >= 0.5 for f in findings)

    def test_sorted_by_severity(self, seidel_trace_small):
        findings = detect_idle_phases(seidel_trace_small,
                                      num_intervals=100, threshold=0.3)
        severities = [f.severity for f in findings]
        assert severities == sorted(severities, reverse=True)


class TestDurationOutliers:
    def test_detects_seidel_init(self, seidel_trace_small):
        findings = detect_duration_outliers(seidel_trace_small,
                                            z_threshold=1.5)
        assert any(f.task_type == "seidel_init" for f in findings)

    def test_uniform_durations_clean(self):
        builder = TraceBuilder(TopologyInfo(1, 1))
        for index in range(50):
            builder.task_execution(index, 0, 0, index * 100,
                                   index * 100 + 100)
        assert detect_duration_outliers(builder.build()) == []

    def test_too_few_tasks_skipped(self):
        builder = TraceBuilder(TopologyInfo(1, 1))
        builder.task_execution(0, 0, 0, 0, 100)
        assert detect_duration_outliers(builder.build()) == []


class TestLocalityAnomalies:
    def test_non_optimized_flagged(self):
        from repro.analysis.experiments import seidel_trace
        __, trace = seidel_trace(optimized=False, scale="small", seed=4,
                                 collect_rusage=False)
        findings = detect_locality_anomalies(trace, num_intervals=10)
        assert findings
        assert findings[0].severity > 0.4

    def test_optimized_mostly_clean(self):
        from repro.analysis.experiments import seidel_trace
        __, trace = seidel_trace(optimized=True, scale="small", seed=4,
                                 collect_rusage=False)
        findings = detect_locality_anomalies(trace, num_intervals=10,
                                             threshold=0.4)
        # The NUMA-aware run keeps remote fractions low nearly always.
        assert len(findings) <= 2


class TestLoadImbalance:
    def test_detects_single_busy_core(self):
        builder = TraceBuilder(TopologyInfo(1, 4))
        builder.state_interval(0, int(WorkerState.RUNNING), 0, 10_000)
        builder.state_interval(1, int(WorkerState.RUNNING), 0, 500)
        trace = builder.build()
        findings = detect_load_imbalance(trace, num_intervals=2)
        assert findings
        assert findings[0].kind == "load-imbalance"

    def test_balanced_trace_clean(self):
        builder = TraceBuilder(TopologyInfo(1, 4))
        for core in range(4):
            builder.state_interval(core, int(WorkerState.RUNNING), 0,
                                   10_000)
        assert detect_load_imbalance(builder.build(),
                                     num_intervals=2) == []


def straggler_trace(type_ids):
    """Four cores run 8 tasks of each type in ``type_ids``; core 3
    runs every one of them twice as long as its peers."""
    builder = TraceBuilder(TopologyInfo(1, 4))
    for index, type_id in enumerate(type_ids):
        builder.describe_task_type(TaskTypeInfo(
            type_id=type_id, name="type_{}".format(index),
            address=0x1000 + index, source_file="t.c", source_line=1))
    task_id = 0
    for core in range(4):
        cursor = 0
        for index, type_id in enumerate(type_ids):
            for __ in range(8):
                duration = (200 if core == 3 else 100) * (index + 1)
                builder.task_execution(task_id, type_id, core, cursor,
                                       cursor + duration)
                task_id += 1
                cursor += duration
    return builder.build()


class TestStragglers:
    def test_type_id_gap_matches_dense_ids_without_warnings(self):
        """A type id that no core ran (the gap at 1) must neither warn
        nor change the finding."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gapped = detect_stragglers(straggler_trace([0, 2]))
            dense = detect_stragglers(straggler_trace([0, 1]))
        assert [anomaly.cores for anomaly in gapped] == [[3]]
        assert gapped[0].severity == pytest.approx(2.0)
        assert gapped == dense


class TestCounterCorrelation:
    def test_ranks_mispredictions_first(self, kmeans_trace_small):
        results = correlate_counters(
            kmeans_trace_small,
            task_filter=TaskTypeFilter("kmeans_distance"))
        assert results
        assert results[0].counter == "branch_mispredictions"
        assert results[0].r_squared > 0.5

    def test_scans_all_types_without_filter(self, kmeans_trace_small):
        results = correlate_counters(kmeans_trace_small)
        types = {entry.task_type for entry in results}
        assert "kmeans_distance" in types


class TestScan:
    def test_scan_returns_findings_for_seidel(self, seidel_trace_small):
        from repro.core import Anomaly
        findings = scan(seidel_trace_small)
        kinds = {f.kind for f in findings}
        assert "idle-phase" in kinds
        assert all(isinstance(f, Anomaly) for f in findings)

    def test_scan_handles_access_free_trace(self):
        trace = synthetic_trace()
        findings = scan(trace)
        assert isinstance(findings, list)
