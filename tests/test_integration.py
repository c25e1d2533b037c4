"""End-to-end integration tests: the full analysis pipelines the paper
walks through, from simulation to trace file to rendered views."""

import pytest

from repro.core import (TaskTypeFilter, WorkerState,
                        average_task_duration_series, communication_matrix,
                        duration_vs_counter_rate, export_dot,
                        interval_report, reconstruct_task_graph,
                        state_count_series, symbols_from_trace,
                        task_duration_histogram)
from repro.render import (HeatmapMode, NumaMode, StateMode, TimelineView,
                          TypeMode, render_counter, render_matrix,
                          render_timeline)
from repro.trace_format import read_trace, write_trace


class TestSeidelWorkflow:
    """Section III: detect idle phases, track their origin in the task
    graph, then find the slow initialization."""

    def test_full_analysis_pipeline(self, seidel_trace_small, tmp_path):
        trace = seidel_trace_small

        # 1. Look at the state timeline: idle phases exist.
        view = TimelineView.fit(trace, 320, 128)
        fb = render_timeline(trace, StateMode(), view)
        from repro.render import state_color
        assert state_color(WorkerState.IDLE) in fb.unique_colors()

        # 2. Confirm with the idle-workers derived counter.
        __, idle = state_count_series(trace, WorkerState.IDLE, 50)
        assert idle.max() > 0

        # 3. Reconstruct the task graph; parallelism drops to 1.
        graph = reconstruct_task_graph(trace)
        __, counts = graph.parallelism_profile()
        assert counts[1] == 1

        # 4. Heatmap + typemap point at initialization tasks.
        __, averages = average_task_duration_series(trace, 30)
        init_filter = TaskTypeFilter("seidel_init")
        from repro.core import task_duration_stats
        init_mean, __s = task_duration_stats(trace, init_filter)
        rest_mean, __s2 = task_duration_stats(trace, ~init_filter)
        assert init_mean > rest_mean

        # 5. Export the graph neighborhood of a slow task to DOT.
        slow_task = int(trace.tasks.columns["task_id"][0])
        text = export_dot(graph, trace=trace,
                          task_ids=graph.neighborhood(slow_task, 2))
        assert "digraph" in text

    def test_trace_file_round_trip_preserves_analyses(
            self, seidel_trace_small, tmp_path):
        """Write to the binary format, reload, and verify a non-trivial
        analysis result is bit-identical."""
        trace = seidel_trace_small
        path = tmp_path / "trace.ost.gz"
        write_trace(trace, str(path))
        reloaded = read_trace(str(path))
        original = communication_matrix(trace)
        recovered = communication_matrix(reloaded)
        assert original == pytest.approx(recovered)
        g1 = reconstruct_task_graph(trace)
        g2 = reconstruct_task_graph(reloaded)
        assert g1.depths() == g2.depths()


class TestKmeansWorkflow:
    """Section V: histogram -> counter overlay -> export -> regression."""

    def test_correlation_pipeline(self, kmeans_trace_small, tmp_path):
        trace = kmeans_trace_small
        compute = TaskTypeFilter("kmeans_distance")

        # 1. The duration histogram of compute tasks is spread out.
        __, fractions = task_duration_histogram(trace, bins=10,
                                                task_filter=compute)
        assert (fractions > 0).sum() >= 2

        # 2. Counter overlay on the heatmap renders.
        view = TimelineView.fit(trace, 200, 80)
        fb = render_timeline(trace, HeatmapMode(task_filter=compute),
                             view)
        calls = render_counter(trace, "branch_mispredictions", view, fb,
                               core=0)
        assert calls > 0

        # 3. Export per-task data and regress.
        from repro.core import export_task_table
        path = tmp_path / "export.csv"
        rows = export_task_table(trace, str(path),
                                 counters=("branch_mispredictions",),
                                 task_filter=compute)
        assert rows > 0
        __, __d, regression = duration_vs_counter_rate(
            trace, "branch_mispredictions", compute)
        assert regression.slope > 0

    def test_symbols_link_tasks_to_sources(self, kmeans_trace_small):
        trace = kmeans_trace_small
        table = symbols_from_trace(trace)
        execution = next(trace.task_executions())
        info = trace.task_types[execution.type_id]
        command = table.editor_command(info.address)
        assert command is not None
        assert info.source_file in command


class TestNumaWorkflow:
    """Section IV: NUMA maps + communication matrix."""

    def test_numa_views_and_matrix(self, seidel_trace_small):
        trace = seidel_trace_small
        view = TimelineView.fit(trace, 160, 64)
        for kind in ("read", "write"):
            fb = render_timeline(trace, NumaMode(kind), view)
            assert fb.rect_calls > 0
        matrix = communication_matrix(trace)
        fb = render_matrix(matrix)
        assert fb.rect_calls == matrix.size

    def test_interval_report_summarizes(self, seidel_trace_small):
        report = interval_report(seidel_trace_small)
        text = report.describe()
        assert "local-access fraction" in text


class TestInteractiveNavigation:
    """Zoom/scroll behave like the paper's 'arbitrary zooming and
    scrolling along the timeline'."""

    def test_zoom_sequence(self, seidel_trace_small):
        trace = seidel_trace_small
        view = TimelineView.fit(trace, 300, 100)
        for __ in range(6):
            view = view.zoom(2.0)
            fb = render_timeline(trace, StateMode(), view)
            assert fb.width == 300
        assert view.duration < trace.duration / 32

    def test_scroll_across_trace(self, seidel_trace_small):
        trace = seidel_trace_small
        view = TimelineView.fit(trace, 200, 80).zoom(8.0)
        seen_colors = set()
        for __ in range(8):
            fb = render_timeline(trace, TypeMode(), view)
            seen_colors |= fb.unique_colors()
            view = view.scroll(1.0)
        assert len(seen_colors) > 2
