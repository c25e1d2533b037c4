"""Built/mapped parity sweep.

For every analysis entry point in :mod:`repro.core.statistics`,
:mod:`repro.core.metrics` and :mod:`repro.core.filters` (plus the
index helpers and timeline rendering they feed), assert that running
on a :class:`~repro.core.columnar.ColumnarTrace` built in memory
produces *exactly* the same result as running on the same trace
mapped back from its ``.ostc`` sidecar — whose render paths serve the
persisted pyramids and tiles — with bit-identical arrays, equal
floats and equal report text, on randomized traces.  The pure-Python
dataclass walks in :mod:`repro.core.reference` and the per-pixel loops
in :mod:`repro.render.reference` tie both paths to the executable
specification.
"""

import numpy as np
import pytest

from repro.analysis.parallel import (CommMatrixAccumulator,
                                     parallel_comm_matrix,
                                     parallel_streaming_statistics,
                                     parallel_task_histogram)
from repro.core import (AllTasks, CoreFilter, DurationFilter,
                        IntervalFilter, NumaNodeFilter, PredicateFilter,
                        TaskTypeFilter, WorkerState, filtered_tasks,
                        reference)
from repro.core import anomalies, correlation
from repro.core import index as core_index
from repro.core import metrics, statistics
from repro.render import (Framebuffer, StateMode, TimelineView,
                          render_counter, render_discrete_events,
                          render_matrix, render_timeline, value_bounds)
from repro.render import reference as render_reference
from repro.trace_format import (StreamingStatistics,
                                TaskHistogramAccumulator, fold_records,
                                stream_records, streaming, write_trace)
from trace_gen import make_random_trace, mapped_copy, render_lane_scan

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module", params=SEEDS)
def pair(request, tmp_path_factory):
    """(store built in memory, the same trace mapped from a sidecar)."""
    trace = make_random_trace(request.param, events_per_core=60)
    mapped = mapped_copy(trace, tmp_path_factory.mktemp("parity"))
    assert mapped.pyramids is not None
    return trace, mapped


def windows(trace):
    """The whole trace plus one interior sub-interval."""
    span = trace.end - trace.begin
    yield None, None
    yield trace.begin + span // 4, trace.begin + (3 * span) // 4


class TestStatisticsParity:
    def test_state_time_summary(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            assert (statistics.state_time_summary(trace, start, end)
                    == statistics.state_time_summary(mapped, start, end)
                    == reference.state_time_summary(trace, start, end))

    def test_per_core_state_time(self, pair):
        trace, mapped = pair
        for state in WorkerState:
            for start, end in windows(trace):
                expected = statistics.per_core_state_time(trace, state,
                                                          start, end)
                assert np.array_equal(
                    expected, statistics.per_core_state_time(
                        mapped, state, start, end))
                assert np.array_equal(
                    expected, reference.per_core_state_time(
                        trace, state, start, end))

    def test_average_parallelism(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            expected = statistics.average_parallelism(trace, start, end)
            assert expected == statistics.average_parallelism(mapped,
                                                              start, end)
            assert expected == reference.average_parallelism(trace,
                                                             start, end)

    def test_task_duration_histogram(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            edges, fractions = statistics.task_duration_histogram(
                trace, bins=12, start=start, end=end)
            col_edges, col_fractions = statistics.task_duration_histogram(
                mapped, bins=12, start=start, end=end)
            ref_edges, ref_fractions = reference.task_duration_histogram(
                trace, bins=12, start=start, end=end)
            assert np.array_equal(edges, col_edges)
            assert np.array_equal(fractions, col_fractions)
            assert np.array_equal(edges, ref_edges)
            assert np.array_equal(fractions, ref_fractions)

    def test_counter_histogram(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        name = trace.counter_descriptions[0].name
        edges, fractions = statistics.counter_histogram(trace, name,
                                                        bins=8)
        col_edges, col_fractions = statistics.counter_histogram(
            mapped, name, bins=8)
        assert np.array_equal(edges, col_edges)
        assert np.array_equal(fractions, col_fractions)

    def test_communication_matrix(self, pair):
        trace, mapped = pair
        for kind in ("any", "read", "write"):
            for normalize in (True, False):
                expected = statistics.communication_matrix(
                    trace, kind=kind, normalize=normalize)
                assert np.array_equal(
                    expected, statistics.communication_matrix(
                        mapped, kind=kind, normalize=normalize))
                assert np.array_equal(
                    expected, reference.communication_matrix(
                        trace, kind=kind, normalize=normalize))

    def test_locality_fraction(self, pair):
        trace, mapped = pair
        assert (statistics.locality_fraction(trace)
                == statistics.locality_fraction(mapped))

    def test_steal_matrix(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            expected = statistics.steal_matrix(trace, start, end)
            assert np.array_equal(expected,
                                  statistics.steal_matrix(mapped,
                                                          start, end))
            assert np.array_equal(expected,
                                  reference.steal_matrix(trace, start,
                                                         end))

    def test_interval_report(self, pair):
        trace, mapped = pair
        for start, end in windows(trace):
            assert (statistics.interval_report(trace, start, end)
                    .describe()
                    == statistics.interval_report(mapped, start, end)
                    .describe())


class TestMetricsParity:
    def test_interval_edges(self, pair):
        trace, mapped = pair
        assert np.array_equal(metrics.interval_edges(trace, 37),
                              metrics.interval_edges(mapped, 37))

    def test_state_count_series(self, pair):
        trace, mapped = pair
        for state in (WorkerState.RUNNING, WorkerState.IDLE):
            edges, values = metrics.state_count_series(trace, state, 50)
            col_edges, col_values = metrics.state_count_series(
                mapped, state, 50)
            assert np.array_equal(edges, col_edges)
            assert np.array_equal(values, col_values)

    def test_average_task_duration_series(self, pair):
        trace, mapped = pair
        edges, values = metrics.average_task_duration_series(trace, 40)
        col_edges, col_values = metrics.average_task_duration_series(
            mapped, 40)
        assert np.array_equal(edges, col_edges)
        assert np.array_equal(values, col_values)

    def test_counter_series_metrics(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        name = trace.counter_descriptions[0].name
        for function in (metrics.aggregate_counter_series,
                         metrics.counter_derivative_series):
            edges, values = function(trace, name, 30)
            col_edges, col_values = function(mapped, name, 30)
            assert np.array_equal(edges, col_edges)
            assert np.array_equal(values, col_values)
        if len(trace.counter_descriptions) > 1:
            other = trace.counter_descriptions[1].name
            edges, values = metrics.counter_ratio_series(trace, name,
                                                         other, 30)
            col_edges, col_values = metrics.counter_ratio_series(
                mapped, name, other, 30)
            assert np.array_equal(values, col_values)

    def test_bytes_between_nodes_series(self, pair):
        trace, mapped = pair
        nodes = trace.topology.num_nodes
        for src in range(nodes):
            edges, values = metrics.bytes_between_nodes_series(
                trace, src, (src + 1) % nodes, 25)
            col_edges, col_values = metrics.bytes_between_nodes_series(
                mapped, src, (src + 1) % nodes, 25)
            assert np.array_equal(edges, col_edges)
            assert np.array_equal(values, col_values)

    def test_task_duration_stats(self, pair):
        trace, mapped = pair
        expected = metrics.task_duration_stats(trace)
        assert expected == metrics.task_duration_stats(mapped)
        assert expected == reference.task_duration_stats(trace)


class TestFilterParity:
    def filters_for(self, trace):
        yield AllTasks()
        yield DurationFilter(minimum=20, maximum=250)
        span = trace.end - trace.begin
        yield IntervalFilter(trace.begin + span // 3,
                             trace.begin + (2 * span) // 3)
        yield CoreFilter(range(0, trace.num_cores, 2))
        if trace.task_types:
            yield TaskTypeFilter(trace.task_types[0].name)
        for mode in ("read", "write", "any"):
            yield NumaNodeFilter(range(trace.topology.num_nodes),
                                 mode=mode)
        yield PredicateFilter(lambda execution:
                              execution.duration % 2 == 0)
        yield (DurationFilter(minimum=20) & CoreFilter([0])) | \
            ~AllTasks()

    def test_masks_identical(self, pair):
        trace, mapped = pair
        for task_filter in self.filters_for(trace):
            assert np.array_equal(task_filter.mask(trace),
                                  task_filter.mask(mapped)), task_filter

    def test_filtered_tasks_identical(self, pair):
        trace, mapped = pair
        for task_filter in (None, DurationFilter(minimum=50)):
            expected = filtered_tasks(trace, task_filter)
            actual = filtered_tasks(mapped, task_filter)
            assert sorted(expected) == sorted(actual)
            for name in expected:
                assert np.array_equal(expected[name], actual[name])


class TestIndexParity:
    def test_interval_queries(self, pair):
        trace, mapped = pair
        span = trace.end - trace.begin
        start = trace.begin + span // 3
        end = trace.begin + (2 * span) // 3
        for core in range(trace.num_cores):
            for query in (core_index.states_in_interval,
                          core_index.tasks_in_interval,
                          core_index.discrete_in_interval):
                expected = query(trace, core, start, end)
                actual = query(mapped, core, start, end)
                assert sorted(expected) == sorted(actual)
                for name in expected:
                    assert np.array_equal(expected[name], actual[name])

    def test_counter_queries(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        span = trace.end - trace.begin
        for core in range(trace.num_cores):
            expected = core_index.counter_samples_in_interval(
                trace, core, 0, trace.begin + span // 3,
                trace.end - span // 3)
            actual = core_index.counter_samples_in_interval(
                mapped, core, 0, trace.begin + span // 3,
                trace.end - span // 3)
            assert np.array_equal(expected[0], actual[0])
            assert np.array_equal(expected[1], actual[1])


def _per_record(path, accumulator):
    """The reference fold: one ``consume`` call per record."""
    for kind, fields in stream_records(path):
        accumulator.consume(kind, fields)
    return accumulator


def _fields(accumulator):
    """Every field of an accumulator, arrays as lists, for ``==``."""
    return {name: value.tolist() if isinstance(value, np.ndarray)
            else value for name, value in vars(accumulator).items()}


class TestBatchAccumulatorParity:
    """The batched fold (``fold_records`` -> ``consume_batch``) must
    equal a per-record ``consume`` loop bit for bit, for all three
    accumulators, through every out-of-core entry point and across
    batch-flush boundaries."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("batch")
        traces = []
        for seed in SEEDS:
            trace = make_random_trace(seed + 4, events_per_core=50)
            path = str(directory / "random_{}.ost".format(seed))
            write_trace(trace, path, chunk_records=64)
            traces.append((path, trace.num_cores))
        return traces

    def test_streaming_statistics(self, traces):
        for path, __ in traces:
            assert (fold_records(stream_records(path),
                                 StreamingStatistics())
                    == _per_record(path, StreamingStatistics()))

    def test_streaming_task_histogram(self, traces):
        for path, __ in traces:
            batched = fold_records(stream_records(path),
                                   TaskHistogramAccumulator(16, (0, 500)))
            expected = _per_record(path,
                                   TaskHistogramAccumulator(16, (0, 500)))
            assert np.array_equal(batched.edges, expected.edges)
            assert np.array_equal(batched.counts, expected.counts)

    def test_parallel_entry_points(self, traces):
        for path, num_cores in traces:
            assert (parallel_streaming_statistics(path, workers=2)
                    == _per_record(path, StreamingStatistics()))
            expected = _per_record(path, CommMatrixAccumulator(num_cores))
            assert np.array_equal(parallel_comm_matrix(path, workers=2),
                                  expected.matrix)
            __, counts = parallel_task_histogram(path, 12, (0, 400),
                                                 workers=2)
            expected = _per_record(path,
                                   TaskHistogramAccumulator(12, (0, 400)))
            assert np.array_equal(counts, expected.counts)

    def test_state_time_summary_out_of_core(self, traces):
        for path, __ in traces:
            expected = _per_record(path, StreamingStatistics())
            assert (statistics.state_time_summary_out_of_core(path)
                    == statistics.state_time_summary_out_of_core(
                        path, columnar=True)
                    == expected.state_cycles)

    def test_fold_records_across_flush_boundaries(self, traces,
                                                  monkeypatch):
        """A tiny batch size forces many partial flushes."""
        monkeypatch.setattr(streaming, "BATCH_RECORDS", 7)
        for path, num_cores in traces:
            for make in (StreamingStatistics,
                         lambda: TaskHistogramAccumulator(16, (0, 500)),
                         lambda: CommMatrixAccumulator(num_cores)):
                batched = fold_records(stream_records(path), make())
                assert (_fields(batched)
                        == _fields(_per_record(path, make())))


class TestRenderParity:
    def test_state_timeline_pixels_identical(self, pair):
        trace, mapped = pair
        view = TimelineView.fit(trace, width=200,
                                height=4 * trace.num_cores)
        built_fb = render_timeline(trace, StateMode(), view)
        mapped_fb = render_timeline(mapped, StateMode(), view)
        assert np.array_equal(built_fb.pixels, mapped_fb.pixels)


class TestOverlayParity:
    """The vectorized overlay kernels must draw the exact pixels (and
    issue the exact draw-call counts) of the scalar reference loops,
    on both stores, across zoom levels."""

    def overlay_views(self, trace):
        base = TimelineView.fit(trace, width=150,
                                height=5 * trace.num_cores)
        yield base
        yield base.zoom(4)
        yield base.zoom(4).scroll(0.4)
        # Zoomed below one cycle per pixel: the scalar fallback path.
        yield base.zoom(max(trace.duration, 2))

    def test_counter_overlay_pixels_identical(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        for view in self.overlay_views(trace):
            for core in range(trace.num_cores):
                frames = {}
                for label, target, render in (
                        ("scalar", trace, render_reference.render_counter),
                        ("built", trace, render_counter),
                        ("mapped", mapped, render_counter)):
                    fb = Framebuffer(view.width, view.height)
                    calls = render(target, 0, view, fb, core=core)
                    frames[label] = (calls, fb.pixels)
                reference_calls, reference_pixels = frames["scalar"]
                for label in ("built", "mapped"):
                    calls, pixels = frames[label]
                    assert calls == reference_calls, (label, view)
                    assert np.array_equal(pixels, reference_pixels), \
                        (label, view)

    def test_value_bounds_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        expected = reference.counter_value_bounds(trace, 0)
        assert value_bounds(trace, 0) == expected
        assert value_bounds(mapped, 0) == expected

    def test_discrete_event_overlay_identical(self, pair):
        trace, mapped = pair
        view = TimelineView.fit(trace, width=120,
                                height=4 * trace.num_cores)
        results = {}
        for label, target, render in (
                ("scalar", trace, render_reference.render_discrete_events),
                ("built", trace, render_discrete_events),
                ("mapped", mapped, render_discrete_events)):
            fb = Framebuffer(view.width, view.height)
            markers = render(target, view, fb)
            results[label] = (markers, fb.pixels)
        markers, pixels = results["scalar"]
        for label in ("built", "mapped"):
            assert results[label][0] == markers
            assert np.array_equal(results[label][1], pixels)

    def test_matrix_render_identical(self, pair):
        trace, mapped = pair
        matrix = statistics.steal_matrix(trace).astype(np.float64)
        expected = render_reference.render_matrix(matrix).pixels
        assert np.array_equal(render_matrix(matrix).pixels, expected)
        assert np.array_equal(
            render_matrix(statistics.steal_matrix(mapped)
                          .astype(np.float64)).pixels, expected)


class TestAnomalyParity:
    def test_bin_scans_match_reference(self, pair):
        trace, mapped = pair
        for store in (trace, mapped):
            assert (anomalies.detect_load_imbalance(store)
                    == reference.detect_load_imbalance(trace))
            assert (anomalies.detect_locality_anomalies(store)
                    == reference.detect_locality_anomalies(trace))

    def test_full_scan_identical_across_stores(self, pair):
        trace, mapped = pair
        assert anomalies.scan(trace) == anomalies.scan(mapped)


class TestCorrelationParity:
    def test_counter_increase_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        __, expected = reference.counter_increase_per_task(trace, 0)
        for store in (trace, mapped):
            __, increases = correlation.counter_increase_per_task(store,
                                                                  0)
            assert np.array_equal(increases, expected)

    def test_filtered_increase_matches_reference(self, pair):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        task_filter = DurationFilter(minimum=20)
        __, expected = reference.counter_increase_per_task(
            trace, 0, task_filter)
        for store in (trace, mapped):
            __, increases = correlation.counter_increase_per_task(
                store, 0, task_filter)
            assert np.array_equal(increases, expected)

    def test_export_identical_across_stores(self, pair, tmp_path):
        trace, mapped = pair
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        counters = [trace.counter_descriptions[0].name]
        built_path = tmp_path / "built.csv"
        mapped_path = tmp_path / "mapped.csv"
        rows = correlation.export_task_table(trace, str(built_path),
                                             counters=counters)
        assert rows == correlation.export_task_table(
            mapped, str(mapped_path), counters=counters)
        assert built_path.read_text() == mapped_path.read_text()


class TestPyramidParity:
    """ISSUE 8: frames served by the persisted render pyramids must be
    bit-identical to the scalar references — on the plain stores, the
    memory-mapped (cached) store whose pyramids come from the sidecar,
    and ingested foreign traces."""

    def stores(self, tmp_path, seed=4):
        from repro.trace_format import (export_chrome, ingest_trace,
                                        read_trace, write_trace)
        trace = make_random_trace(seed, events_per_core=50)
        path = str(tmp_path / "pyramid.ost")
        write_trace(trace, path, chunk_records=64)
        parsed = read_trace(path)
        read_trace(path, cache=True)            # writes the sidecar
        mapped = read_trace(path, cache=True)   # maps it back
        assert mapped.pyramids is not None
        chrome = str(tmp_path / "pyramid.json")
        export_chrome(trace, chrome)
        ingested = ingest_trace(chrome)
        return (("built", trace), ("parsed", parsed),
                ("mapped", mapped), ("ingested", ingested))

    def parity_views(self, trace):
        base = TimelineView.fit(trace, width=160,
                                height=5 * trace.num_cores)
        yield base
        yield base.zoom(5)
        # Below one cycle per pixel: the deep-zoom regime.
        yield base.zoom(max(trace.duration, 2))

    def test_timeline_frames_match_reference(self, tmp_path):
        for label, store in self.stores(tmp_path):
            for view in self.parity_views(store):
                reference_fb = render_lane_scan(store, StateMode(), view)
                indexed_fb = render_timeline(store, StateMode(), view)
                assert np.array_equal(indexed_fb.pixels,
                                      reference_fb.pixels), (label,
                                                             view)
                assert indexed_fb.draw_calls == \
                    reference_fb.draw_calls, (label, view)

    def test_counter_frames_match_reference(self, tmp_path):
        for label, store in self.stores(tmp_path):
            if not store.counter_descriptions:
                continue
            for view in self.parity_views(store):
                for core in range(store.num_cores):
                    scalar = Framebuffer(view.width, view.height)
                    calls = render_reference.render_counter(
                        store, 0, view, scalar, core=core)
                    served = Framebuffer(view.width, view.height)
                    assert render_counter(store, 0, view, served,
                                          core=core) == calls, \
                        (label, view, core)
                    assert np.array_equal(served.pixels,
                                          scalar.pixels), (label, view,
                                                           core)

    def test_value_bounds_match_reference(self, tmp_path):
        for label, store in self.stores(tmp_path):
            if not store.counter_descriptions:
                continue
            expected = reference.counter_value_bounds(store, 0)
            assert value_bounds(store, 0) == expected, label
            # And the in-memory tree path agrees with the served one.
            from repro.core import MinMaxTree
            for core in range(store.num_cores):
                served = store.minmax_tree(core, 0)
                built = MinMaxTree(store.counter_samples(core, 0)[1])
                assert served.bounds() == built.bounds(), (label, core)
