"""Cross-format conformance harness: property-based round trips
through every registered trace source, plus registry dispatch.

The contract under test is the PR's tentpole: any trace written to a
foreign format and ingested back through the registry must preserve
everything the format can express.  Chrome trace-event JSON is
self-describing here (an ``otherData.repro`` block), so its round trip
is *exact* (:func:`traces_equal`).  Paraver is documented-lossy in
exactly three ways — memory accesses and data regions have no record
type, and task-type address/source metadata has no PCF field — so its
round trip is asserted column-exact on every event kind after
normalizing that metadata away.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import state_time_summary, traces_equal
from repro.trace_format import (FormatError, detect_source,
                                export_chrome, export_paraver,
                                import_chrome, import_paraver,
                                ingest_trace, registered_sources,
                                write_trace)
from trace_gen import make_random_trace

SLOW = settings(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

EVENT_TABLES = ("states", "tasks", "discrete")


def strip_paraver_lossy(trace):
    """A copy of ``trace``'s metadata normalized to what the Paraver
    dialect can express, for exact comparison against an import."""
    return {
        "task_types": [replace(info, address=0, source_file="",
                               source_line=0)
                       for info in trace.task_types],
        "counters": list(trace.counter_descriptions),
        "shape": (trace.topology.num_nodes,
                  trace.topology.cores_per_node),
    }


def assert_event_columns_equal(expected, actual):
    for table in EVENT_TABLES:
        expected_store = getattr(expected, table)
        actual_store = getattr(actual, table)
        assert len(actual_store) == len(expected_store), table
        for name, column in expected_store.columns.items():
            assert np.array_equal(actual_store.columns[name],
                                  column), (table, name)
    for name, column in expected.comm.items():
        assert np.array_equal(actual.comm[name], column), ("comm", name)
    assert sorted(actual.counter_series) == \
        sorted(expected.counter_series)
    for key, (times, values) in expected.counter_series.items():
        actual_times, actual_values = actual.counter_series[key]
        assert np.array_equal(times, actual_times)
        assert np.array_equal(values, actual_values)


class TestParaverRoundTrip:
    @given(seed=st.integers(0, 200), sparse=st.booleans())
    @SLOW
    def test_event_data_survives(self, seed, sparse, tmp_path):
        trace = make_random_trace(seed, sparse=sparse)
        path = tmp_path / "rt_{}.prv".format(seed)
        export_paraver(trace, str(path))
        back = import_paraver(str(path))
        assert_event_columns_equal(trace, back)
        expected = strip_paraver_lossy(trace)
        assert back.task_types == expected["task_types"]
        assert back.counter_descriptions == expected["counters"]
        assert (back.topology.num_nodes,
                back.topology.cores_per_node) == expected["shape"]
        if len(trace.states):
            assert (back.begin, back.end) == (trace.begin, trace.end)
            assert state_time_summary(back) == state_time_summary(trace)

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_second_generation_identical(self, seed, tmp_path):
        """prv -> native -> prv is a fixed point: the second export
        must be byte-identical to the first (ingestion is stable)."""
        trace = make_random_trace(seed, events_per_core=15)
        first = tmp_path / "gen1.prv"
        second = tmp_path / "gen2.prv"
        export_paraver(trace, str(first))
        export_paraver(import_paraver(str(first)), str(second))
        assert first.read_text() == second.read_text()


class TestChromeRoundTrip:
    @given(seed=st.integers(0, 200), sparse=st.booleans())
    @SLOW
    def test_exact_round_trip(self, seed, sparse, tmp_path):
        trace = make_random_trace(seed, sparse=sparse)
        path = tmp_path / "rt_{}.json".format(seed)
        export_chrome(trace, str(path))
        assert traces_equal(import_chrome(str(path)), trace)

    @given(seed=st.integers(0, 200))
    @SLOW
    def test_gzip_variant(self, seed, tmp_path):
        trace = make_random_trace(seed, events_per_core=15)
        path = tmp_path / "rt.json.gz"
        export_chrome(trace, str(path))
        assert traces_equal(import_chrome(str(path)), trace)

    def test_foreign_file_without_metadata(self, tmp_path):
        """A Chrome file from another tool (no ``otherData.repro``)
        still ingests: µs timestamps scale to cycles, (pid, tid)
        pairs become cores, B/E pairs become tasks."""
        import json
        path = tmp_path / "foreign.json"
        events = [
            {"ph": "X", "ts": 10.0, "dur": 5.0, "pid": 1, "tid": 1,
             "name": "work"},
            {"ph": "B", "ts": 20.0, "pid": 1, "tid": 2, "name": "load"},
            {"ph": "E", "ts": 29.0, "pid": 1, "tid": 2, "name": "load"},
            {"ph": "C", "ts": 12.0, "pid": 1, "tid": 1, "name": "mem",
             "args": {"value": 7}},
            {"ph": "i", "ts": 15.0, "pid": 1, "tid": 1, "name": "mark"},
        ]
        path.write_text(json.dumps({"traceEvents": events}))
        trace = ingest_trace(str(path))
        assert len(trace.tasks) == 2
        assert trace.num_cores == 2
        assert [info.name for info in trace.task_types] == \
            ["work", "load"]
        assert len(trace.counter_series) == 1

    def test_bare_array_document(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"ph": "X", "ts": 1.0, "dur": 2.0, '
                        '"pid": 0, "tid": 0, "name": "t"}]')
        assert len(import_chrome(str(path)).tasks) == 1


class TestRegistryDispatch:
    def test_sources_registered_in_priority_order(self):
        assert [source.name for source in registered_sources()] == \
            ["native", "paraver", "chrome"]

    @pytest.mark.parametrize("writer,suffix,expected", [
        (write_trace, ".ost", "native"),
        (export_paraver, ".prv", "paraver"),
        (export_chrome, ".json", "chrome"),
    ])
    def test_detects_each_format(self, writer, suffix, expected,
                                 tmp_path):
        trace = make_random_trace(0, events_per_core=5)
        path = tmp_path / ("probe" + suffix)
        writer(trace, str(path))
        assert detect_source(str(path)).name == expected

    def test_detection_reads_content_not_suffix(self, tmp_path):
        """A Paraver file with a misleading suffix still dispatches by
        its header, not its name."""
        trace = make_random_trace(1, events_per_core=5)
        honest = tmp_path / "t.prv"
        export_paraver(trace, str(honest))
        lying = tmp_path / "t.ost"
        lying.write_text(honest.read_text())
        assert detect_source(str(lying)).name == "paraver"

    def test_ingest_equivalent_to_direct_import(self, tmp_path):
        trace = make_random_trace(2, events_per_core=10)
        path = tmp_path / "t.json"
        export_chrome(trace, str(path))
        assert traces_equal(ingest_trace(str(path)),
                            import_chrome(str(path)))

    def test_forced_source_overrides_sniffing(self, tmp_path):
        trace = make_random_trace(3, events_per_core=5)
        path = tmp_path / "t.json"
        export_chrome(trace, str(path))
        assert traces_equal(ingest_trace(str(path), source="chrome"),
                            trace)

    def test_unknown_forced_source_raises(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[]")
        with pytest.raises(FormatError):
            ingest_trace(str(path), source="vampir")

    @pytest.mark.parametrize("body", [
        b"",
        b"garbage that is no trace at all\n",
        b"\x00\x01\x02\x03 binary junk",
        b"{\"events\": []}",          # JSON but not a Chrome trace
    ])
    def test_unrecognized_content_raises(self, body, tmp_path):
        path = tmp_path / "mystery.dat"
        path.write_bytes(body)
        with pytest.raises(FormatError):
            ingest_trace(str(path))

    def test_missing_file_raises_format_error(self, tmp_path):
        """Unreadable paths surface as FormatError too, so callers
        have a single exception type to catch around ingestion."""
        with pytest.raises(FormatError):
            ingest_trace(str(tmp_path / "absent.ost"))

    def test_columnar_ingest(self, tmp_path):
        from repro.core.columnar import ColumnarTrace
        trace = make_random_trace(4, events_per_core=10)
        path = tmp_path / "t.prv"
        export_paraver(trace, str(path))
        columnar = ingest_trace(str(path))
        assert isinstance(columnar, ColumnarTrace)
        assert len(columnar.tasks) == len(trace.tasks)

    def test_malformed_chrome_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"traceEvents": [')
        with pytest.raises(FormatError):
            ingest_trace(str(path))


class TestAnalysisParity:
    """The acceptance bar of the tentpole: statistics, anomaly scans
    and rendered timelines must be identical on ingested traces."""

    def test_render_identical_on_every_format(self, tmp_path):
        from repro.render import (StateMode, TimelineView,
                                  render_timeline)
        trace = make_random_trace(7)
        view = TimelineView.fit(trace, 320, 4 * trace.num_cores)
        reference = render_timeline(trace, StateMode(), view).pixels
        for export, suffix in ((export_paraver, ".prv"),
                               (export_chrome, ".json")):
            path = tmp_path / ("render" + suffix)
            export(trace, str(path))
            pixels = render_timeline(ingest_trace(str(path)),
                                     StateMode(), view).pixels
            assert np.array_equal(pixels, reference), suffix

    def test_chrome_statistics_and_scan_identical(self, tmp_path):
        from repro.core import interval_report, scan
        trace = make_random_trace(8)
        path = tmp_path / "parity.json"
        export_chrome(trace, str(path))
        back = ingest_trace(str(path))
        assert interval_report(back).describe() == \
            interval_report(trace).describe()
        assert [(a.kind, a.start, a.end, a.severity)
                for a in scan(back)] == \
            [(a.kind, a.start, a.end, a.severity)
             for a in scan(trace)]

    def test_paraver_scan_identical_without_accesses(self, tmp_path):
        """On a trace without memory accesses (the one record kind
        Paraver cannot carry) the anomaly scan matches exactly."""
        from repro.analysis.experiments import wavefront_trace
        from repro.core import scan
        __, trace = wavefront_trace(scale="small", seed=0,
                                    collect_accesses=False)
        path = tmp_path / "parity.prv"
        export_paraver(trace, str(path))
        back = ingest_trace(str(path))
        assert [(a.kind, a.start, a.end, a.severity, a.description)
                for a in scan(back)] == \
            [(a.kind, a.start, a.end, a.severity, a.description)
             for a in scan(trace)]
