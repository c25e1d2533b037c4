"""Property-based round-trips for the trace format and columnar store.

A seeded random trace generator (``trace_gen.py``) drives
write -> read -> compare over every record kind, across plain,
compressed and chunk-indexed files, time windows and the mapped
``.ostc`` sidecar.  The oracle is :func:`repro.core.traces_equal`,
which compares record multisets exactly (including counter-sample
floats).
"""

import numpy as np
import pytest

from repro.core import traces_equal
from repro.trace_format import (build_window, load_cache,
                                read_chunk_index, read_trace,
                                split_time_window, stream_records,
                                write_cache, write_trace)
from trace_gen import make_random_trace

SEEDS = range(6)


@pytest.fixture(scope="module", params=SEEDS)
def random_trace(request):
    return make_random_trace(request.param)


class TestFileRoundTrip:
    @pytest.mark.parametrize("suffix,index", [
        ("plain.ost", False),
        ("indexed.ost", True),
        ("compressed.ost.gz", False),
    ])
    def test_write_read_preserves_every_record(self, random_trace,
                                               tmp_path, suffix, index):
        path = str(tmp_path / suffix)
        write_trace(random_trace, path, index=index, chunk_records=64)
        assert traces_equal(read_trace(path), random_trace)

    def test_columnar_reader_equals_object_reader(self, random_trace,
                                                  tmp_path):
        """``read_trace``'s ``columnar`` flag has no effect: either
        value reads the same store."""
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        columnar = read_trace(path, columnar=True)
        assert traces_equal(columnar, read_trace(path))
        assert traces_equal(columnar, random_trace)

    def test_indexed_file_has_an_index(self, random_trace, tmp_path):
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, index=True, chunk_records=64)
        assert read_chunk_index(path) is not None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sparse_traces_round_trip(self, seed, tmp_path):
        """The format is incremental: traces missing whole record
        kinds still round-trip exactly."""
        trace = make_random_trace(seed, sparse=True)
        path = str(tmp_path / "sparse.ost")
        write_trace(trace, path, chunk_records=64)
        assert traces_equal(read_trace(path), trace)


class TestColumnarConversion:
    def test_equality_is_actually_discriminating(self, random_trace):
        other = make_random_trace(10_001)
        assert not traces_equal(random_trace, other)


class TestWindowExtraction:
    def test_columnar_window_equals_object_window(self, random_trace,
                                                  tmp_path):
        """The chunk-seeking window equals the full-scan fold and the
        zero-copy slice of the in-memory store."""
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        span = random_trace.end - random_trace.begin
        start = random_trace.begin + span // 4
        end = start + max(span // 3, 1)
        window = split_time_window(path, start, end)
        assert traces_equal(random_trace.slice_time_window(start, end),
                            window)
        assert traces_equal(
            build_window(stream_records(path), start, end), window)


class TestMappedCache:
    """The ``.ostc`` sidecar: lossless round trip, and the mapped store
    must be indistinguishable from the parsed one."""

    def test_cache_round_trip_preserves_every_record(self, random_trace,
                                                     tmp_path):
        cache_path = str(tmp_path / "trace.ostc")
        write_cache(random_trace, cache_path)
        assert traces_equal(load_cache(cache_path), random_trace)

    def test_sparse_traces_round_trip_through_cache(self, tmp_path):
        for seed in SEEDS:
            trace = make_random_trace(seed, sparse=True)
            cache_path = str(tmp_path / "sparse_{}.ostc".format(seed))
            write_cache(trace, cache_path)
            assert traces_equal(load_cache(cache_path), trace)

    def test_mapped_store_equals_parsed_store(self, random_trace,
                                              tmp_path):
        """Every analysis surface gives bit-identical answers on the
        memory-mapped store and the freshly parsed columnar store."""
        from repro.core import statistics
        from repro.core.anomalies import scan
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        parsed = read_trace(path)
        mapped = read_trace(path, cache=True)   # writes, then maps
        mapped = read_trace(path, cache=True)   # second open: the map
        assert traces_equal(mapped, parsed)
        assert mapped.begin == parsed.begin and mapped.end == parsed.end
        assert (statistics.interval_report(mapped).describe()
                == statistics.interval_report(parsed).describe())
        assert scan(mapped) == scan(parsed)
        assert np.array_equal(
            statistics.communication_matrix(mapped),
            statistics.communication_matrix(parsed))

    def test_window_slice_equals_split_time_window(self, random_trace,
                                                   tmp_path):
        path = str(tmp_path / "trace.ost")
        write_trace(random_trace, path, chunk_records=64)
        read_trace(path, cache=True)            # writes the sidecar
        mapped = read_trace(path, cache=True)   # the actual memmap
        base = mapped.states.lane(0).base
        while base is not None and not isinstance(base, np.memmap):
            base = base.base          # views chain through plain ndarrays
        assert base is not None
        span = random_trace.end - random_trace.begin
        for lo_num, hi_num in ((0, 4), (1, 3), (2, 4), (0, 1)):
            start = random_trace.begin + span * lo_num // 4
            end = random_trace.begin + max(span * hi_num // 4,
                                           span * lo_num // 4 + 1)
            window = split_time_window(path, start, end)
            assert traces_equal(mapped.slice_time_window(start, end),
                                window)
            assert traces_equal(
                split_time_window(path, start, end, cache=True), window)
