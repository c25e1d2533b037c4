"""Tests for the seekable chunk index and the parallel analysis engine.

Covers the acceptance criteria of the out-of-core work: index
round-trips, seek-to-window equivalence with the full-scan path,
graceful fallback on unindexed files, strictly-fewer-bytes window
extraction on a million-event trace, and bit-identical parallel
map-reduce results.
"""

import itertools
import os
import pathlib

import numpy as np
import pytest

from repro.analysis import (CommMatrixAccumulator, TaskHistogramAccumulator,
                            parallel_comm_matrix, parallel_map_reduce,
                            parallel_streaming_statistics,
                            parallel_task_histogram)
from repro.core import (interval_report, interval_report_out_of_core,
                        state_time_summary_out_of_core, traces_equal)
from repro.trace_format import (CorruptChunkError, IndexedTraceWriter,
                                ScanStats, StreamingStatistics,
                                build_window, fold_records,
                                read_chunk_index, read_trace,
                                split_time_window, stream_records,
                                write_synthetic_trace, write_trace)
from repro.trace_format import format as fmt


def serial_fold(paths, accumulator):
    """The serial reference: one fold over the files' record streams,
    independent of the sharding driver."""
    records = itertools.chain.from_iterable(
        stream_records(str(path)) for path in paths)
    return fold_records(records, accumulator)


def serial_statistics(*paths):
    return serial_fold(paths, StreamingStatistics())


@pytest.fixture(scope="module")
def indexed_seidel(seidel_trace_small, tmp_path_factory):
    """The simulated seidel trace written with a small chunk size, so
    even the tiny test trace spans many chunks."""
    path = tmp_path_factory.mktemp("chunked") / "seidel.ost"
    write_trace(seidel_trace_small, str(path), chunk_records=256)
    return str(path)


@pytest.fixture(scope="module")
def synthetic_medium(tmp_path_factory):
    """A 120k-event synthetic trace for merge-correctness tests."""
    path = tmp_path_factory.mktemp("synth") / "medium.ost"
    write_synthetic_trace(str(path), events=120_000)
    return str(path)


@pytest.fixture(scope="module")
def synthetic_large(tmp_path_factory):
    """The >= 1M-event trace of the acceptance criteria."""
    path = tmp_path_factory.mktemp("synth") / "large.ost"
    records = write_synthetic_trace(str(path), events=1_000_000)
    assert records >= 1_000_000
    return str(path)


class TestChunkIndexRoundTrip:
    def test_index_present_and_covers_all_events(self, indexed_seidel):
        index = read_chunk_index(indexed_seidel)
        assert index is not None
        assert index.num_chunks > 1
        # Every record outside the preamble is owned by exactly one
        # chunk: chunks are contiguous and end at the index footer.
        previous_end = index.preamble_offset + index.preamble_length
        for entry in index.entries:
            assert entry.offset == previous_end
            previous_end = entry.offset + entry.length
        assert previous_end == index.index_offset

    def test_indexed_file_loads_like_plain(self, seidel_trace_small,
                                           indexed_seidel, tmp_path):
        plain = tmp_path / "plain.ost"
        write_trace(seidel_trace_small, str(plain), index=False)
        assert read_chunk_index(str(plain)) is None
        indexed = read_trace(indexed_seidel)
        unindexed = read_trace(str(plain))
        assert len(indexed.tasks) == len(unindexed.tasks)
        assert len(indexed.states) == len(unindexed.states)
        assert indexed.task_types == unindexed.task_types

    def test_stream_records_skips_footer(self, indexed_seidel,
                                         seidel_trace_small, tmp_path):
        plain = tmp_path / "plain.ost"
        expected = write_trace(seidel_trace_small, str(plain),
                               index=False)
        count = sum(1 for __ in stream_records(indexed_seidel))
        assert count == expected

    def test_record_counts_match_index(self, indexed_seidel):
        index = read_chunk_index(indexed_seidel)
        events = sum(1 for kind, __ in stream_records(indexed_seidel)
                     if kind not in ("topology", "counter_description",
                                     "task_type", "region"))
        assert index.num_records == events

    def test_compressed_file_has_no_index(self, seidel_trace_small,
                                          tmp_path):
        path = tmp_path / "seidel.ost.gz"
        write_trace(seidel_trace_small, str(path))
        assert read_chunk_index(str(path)) is None

    def test_static_after_events_flags_chunk(self, tmp_path):
        from repro.core.events import TaskTypeInfo, TopologyInfo
        path = tmp_path / "static.ost"
        with open(path, "wb") as stream:
            with IndexedTraceWriter(stream, chunk_records=8) as writer:
                writer.topology(TopologyInfo(num_nodes=1,
                                             cores_per_node=2,
                                             name="flag"))
                for i in range(4):
                    writer.state_interval(0, 0, 10 * i, 10 * i + 5)
                writer.task_type(TaskTypeInfo(
                    type_id=0, name="late", address=0,
                    source_file="x.c", source_line=1))
                for i in range(4):
                    writer.state_interval(1, 0, 10 * i, 10 * i + 5)
        index = read_chunk_index(str(path))
        assert any(entry.has_static for entry in index.entries)
        # A window far away from every event still sees the late
        # static record, because flagged chunks are never skipped.
        window = split_time_window(str(path), 10**9, 10**9 + 1)
        assert any(info.name == "late" for info in window.task_types)

    def test_static_at_exact_chunk_boundary(self, tmp_path):
        """A static record arriving just as a chunk closed must open a
        new flagged chunk, not fall into an unindexed gap."""
        from repro.core.events import TaskTypeInfo, TopologyInfo
        path = tmp_path / "boundary.ost"
        with open(path, "wb") as stream:
            with IndexedTraceWriter(stream, chunk_records=4) as writer:
                writer.topology(TopologyInfo(num_nodes=1,
                                             cores_per_node=2,
                                             name="boundary"))
                for i in range(4):          # fills chunk 0 exactly
                    writer.state_interval(0, 0, 10 * i, 10 * i + 5)
                writer.task_type(TaskTypeInfo(
                    type_id=0, name="boundary_type", address=0,
                    source_file="x.c", source_line=1))
                for i in range(4):
                    writer.state_interval(1, 0, 10 * i, 10 * i + 5)
        index = read_chunk_index(str(path))
        # Chunks stay contiguous: no byte between the preamble and the
        # footer escapes the directory.
        previous_end = index.preamble_offset + index.preamble_length
        for entry in index.entries:
            assert entry.offset == previous_end
            previous_end = entry.offset + entry.length
        assert previous_end == index.index_offset
        window = split_time_window(str(path), 10**9, 10**9 + 1)
        assert any(info.name == "boundary_type"
                   for info in window.task_types)

    def test_write_trace_interleaves_lanes(self, seidel_trace_small,
                                           indexed_seidel):
        """Events are written in global timestamp order (not one core
        lane after another), so chunk time ranges stay narrow and a
        narrow window skips most of a simulator-written file."""
        index = read_chunk_index(indexed_seidel)
        spans = [entry.t_max - entry.t_min for entry in index.entries]
        duration = seidel_trace_small.duration
        median_span = sorted(spans)[len(spans) // 2]
        assert median_span < duration // 4


class TestSeekToWindow:
    @pytest.mark.parametrize("fraction", [(0, 4), (1, 3), (3, 4)])
    def test_equivalent_to_full_scan(self, seidel_trace_small,
                                     indexed_seidel, fraction):
        trace = seidel_trace_small
        offset, denominator = fraction
        start = trace.begin + trace.duration * offset // denominator
        end = start + trace.duration // denominator
        seek = split_time_window(indexed_seidel, start, end)
        scan = build_window(stream_records(indexed_seidel), start, end)
        assert len(seek.tasks) > 0
        assert traces_equal(seek, scan)

    def test_narrow_window_skips_chunks(self, seidel_trace_small,
                                        indexed_seidel):
        trace = seidel_trace_small
        stats = ScanStats()
        split_time_window(indexed_seidel, trace.begin,
                          trace.begin + trace.duration // 10,
                          stats=stats)
        assert stats.used_index
        assert stats.chunks_skipped > 0
        assert stats.bytes_read < os.path.getsize(indexed_seidel)

    def test_unindexed_fallback(self, seidel_trace_small, tmp_path):
        path = tmp_path / "seidel.ost.gz"
        write_trace(seidel_trace_small, str(path))
        trace = seidel_trace_small
        mid = trace.begin + trace.duration // 2
        stats = ScanStats()
        window = split_time_window(str(path), trace.begin, mid,
                                   stats=stats)
        assert not stats.used_index
        expected = ((trace.tasks.columns["start"] < mid)
                    & (trace.tasks.columns["end"] > trace.begin)).sum()
        assert len(window.tasks) == expected


class TestLargeTraceBytes:
    """Acceptance: indexed window extraction on a >= 1M-event trace
    reads strictly fewer bytes than a full scan."""

    def test_window_reads_strictly_fewer_bytes(self, synthetic_large):
        file_size = os.path.getsize(synthetic_large)
        bounds = serial_statistics(synthetic_large)
        start = bounds.begin + (bounds.end - bounds.begin) // 2
        end = start + (bounds.end - bounds.begin) // 100
        stats = ScanStats()
        window = split_time_window(synthetic_large, start, end,
                                   stats=stats)
        assert stats.used_index
        assert stats.bytes_read < file_size          # strictly fewer
        # The narrow window should skip the vast majority of the file.
        assert stats.bytes_read < file_size // 2
        assert len(window.tasks) > 0
        # Chunk-granular seeking loses nothing relative to a full scan.
        scan = build_window(stream_records(synthetic_large), start, end)
        assert traces_equal(window, scan)

    def test_large_parallel_matches_serial(self, synthetic_large):
        serial = serial_statistics(synthetic_large)
        parallel = parallel_streaming_statistics(synthetic_large,
                                                 workers=2)
        assert parallel == serial


class TestParallelMapReduce:
    def test_statistics_bit_identical(self, synthetic_medium):
        serial = serial_statistics(synthetic_medium)
        parallel = parallel_streaming_statistics(synthetic_medium,
                                                 workers=2)
        # Dataclass equality compares every accumulator field.
        assert parallel == serial
        assert parallel.records == serial.records
        assert parallel.counter_extremes == serial.counter_extremes

    def test_single_worker_in_process(self, synthetic_medium):
        serial = serial_statistics(synthetic_medium)
        assert parallel_streaming_statistics(synthetic_medium,
                                             workers=1) == serial

    def test_unindexed_file_serial_fallback(self, seidel_trace_small,
                                            tmp_path):
        path = tmp_path / "seidel.ost.gz"
        write_trace(seidel_trace_small, str(path))
        serial = serial_statistics(str(path))
        assert parallel_streaming_statistics(str(path),
                                             workers=2) == serial

    def test_histogram_identical(self, synthetic_medium):
        value_range = (0, 25_000)
        edges, counts = parallel_task_histogram(synthetic_medium, 16,
                                                value_range, workers=2)
        expected = fold_records(stream_records(synthetic_medium),
                                TaskHistogramAccumulator(16, value_range))
        assert (edges == expected.edges).all()
        assert (counts == expected.counts).all()
        assert counts.sum() > 0

    def test_comm_matrix_identical_to_direct_scan(self,
                                                  synthetic_medium):
        matrix = parallel_comm_matrix(synthetic_medium, workers=2)
        expected = None
        for kind, fields in stream_records(synthetic_medium):
            if kind == "topology":
                cores = fields.num_cores
                expected = np.zeros((cores, cores), dtype=np.int64)
            elif kind == "comm_event":
                src, dst, __, size, __task = fields
                expected[src, dst] += size
        assert (matrix == expected).all()
        assert matrix.sum() > 0

    def test_custom_accumulator_protocol(self, synthetic_medium):
        acc = parallel_map_reduce(
            synthetic_medium,
            lambda: StreamingStatistics(), workers=1)
        assert acc.total_tasks > 0

    def test_comm_matrix_merge_rejects_shape_mismatch(self):
        """A 1x1 matrix must not broadcast into every cell of a 4x4."""
        wide, narrow = CommMatrixAccumulator(4), CommMatrixAccumulator(1)
        narrow.matrix[0, 0] = 7
        with pytest.raises(ValueError, match="different topologies"):
            wide.merge(narrow)
        with pytest.raises(ValueError, match="different topologies"):
            narrow.merge(wide)
        assert wide.matrix.sum() == 0

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError, match="no trace files"):
            parallel_streaming_statistics([])

    def test_accumulator_validation(self):
        with pytest.raises(ValueError):
            TaskHistogramAccumulator(0, (0, 10))
        with pytest.raises(ValueError):
            TaskHistogramAccumulator(4, (10, 10))

    def test_merge_is_exact_over_random_splits(self, synthetic_medium):
        records = list(stream_records(synthetic_medium))
        serial = StreamingStatistics()
        for kind, fields in records:
            serial.consume(kind, fields)
        merged = StreamingStatistics()
        for lo, hi in ((0, 1), (1, 7), (7, len(records) // 3),
                       (len(records) // 3, len(records))):
            part = StreamingStatistics()
            for kind, fields in records[lo:hi]:
                part.consume(kind, fields)
            merged.merge(part)
        assert merged == serial


class TestCoreWiring:
    def test_state_summary_out_of_core(self, seidel_trace_small,
                                       indexed_seidel):
        from repro.core import state_time_summary
        summary = state_time_summary_out_of_core(indexed_seidel,
                                                 workers=2)
        assert summary == state_time_summary(seidel_trace_small)

    def test_streaming_state_summary(self, indexed_seidel,
                                     seidel_trace_small):
        from repro.core import state_time_summary
        assert serial_statistics(indexed_seidel).state_cycles \
            == state_time_summary(seidel_trace_small)

    def test_interval_report_out_of_core(self, seidel_trace_small,
                                         indexed_seidel):
        trace = seidel_trace_small
        start = trace.begin + trace.duration // 4
        end = trace.begin + trace.duration // 2
        report = interval_report_out_of_core(indexed_seidel, start, end)
        expected = interval_report(trace, start, end)
        assert report.tasks == expected.tasks
        assert report.state_cycles == expected.state_cycles
        assert report.average_parallelism \
            == pytest.approx(expected.average_parallelism)


class TestFormatEdges:
    def test_corrupt_trailer_magic_means_no_index(self, synthetic_medium,
                                                  tmp_path):
        data = bytearray(open(synthetic_medium, "rb").read())
        data[-4] ^= 0xFF
        path = tmp_path / "corrupt.ost"
        path.write_bytes(bytes(data))
        assert read_chunk_index(str(path)) is None

    def test_truncated_index_offset_rejected(self, synthetic_medium,
                                             tmp_path):
        data = bytearray(open(synthetic_medium, "rb").read())
        trailer = fmt.INDEX_TRAILER.pack(len(data) + 10, fmt.INDEX_MAGIC)
        path = tmp_path / "bad_offset.ost"
        path.write_bytes(bytes(data[:-len(trailer)]) + trailer)
        with pytest.raises(fmt.FormatError):
            read_chunk_index(str(path))

    def test_tiny_file_has_no_index(self, tmp_path):
        path = tmp_path / "tiny.ost"
        path.write_bytes(b"AFTM")
        assert read_chunk_index(str(path)) is None


@pytest.fixture(scope="module")
def damaged_pair(tmp_path_factory):
    """A clean CRC-indexed 20k-event trace and a copy with one byte
    flipped inside one chunk."""
    directory = tmp_path_factory.mktemp("damaged")
    clean = str(directory / "clean.ost")
    write_synthetic_trace(clean, events=20_000)
    index = read_chunk_index(clean)
    assert index.crc_checked and index.num_chunks > 2
    entry = index.entries[1]
    data = bytearray(open(clean, "rb").read())
    data[entry.offset + entry.length // 2] ^= 0xFF
    damaged = directory / "damaged.ost"
    damaged.write_bytes(bytes(data))
    return clean, str(damaged)


class TestCorruptChunk:
    """Every whole-file pass checks chunk CRCs: a flipped byte raises
    instead of skewing a sum."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_statistics_raise(self, damaged_pair, workers):
        __, damaged = damaged_pair
        with pytest.raises(CorruptChunkError):
            parallel_streaming_statistics(damaged, workers=workers)

    def test_histogram_and_comm_matrix_raise(self, damaged_pair):
        __, damaged = damaged_pair
        with pytest.raises(CorruptChunkError):
            parallel_task_histogram(damaged, 8, (0, 1000), workers=1)
        with pytest.raises(CorruptChunkError):
            parallel_comm_matrix(damaged, workers=1)

    def test_interval_report_without_bounds_raises(self, damaged_pair):
        __, damaged = damaged_pair
        with pytest.raises(CorruptChunkError):
            interval_report_out_of_core(damaged)

    def test_two_file_fold_raises(self, damaged_pair):
        clean, damaged = damaged_pair
        with pytest.raises(CorruptChunkError):
            parallel_streaming_statistics([clean, damaged], workers=1)


@pytest.fixture(scope="module")
def mixed_pair(tmp_path_factory):
    """One indexed ``.ost`` and one unindexed ``.ost.gz`` trace with the
    same 16-core topology but different events."""
    directory = tmp_path_factory.mktemp("mixed")
    indexed = directory / "indexed.ost"
    compressed = directory / "compressed.ost.gz"
    write_synthetic_trace(str(indexed), events=6_000, seed=1,
                          chunk_records=500)
    write_synthetic_trace(str(compressed), events=4_000, seed=2)
    assert read_chunk_index(str(indexed)).num_chunks > 4
    assert read_chunk_index(str(compressed)) is None
    return indexed, compressed


class TestManyFiles:
    """One fold over an indexed and an unindexed file equals the serial
    fold over both record streams, for every accumulator."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_statistics(self, mixed_pair, workers):
        folded = parallel_streaming_statistics(list(mixed_pair),
                                               workers=workers)
        assert folded == serial_statistics(*mixed_pair)
        assert folded.records == sum(
            serial_statistics(path).records for path in mixed_pair)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_histogram(self, mixed_pair, workers):
        edges, counts = parallel_task_histogram(
            list(mixed_pair), 12, (0, 20_000), workers=workers)
        expected = serial_fold(mixed_pair,
                               TaskHistogramAccumulator(12, (0, 20_000)))
        assert np.array_equal(edges, expected.edges)
        assert np.array_equal(counts, expected.counts)
        assert counts.sum() > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_comm_matrix(self, mixed_pair, workers):
        matrix = parallel_comm_matrix(list(mixed_pair), workers=workers)
        expected = serial_fold(mixed_pair, CommMatrixAccumulator(16))
        assert np.array_equal(matrix, expected.matrix)
        assert matrix.sum() > 0

    def test_one_path_equals_a_list_of_one(self, mixed_pair):
        indexed, __ = mixed_pair
        assert isinstance(indexed, pathlib.Path)
        assert (parallel_streaming_statistics(indexed, workers=1)
                == parallel_streaming_statistics([str(indexed)],
                                                 workers=1))
