"""Extension — seekable chunk index and parallel out-of-core analysis.

Mapping: docs/paper-mapping.md (extensions beyond the paper).

The paper's conclusion announces work on "the out-of-core processing
of large traces".  This bench quantifies the two halves of that engine
on a multi-million-event synthetic trace:

* window extraction through the chunk index vs. the full-file scan —
  the indexed path must touch a small fraction of the file's bytes;
* the sharded map-reduce statistics pass at 2 workers vs. 1 —
  identical results (both equal to a serial ``fold_records`` over the
  record stream), bounded memory, parallel throughput;
* full-trace statistics on the columnar store (vectorized array
  passes) vs. the reference walk over its per-event dataclasses —
  bit-identical results, required to be at least 5x faster.
"""

import os
import time

import numpy as np
import pytest

from figutils import write_result
from repro.analysis import parallel_streaming_statistics
from repro.core import reference, statistics
from repro.trace_format import (ScanStats, StreamingStatistics,
                                build_window, fold_records,
                                read_chunk_index, read_trace,
                                split_time_window, stream_records,
                                write_synthetic_trace)

_EVENTS = {"small": 100_000, "default": 1_000_000, "paper": 4_000_000}


@pytest.fixture(scope="module")
def big_trace(scale, tmp_path_factory):
    events = _EVENTS.get(scale, _EVENTS["default"])
    path = tmp_path_factory.mktemp("ooc") / "big.ost"
    records = write_synthetic_trace(str(path), events=events)
    bounds = fold_records(stream_records(str(path)),
                          StreamingStatistics())
    return str(path), records, bounds


def test_indexed_window_extraction(benchmark, big_trace):
    path, records, bounds = big_trace
    span = bounds.end - bounds.begin
    start = bounds.begin + span // 2
    end = start + span // 100

    window = benchmark(split_time_window, path, start, end)
    assert len(window.tasks) > 0

    # Byte accounting in a single fresh pass — the benchmark loop above
    # would accumulate stats over every timing round.
    stats = ScanStats()
    split_time_window(path, start, end, stats=stats)
    assert stats.used_index
    file_size = os.path.getsize(path)
    index = read_chunk_index(path)
    write_result("ext_outofcore_window", [
        "Extension: indexed window extraction (paper conclusion:",
        "'out-of-core processing of large traces')",
        "trace: {} records, {} bytes, {} chunks".format(
            records, file_size, index.num_chunks),
        "1% window read {} of {} bytes ({:.1%}), skipped {} chunks"
        .format(stats.bytes_read, file_size,
                stats.bytes_read / file_size, stats.chunks_skipped),
    ])


def test_full_scan_window_baseline(benchmark, big_trace):
    """The same extraction without the index: every byte is read."""
    path, __, bounds = big_trace
    span = bounds.end - bounds.begin
    start = bounds.begin + span // 2
    window = benchmark.pedantic(
        lambda: build_window(stream_records(path), start,
                             start + span // 100),
        rounds=3, iterations=1)
    assert len(window.tasks) > 0


def test_parallel_statistics(benchmark, big_trace):
    path, __, bounds = big_trace
    stats = benchmark.pedantic(parallel_streaming_statistics, rounds=3,
                               iterations=1, args=(path,),
                               kwargs={"workers": 2})
    assert stats == bounds        # bit-identical to the serial pass
    write_result("ext_outofcore_parallel", [
        "Extension: sharded map-reduce statistics",
        "parallel result identical to serial streaming pass: True",
        stats.describe().splitlines()[0],
    ])


def test_serial_statistics_baseline(benchmark, big_trace):
    path, __, bounds = big_trace
    stats = benchmark.pedantic(parallel_streaming_statistics, rounds=3,
                               iterations=1, args=(path,),
                               kwargs={"workers": 1})
    assert stats == bounds


def _dataclass_walk_statistics(trace):
    """Full-trace statistics via the per-event dataclass iterators."""
    return (reference.state_time_summary(trace),
            reference.average_parallelism(trace),
            reference.task_duration_histogram(trace, bins=20))


def _columnar_statistics(trace):
    """The same statistics as vectorized array passes."""
    return (statistics.state_time_summary(trace),
            statistics.average_parallelism(trace),
            statistics.task_duration_histogram(trace, bins=20))


def test_columnar_vs_object_statistics(big_trace):
    """Tentpole criterion: full-trace statistics as vectorized passes
    over the columnar store must be at least 5x faster than the
    reference walk over the same store's per-event dataclasses, with
    bit-identical results.  (Asserted loosely — the measured ratio is
    usually far higher; see the written result.)"""
    path, __, __bounds = big_trace
    columnar = read_trace(path)

    t0 = time.perf_counter()
    walk_results = _dataclass_walk_statistics(columnar)
    walk_seconds = time.perf_counter() - t0

    columnar_seconds = min(
        _timed(_columnar_statistics, columnar)[0] for __ in range(5))
    columnar_results = _columnar_statistics(columnar)

    assert walk_results[0] == columnar_results[0]
    assert walk_results[1] == columnar_results[1]
    assert np.array_equal(walk_results[2][0], columnar_results[2][0])
    assert np.array_equal(walk_results[2][1], columnar_results[2][1])

    speedup = walk_seconds / columnar_seconds
    write_result("ext_columnar_statistics", [
        "Extension: columnar store (one structured array per core and",
        "per record kind) vs. per-event dataclass iteration over it,",
        "full-trace statistics (state summary, parallelism, histogram)",
        "trace: {} states, {} tasks".format(len(columnar.states),
                                            len(columnar.tasks)),
        "dataclass walk: {:.3f} s".format(walk_seconds),
        "columnar:     {:.4f} s".format(columnar_seconds),
        "speedup: {:.0f}x (required: >= 5x), results bit-identical"
        .format(speedup),
    ])
    assert speedup >= 5.0


def _timed(function, *args):
    t0 = time.perf_counter()
    result = function(*args)
    return time.perf_counter() - t0, result
