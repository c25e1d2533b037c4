"""Parallel map-reduce over the records of one or N trace files.

The chunk index (``docs/trace-format.md``) makes a trace file
*shardable*: any subset of chunks can be parsed independently, so a
summary over whole files decomposes into

1. **map** — each worker process opens a file, seeks to its assigned
   chunks and folds their records into a fresh accumulator;
2. **reduce** — the driver merges the partial accumulators, file by
   file and in chunk order, into one result that is exactly equal to
   a serial fold over the concatenated record streams.

:func:`parallel_map_reduce` is the one driver; the three questions
asked of trace files — :func:`parallel_streaming_statistics`,
:func:`parallel_task_histogram` and :func:`parallel_comm_matrix` —
each take one path or a list of paths.  Any object with
``consume(kind, fields)`` and ``merge(other)`` works as an
accumulator; :class:`repro.trace_format.streaming.StreamingStatistics`
is the canonical one.  Accumulators and their factories cross process
boundaries, so both must be picklable (module-level classes,
:func:`functools.partial` of them, …).

A file without an index (compressed, or written before the index
existed) becomes one whole-file job — same results, no parallelism
within that file.  One worker, or a platform that cannot spawn
processes at all, runs the same jobs in the calling process, so
callers never need a fallback of their own.
"""

from __future__ import annotations

import functools
import multiprocessing
import os

import numpy as np

from ..trace_format.chunked import (iter_chunk_records,
                                    iter_preamble_records,
                                    read_chunk_index)
from ..trace_format.streaming import (StreamingStatistics,
                                      TaskHistogramAccumulator,
                                      fold_records, stream_records)

#: Shards handed to each worker; >1 smooths out uneven chunk costs.
SHARDS_PER_WORKER = 4


class CommMatrixAccumulator:
    """Mergeable core-to-core communication matrix.

    ``matrix[src, dst]`` accumulates the bytes carried by communication
    events from ``src`` to ``dst`` (the out-of-core analogue of the
    event-derived half of Fig. 15; the NUMA-placement half needs the
    in-memory region tables and stays with
    :func:`repro.core.statistics.communication_matrix`).
    """

    #: Only communication events are worth buffering (see
    #: :func:`repro.trace_format.streaming.fold_records`).
    batch_kinds = ("comm_event",)

    def __init__(self, num_cores):
        self.num_cores = num_cores
        self.matrix = np.zeros((num_cores, num_cores), dtype=np.int64)
        self.events = 0

    def consume(self, kind, fields):
        """Accumulate one communication event; others are ignored."""
        if kind != "comm_event":
            return
        src, dst, __, size, __task = fields
        self.matrix[src, dst] += size
        self.events += 1

    def consume_batch(self, kind, columns):
        """Vectorized :meth:`consume`: scatter-add a whole batch."""
        if kind != "comm_event" or not len(columns[0]):
            return
        src, dst, __, sizes, __tasks = columns
        np.add.at(self.matrix, (src, dst), sizes)
        self.events += len(src)

    def merge(self, other):
        """Add another accumulator's matrix and event count.  Matrices
        of different core counts raise ``ValueError`` (numpy would
        broadcast a 1x1 matrix into every cell)."""
        if other.matrix.shape != self.matrix.shape:
            raise ValueError(
                "cannot merge comm matrices of different topologies: "
                "{} vs {}".format(self.matrix.shape, other.matrix.shape))
        self.matrix += other.matrix
        self.events += other.events
        return self


def _trace_paths(paths):
    """``paths`` (one path or an iterable of paths) as a list of
    strings; an empty list is rejected."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    paths = [os.fspath(path) for path in paths]
    if not paths:
        raise ValueError("no trace files given")
    return paths


def _shard_records(stream, spans):
    """All records of one shard's chunks, in file order."""
    for entry in spans:
        for record in iter_chunk_records(stream, entry):
            yield record


def _scan(job):
    """Worker body: fold one job's records into a fresh accumulator.

    ``job`` is ``(path, factory, spans)``: ``spans`` is the shard of
    chunk entries assigned to this job, or ``None`` for a whole-file
    scan of an unindexed file.  Runs in a separate process, so it
    opens the file itself.
    """
    path, factory, spans = job
    if spans is None:
        return fold_records(stream_records(path), factory())
    with open(path, "rb") as stream:
        return fold_records(_shard_records(stream, spans), factory())


def _partition(entries, shards):
    """Split ``entries`` into at most ``shards`` contiguous, non-empty
    runs, preserving file order."""
    shards = max(1, min(shards, len(entries)))
    bounds = np.linspace(0, len(entries), shards + 1).astype(int)
    return [entries[bounds[i]:bounds[i + 1]]
            for i in range(shards)
            if bounds[i] < bounds[i + 1]]


def resolve_workers(workers, num_chunks):
    """Number of worker processes to use for ``num_chunks`` chunks."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, num_chunks))


def pooled_map(function, jobs, workers):
    """``[function(job) for job in jobs]`` on ``workers`` processes.

    One worker, one job, or a platform that cannot create a process
    pool all run the plain loop, with identical results.  Only pool
    *creation* errors trigger that fallback: an exception raised inside
    a worker body (a truncated file, a full disk) propagates instead of
    silently re-running every job serially.
    """
    workers = max(1, min(workers, len(jobs)))
    if workers == 1:
        return [function(job) for job in jobs]
    try:
        pool = multiprocessing.get_context().Pool(workers)
    except (OSError, ImportError, PermissionError):
        # Restricted sandboxes and missing semaphores still get
        # correct results.
        return [function(job) for job in jobs]
    with pool:
        return pool.map(function, jobs)


def parallel_map_reduce(paths, factory, workers=None):
    """Fold every record of one or N trace files into an accumulator.

    ``paths`` is one path or a list of paths.  ``factory`` builds an
    empty accumulator.  The driver folds each indexed file's static
    preamble itself, then one :func:`pooled_map` job list covers every
    file: an indexed file contributes its chunk shards (each chunk
    CRC-checked when the index carries checksums), an unindexed one a
    single whole-file scan.  Partials merge file by file, in chunk
    order within a file, so the result equals
    :func:`repro.trace_format.streaming.fold_records` over the
    concatenated record streams.  Returns the final accumulator.
    """
    paths = _trace_paths(paths)
    indexes = [read_chunk_index(path) for path in paths]
    workers = resolve_workers(workers, sum(
        1 if index is None else index.num_chunks for index in indexes))
    bases, jobs = [], []
    for path, index in zip(paths, indexes):
        base = factory()
        if index is None:
            shards = [None]
        else:
            with open(path, "rb") as stream:
                fold_records(iter_preamble_records(stream, index), base)
            shards = _partition(list(index.entries),
                                workers * SHARDS_PER_WORKER)
        bases.append((base, len(jobs), len(jobs) + len(shards)))
        jobs.extend((path, factory, spans) for spans in shards)
    partials = pooled_map(_scan, jobs, workers)
    total = factory()
    for base, first, last in bases:
        total.merge(base)
        for partial in partials[first:last]:
            total.merge(partial)
    return total


def parallel_streaming_statistics(paths, workers=None):
    """Summary :class:`StreamingStatistics` of one or N trace files,
    computed by ``workers`` processes."""
    return parallel_map_reduce(paths, StreamingStatistics,
                               workers=workers)


def parallel_task_histogram(paths, bins, value_range, workers=None):
    """Task-duration histogram of one or N trace files with fixed bin
    edges; returns ``(edges, counts)``.

    ``value_range = (lo, hi)`` must be given up front (one pass cannot
    know the duration range in advance); durations outside it are
    clamped into the edge bins.
    """
    factory = functools.partial(TaskHistogramAccumulator, bins,
                                value_range)
    accumulator = parallel_map_reduce(paths, factory, workers=workers)
    return accumulator.edges, accumulator.counts


def _num_cores(path):
    """Core count from the topology record of a trace file."""
    for kind, fields in stream_records(path):
        if kind == "topology":
            return fields.num_cores
    raise ValueError("trace has no topology record")


def parallel_comm_matrix(paths, workers=None):
    """Core-to-core communication-byte matrix summed over one or N
    trace files.

    Every file must have the same core count: the matrices add
    entrywise, and :meth:`CommMatrixAccumulator.merge` raises
    ``ValueError`` on a mismatch.
    """
    paths = _trace_paths(paths)
    # Merging the files' empty matrices is the core-count check.
    empty = functools.reduce(CommMatrixAccumulator.merge, [
        CommMatrixAccumulator(_num_cores(path)) for path in paths])
    factory = functools.partial(CommMatrixAccumulator, empty.num_cores)
    accumulator = parallel_map_reduce(paths, factory, workers=workers)
    return accumulator.matrix
