"""Trace file writer.

Serializes an in-memory :class:`repro.core.columnar.ColumnarTrace` (or
raw records) to the binary format.  Event records are written per core
in timestamp order — satisfying the format's only ordering
requirement — but records of different cores and different types are
interleaved freely, as the format allows (Section VI-A).

Two writers are provided:

* :class:`TraceWriter` — the plain sequential writer;
* :class:`IndexedTraceWriter` — additionally cuts the event stream into
  fixed-size chunks and appends a seekable chunk-index footer (see
  ``docs/trace-format.md``) so that readers can jump straight to the
  chunks overlapping a time window instead of scanning the whole file.
  This is the write-side half of the out-of-core engine in
  :mod:`repro.trace_format.chunked` and :mod:`repro.analysis.parallel`.
"""

from __future__ import annotations

import heapq
import zlib

from . import format as fmt
from .compression import codec_for_path, open_trace_file

#: Default number of event records per indexed chunk.  Small enough
#: that a narrow time window touches few bytes, large enough that the
#: per-chunk directory entry (41 bytes) stays negligible.
DEFAULT_CHUNK_RECORDS = 4096


class TraceWriter:
    """Low-level record writer over a binary stream."""

    def __init__(self, stream):
        self.stream = stream
        self.records_written = 0
        header = fmt.HEADER.pack(fmt.MAGIC, fmt.VERSION)
        stream.write(header)
        self.position = len(header)

    def _record(self, tag, payload, span=None, core=None):
        """Append one record.  ``span`` is the inclusive time range
        covered by an event record (``None`` for static records);
        ``core`` is the originating core, when meaningful.  Both are
        ignored here and consumed by :class:`IndexedTraceWriter`."""
        self._emit(fmt.TAG.pack(int(tag)) + payload, span=span, core=core)

    def _emit(self, data, span=None, core=None):
        """Write one composed record; the single point subclasses hook
        to account chunk ranges and checksums over the exact bytes."""
        self.stream.write(data)
        self.position += len(data)
        self.records_written += 1

    def finish(self):
        """Finalize the trace.  The plain writer has no footer, so this
        is a no-op; :class:`IndexedTraceWriter` writes its index here."""
        return self.records_written

    def topology(self, info):
        """Write the machine topology record (:class:`TopologyInfo`)."""
        self._record(fmt.RecordTag.TOPOLOGY,
                     fmt.TOPOLOGY.pack(info.num_nodes, info.cores_per_node)
                     + fmt.pack_string(info.name))

    def counter_description(self, description):
        """Write one :class:`CounterDescription` record."""
        self._record(fmt.RecordTag.COUNTER_DESCRIPTION,
                     fmt.COUNTER_DESCRIPTION.pack(
                         description.counter_id,
                         1 if description.monotone else 0)
                     + fmt.pack_string(description.name))

    def task_type(self, info):
        """Write one :class:`TaskTypeInfo` record."""
        self._record(fmt.RecordTag.TASK_TYPE,
                     fmt.TASK_TYPE.pack(info.type_id, info.address,
                                        info.source_line)
                     + fmt.pack_string(info.name)
                     + fmt.pack_string(info.source_file))

    def region(self, info):
        """Write one :class:`RegionInfo` record with its page placement."""
        payload = fmt.REGION.pack(info.region_id, info.address, info.size,
                                  len(info.page_nodes))
        payload += b"".join(fmt.PAGE_NODE.pack(node)
                            for node in info.page_nodes)
        payload += fmt.pack_string(info.name)
        self._record(fmt.RecordTag.REGION, payload)

    def state_interval(self, core, state, start, end):
        """Record that ``core`` was in ``state`` during [start, end)."""
        self._record(fmt.RecordTag.STATE_INTERVAL,
                     fmt.STATE_INTERVAL.pack(core, state, start, end),
                     span=(start, end), core=core)

    def task_execution(self, task_id, type_id, core, start, end):
        """Record one task execution interval on ``core``."""
        self._record(fmt.RecordTag.TASK_EXECUTION,
                     fmt.TASK_EXECUTION.pack(task_id, type_id, core,
                                             start, end),
                     span=(start, end), core=core)

    def counter_sample(self, core, counter_id, timestamp, value):
        """Record one hardware-counter sample."""
        self._record(fmt.RecordTag.COUNTER_SAMPLE,
                     fmt.COUNTER_SAMPLE.pack(core, counter_id, timestamp,
                                             value),
                     span=(timestamp, timestamp), core=core)

    def discrete_event(self, core, kind, timestamp, payload):
        """Record one discrete (point) event."""
        self._record(fmt.RecordTag.DISCRETE_EVENT,
                     fmt.DISCRETE_EVENT.pack(core, kind, timestamp,
                                             payload),
                     span=(timestamp, timestamp), core=core)

    def comm_event(self, src_core, dst_core, timestamp, size, task_id):
        """Record a communication event of ``size`` bytes between cores."""
        self._record(fmt.RecordTag.COMM_EVENT,
                     fmt.COMM_EVENT.pack(src_core, dst_core, timestamp,
                                         size, task_id),
                     span=(timestamp, timestamp), core=src_core)

    def memory_access(self, task_id, core, address, size, is_write,
                      timestamp):
        """Record one memory access of ``size`` bytes by ``task_id``."""
        self._record(fmt.RecordTag.MEMORY_ACCESS,
                     fmt.MEMORY_ACCESS.pack(task_id, core, address, size,
                                            1 if is_write else 0,
                                            timestamp),
                     span=(timestamp, timestamp), core=core)


class IndexedTraceWriter(TraceWriter):
    """Trace writer that maintains a seekable chunk index.

    Records are grouped into chunks of ``chunk_records`` records.
    Static records written before the first event form the *preamble*,
    which readers always load; a static record that arrives after
    chunking has started joins the current chunk — opening a fresh one
    if none is open, so no record can fall into an unindexed gap — and
    marks it with :data:`~repro.trace_format.format.CHUNK_HAS_STATIC`
    so no reader can skip it.  Call :meth:`finish` (or use the writer
    as a context manager) to emit the index footer — an unfinished
    indexed trace is still a valid, merely unindexed, trace file.

    Every chunk's bytes — and the preamble's — are checksummed as they
    are written, and the footer uses the version-2 directory layout
    that stores one CRC32 per entry.  Readers then detect corrupted or
    truncated chunks before mis-parsing them, and the salvage path
    (:func:`repro.trace_format.chunked.salvage_records`) can recover
    the verified prefix of a damaged file.  Version-1 footers are read
    but no longer written.
    """

    def __init__(self, stream, chunk_records=DEFAULT_CHUNK_RECORDS):
        if chunk_records < 1:
            raise ValueError("chunk_records must be positive")
        super().__init__(stream)
        self.chunk_records = chunk_records
        self.entries = []
        self._preamble_crc = 0
        self._chunk_crc = 0
        self._chunking_started = False
        self._chunk_start = None
        self._chunk_records = 0
        self._chunk_t_min = None
        self._chunk_t_max = None
        self._chunk_core = fmt.MIXED_CORES
        self._chunk_flags = 0
        self._finished = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.finish()

    def _emit(self, data, span=None, core=None):
        offset = self.position
        super()._emit(data, span=span, core=core)
        if span is None and not self._chunking_started:
            # Preamble static record.
            self._preamble_crc = zlib.crc32(data, self._preamble_crc)
            return
        self._chunking_started = True
        if self._chunk_start is None:
            self._open_chunk(offset)
        self._chunk_crc = zlib.crc32(data, self._chunk_crc)
        if span is None:
            self._chunk_flags |= fmt.CHUNK_HAS_STATIC
        else:
            t_lo, t_hi = span
            if self._chunk_t_min is None:
                self._chunk_t_min = t_lo
                self._chunk_t_max = t_hi
                self._chunk_core = (fmt.MIXED_CORES if core is None
                                    else core)
            else:
                self._chunk_t_min = min(self._chunk_t_min, t_lo)
                self._chunk_t_max = max(self._chunk_t_max, t_hi)
                if core is None or core != self._chunk_core:
                    self._chunk_core = fmt.MIXED_CORES
        self._chunk_records += 1
        if self._chunk_records >= self.chunk_records:
            self._close_chunk()

    def _open_chunk(self, offset):
        self._chunk_start = offset
        self._chunk_records = 0
        self._chunk_flags = 0
        self._chunk_crc = 0
        self._chunk_t_min = None
        self._chunk_t_max = None
        self._chunk_core = fmt.MIXED_CORES

    def _close_chunk(self):
        if self._chunk_start is None:
            return
        if self._chunk_t_min is None:
            # Static-only chunk: an empty time range never overlaps a
            # window, but CHUNK_HAS_STATIC forces readers to visit it.
            t_min, t_max = 0, -1
        else:
            t_min, t_max = self._chunk_t_min, self._chunk_t_max
        self.entries.append((self._chunk_start,
                             self.position - self._chunk_start,
                             t_min, t_max,
                             self._chunk_records, self._chunk_core,
                             self._chunk_flags, self._chunk_crc))
        self._chunk_start = None
        self._chunk_records = 0
        self._chunk_flags = 0
        self._chunk_crc = 0

    def finish(self):
        """Close the open chunk and append the index footer.  Returns
        the number of data records written (the footer is not a data
        record).  Idempotent."""
        if self._finished:
            return self.records_written
        self._close_chunk()
        index_offset = self.position
        footer = [fmt.TAG.pack(int(fmt.RecordTag.CHUNK_INDEX_V2)),
                  fmt.INDEX_HEADER_V2.pack(len(self.entries),
                                           self._preamble_crc)]
        footer.extend(fmt.CHUNK_ENTRY_V2.pack(*entry)
                      for entry in self.entries)
        footer.append(fmt.INDEX_TRAILER.pack(index_offset,
                                             fmt.INDEX_MAGIC_V2))
        data = b"".join(footer)
        self.stream.write(data)
        self.position += len(data)
        self._finished = True
        return self.records_written


def write_trace(trace, path, index="auto",
                chunk_records=DEFAULT_CHUNK_RECORDS):
    """Serialize a :class:`~repro.core.columnar.ColumnarTrace` to
    ``path`` (compressed if the suffix says so).  Returns the number
    of records written.

    ``index`` controls the seekable chunk index: ``True`` to append it,
    ``False`` to skip it, or ``"auto"`` (the default) to append it
    exactly when the file is uncompressed — compressed streams are not
    seekable, so an index inside them could never be used.
    """
    if index == "auto":
        index = codec_for_path(path) is None
    with open_trace_file(path, "wb") as stream:
        if index:
            writer = IndexedTraceWriter(stream,
                                        chunk_records=chunk_records)
        else:
            writer = TraceWriter(stream)
        _write_records(writer, trace)
        return writer.finish()


def _write_records(writer, trace):
    """Emit every record of ``trace`` through ``writer`` — static
    tables first, then all event lanes merged into one global
    timestamp order.

    The format only requires per-core order, which each sorted lane
    already satisfies; the global merge is for the chunk index.  If
    lanes were written one core after another, every chunk's time
    range would span nearly the whole execution and a windowed reader
    could skip almost nothing.  Interleaving keeps each chunk's
    [t_min, t_max] narrow, which is what makes seek-to-window pay off.
    """
    writer.topology(trace.topology)
    for description in trace.counter_descriptions:
        writer.counter_description(description)
    for info in trace.task_types:
        writer.task_type(info)
    for info in trace.regions:
        writer.region(info)
    for __, method, args in heapq.merge(*_event_lanes(trace)):
        getattr(writer, method)(*args)


def _event_lanes(trace):
    """One sorted ``(timestamp, method, args)`` generator per event
    lane of ``trace``, ready for :func:`heapq.merge`."""

    def states(core):
        lane = trace.states.core_slice(core)
        columns = trace.states.columns
        for index in range(lane.start, lane.stop):
            yield (int(columns["start"][index]), "state_interval",
                   (int(columns["core"][index]),
                    int(columns["state"][index]),
                    int(columns["start"][index]),
                    int(columns["end"][index])))

    def tasks(core):
        lane = trace.tasks.core_slice(core)
        columns = trace.tasks.columns
        for index in range(lane.start, lane.stop):
            yield (int(columns["start"][index]), "task_execution",
                   (int(columns["task_id"][index]),
                    int(columns["type_id"][index]),
                    int(columns["core"][index]),
                    int(columns["start"][index]),
                    int(columns["end"][index])))

    def counters(core, counter_id):
        timestamps, values = trace.counter_series[(core, counter_id)]
        for index in range(len(timestamps)):
            yield (int(timestamps[index]), "counter_sample",
                   (core, counter_id, int(timestamps[index]),
                    float(values[index])))

    def discrete(core):
        lane = trace.discrete.core_slice(core)
        columns = trace.discrete.columns
        for index in range(lane.start, lane.stop):
            yield (int(columns["timestamp"][index]), "discrete_event",
                   (int(columns["core"][index]),
                    int(columns["kind"][index]),
                    int(columns["timestamp"][index]),
                    int(columns["payload"][index])))

    def comm():
        columns = trace.comm          # already sorted by timestamp
        for index in range(len(columns["timestamp"])):
            yield (int(columns["timestamp"][index]), "comm_event",
                   (int(columns["src_core"][index]),
                    int(columns["dst_core"][index]),
                    int(columns["timestamp"][index]),
                    int(columns["size"][index]),
                    int(columns["task_id"][index])))

    def accesses():
        columns = trace.accesses      # sorted by task, not by time
        order = sorted(range(len(columns["timestamp"])),
                       key=lambda i: int(columns["timestamp"][i]))
        for index in order:
            yield (int(columns["timestamp"][index]), "memory_access",
                   (int(columns["task_id"][index]),
                    int(columns["core"][index]),
                    int(columns["address"][index]),
                    int(columns["size"][index]),
                    bool(columns["is_write"][index]),
                    int(columns["timestamp"][index])))

    lanes = []
    for core in range(trace.num_cores):
        lanes.extend((states(core), tasks(core), discrete(core)))
    for core, counter_id in sorted(trace.counter_series):
        lanes.append(counters(core, counter_id))
    lanes.append(comm())
    lanes.append(accesses())
    return lanes
