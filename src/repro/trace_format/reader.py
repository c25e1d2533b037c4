"""Trace file reader.

Streams records from a (possibly compressed) trace file into a
:class:`repro.core.trace.TraceBuilder`, which assembles the
:class:`repro.core.columnar.ColumnarTrace`.  Structures may appear in any
order; unknown record types raise a :class:`FormatError` (the format is
versioned, so unknown tags indicate corruption rather than extensions).

The reader implements the format's *incremental* philosophy: a trace
that lacks memory accesses still loads and supports duration- and
counter-based analyses; a trace without counter samples still renders
every timeline mode (Section VI-A).

The record-parsing loop lives in :func:`parse_records` and is shared by
the full-file readers here, the constant-memory iterators in
:mod:`repro.trace_format.streaming` and the seek-to-window readers in
:mod:`repro.trace_format.chunked`.  A chunk-index footer (written by
:class:`repro.trace_format.writer.IndexedTraceWriter`) is recognized
and skipped transparently, so indexed files stay readable by every
sequential-scan code path.
"""

from __future__ import annotations

from ..core.events import (CounterDescription, RegionInfo, TaskTypeInfo,
                           TopologyInfo)
from ..core.trace import TraceBuilder
from . import format as fmt
from .compression import open_trace_file


class _Stream:
    """Buffered exact-size reads with EOF detection."""

    def __init__(self, stream):
        self.stream = stream

    def exactly(self, count):
        data = self.stream.read(count)
        if len(data) != count:
            raise fmt.FormatError("truncated trace file")
        return data

    def maybe_byte(self):
        data = self.stream.read(1)
        return data if data else None

    def string(self):
        (length,) = fmt.STRING_LENGTH.unpack(
            self.exactly(fmt.STRING_LENGTH.size))
        return self.exactly(length).decode("utf-8")


def check_header(stream):
    """Consume and validate the file header of a :class:`_Stream`."""
    magic, version = fmt.HEADER.unpack(stream.exactly(fmt.HEADER.size))
    if magic != fmt.MAGIC:
        raise fmt.FormatError("not an Aftermath trace (bad magic)")
    if version != fmt.VERSION:
        raise fmt.FormatError(
            "unsupported trace version {}".format(version))


def parse_records(stream):
    """Yield ``(kind, fields)`` for every record until EOF.

    ``stream`` is a :class:`_Stream` positioned after the file header
    (or at the start of a chunk).  ``kind`` is the builder method name
    for events (for example ``"state_interval"``) or ``"topology"`` /
    ``"counter_description"`` / ``"task_type"`` / ``"region"`` for
    static records, whose ``fields`` are the corresponding dataclasses.
    A chunk-index footer is validated and skipped, never yielded.
    """
    while True:
        tag_byte = stream.maybe_byte()
        if tag_byte is None:
            return
        (tag,) = fmt.TAG.unpack(tag_byte)
        if tag == fmt.RecordTag.TOPOLOGY:
            nodes, per_node = fmt.TOPOLOGY.unpack(
                stream.exactly(fmt.TOPOLOGY.size))
            yield "topology", TopologyInfo(
                num_nodes=nodes, cores_per_node=per_node,
                name=stream.string())
        elif tag == fmt.RecordTag.COUNTER_DESCRIPTION:
            counter_id, monotone = fmt.COUNTER_DESCRIPTION.unpack(
                stream.exactly(fmt.COUNTER_DESCRIPTION.size))
            yield "counter_description", CounterDescription(
                counter_id=counter_id, name=stream.string(),
                monotone=bool(monotone))
        elif tag == fmt.RecordTag.TASK_TYPE:
            type_id, address, line = fmt.TASK_TYPE.unpack(
                stream.exactly(fmt.TASK_TYPE.size))
            name = stream.string()
            source = stream.string()
            yield "task_type", TaskTypeInfo(
                type_id=type_id, name=name, address=address,
                source_file=source, source_line=line)
        elif tag == fmt.RecordTag.REGION:
            region_id, address, size, pages = fmt.REGION.unpack(
                stream.exactly(fmt.REGION.size))
            nodes = tuple(fmt.PAGE_NODE.unpack(
                stream.exactly(fmt.PAGE_NODE.size))[0]
                for __ in range(pages))
            yield "region", RegionInfo(
                region_id=region_id, address=address, size=size,
                page_nodes=nodes, name=stream.string())
        elif tag in (fmt.RecordTag.CHUNK_INDEX,
                     fmt.RecordTag.CHUNK_INDEX_V2):
            _skip_chunk_index(stream, tag == fmt.RecordTag.CHUNK_INDEX_V2)
        elif tag in _EVENT_DECODERS:
            structure, record = _EVENT_DECODERS[tag]
            yield record, structure.unpack(
                stream.exactly(structure.size))
        else:
            raise fmt.FormatError("unknown record tag {}".format(tag))


def _skip_chunk_index(stream, v2=False):
    """Consume a chunk-index footer (entries plus trailer) during a
    sequential scan.  The directory is only useful through the seeking
    readers in :mod:`repro.trace_format.chunked`."""
    if v2:
        count, __ = fmt.INDEX_HEADER_V2.unpack(
            stream.exactly(fmt.INDEX_HEADER_V2.size))
        stream.exactly(count * fmt.CHUNK_ENTRY_V2.size)
        expected_magic = fmt.INDEX_MAGIC_V2
    else:
        (count,) = fmt.INDEX_HEADER.unpack(
            stream.exactly(fmt.INDEX_HEADER.size))
        stream.exactly(count * fmt.CHUNK_ENTRY.size)
        expected_magic = fmt.INDEX_MAGIC
    __, magic = fmt.INDEX_TRAILER.unpack(
        stream.exactly(fmt.INDEX_TRAILER.size))
    if magic != expected_magic:
        raise fmt.FormatError("corrupt chunk-index trailer")


def read_trace(path, columnar=False, cache=None):
    """Load a trace file and return its
    :class:`~repro.core.columnar.ColumnarTrace`.

    Records are appended to the per-kind columns as they are parsed —
    no per-event objects, and no whole-file record buffering.
    ``columnar`` has no effect: every read returns the columnar store.
    It is still accepted because existing callers pass it.

    ``cache`` enables the memory-mapped columnar sidecar
    (:mod:`repro.trace_format.cache`): ``True`` uses the conventional
    ``.ostc`` path next to the trace, a string/path names it
    explicitly.  A fresh sidecar is mapped back in milliseconds
    (no parsing; pages load lazily); a missing, stale or corrupt one
    triggers a single parse that writes the sidecar through for the
    next open.
    """
    if cache:
        from .cache import (CacheError, default_cache_path,
                            load_cache, source_stamp, write_cache)
        cache_path = (default_cache_path(path) if cache is True
                      else str(cache))
        try:
            return load_cache(cache_path, source_path=path)
        except (OSError, CacheError):
            pass
        # Stamp the source *before* the (slow) parse: if the trace file
        # changes while parsing, the sidecar must come out stale, not
        # freshly stamped over wrong data.
        stamp = source_stamp(path)
        trace = read_trace(path)
        try:
            write_cache(trace, cache_path, stamp=stamp)
        except OSError:
            pass            # unwritable location: serve the parse
        return trace
    with open_trace_file(path, "rb") as raw:
        return read_trace_stream(raw)


def read_trace_stream(raw):
    """Load a trace from an open binary stream (header included)."""
    stream = _Stream(raw)
    check_header(stream)
    return build_trace(parse_records(stream))


def build_trace(records):
    """Fold an iterable of ``(kind, fields)`` pairs — the shape
    :func:`parse_records` yields — into a
    :class:`~repro.core.columnar.ColumnarTrace`.

    Shared by the full-file readers, the window extraction
    (:func:`repro.trace_format.streaming.build_window`) and the
    corruption-salvage path
    (:func:`repro.trace_format.chunked.salvage_trace`).  The builder
    tolerates a topology arriving anywhere, so events append to their
    columns as they are parsed.
    """
    builder = TraceBuilder()
    for kind, fields in records:
        if kind == "topology":
            builder.topology = fields
        elif kind == "counter_description":
            # Descriptions carry their id and may arrive in any order.
            if not builder.place_counter(fields):
                raise fmt.FormatError("counter {} described twice"
                                      .format(fields.counter_id))
        elif kind == "task_type":
            builder.describe_task_type(fields)
        elif kind == "region":
            builder.describe_region(fields)
        else:
            getattr(builder, kind)(*fields)
    if builder.topology is None:
        raise fmt.FormatError("trace has no topology record")
    return builder.build()


_EVENT_DECODERS = {
    fmt.RecordTag.STATE_INTERVAL: (fmt.STATE_INTERVAL, "state_interval"),
    fmt.RecordTag.TASK_EXECUTION: (fmt.TASK_EXECUTION, "task_execution"),
    fmt.RecordTag.COUNTER_SAMPLE: (fmt.COUNTER_SAMPLE, "counter_sample"),
    fmt.RecordTag.DISCRETE_EVENT: (fmt.DISCRETE_EVENT, "discrete_event"),
    fmt.RecordTag.COMM_EVENT: (fmt.COMM_EVENT, "comm_event"),
    fmt.RecordTag.MEMORY_ACCESS: (fmt.MEMORY_ACCESS, "memory_access"),
}
