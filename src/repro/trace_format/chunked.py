"""Chunk-granular trace reading through the seekable index.

The paper's conclusion names "the out-of-core processing of large
traces" as future work: Aftermath loads whole traces into memory, so
every windowed query on a bigger-than-RAM trace would pay a full-file
scan.  This module is the read side of the chunk index written by
:class:`repro.trace_format.writer.IndexedTraceWriter`:

* :func:`read_chunk_index` — load the footer directory of per-core
  time-range -> file-offset entries (``None`` when the file has no
  index, e.g. compressed or pre-index traces);
* :func:`iter_chunk_records` — parse exactly one chunk;
* :func:`stream_window_records` — yield the preamble plus every chunk
  overlapping a time window, seeking past the rest.  Falls back to a
  full sequential scan on unindexed files, so callers never need to
  know whether an index is present;
* :class:`ScanStats` — bytes/chunks touched, the currency of the
  out-of-core engine ("how much of the file did this query read?").

Chunk granularity is deliberately coarse: entries only promise that
every record *outside* their time range is skippable, so callers must
still filter individual records — exactly what
:func:`repro.trace_format.streaming.split_time_window` does anyway.
"""

from __future__ import annotations

import io
import os
import zlib
from dataclasses import dataclass
from typing import Optional

from . import format as fmt
from .compression import codec_for_path
from .reader import _Stream, build_trace, parse_records


@dataclass(frozen=True)
class ChunkEntry:
    """One directory entry: where a chunk lives and what it covers.

    ``crc`` is the CRC32 of the chunk's bytes when the file carries a
    version-2 index, ``None`` for legacy version-1 directories (no
    verification possible)."""

    offset: int
    length: int
    t_min: int
    t_max: int
    records: int
    core: int               # fmt.MIXED_CORES when records span cores
    flags: int
    crc: Optional[int] = None

    @property
    def has_static(self):
        """Whether the chunk holds static records and must always be
        read, whatever the requested window."""
        return bool(self.flags & fmt.CHUNK_HAS_STATIC)

    def overlaps(self, start, end):
        """Whether any record in the chunk may intersect
        ``[start, end)``."""
        return self.t_min < end and self.t_max >= start


@dataclass(frozen=True)
class ChunkIndex:
    """The parsed footer directory of an indexed trace file."""

    entries: tuple
    preamble_offset: int    # first byte after the file header
    preamble_length: int    # static records before the first chunk
    index_offset: int       # where the footer begins
    preamble_crc: Optional[int] = None   # v2 directories only

    @property
    def crc_checked(self):
        """Whether the directory carries per-chunk checksums."""
        return self.preamble_crc is not None

    @property
    def num_chunks(self):
        """Number of chunks in the directory."""
        return len(self.entries)

    @property
    def num_records(self):
        """Total records covered by the chunks (preamble excluded)."""
        return sum(entry.records for entry in self.entries)

    def select(self, start, end):
        """The entries a window query over ``[start, end)`` must read."""
        return [entry for entry in self.entries
                if entry.has_static or entry.overlaps(start, end)]


@dataclass
class ScanStats:
    """How much of a trace file a query actually touched."""

    bytes_read: int = 0
    chunks_read: int = 0
    chunks_skipped: int = 0
    used_index: bool = False

    def account(self, nbytes):
        """Add ``nbytes`` to the bytes-read tally."""
        self.bytes_read += nbytes


def read_chunk_index(path):
    """Load the chunk index of ``path``, or ``None`` if absent.

    Absent means: the file is compressed (not seekable), too small to
    hold a trailer, or simply ends without the index magic — a plain
    pre-index trace.  Corruption *inside* a present index raises
    :class:`~repro.trace_format.format.FormatError`.
    """
    if codec_for_path(path) is not None:
        return None
    file_size = os.path.getsize(path)
    if file_size < fmt.HEADER.size + fmt.INDEX_TRAILER.size:
        return None
    with open(path, "rb") as stream:
        stream.seek(file_size - fmt.INDEX_TRAILER.size)
        index_offset, magic = fmt.INDEX_TRAILER.unpack(
            stream.read(fmt.INDEX_TRAILER.size))
        if magic not in (fmt.INDEX_MAGIC, fmt.INDEX_MAGIC_V2):
            return None
        v2 = magic == fmt.INDEX_MAGIC_V2
        if index_offset < fmt.HEADER.size or index_offset >= file_size:
            raise fmt.FormatError("chunk-index offset out of range")
        stream.seek(index_offset)
        reader = _Stream(stream)
        (tag,) = fmt.TAG.unpack(reader.exactly(fmt.TAG.size))
        expected_tag = (fmt.RecordTag.CHUNK_INDEX_V2 if v2
                        else fmt.RecordTag.CHUNK_INDEX)
        if tag != expected_tag:
            raise fmt.FormatError("chunk-index trailer points to tag {}"
                                  .format(tag))
        preamble_crc = None
        if v2:
            count, preamble_crc = fmt.INDEX_HEADER_V2.unpack(
                reader.exactly(fmt.INDEX_HEADER_V2.size))
            entries = tuple(
                ChunkEntry(*fmt.CHUNK_ENTRY_V2.unpack(
                    reader.exactly(fmt.CHUNK_ENTRY_V2.size)))
                for __ in range(count))
        else:
            (count,) = fmt.INDEX_HEADER.unpack(
                reader.exactly(fmt.INDEX_HEADER.size))
            entries = tuple(
                ChunkEntry(*fmt.CHUNK_ENTRY.unpack(
                    reader.exactly(fmt.CHUNK_ENTRY.size)))
                for __ in range(count))
    preamble_offset = fmt.HEADER.size
    first_chunk = entries[0].offset if entries else index_offset
    return ChunkIndex(entries=entries,
                      preamble_offset=preamble_offset,
                      preamble_length=first_chunk - preamble_offset,
                      index_offset=index_offset,
                      preamble_crc=preamble_crc)


def _read_span(stream, offset, length, stats=None, crc=None):
    """Read ``length`` bytes at ``offset`` and parse them as records.

    With ``crc`` given (a version-2 directory entry), the bytes are
    checksummed before parsing: a mismatch — or a short read, the
    truncation case — raises
    :class:`~repro.trace_format.format.CorruptChunkError` instead of
    mis-parsing garbage into records."""
    stream.seek(offset)
    data = stream.read(length)
    if len(data) != length:
        raise fmt.CorruptChunkError(
            "truncated trace chunk at offset {} ({} of {} bytes)"
            .format(offset, len(data), length), offset=offset)
    if crc is not None:
        actual = zlib.crc32(data)
        if actual != crc:
            raise fmt.CorruptChunkError(
                "chunk CRC mismatch at offset {} (stored {:#010x}, "
                "computed {:#010x})".format(offset, crc, actual),
                offset=offset, expected=crc, actual=actual)
    if stats is not None:
        stats.account(length)
    return parse_records(_Stream(io.BytesIO(data)))


def iter_chunk_records(stream, entry, stats=None):
    """Yield ``(kind, fields)`` for the records of one chunk.

    ``stream`` is the open binary trace file (uncompressed).  Used both
    by the window reader below and by the per-worker shard scans in
    :mod:`repro.analysis.parallel`.  Chunks of CRC-carrying (v2)
    indexes are verified; a damaged chunk raises
    :class:`~repro.trace_format.format.CorruptChunkError`.
    """
    if stats is not None:
        stats.chunks_read += 1
    return _read_span(stream, entry.offset, entry.length, stats,
                      crc=entry.crc)


def iter_preamble_records(stream, index, stats=None):
    """Yield the static records written before the first chunk."""
    if index.preamble_length == 0:
        return iter(())
    return _read_span(stream, index.preamble_offset,
                      index.preamble_length, stats,
                      crc=index.preamble_crc)


def stream_window_records(path, start, end, stats=None):
    """Yield ``(kind, fields)`` for a time-window query on ``path``.

    With an index present, this seeks: the preamble and every chunk
    overlapping ``[start, end)`` are read, everything else is skipped
    (chunk granularity — records outside the window may still be
    yielded and must be filtered by the caller).  Without an index the
    whole file is scanned, so the function is safe on any trace file.
    ``stats``, if given, is a :class:`ScanStats` filled in either case.
    """
    index = read_chunk_index(path)
    if index is None:
        # Backward-compatible path: unindexed or compressed file.
        from .streaming import stream_records
        if stats is not None:
            stats.used_index = False
            stats.account(os.path.getsize(path))
        yield from stream_records(path)
        return
    if stats is not None:
        stats.used_index = True
    selected = index.select(start, end)
    if stats is not None:
        stats.chunks_skipped = index.num_chunks - len(selected)
    with open(path, "rb") as stream:
        yield from iter_preamble_records(stream, index, stats)
        for entry in selected:
            yield from iter_chunk_records(stream, entry, stats)


# --- corruption tolerance: verification and salvage -------------------------


@dataclass(frozen=True)
class TraceVerification:
    """The outcome of a :func:`verify_trace` integrity pass."""

    ok: bool
    indexed: bool
    crc_checked: bool           # False for v1/unindexed files
    chunks_ok: int = 0
    chunks_bad: int = 0
    reason: str = ""

    def describe(self):
        """One human-readable line."""
        if self.ok:
            detail = ("{} chunk(s) CRC-verified".format(self.chunks_ok)
                      if self.crc_checked else "no checksums to verify")
            return "ok ({})".format(detail)
        return "CORRUPT: {}".format(self.reason)


@dataclass(frozen=True)
class SalvageReport:
    """What :func:`salvage_records` recovered from a damaged file."""

    records_recovered: int
    chunks_recovered: int
    chunks_dropped: int
    complete: bool              # nothing was dropped
    reason: str = ""            # why salvage stopped, when it did

    def describe(self):
        """One human-readable line."""
        if self.complete:
            return "complete ({} records)".format(self.records_recovered)
        return ("recovered {} records / {} chunk(s), dropped {} "
                "chunk(s): {}".format(self.records_recovered,
                                      self.chunks_recovered,
                                      self.chunks_dropped, self.reason))


def verify_trace(path):
    """Check the integrity of a trace file without building a store.

    Indexed files with a version-2 (CRC-carrying) directory get every
    chunk and the preamble checksummed; version-1 and unindexed files
    get a full parse pass (structural validation only — no checksums
    to compare).  Returns a :class:`TraceVerification`; never raises
    on corruption, only on unreadable paths (``OSError``).
    """
    try:
        index = read_chunk_index(path)
    except fmt.FormatError as error:
        return TraceVerification(ok=False, indexed=True,
                                 crc_checked=False,
                                 reason="bad chunk index: {}".format(
                                     error))
    if index is None or not index.crc_checked:
        try:
            from .streaming import stream_records
            for __ in stream_records(path):
                pass
        except fmt.FormatError as error:
            return TraceVerification(ok=False, indexed=index is not None,
                                     crc_checked=False,
                                     reason=str(error))
        return TraceVerification(ok=True, indexed=index is not None,
                                 crc_checked=False)
    chunks_ok = 0
    with open(path, "rb") as stream:
        spans = [(index.preamble_offset, index.preamble_length,
                  index.preamble_crc)]
        spans.extend((entry.offset, entry.length, entry.crc)
                     for entry in index.entries)
        for offset, length, crc in spans:
            if length == 0:
                continue
            stream.seek(offset)
            data = stream.read(length)
            if len(data) != length or zlib.crc32(data) != crc:
                return TraceVerification(
                    ok=False, indexed=True, crc_checked=True,
                    chunks_ok=chunks_ok,
                    chunks_bad=len(index.entries) + 1 - chunks_ok,
                    reason="chunk at offset {} failed its CRC check"
                    .format(offset))
            chunks_ok += 1
    return TraceVerification(ok=True, indexed=True, crc_checked=True,
                             chunks_ok=chunks_ok)


def salvage_records(path):
    """Yield the verified-prefix records of a damaged trace file.

    Returns ``(records, report_box)`` where ``records`` is a generator
    of ``(kind, fields)`` pairs and ``report_box`` is a single-element
    list that holds the :class:`SalvageReport` once the generator is
    exhausted (the totals are only known at the end).

    Recovery policy — the *complete verified prefix*:

    * CRC-indexed files: the preamble plus every chunk, in file order,
      up to (not including) the first chunk that fails its CRC or
      cannot be read in full;
    * v1-indexed and unindexed files: a sequential parse up to the
      first malformed record (truncation recovery without checksums).

    A corrupt preamble is unrecoverable (the static tables live
    there); the generator then yields nothing and the report says so.
    """
    report_box = [None]
    return _salvage_iter(path, report_box), report_box


def _salvage_iter(path, report_box):
    index = None
    if codec_for_path(path) is None:
        try:
            index = read_chunk_index(path)
        except fmt.FormatError:
            index = None            # damaged footer: sequential rescue
    records = 0
    if index is not None and index.crc_checked:
        chunks = 0
        dropped = 0
        reason = ""
        with open(path, "rb") as stream:
            try:
                for kind_fields in iter_preamble_records(stream, index):
                    records += 1
                    yield kind_fields
            except fmt.FormatError as error:
                report_box[0] = SalvageReport(
                    records_recovered=0, chunks_recovered=0,
                    chunks_dropped=len(index.entries) + 1,
                    complete=False,
                    reason="preamble corrupt, nothing to salvage "
                           "({})".format(error))
                return
            for position, entry in enumerate(index.entries):
                try:
                    chunk_records = list(
                        iter_chunk_records(stream, entry))
                except fmt.FormatError as error:
                    dropped = len(index.entries) - position
                    reason = str(error)
                    break
                chunks += 1
                for kind_fields in chunk_records:
                    records += 1
                    yield kind_fields
        report_box[0] = SalvageReport(
            records_recovered=records, chunks_recovered=chunks,
            chunks_dropped=dropped, complete=dropped == 0,
            reason=reason)
        return
    # No usable checksums: parse sequentially and keep every record
    # that decodes before the first malformed one.
    from .streaming import stream_records
    reason = ""
    complete = True
    iterator = stream_records(path)
    while True:
        try:
            kind_fields = next(iterator)
        except StopIteration:
            break
        except fmt.FormatError as error:
            complete = False
            reason = str(error)
            break
        records += 1
        yield kind_fields
    report_box[0] = SalvageReport(
        records_recovered=records, chunks_recovered=0,
        chunks_dropped=0 if complete else 1, complete=complete,
        reason=reason)


def salvage_trace(path):
    """Build a trace store from the verified prefix of a damaged file.

    Returns ``(trace, report)``.  Raises
    :class:`~repro.trace_format.format.FormatError` when nothing
    usable survives (for example a corrupt preamble: without the
    static tables there is no trace to build).
    """
    records, report_box = salvage_records(path)
    trace = build_trace(records)
    return trace, report_box[0]
