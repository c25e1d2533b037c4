"""Binary trace format: record tags and encodings (Section VI-A).

Aftermath traces are organized as streams of data structures: events
(state changes, hardware counters, communication and discrete events),
topological information about the machine, counter descriptions and the
NUMA placement of memory regions.  Design properties reproduced here:

* records may appear in *any order* — only the per-core timestamp order
  of events must hold, so workers can flush buffers independently
  without a global sort at collection time;
* the format is *incremental*: any record type may be missing, and
  analyses degrade gracefully (no accesses -> no locality views);
* redundancy is minimized: region placement is stored once per region,
  not per access;
* data is binary, and files may be compressed (the reproduction uses
  the gzip/bzip2/xz codecs from the standard library, standing in for
  the external tools the paper pipes through).

Every record is a fixed header byte (the record tag) followed by a
struct-packed payload; variable-size fields (strings, page arrays) are
length-prefixed.
"""

from __future__ import annotations

import enum
import struct

MAGIC = b"AFTM"
VERSION = 1

HEADER = struct.Struct("<4sI")


class RecordTag(enum.IntEnum):
    """One tag per trace data structure."""

    TOPOLOGY = 1
    COUNTER_DESCRIPTION = 2
    TASK_TYPE = 3
    REGION = 4
    STATE_INTERVAL = 5
    TASK_EXECUTION = 6
    COUNTER_SAMPLE = 7
    DISCRETE_EVENT = 8
    COMM_EVENT = 9
    MEMORY_ACCESS = 10
    CHUNK_INDEX = 11
    CHUNK_INDEX_V2 = 12


TAG = struct.Struct("<B")

# Fixed payloads (strings / arrays handled separately).
TOPOLOGY = struct.Struct("<II")                 # nodes, cores per node
COUNTER_DESCRIPTION = struct.Struct("<IB")      # id, monotone
TASK_TYPE = struct.Struct("<IQI")               # id, address, line
REGION = struct.Struct("<IQQI")                 # id, address, size, pages
STATE_INTERVAL = struct.Struct("<IIqq")         # core, state, start, end
TASK_EXECUTION = struct.Struct("<qIIqq")        # task, type, core, t0, t1
COUNTER_SAMPLE = struct.Struct("<IIqd")         # core, counter, t, value
DISCRETE_EVENT = struct.Struct("<IIqq")         # core, kind, t, payload
COMM_EVENT = struct.Struct("<IIqqq")            # src, dst, t, size, task
MEMORY_ACCESS = struct.Struct("<qIqqBq")        # task, core, addr, size,
                                                # is_write, t
STRING_LENGTH = struct.Struct("<H")
PAGE_NODE = struct.Struct("<i")

# --- seekable chunk index (optional footer) ---------------------------------
#
# An indexed trace appends one CHUNK_INDEX record after the last data
# record: a directory of per-core time-range -> file-offset entries that
# lets readers seek directly to the chunks overlapping a time window
# instead of scanning the whole file.  A fixed-size trailer terminates
# the file so the directory can be found by seeking from the end; files
# without the trailer (older traces, or compressed streams, which are
# not seekable) simply fall back to a full scan.

INDEX_MAGIC = b"AFTMIDX1"

# Per-chunk directory entry: byte offset of the first record, byte
# length of the chunk, inclusive time range [t_min, t_max] of its
# events, number of records, originating core (-1 when mixed) and a
# flags byte.
CHUNK_ENTRY = struct.Struct("<QQqqIiB")
INDEX_HEADER = struct.Struct("<I")          # number of entries
INDEX_TRAILER = struct.Struct("<Q8s")       # offset of the index, magic

# --- version-2 index: per-chunk CRC32 ---------------------------------------
#
# The v2 footer (CHUNK_INDEX_V2 tag, AFTMIDX2 trailer magic) carries a
# CRC32 of every chunk's bytes and of the preamble, so readers detect
# a flipped bit or a truncated chunk *before* mis-parsing it, and the
# salvage path can recover the complete verified prefix of a damaged
# trace.  The writer emits only v2; v1 files, written by earlier
# versions, stay readable, verifiable and salvageable — the directory
# layout only differs in the trailer magic and the per-entry trailing
# CRC word.

INDEX_MAGIC_V2 = b"AFTMIDX2"

#: v2 entry: the v1 fields plus the chunk's CRC32.
CHUNK_ENTRY_V2 = struct.Struct("<QQqqIiBI")
#: v2 header: number of entries, CRC32 of the preamble bytes.
INDEX_HEADER_V2 = struct.Struct("<II")

#: Flag: the chunk contains static records (topology, descriptions);
#: readers must visit it regardless of the requested time window.
CHUNK_HAS_STATIC = 0x01

MIXED_CORES = -1


def pack_string(text):
    """Encode ``text`` as a length-prefixed UTF-8 string field."""
    data = text.encode("utf-8")[:0xFFFF]
    return STRING_LENGTH.pack(len(data)) + data


class FormatError(ValueError):
    """Raised on malformed trace files."""


class CorruptChunkError(FormatError):
    """A chunk failed its CRC check or could not be read in full.

    Carries enough context (``offset``, ``expected``/``actual`` CRC)
    for the salvage path to report what was dropped."""

    def __init__(self, message, offset=None, expected=None, actual=None):
        super().__init__(message)
        self.offset = offset
        self.expected = expected
        self.actual = actual
