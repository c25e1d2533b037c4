"""Memory-mapped columnar trace cache (the ``.ostc`` sidecar).

Parsing a trace file rebuilds the Section VI-B-c arrays — one sorted
structured array per core and per record kind — from scratch on every
open, which dominates the time-to-first-pixel of an interactive
session.  This module persists a
:class:`~repro.core.columnar.ColumnarTrace` *in its final memory
layout*: a small JSON header (the
static records plus an array manifest) followed by the raw bytes of
every lane, 64-byte aligned.  Reopening maps the file with
``np.memmap`` and wraps the manifest's byte ranges as structured-array
views — no parsing, no copying, and no page is read until a query
slices into it.  Combined with
:meth:`~repro.core.columnar.ColumnarTrace.slice_time_window`, a
windowed query on a cached million-event trace touches only the pages
of the binary-searched slices.

Entry points:

* :func:`write_cache` — serialize a trace store to a sidecar;
* :func:`load_cache` — map a sidecar back as a ``ColumnarTrace``;
* :func:`default_cache_path` — the conventional sidecar location;
* ``read_trace(path, cache=True)`` — the convenience wrapper in
  :mod:`repro.trace_format.reader`: load the sidecar when fresh,
  otherwise parse once and write it through.

The sidecar remembers the source file's size and mtime; a cache that
no longer matches its trace file is reported as
:class:`StaleCacheError` and transparently rebuilt by the wrapper.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from ..core.columnar import (ACCESS_DTYPE, COMM_DTYPE, COUNTER_DTYPE,
                             ColumnarTrace, DISCRETE_DTYPE, STATE_DTYPE,
                             TASK_DTYPE)
from ..core.events import (CounterDescription, RegionInfo, TaskTypeInfo,
                           TopologyInfo)
from ..core.interval_tree import DEFAULT_ARITY, MinMaxTree
from ..core.pyramid import StateIndex
from .format import FormatError

#: Sidecar file magic ("Ostc" = OST columnar) and format version.
CACHE_MAGIC = b"OSTC"
#: Sidecars of any other version (history in docs/trace-format.md)
#: raise :class:`CacheError` and are transparently rebuilt by
#: ``read_trace``.
CACHE_VERSION = 3

#: Widths of the persisted whole-trace counter pixel columns, coarse
#: to fine; widths finer than one cycle per column are skipped.
TILE_LEVEL_COUNTS = (16, 64, 256, 1024)

#: Fixed-size prefix before the JSON header: magic, version, header
#: length in bytes.
_PREFIX = struct.Struct("<4sIQ")

#: Every array blob starts on a 64-byte boundary (cache-line aligned,
#: and a multiple of every lane dtype's itemsize).
ALIGNMENT = 64

#: Per-core lane stacks in serialization order, with their dtypes.
_STACKS = (("states", STATE_DTYPE), ("tasks", TASK_DTYPE),
           ("discrete", DISCRETE_DTYPE), ("comm", COMM_DTYPE),
           ("accesses", ACCESS_DTYPE))


class CacheError(FormatError):
    """The sidecar exists but cannot be used (corrupt/incompatible)."""


class StaleCacheError(CacheError):
    """The sidecar does not match the current source trace file."""


def default_cache_path(trace_path):
    """The conventional sidecar location: ``trace.ost`` -> ``trace.ostc``
    (any other name just gains an ``.ostc`` suffix)."""
    trace_path = str(trace_path)
    if trace_path.endswith(".ost"):
        return trace_path + "c"
    return trace_path + ".ostc"


def tile_level_counts(span):
    """The persisted column widths for a trace span: the standard
    :data:`TILE_LEVEL_COUNTS` clipped so no width is finer than one
    cycle per column."""
    return [count for count in TILE_LEVEL_COUNTS if count <= span]


def _align(offset):
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _dtype_descr(dtype):
    """A JSON-stable dtype description (lists, not tuples)."""
    return json.loads(json.dumps(dtype.descr))


#: Header dtype table, precomputed once: reopen compares the whole
#: table on every open and must not re-serialize six dtypes to do it.
_DTYPE_TABLE = {name: _dtype_descr(dtype)
                for name, dtype in _STACKS + (("counter",
                                               COUNTER_DTYPE),)}


def source_stamp(source_path):
    """The identity stamp of a trace file: size + ``mtime_ns``.

    This is what the sidecar header embeds to detect staleness, and
    what the service's :class:`~repro.service.pool.MappedCachePool`
    re-checks on every acquisition to invalidate traces that changed
    on disk.
    """
    info = os.stat(source_path)
    return {"size": int(info.st_size), "mtime_ns": int(info.st_mtime_ns)}


def write_cache(trace, cache_path, *, stamp=None):
    """Serialize a :class:`~repro.core.trace.ColumnarTrace` to an
    ``.ostc`` sidecar.

    ``stamp``, when given, is the trace file's :func:`source_stamp`;
    the sidecar embeds it so :func:`load_cache` can detect staleness.
    Callers that parse the trace first (``read_trace(cache=True)``)
    take the stamp *before* the parse, so a source file modified
    during the parse makes the sidecar stale instead of freshly
    mis-stamped.  Returns the number of bytes written.
    """
    blobs = []            # (offset-in-data-section, bytes)
    manifest = {}
    cursor = 0

    def add_blob(lane):
        nonlocal cursor
        data = np.ascontiguousarray(lane).tobytes()
        offset = cursor
        blobs.append((offset, data))
        cursor = _align(offset + len(data))
        # Compact ``[offset, count]`` pairs: a million-event trace
        # carries hundreds of blobs and the header is parsed on every
        # reopen, so each one must stay a few bytes of JSON.
        return [offset, int(len(lane))]

    manifest["states"] = [add_blob(lane)
                          for lane in trace.states.lanes]
    manifest["tasks"] = [add_blob(lane) for lane in trace.tasks.lanes]
    manifest["discrete"] = [add_blob(lane)
                            for lane in trace.discrete.lanes]
    manifest["comm"] = [add_blob(lane)
                        for lane in trace.comm_lanes.lanes]
    manifest["accesses"] = [add_blob(lane)
                            for lane in trace.access_lanes.lanes]
    manifest["counters"] = [
        [int(key[0]), int(key[1])] + add_blob(trace.counter_lanes[key])
        for key in sorted(trace.counter_lanes)]

    # Interval lanes whose ``end`` column is unsorted (nested spans):
    # a reopen must not scan every lane to find them.
    manifest["nested"] = [[kind, core]
                          for kind in ("states", "tasks")
                          for core in range(trace.num_cores)
                          if trace.end_reach(kind, core) is not None]

    # Persisted render pyramids (Section VI-B): the internal min/max
    # tree levels of every counter lane, and the state index of every
    # core's state lane — computed once here so reopening never
    # rebuilds them.  Entry layouts (documented in
    # docs/trace-format.md):
    #   counter pyramid: [core, counter_id, [leaves_offset, count],
    #                     [[mins_offset, maxs_offset, count], ...],
    #                     [[vmins_offset, vmaxs_offset, count], ...]]
    #   state pyramid:   [core, [state_ids, offsets, starts, ends, cum]]
    # The leaf level (the lane's values as one contiguous float64
    # array) is persisted too: leaf-path queries fold over all leaves,
    # and serving them mapped means the first frame after a reopen
    # never gathers the strided value column out of the lane.  The
    # final list holds pre-rendered pixel columns of the whole-trace
    # view at the standard tile widths: the exact (vmin, vmax) the
    # render kernel would compute per pixel (NaN = nothing to draw),
    # so the fit-view frame after a reopen reads ~width floats and
    # runs no kernel at all.
    from ..render.counter_overlay import _column_extremes
    from ..render.timeline import TimelineView
    manifest["counter_pyramids"] = []
    for key in sorted(trace.counter_lanes):
        lane = trace.counter_lanes[key]
        tree = MinMaxTree(lane["value"], arity=DEFAULT_ARITY)
        levels = []
        for level in range(1, tree.levels):
            mins = add_blob(tree._mins[level])
            maxs = add_blob(tree._maxs[level])
            levels.append([mins[0], maxs[0], mins[1]])
        tiles = []
        if len(lane):
            for count in tile_level_counts(trace.end
                                           - trace.begin):
                view = TimelineView(start=trace.begin,
                                    end=trace.end, width=count,
                                    height=1)
                xs, vmins, vmaxs = _column_extremes(
                    lane["timestamp"], lane["value"], view, tree=tree)
                full_mins = np.full(count, np.nan, dtype=np.float64)
                full_maxs = np.full(count, np.nan, dtype=np.float64)
                full_mins[xs] = vmins
                full_maxs[xs] = vmaxs
                tiles.append([add_blob(full_mins)[0],
                              add_blob(full_maxs)[0], count])
        manifest["counter_pyramids"].append(
            [int(key[0]), int(key[1]), add_blob(tree._mins[0]), levels,
             tiles])
    manifest["state_pyramids"] = []
    for core, lane in enumerate(trace.states.lanes):
        index = StateIndex.build(lane["start"], lane["end"],
                                 lane["state"])
        if index is None:
            continue
        manifest["state_pyramids"].append(
            [int(core),
             [add_blob(index.state_ids), add_blob(index.offsets),
              add_blob(index.starts), add_blob(index.ends),
              add_blob(index.cum)]])

    header = {
        "version": CACHE_VERSION,
        "topology": {"num_nodes": trace.topology.num_nodes,
                     "cores_per_node": trace.topology.cores_per_node,
                     "name": trace.topology.name},
        "counter_descriptions": [
            {"counter_id": description.counter_id,
             "name": description.name,
             "monotone": bool(description.monotone)}
            for description in trace.counter_descriptions],
        "task_types": [
            {"type_id": info.type_id, "name": info.name,
             "address": info.address, "source_file": info.source_file,
             "source_line": info.source_line}
            for info in trace.task_types],
        "regions": [
            {"region_id": info.region_id, "address": info.address,
             "size": info.size, "page_nodes": list(info.page_nodes),
             "name": info.name}
            for info in trace.regions],
        "time_bounds": [int(trace.begin), int(trace.end)],
        "pyramid": {"arity": DEFAULT_ARITY},
        "dtypes": _DTYPE_TABLE,
        "manifest": manifest,
    }
    if stamp is not None:
        header["source"] = dict(stamp)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    # Write to a temp file in the same directory and atomically rename
    # it over the sidecar: a crash mid-write leaves any previous cache
    # intact, and a concurrent load_cache maps either the complete old
    # file or the complete new one — never a header whose lane bytes
    # are still padding.
    temp_path = "{}.tmp.{}".format(cache_path, os.getpid())
    try:
        with open(temp_path, "wb") as stream:
            position = _write_body(stream, header_bytes, blobs)
        os.replace(temp_path, cache_path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return position


def _write_body(stream, header_bytes, blobs):
    """Emit prefix, header and aligned blobs; returns bytes written."""
    data_start = _align(_PREFIX.size + len(header_bytes))
    stream.write(_PREFIX.pack(CACHE_MAGIC, CACHE_VERSION,
                              len(header_bytes)))
    stream.write(header_bytes)
    position = _PREFIX.size + len(header_bytes)
    for offset, data in blobs:
        absolute = data_start + offset
        stream.write(b"\0" * (absolute - position))
        stream.write(data)
        position = absolute + len(data)
    return position


#: Parsed headers keyed by path, guarded by the file's identity stamp
#: (inode + size + mtime): a sidecar is immutable once written — every
#: change goes through an atomic replace, which produces a new inode —
#: so reopening the same trace in one session (the interactive loop)
#: skips the open/read/JSON-parse entirely.
_HEADER_CACHE = {}


def _read_header(cache_path):
    """(header dict, data-section start offset) of a sidecar file."""
    cache_path = str(cache_path)
    try:
        info = os.stat(cache_path)
        stamp = (info.st_ino, info.st_size, info.st_mtime_ns)
    except OSError:
        stamp = None
    if stamp is not None:
        cached = _HEADER_CACHE.get(cache_path)
        if cached is not None and cached[0] == stamp:
            return cached[1], cached[2]
    header, data_start = _parse_header(cache_path)
    if stamp is not None:
        _HEADER_CACHE[cache_path] = (stamp, header, data_start)
    return header, data_start


def _parse_header(cache_path):
    with open(cache_path, "rb") as stream:
        prefix = stream.read(_PREFIX.size)
        if len(prefix) != _PREFIX.size:
            raise CacheError("cache file too small: " + str(cache_path))
        magic, version, header_length = _PREFIX.unpack(prefix)
        if magic != CACHE_MAGIC:
            raise CacheError("not a columnar trace cache (bad magic)")
        if version != CACHE_VERSION:
            raise CacheError(
                "unsupported cache version {}".format(version))
        header_bytes = stream.read(header_length)
        if len(header_bytes) != header_length:
            raise CacheError("truncated cache header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as error:
        raise CacheError("corrupt cache header: {}".format(error))
    return header, _align(_PREFIX.size + header_length)


class MappedPyramids:
    """Render pyramids mapped lazily from an ``.ostc`` sidecar.

    Holds only the manifest entries and a blob-view factory; nothing
    is materialized at load time (keeping reopen O(header)), and each
    accessor wraps the persisted arrays as zero-copy views on demand:

    * :meth:`counter_tree` — a :class:`MinMaxTree` whose internal
      levels are the mapped blobs (leaves are the counter lane
      itself);
    * :meth:`counter_columns` — the pre-rendered whole-trace pixel
      columns of one (core, counter) at a standard tile width;
    * :meth:`state_index` — one core's
      :class:`~repro.core.pyramid.StateIndex`;
    * :meth:`nested` — whether an interval lane's ends are unsorted.

    Memoization lives on the trace store
    (:meth:`~repro.core.columnar.ColumnarTrace.minmax_tree`,
    ``state_index``, ``end_reach``), not here.
    """

    def __init__(self, blob_view, header):
        manifest = header["manifest"]
        self._view = blob_view
        self.arity = int(header.get("pyramid", {})
                         .get("arity", DEFAULT_ARITY))
        self._counters = {
            (entry[0], entry[1]): (entry[2], entry[3], entry[4])
            for entry in manifest.get("counter_pyramids", ())}
        self._states = {entry[0]: entry
                        for entry in manifest.get("state_pyramids", ())}
        self._nested = {(kind, core) for kind, core in manifest["nested"]}

    def counter_tree(self, core, counter_id, values, arity):
        """The persisted min/max tree of one (core, counter), or
        ``None`` when the sidecar has no pyramid for it (or a
        different arity was requested).

        The tree's leaves are the *persisted* contiguous float64 leaf
        blob, not the strided ``values`` column — same values, but the
        first query folds over mapped pages instead of gathering the
        lane.  ``values`` only cross-checks the lane length."""
        if arity != self.arity:
            return None
        entry = self._counters.get((core, counter_id))
        if entry is None:
            return None
        leaf_blob, levels, __ = entry
        if leaf_blob[1] != len(values):
            raise CacheError("pyramid leaves do not match their lane")
        float_dtype = np.dtype(np.float64)
        leaves = self._view(leaf_blob, float_dtype)
        mins = [self._view([mins_offset, count], float_dtype)
                for mins_offset, __, count in levels]
        maxs = [self._view([maxs_offset, count], float_dtype)
                for __, maxs_offset, count in levels]
        return MinMaxTree.from_levels(leaves, mins, maxs, arity=arity)

    def counter_columns(self, core, counter_id, width):
        """The persisted whole-trace pixel columns of one (core,
        counter) at exactly ``width`` columns, as a mapped
        ``(vmins, vmaxs)`` pair of float64 views (NaN marks a column
        with nothing to draw) — or ``None`` when no tile level of
        that width was persisted."""
        entry = self._counters.get((core, counter_id))
        if entry is None:
            return None
        float_dtype = np.dtype(np.float64)
        for vmins_offset, vmaxs_offset, count in entry[2]:
            if count == width:
                return (self._view([vmins_offset, count], float_dtype),
                        self._view([vmaxs_offset, count], float_dtype))
        return None

    def state_index(self, core):
        """One core's persisted :class:`StateIndex`, or ``None``."""
        entry = self._states.get(core)
        if entry is None:
            return None
        int_dtype = np.dtype(np.int64)
        state_ids, offsets, starts, ends, cum = entry[1]
        return StateIndex(self._view(state_ids, int_dtype),
                          self._view(offsets, int_dtype),
                          self._view(starts, int_dtype),
                          self._view(ends, int_dtype),
                          self._view(cum, int_dtype))

    def nested(self, kind, core):
        """Whether the ``kind`` ("states"/"tasks") lane of ``core``
        has an unsorted ``end`` column (nested spans)."""
        return (kind, core) in self._nested


def load_cache(cache_path, source_path=None):
    """Map an ``.ostc`` sidecar as a :class:`ColumnarTrace`.

    The returned store's lanes are read-only views into one
    ``np.memmap`` over the file; nothing is parsed or copied, and only
    the pages a later query slices are ever faulted in.  When
    ``source_path`` is given and the sidecar carries a source stamp, a
    size/mtime mismatch raises :class:`StaleCacheError`.
    """
    header, data_start = _read_header(cache_path)
    if source_path is not None and "source" in header:
        if header["source"] != source_stamp(source_path):
            raise StaleCacheError(
                "cache {} is stale for {}".format(cache_path, source_path))
    if header.get("dtypes") != _DTYPE_TABLE:
        raise CacheError("cache lane dtypes do not match this version")
    # A syntactically-valid JSON header can still describe garbage (a
    # bit flip inside a manifest number, a truncated file whose blobs
    # the header no longer covers).  Everything from here on converts
    # structural surprises into CacheError so callers rebuild the
    # sidecar instead of crashing at first render.
    try:
        topology = TopologyInfo(**header["topology"])
        manifest = header["manifest"]
        for name in ("states", "tasks", "discrete", "comm", "accesses"):
            if len(manifest[name]) != topology.num_cores:
                raise CacheError(
                    "cache manifest does not cover every core")

        mapped = np.memmap(cache_path, dtype=np.uint8, mode="r")
        # Slice through a base-class view: ``np.memmap.__getitem__``
        # and ``__array_finalize__`` cost ~7x a plain ndarray slice,
        # and a reopen cuts one view per lane plus one per pyramid
        # blob.  The flat view keeps the memmap alive through its
        # ``.base`` chain.
        flat = mapped.view(np.ndarray)

        def lane_view(entry, dtype):
            offset = data_start + int(entry[0])
            nbytes = int(entry[1]) * dtype.itemsize
            if entry[0] < 0 or entry[1] < 0 \
                    or offset + nbytes > len(mapped):
                raise CacheError(
                    "cache manifest points past end of file")
            return flat[offset:offset + nbytes].view(dtype)

        _validate_pyramids(manifest, data_start, len(mapped))
        lanes = {name: [lane_view(entry, dtype)
                        for entry in manifest[name]]
                 for name, dtype in _STACKS}
        counter_lanes = {
            (entry[0], entry[1]): lane_view(entry[2:], COUNTER_DTYPE)
            for entry in manifest["counters"]}
        return ColumnarTrace(
            pyramids=MappedPyramids(lane_view, header),
            topology=topology,
            states=lanes["states"], tasks=lanes["tasks"],
            discrete=lanes["discrete"], comm=lanes["comm"],
            accesses=lanes["accesses"], counter_lanes=counter_lanes,
            counter_descriptions=[CounterDescription(**entry)
                                  for entry in
                                  header["counter_descriptions"]],
            task_types=[TaskTypeInfo(**entry)
                        for entry in header["task_types"]],
            regions=[RegionInfo(region_id=entry["region_id"],
                                address=entry["address"],
                                size=entry["size"],
                                page_nodes=tuple(entry["page_nodes"]),
                                name=entry["name"])
                     for entry in header["regions"]],
            time_bounds=header["time_bounds"])
    except CacheError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as error:
        raise CacheError("malformed cache manifest: {}".format(error))


def _validate_pyramids(manifest, data_start, size):
    """Bounds-check every pyramid blob of a manifest at load time.

    Pyramid blobs are only *viewed* lazily by :class:`MappedPyramids`
    accessors; without this pass a truncated file or a corrupted
    manifest entry would surface mid-render (as an opaque numpy error)
    instead of as a rebuildable :class:`CacheError` at open."""

    def check(offset, count, itemsize=8):
        offset, count = int(offset), int(count)
        if offset < 0 or count < 0 \
                or data_start + offset + count * itemsize > size:
            raise CacheError("cache pyramid blob points past "
                             "end of file")

    for entry in manifest.get("counter_pyramids", ()):
        core, counter_id, leaf, levels, tiles = entry
        int(core), int(counter_id)
        check(leaf[0], leaf[1])
        for mins_offset, maxs_offset, count in levels:
            check(mins_offset, count)
            check(maxs_offset, count)
        for vmins_offset, vmaxs_offset, count in tiles:
            check(vmins_offset, count)
            check(vmaxs_offset, count)
    for entry in manifest.get("state_pyramids", ()):
        core, blobs = entry
        int(core)
        if len(blobs) != 5:
            raise CacheError("state pyramid manifest entry must "
                             "carry 5 index blobs")
        for blob in blobs:
            check(blob[0], blob[1])
