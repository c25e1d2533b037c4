"""Tests for the memory-mapped columnar trace cache (``.ostc``)."""

import os
import time

import numpy as np
import pytest

from repro.core import traces_equal
from repro.session import AnalysisSession
from repro.trace_format import (CacheError, ScanStats, StaleCacheError,
                                default_cache_path, load_cache,
                                read_trace, split_time_window,
                                write_cache, write_trace)
from repro.trace_format.cache import source_stamp
from trace_gen import make_random_trace


def mapping_of(array):
    """The ``np.memmap`` at the root of a view chain (None if the
    array owns its data — i.e. it is a copy, not a mapped view)."""
    while array is not None and not isinstance(array, np.memmap):
        array = array.base
    return array


@pytest.fixture()
def trace_file(tmp_path):
    trace = make_random_trace(11, events_per_core=30)
    path = str(tmp_path / "trace.ost")
    write_trace(trace, path, chunk_records=64)
    return path, trace


class TestDefaultCachePath:
    def test_ost_suffix_becomes_ostc(self):
        assert default_cache_path("runs/trace.ost") == "runs/trace.ostc"

    def test_other_names_gain_suffix(self):
        assert default_cache_path("trace.bin") == "trace.bin.ostc"


class TestReadTraceCache:
    def test_first_open_writes_sidecar(self, trace_file):
        path, trace = trace_file
        sidecar = default_cache_path(path)
        assert not os.path.exists(sidecar)
        opened = read_trace(path, cache=True)
        assert os.path.exists(sidecar)
        assert traces_equal(opened, trace)

    def test_second_open_serves_the_map(self, trace_file):
        path, trace = trace_file
        read_trace(path, cache=True)
        mapped = read_trace(path, cache=True)
        assert mapping_of(mapped.states.lane(0)) is not None
        assert traces_equal(mapped, trace)

    def test_explicit_cache_path(self, trace_file, tmp_path):
        path, trace = trace_file
        sidecar = str(tmp_path / "elsewhere.ostc")
        read_trace(path, cache=sidecar)
        assert os.path.exists(sidecar)
        assert traces_equal(load_cache(sidecar), trace)

    def test_stale_sidecar_is_rebuilt(self, trace_file):
        path, __ = trace_file
        read_trace(path, cache=True)
        time.sleep(0.01)
        replacement = make_random_trace(12, events_per_core=25)
        write_trace(replacement, path, chunk_records=64)
        with pytest.raises(StaleCacheError):
            load_cache(default_cache_path(path), source_path=path)
        assert traces_equal(read_trace(path, cache=True), replacement)

    def test_pre_parse_stamp_marks_mid_parse_changes_stale(
            self, trace_file):
        """The sidecar is stamped with the source's *pre-parse* size
        and mtime: if the trace file changes while the parse runs, the
        sidecar must come out stale rather than freshly stamped over
        wrong data."""
        path, trace = trace_file
        stale_stamp = {"size": os.path.getsize(path) + 1,
                       "mtime_ns": 0}          # "the file moved on"
        sidecar = default_cache_path(path)
        write_cache(trace, sidecar, stamp=stale_stamp)
        with pytest.raises(StaleCacheError):
            load_cache(sidecar, source_path=path)

    def test_corrupt_sidecar_is_rejected_and_rebuilt(self, trace_file):
        path, trace = trace_file
        sidecar = default_cache_path(path)
        with open(sidecar, "wb") as stream:
            stream.write(b"not a cache at all")
        with pytest.raises(CacheError):
            load_cache(sidecar)
        assert traces_equal(read_trace(path, cache=True), trace)

    def test_mapped_lanes_are_views_not_copies(self, trace_file):
        """Two opens of the same sidecar map the same bytes — the lane
        arrays alias one flat buffer instead of holding copies."""
        path, __ = trace_file
        read_trace(path, cache=True)
        mapped = read_trace(path, cache=True)
        lanes = [mapped.states.lane(core)
                 for core in range(mapped.num_cores)]
        mappings = [mapping_of(lane) for lane in lanes if len(lane)]
        assert all(mapping is not None for mapping in mappings)
        assert len({id(mapping) for mapping in mappings}) <= 1


class TestTimeBounds:
    def test_cached_bounds_match_parsed_bounds(self, trace_file):
        path, trace = trace_file
        read_trace(path, cache=True)
        mapped = read_trace(path, cache=True)
        assert (mapped.begin, mapped.end) == (trace.begin, trace.end)


class TestSessionOpen:
    def test_open_uses_the_cache(self, trace_file):
        path, trace = trace_file
        session = AnalysisSession.open(path, width=256, height=64)
        assert os.path.exists(default_cache_path(path))
        assert traces_equal(session.trace, trace)
        assert (session.view.start, session.view.end) == (trace.begin,
                                                          trace.end)
        reopened = AnalysisSession.open(path, width=256, height=64)
        assert mapping_of(reopened.trace.states.lane(0)) is not None

    def test_open_without_cache(self, trace_file):
        path, trace = trace_file
        session = AnalysisSession.open(path, cache=False)
        assert not os.path.exists(default_cache_path(path))
        assert traces_equal(session.trace, trace)


class TestCacheWindows:
    def test_cache_served_window_matches_scan(self, trace_file):
        """Without a sidecar the window is read from the file's chunks;
        with a fresh one it is sliced from the mapping, reading no
        trace-file bytes.  Both equal the full-scan window."""
        path, trace = trace_file
        span = trace.end - trace.begin
        start = trace.begin + span // 3
        end = trace.begin + (2 * span) // 3
        scan = split_time_window(path, start, end)
        for mapped in (False, True):
            stats = ScanStats()
            assert traces_equal(
                split_time_window(path, start, end, stats=stats,
                                  cache=True), scan)
            assert (stats.bytes_read == 0) == mapped
            read_trace(path, cache=True)        # writes the sidecar


class TestMemoizedTrees:
    def test_value_bounds_reuses_one_tree_per_core(self, trace_file):
        """Regression for the per-frame rescan: repeated axis-scaling
        calls must reuse the memoized min/max trees instead of
        rebuilding them (or rescanning the samples) every frame."""
        from repro.render import value_bounds
        path, trace = trace_file
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        store = read_trace(path)
        first = value_bounds(store, 0)
        trees_after_first = dict(store._minmax_trees)
        assert len(trees_after_first) == store.num_cores
        assert value_bounds(store, 0) == first
        assert store._minmax_trees == trees_after_first   # same objects
        for key, tree in trees_after_first.items():
            assert store._minmax_trees[key] is tree


class TestAtomicWrites:
    def test_mid_write_failure_keeps_previous_sidecar(self, trace_file,
                                                      monkeypatch):
        """Regression: write_cache used to stream straight into the
        sidecar path, so a crash mid-write (or a concurrent reader)
        could observe a complete header over zero-padded lane bytes.
        A failed rewrite must leave the previous sidecar byte-intact."""
        from repro.trace_format import cache as cache_module
        path, trace = trace_file
        sidecar = default_cache_path(path)
        write_cache(trace, sidecar, stamp=source_stamp(path))
        before = open(sidecar, "rb").read()

        original = cache_module._write_body

        def exploding_write_body(stream, header_bytes, blobs):
            stream.write(b"partial garbage")
            raise OSError("disk full halfway through")

        monkeypatch.setattr(cache_module, "_write_body",
                            exploding_write_body)
        with pytest.raises(OSError):
            write_cache(trace, sidecar, stamp=source_stamp(path))
        monkeypatch.setattr(cache_module, "_write_body", original)
        assert open(sidecar, "rb").read() == before
        assert traces_equal(load_cache(sidecar), trace)

    def test_no_temp_file_left_behind(self, trace_file, monkeypatch):
        from repro.trace_format import cache as cache_module
        path, trace = trace_file
        sidecar = default_cache_path(path)

        def exploding_write_body(stream, header_bytes, blobs):
            raise OSError("boom")

        monkeypatch.setattr(cache_module, "_write_body",
                            exploding_write_body)
        with pytest.raises(OSError):
            write_cache(trace, sidecar, stamp=source_stamp(path))
        directory = os.path.dirname(sidecar)
        assert not [name for name in os.listdir(directory)
                    if ".tmp." in name]

    def test_concurrent_reader_keeps_old_mapping(self, trace_file):
        """A load_cache mapping taken before a rewrite stays valid and
        complete afterwards (os.replace swaps the directory entry; the
        mapped inode lives on)."""
        path, trace = trace_file
        sidecar = default_cache_path(path)
        write_cache(trace, sidecar, stamp=source_stamp(path))
        mapped = load_cache(sidecar)
        lane_before = np.asarray(mapped.states.lane(0)).copy()
        write_cache(trace, sidecar, stamp=source_stamp(path))
        assert np.array_equal(np.asarray(mapped.states.lane(0)),
                              lane_before)
        assert traces_equal(mapped, load_cache(sidecar))


class TestVersionBump:
    @staticmethod
    def stamp_version(sidecar, version):
        """Rewrite a sidecar's prefix to claim an older version."""
        from repro.trace_format.cache import _PREFIX, CACHE_MAGIC
        with open(sidecar, "r+b") as stream:
            prefix = stream.read(_PREFIX.size)
            __, __, header_length = _PREFIX.unpack(prefix)
            stream.seek(0)
            stream.write(_PREFIX.pack(CACHE_MAGIC, version,
                                      header_length))

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_sidecar_is_rejected(self, trace_file, version):
        """Pre-pyramid (version 1) and state-tile (version 2) sidecars
        raise CacheError ..."""
        path, trace = trace_file
        sidecar = default_cache_path(path)
        read_trace(path, cache=True)
        self.stamp_version(sidecar, version)
        with pytest.raises(CacheError):
            load_cache(sidecar)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_sidecar_rebuilds_transparently(self, trace_file,
                                                version):
        """... and read_trace(cache=True) rebuilds them in place."""
        path, trace = trace_file
        sidecar = default_cache_path(path)
        read_trace(path, cache=True)
        self.stamp_version(sidecar, version)
        rebuilt = read_trace(path, cache=True)
        assert traces_equal(rebuilt, trace)
        mapped = read_trace(path, cache=True)
        assert mapped.pyramids is not None
        assert traces_equal(mapped, trace)

    def test_state_pyramid_entries_carry_two_fields(self, trace_file):
        """A version-3 state pyramid entry is ``[core, index blobs]``:
        no tile levels."""
        from repro.trace_format.cache import CACHE_VERSION, _read_header
        path, __ = trace_file
        read_trace(path, cache=True)
        header, __ = _read_header(default_cache_path(path))
        assert CACHE_VERSION == header["version"] == 3
        entries = header["manifest"]["state_pyramids"]
        assert entries
        assert all(len(entry) == 2 and len(entry[1]) == 5
                   for entry in entries)


class TestPersistedPyramids:
    def fresh_mapping(self, path):
        """Write the sidecar and return a mapped reopen."""
        read_trace(path, cache=True)
        return read_trace(path, cache=True)

    def test_sidecar_carries_pyramids(self, trace_file):
        path, __ = trace_file
        mapped = self.fresh_mapping(path)
        assert mapped.pyramids is not None
        assert mapped.pyramids.state_index(0) is not None

    def test_mapped_counter_tree_matches_in_memory(self, trace_file):
        path, trace = trace_file
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        mapped = self.fresh_mapping(path)
        plain = read_trace(path)
        for core in range(trace.num_cores):
            served = mapped.minmax_tree(core, 0)
            built = plain.minmax_tree(core, 0)
            assert served.bounds() == built.bounds()
            assert served.levels == built.levels
            boundaries = np.linspace(0, len(built), 9).astype(np.int64)
            for got, expected in zip(served.query_segments(boundaries),
                                     built.query_segments(boundaries)):
                assert np.array_equal(got, expected, equal_nan=True)

    def test_mapped_tree_levels_are_views_not_copies(self, trace_file):
        """The pyramid levels alias the sidecar mapping (no copy, no
        eager build at load time)."""
        path, trace = trace_file
        if not trace.counter_descriptions:
            pytest.skip("trace without counters")
        mapped = self.fresh_mapping(path)
        assert not getattr(mapped, "_minmax_trees", {})  # lazy load
        tree = mapped.minmax_tree(0, 0)
        if tree.levels > 1:
            assert mapping_of(tree._mins[1]) is not None

    def test_mapped_state_index_matches_built(self, trace_file):
        path, trace = trace_file
        mapped = self.fresh_mapping(path)
        plain = read_trace(path)
        for core in range(trace.num_cores):
            served = mapped.state_index(core)
            built = plain.state_index(core)
            assert np.array_equal(served.state_ids, built.state_ids)
            assert np.array_equal(served.offsets, built.offsets)
            assert np.array_equal(served.starts, built.starts)
            assert np.array_equal(served.ends, built.ends)
            assert np.array_equal(served.cum, built.cum)

    def test_windowed_subtrace_does_not_inherit_pyramids(self,
                                                         trace_file):
        path, trace = trace_file
        mapped = self.fresh_mapping(path)
        span = trace.end - trace.begin
        window = mapped.slice_time_window(trace.begin + span // 4,
                                          trace.begin + span // 2)
        assert window.pyramids is None

    def test_fit_view_render_served_from_persisted_columns(
            self, trace_file):
        """A whole-trace view at a persisted tile width renders
        bit-identically from the mapped columns and from the live
        kernel — the fast path must be invisible in the pixels."""
        from repro.trace_format.cache import tile_level_counts
        from repro.render import Framebuffer, TimelineView
        from repro.render.counter_overlay import render_counter
        path, trace = trace_file
        mapped = self.fresh_mapping(path)
        plain = read_trace(path)
        widths = tile_level_counts(trace.end - trace.begin)
        assert widths, "fixture trace too short to carry tiles"
        for width in widths:
            view = TimelineView(start=trace.begin, end=trace.end,
                                width=width, height=32)
            assert mapped.counter_columns(0, 0, view) is not None
            mapped_fb = Framebuffer(width, 32)
            plain_fb = Framebuffer(width, 32)
            render_counter(mapped, 0, view, mapped_fb, core=0)
            render_counter(plain, 0, view, plain_fb, core=0)
            assert (mapped_fb.pixels == plain_fb.pixels).all()

    def test_served_columns_match_the_kernel(self, trace_file):
        """The persisted triple is exactly what ``_column_extremes``
        computes live (it was written by that kernel)."""
        from repro.render import TimelineView
        from repro.render.counter_overlay import _column_extremes
        path, trace = trace_file
        mapped = self.fresh_mapping(path)
        view = TimelineView(start=trace.begin, end=trace.end,
                            width=64, height=32)
        served = mapped.counter_columns(0, 0, view)
        timestamps, values = mapped.counter_samples(0, 0)
        live = _column_extremes(timestamps, values, view,
                                tree=mapped.minmax_tree(0, 0))
        for got, expected in zip(served, live):
            assert np.array_equal(got, expected)

    def test_columns_only_serve_the_exact_fit_view(self, trace_file):
        """Shifted windows, non-tile widths and the sample-exact zoom
        regime all fall back to the kernel (``None``)."""
        from repro.render import TimelineView
        path, trace = trace_file
        mapped = self.fresh_mapping(path)
        shifted = TimelineView(start=trace.begin + 1, end=trace.end,
                               width=64, height=32)
        assert mapped.counter_columns(0, 0, shifted) is None
        odd_width = TimelineView(start=trace.begin, end=trace.end,
                                 width=63, height=32)
        assert mapped.counter_columns(0, 0, odd_width) is None
        plain = read_trace(path)
        fit = TimelineView(start=trace.begin, end=trace.end,
                           width=64, height=32)
        assert plain.counter_columns(0, 0, fit) is None  # no sidecar

    def test_reopen_serves_the_cached_header(self, trace_file):
        """An unchanged sidecar must not be re-read or re-parsed on
        reopen: both loads share one parsed header object."""
        from repro.trace_format import cache as cache_module
        path, __ = trace_file
        read_trace(path, cache=True)
        sidecar = default_cache_path(path)
        first, __ = cache_module._read_header(sidecar)
        second, __ = cache_module._read_header(sidecar)
        assert second is first
        # Rewriting the sidecar (atomic replace -> new identity)
        # invalidates the cached header.
        store = read_trace(path, cache=True)
        write_cache(store, sidecar, stamp=source_stamp(path))
        third, __ = cache_module._read_header(sidecar)
        assert third is not first
