"""Tests for the binary trace format (Section VI-A)."""

import io

import pytest

from repro.core import (CounterDescription, TopologyInfo, TraceBuilder,
                        traces_equal)
from repro.trace_format import (FormatError, codec_for_path,
                                open_trace_file, read_trace,
                                read_trace_stream, write_trace)
from repro.trace_format.writer import TraceWriter


class TestRoundtrip:
    def test_full_trace_roundtrip(self, seidel_trace_small, tmp_path):
        path = tmp_path / "seidel.ost"
        records = write_trace(seidel_trace_small, str(path))
        assert records > 0
        loaded = read_trace(str(path))
        assert traces_equal(seidel_trace_small, loaded)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_compressed_roundtrip(self, seidel_trace_small, tmp_path,
                                  suffix):
        """Aftermath directly opens gzip/bzip2/xz compressed traces."""
        path = tmp_path / ("seidel.ost" + suffix)
        write_trace(seidel_trace_small, str(path))
        loaded = read_trace(str(path))
        assert traces_equal(seidel_trace_small, loaded)

    def test_compression_shrinks_file(self, seidel_trace_small,
                                      tmp_path):
        raw = tmp_path / "t.ost"
        packed = tmp_path / "t.ost.xz"
        write_trace(seidel_trace_small, str(raw))
        write_trace(seidel_trace_small, str(packed))
        assert packed.stat().st_size < raw.stat().st_size

    def test_kmeans_roundtrip(self, kmeans_trace_small, tmp_path):
        path = tmp_path / "kmeans.ost.gz"
        write_trace(kmeans_trace_small, str(path))
        assert traces_equal(kmeans_trace_small, read_trace(str(path)))


class TestCodecSelection:
    def test_suffix_detection(self):
        assert codec_for_path("a.ost.gz") == ".gz"
        assert codec_for_path("A.OST.XZ") == ".xz"
        assert codec_for_path("a.ost") is None

    def test_text_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_trace_file(str(tmp_path / "x.ost"), "w")


class TestIncrementalFormat:
    """Any record type may be missing (Section VI-A): analyses degrade
    gracefully rather than failing to load."""

    def minimal_trace(self):
        builder = TraceBuilder(TopologyInfo(2, 2))
        builder.task_execution(0, 0, 0, 0, 100)
        builder.task_execution(1, 0, 1, 50, 180)
        return builder.build()

    def test_trace_without_accesses_loads(self, tmp_path):
        path = tmp_path / "durations_only.ost"
        write_trace(self.minimal_trace(), str(path))
        loaded = read_trace(str(path))
        assert len(loaded.tasks) == 2
        assert len(loaded.accesses["task_id"]) == 0
        # Duration-based analyses still work...
        from repro.core import task_duration_histogram
        __, fractions = task_duration_histogram(loaded, bins=2)
        assert fractions.sum() == pytest.approx(1.0)
        # ...and locality analyses degrade to "nothing known".
        from repro.core import communication_matrix
        assert communication_matrix(loaded).sum() == 0

    def test_free_record_interleaving(self):
        """Records of different cores and kinds may interleave freely;
        only per-core timestamp order matters."""
        stream = io.BytesIO()
        writer = TraceWriter(stream)
        writer.topology(TopologyInfo(1, 2))
        writer.state_interval(1, 0, 0, 10)
        writer.task_execution(5, 0, 0, 0, 10)
        writer.state_interval(0, 0, 0, 10)
        writer.counter_description(CounterDescription(0, "c"))
        writer.counter_sample(0, 0, 5, 1.0)
        writer.state_interval(1, 1, 10, 30)
        stream.seek(0)
        trace = read_trace_stream(stream)
        assert len(trace.states) == 3
        assert trace.task_by_id(5).end == 10


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ost"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_trace(str(path))

    def test_truncated_file(self, seidel_trace_small, tmp_path):
        path = tmp_path / "trunc.ost"
        write_trace(seidel_trace_small, str(path))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(FormatError):
            read_trace(str(path))

    def test_unknown_tag(self, tmp_path):
        from repro.trace_format import MAGIC, VERSION
        import struct
        path = tmp_path / "unknown.ost"
        payload = struct.pack("<4sI", MAGIC, VERSION) + bytes([200])
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            read_trace(str(path))

    def test_missing_topology(self, tmp_path):
        from repro.trace_format import MAGIC, VERSION
        import struct
        path = tmp_path / "empty.ost"
        path.write_bytes(struct.pack("<4sI", MAGIC, VERSION))
        with pytest.raises(FormatError):
            read_trace(str(path))

    def test_wrong_version(self, tmp_path):
        from repro.trace_format import MAGIC
        import struct
        path = tmp_path / "v99.ost"
        path.write_bytes(struct.pack("<4sI", MAGIC, 99))
        with pytest.raises(FormatError):
            read_trace(str(path))


class TestCounterDescriptionSlots:
    """Static records may come in any order: every reader puts each
    counter description in its id's slot, and a second description of
    one id is a format error."""

    @pytest.fixture(params=("read_trace", "build_window", "salvage"))
    def read(self, request):
        from repro.trace_format import (build_window, salvage_trace,
                                        stream_records)
        return {"read_trace": read_trace,
                "build_window": lambda path: build_window(
                    stream_records(path), 0, 10),
                "salvage": lambda path: salvage_trace(path)[0],
                }[request.param]

    def write(self, path, descriptions):
        with open(path, "wb") as stream:
            writer = TraceWriter(stream)
            writer.topology(TopologyInfo(1, 1))
            for description in descriptions:
                writer.counter_description(description)
            writer.counter_sample(0, 0, 5, 1.0)

    def test_out_of_order_descriptions_fill_their_slots(self, tmp_path,
                                                        read):
        path = str(tmp_path / "counters.ost")
        self.write(path, [CounterDescription(2, "cycles"),
                          CounterDescription(0, "misses", False)])
        trace = read(path)
        assert trace.counter_descriptions == [
            CounterDescription(0, "misses", False),
            CounterDescription(1, "__unused_1"),
            CounterDescription(2, "cycles")]
        assert trace.counter_name(0) == "misses"

    def test_repeated_id_is_a_format_error(self, tmp_path, read):
        path = str(tmp_path / "repeated.ost")
        self.write(path, [CounterDescription(0, "misses"),
                          CounterDescription(0, "cycles")])
        with pytest.raises(FormatError, match="described twice"):
            read(path)
