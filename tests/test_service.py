"""Tests for the multi-tenant trace service (`repro.service`).

Four surfaces: the shared `MappedCachePool` (sharing, LRU eviction,
stat-stamp invalidation, concurrency), the transport-free
`TraceService` handlers (endpoints and error codes), the HTTP
server/client pair (real sockets, error propagation, concurrent
clients), and the CLI's `serve`/`--remote` integration.
"""

import base64
import importlib.util
import os
import pathlib
import socket
import struct
import threading
import zlib

import pytest

from repro.service import (MappedCachePool, ServiceClient, ServiceError,
                           TraceService, start_server)
from repro.service.api import MAX_VIEW_SIDE
from repro.service.server import MAX_REQUEST_BYTES
from repro.trace_format.synthesize import write_synthetic_trace

CLI_PATH = (pathlib.Path(__file__).parent.parent / "examples"
            / "aftermath_cli.py")


def _write(path, events=1_500, seed=3):
    write_synthetic_trace(str(path), events=events, nodes=2,
                          cores_per_node=2, task_types=3, seed=seed)
    return str(path)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """A directory with two distinct synthetic traces."""
    directory = tmp_path_factory.mktemp("service")
    _write(directory / "a.ost", seed=3)
    _write(directory / "b.ost", events=900, seed=8)
    return directory


class TestMappedCachePool:
    def test_second_entry_is_a_hit_on_the_same_store(self, trace_dir):
        pool = MappedCachePool(capacity=4)
        first = pool.entry(str(trace_dir / "a.ost"))
        second = pool.entry(str(trace_dir / "a.ost"))
        assert second.trace is first.trace
        assert (pool.misses, pool.hits) == (1, 1)
        assert second.hits == 1

    def test_lru_eviction_under_pressure(self, trace_dir, tmp_path):
        pool = MappedCachePool(capacity=2)
        a = _write(tmp_path / "a.ost", seed=1)
        b = _write(tmp_path / "b.ost", seed=2)
        c = _write(tmp_path / "c.ost", seed=3)
        pool.entry(a)
        pool.entry(b)
        pool.entry(a)                    # refresh a: b is now LRU
        pool.entry(c)                    # evicts b, not a
        assert sorted(os.path.basename(p) for p in pool.resident()) \
            == ["a.ost", "c.ost"]
        assert pool.evictions == 1
        assert len(pool) == 2

    def test_evicted_store_stays_usable_for_holders(self, tmp_path):
        pool = MappedCachePool(capacity=1)
        first = pool.entry(_write(tmp_path / "one.ost", seed=1))
        held = first.trace
        tasks_before = len(held.tasks)
        pool.entry(_write(tmp_path / "two.ost", seed=2))
        assert os.path.basename(pool.resident()[0]) == "two.ost"
        # The pool forgot the entry, but the mapping is still valid
        # for the request that holds it.
        assert len(held.tasks) == tasks_before

    def test_stale_stamp_invalidation(self, tmp_path):
        pool = MappedCachePool(capacity=4)
        path = _write(tmp_path / "mut.ost", events=1_000, seed=1)
        before = pool.entry(path)
        held = before.trace
        tasks_before = len(held.tasks)
        _write(tmp_path / "mut.ost", events=2_000, seed=2)
        after = pool.entry(path)
        assert after.trace is not held
        assert pool.invalidations == 1
        assert len(after.trace.tasks) != tasks_before
        # Mid-request holders finish on the old mapping: os.replace
        # keeps the mapped inode alive even though the path moved on.
        assert len(held.tasks) == tasks_before

    def test_explicit_invalidate(self, trace_dir):
        pool = MappedCachePool(capacity=4)
        path = str(trace_dir / "a.ost")
        pool.entry(path)
        pool.invalidate(path)
        assert pool.resident() == []
        pool.entry(path)
        pool.invalidate()                # no argument: drop everything
        assert len(pool) == 0

    def test_concurrent_entries_share_one_parse(self, trace_dir):
        pool = MappedCachePool(capacity=4)
        path = str(trace_dir / "a.ost")
        barrier = threading.Barrier(8)
        stores = []

        def worker():
            barrier.wait()
            stores.append(pool.entry(path).trace)

        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(map(id, stores))) == 1
        assert pool.misses == 1
        assert pool.hits == 7


@pytest.fixture()
def service(trace_dir):
    return TraceService(root=str(trace_dir), width=128, height=32)


class TestServiceHandlers:
    def test_open_and_shared_flag(self, service, trace_dir):
        first = service.handle("open", {"path": str(trace_dir / "a.ost")})
        second = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        assert (first["session"], first["shared"]) == ("s1", False)
        assert (second["session"], second["shared"]) == ("s2", True)
        assert first["cores"] == 4
        assert first["view"]["width"] == 128

    def test_sessions_navigate_without_interference(self, service,
                                                    trace_dir):
        path = str(trace_dir / "a.ost")
        a = service.handle("open", {"path": path})
        b = service.handle("open", {"path": path})
        moved = service.handle("navigate", {"session": a["session"],
                                            "action": "zoom",
                                            "factor": 4.0})
        assert moved["view"] != a["view"]
        stats_b = service.handle("stats", {"session": b["session"]})
        # b's view never moved: it still covers the whole trace.
        assert (stats_b["start"], stats_b["end"]) \
            == (b["view"]["start"], b["view"]["end"])
        back = service.handle("navigate", {"session": a["session"],
                                           "action": "back"})
        assert back["view"] == a["view"]

    def test_stats_explicit_window(self, service, trace_dir):
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        reply = service.handle("stats", {"session": opened["session"],
                                         "start": 0, "end": 1_000})
        assert (reply["start"], reply["end"]) == (0, 1_000)
        assert set(reply["state_cycles"])  # spelled-out state names

    def test_render_ascii_and_png_agree_on_geometry(self, service,
                                                    trace_dir):
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        ascii_reply = service.handle("render",
                                     {"session": opened["session"]})
        assert len(ascii_reply["rows"]) == 32
        assert all(len(row) == 128 for row in ascii_reply["rows"])
        png_reply = service.handle("render",
                                   {"session": opened["session"],
                                    "format": "png"})
        data = base64.b64decode(png_reply["png_base64"])
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        width, height = struct.unpack(">II", data[16:24])
        assert (width, height) == (128, 32)
        assert png_reply["draw_calls"] == ascii_reply["draw_calls"]

    def test_render_every_registered_mode(self, service, trace_dir):
        from repro.render import TIMELINE_MODES
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        for mode in sorted(TIMELINE_MODES):
            reply = service.handle("render",
                                   {"session": opened["session"],
                                    "mode": mode})
            assert reply["mode"] == mode

    def test_diff_self_is_empty_and_tolerances_parse(self, service,
                                                     trace_dir):
        path = str(trace_dir / "a.ost")
        reply = service.handle("diff", {
            "baseline": path, "candidate": path,
            "tolerances": {"relative": 0.0, "absolute": 0.0,
                           "distribution": 0.0, "anomalies": 0}})
        assert reply["empty"] is True
        assert reply["deviations"] == 0
        other = service.handle("diff", {
            "baseline": path,
            "candidate": str(trace_dir / "b.ost")})
        assert other["deviations"] > 0

    def test_sweep_status_on_a_real_suite(self, service, trace_dir):
        from repro.analysis.experiments import run_suite, synthetic_sweep
        suite = str(trace_dir / "suite")
        run_suite(synthetic_sweep(2, events=400), suite, workers=1)
        reply = service.handle("sweep-status", {"directory": suite})
        assert reply["counts"]["done"] == 2
        assert [job["state"] for job in reply["jobs"]] \
            == ["done", "done"]
        assert all(job["error"] is None for job in reply["jobs"])

    def test_close_frees_the_session_but_not_the_pool(self, service,
                                                      trace_dir):
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        assert service.handle("close",
                              {"session": opened["session"]}) \
            == {"closed": opened["session"]}
        with pytest.raises(ServiceError) as excinfo:
            service.handle("stats", {"session": opened["session"]})
        assert excinfo.value.code == "unknown_session"
        assert len(service.pool) == 1

    def test_describe_counters(self, service, trace_dir):
        service.handle("open", {"path": str(trace_dir / "a.ost")})
        body = service.describe()
        assert body["status"] == "ok"
        assert body["sessions"] == 1
        assert body["pool"]["resident"] == 1


class TestServiceErrors:
    def expect(self, service, endpoint, params, code, status):
        """One request that must fail with exactly this code/status."""
        with pytest.raises(ServiceError) as excinfo:
            service.handle(endpoint, params)
        assert excinfo.value.code == code
        assert excinfo.value.status == status
        assert "error" in excinfo.value.payload()

    def test_unknown_endpoint(self, service):
        self.expect(service, "bogus", {}, "unknown_endpoint", 404)

    def test_non_object_body(self, service):
        self.expect(service, "open", "not-a-dict", "bad_request", 400)

    def test_missing_required_parameter(self, service):
        self.expect(service, "open", {}, "bad_request", 400)

    def test_unknown_session(self, service):
        self.expect(service, "stats", {"session": "s999"},
                    "unknown_session", 404)

    def test_unknown_navigation_action(self, service, trace_dir):
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        self.expect(service, "navigate",
                    {"session": opened["session"], "action": "warp"},
                    "bad_request", 400)

    def test_bad_render_format(self, service, trace_dir):
        opened = service.handle("open",
                                {"path": str(trace_dir / "a.ost")})
        self.expect(service, "render",
                    {"session": opened["session"], "format": "bmp"},
                    "bad_request", 400)

    def test_missing_trace_is_404(self, service, trace_dir):
        self.expect(service, "open",
                    {"path": str(trace_dir / "nope.ost")},
                    "trace_error", 404)

    def test_corrupt_trace_is_422(self, service, trace_dir):
        corrupt = trace_dir / "corrupt.ost"
        corrupt.write_bytes(b"NOPE" + b"\x00" * 64)
        self.expect(service, "open", {"path": str(corrupt)},
                    "trace_error", 422)

    def test_root_jail_is_403(self, service):
        self.expect(service, "open", {"path": "/outside/root.ost"},
                    "forbidden", 403)
        self.expect(service, "sweep-status",
                    {"directory": "/outside/suite"}, "forbidden", 403)

    def test_oversized_geometry_is_bad_request(self, service, trace_dir):
        """A huge view must fail at ``open``, not as a ``MemoryError``
        in the first render under the shared per-trace lock."""
        path = str(trace_dir / "a.ost")
        for geometry in ({"width": 10**9}, {"height": MAX_VIEW_SIDE + 1},
                         {"width": 0}):
            self.expect(service, "open", dict(geometry, path=path),
                        "bad_request", 400)
        opened = service.handle("open", {"path": path, "height": 8,
                                         "width": MAX_VIEW_SIDE})
        assert opened["view"]["width"] == MAX_VIEW_SIDE

    def test_missing_journal_is_queue_error(self, service, trace_dir):
        empty = trace_dir / "empty"
        empty.mkdir(exist_ok=True)
        self.expect(service, "sweep-status",
                    {"directory": str(empty)}, "queue_error", 404)


class TestHttpTransport:
    @pytest.fixture()
    def server(self, trace_dir):
        server = start_server(root=str(trace_dir), width=128, height=32)
        yield server
        server.shutdown()

    def test_round_trip_and_health(self, server, trace_dir):
        client = ServiceClient(server.url)
        health = client.health()
        assert health["status"] == "ok"
        opened = client.open(str(trace_dir / "a.ost"))
        stats = client.stats(opened["session"])
        assert stats["tasks"] > 0
        assert client.close(opened["session"]) \
            == {"closed": opened["session"]}
        client.close_connection()

    def test_server_errors_reach_the_client_typed(self, server,
                                                  trace_dir):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.stats("s999")
        assert excinfo.value.code == "unknown_session"
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.open("/outside/root.ost")
        assert excinfo.value.status == 403
        client.close_connection()

    def test_http_surface_rejects_unknown_routes(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._roundtrip("GET", "/nope", None)
        assert excinfo.value.code == "unknown_endpoint"
        with pytest.raises(ServiceError) as excinfo:
            client._roundtrip("POST", "/elsewhere", b"{}")
        assert excinfo.value.code == "unknown_endpoint"
        client.close_connection()

    def test_invalid_json_body_is_bad_request(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._roundtrip("POST", "/api/open", b"{broken")
        assert excinfo.value.code == "bad_request"
        client.close_connection()

    @pytest.mark.parametrize("length", ["-1", str(MAX_REQUEST_BYTES + 1)],
                             ids=["negative", "over_cap"])
    def test_bad_content_length_is_rejected_and_closed(self, server,
                                                       length):
        """Neither length may be read: the server must answer 400 and
        hang up at once (a blocked read would time this test out)."""
        request = ("POST /api/open HTTP/1.1\r\nHost: test\r\n"
                   "Content-Length: {}\r\n\r\n".format(length))
        reply = b""
        with socket.create_connection(server.server_address[:2],
                                      timeout=5) as connection:
            connection.sendall(request.encode("ascii"))
            while True:
                chunk = connection.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400")
        assert b'"bad_request"' in reply

    def test_client_reconnects_after_a_dropped_connection(self, server,
                                                          trace_dir):
        client = ServiceClient(server.url)
        opened = client.open(str(trace_dir / "a.ost"))
        client._connection.close()       # simulate a dropped keep-alive
        assert client.stats(opened["session"])["tasks"] > 0
        client.close_connection()

    def test_concurrent_clients_share_the_mapping(self, server,
                                                  trace_dir):
        path = str(trace_dir / "a.ost")
        barrier = threading.Barrier(6)
        results = []

        def analyst():
            client = ServiceClient(server.url)
            barrier.wait()
            opened = client.open(path)
            stats = client.stats(opened["session"])
            stats.pop("session")
            results.append(stats)
            client.close_connection()

        threads = [threading.Thread(target=analyst) for __ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 6
        assert all(entry == results[0] for entry in results)
        pool = server.service.pool
        assert pool.misses == 1
        assert len(pool) == 1

    def test_stale_trace_remapped_between_requests(self, tmp_path):
        path = _write(tmp_path / "live.ost", events=800, seed=1)
        server = start_server(root=str(tmp_path), width=64, height=16)
        try:
            client = ServiceClient(server.url)
            opened = client.open(path)
            before = client.stats(opened["session"])
            _write(tmp_path / "live.ost", events=1_600, seed=2)
            after = client.stats(opened["session"])
            assert after["tasks"] != before["tasks"]
            assert server.service.pool.invalidations == 1
            client.close_connection()
        finally:
            server.shutdown()


class TestCliIntegration:
    @pytest.fixture(scope="class")
    def cli(self):
        spec = importlib.util.spec_from_file_location("aftermath_cli",
                                                      CLI_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def server(self, trace_dir):
        server = start_server(root=str(trace_dir))
        yield server
        server.shutdown()

    def test_info_remote(self, cli, server, trace_dir, capsys):
        cli.main(["info", str(trace_dir / "a.ost"),
                  "--remote", server.url])
        out = capsys.readouterr().out
        assert "remote trace" in out
        assert "cores: 4" in out

    def test_report_remote(self, cli, server, trace_dir, capsys):
        cli.main(["report", str(trace_dir / "a.ost"),
                  "--remote", server.url])
        out = capsys.readouterr().out
        assert "average parallelism:" in out
        assert "running" in out

    def test_render_remote_writes_png(self, cli, server, trace_dir,
                                      tmp_path, capsys):
        output = str(tmp_path / "remote.png")
        cli.main(["render", str(trace_dir / "a.ost"), output,
                  "--remote", server.url, "--mode", "heatmap",
                  "--width", "64"])
        assert "draw calls, png" in capsys.readouterr().out
        with open(output, "rb") as handle:
            assert handle.read(8) == b"\x89PNG\r\n\x1a\n"

    def test_remote_error_exits_with_diagnostic(self, cli, server,
                                                capsys):
        with pytest.raises(SystemExit):
            cli.main(["info", "/outside/root.ost",
                      "--remote", server.url])
        assert "outside the served root" in capsys.readouterr().err

    def test_serve_subcommand_is_wired(self, cli):
        # The foreground server loop is exercised over HTTP above;
        # here: the parser wires the handler and its defaults.  main()
        # builds its parser per call, so patching cmd_serve intercepts
        # the dispatch without starting a real serve_forever loop.
        import unittest.mock as mock
        args = None

        def fake_handler(parsed):
            nonlocal args
            args = parsed

        with mock.patch.object(cli, "cmd_serve", fake_handler):
            cli.main(["serve", "--port", "0", "--pool-capacity", "3"])
        assert args.port == 0
        assert args.pool_capacity == 3
        assert args.host == "127.0.0.1"


class TestPngExport:
    def test_png_bytes_round_trip_pixels(self):
        from repro.render import Framebuffer
        framebuffer = Framebuffer(3, 2, background=(10, 20, 30))
        framebuffer.put_pixel(1, 0, (255, 0, 0))
        data = framebuffer.png_bytes()
        width, height = struct.unpack(">II", data[16:24])
        assert (width, height) == (3, 2)
        # Decode the IDAT payload: filter byte 0 + raw RGB per row.
        idat_offset = data.index(b"IDAT") + 4
        idat_length = struct.unpack(">I",
                                    data[idat_offset - 8:
                                         idat_offset - 4])[0]
        raw = zlib.decompress(data[idat_offset:
                                   idat_offset + idat_length])
        rows = [raw[i * 10:(i + 1) * 10] for i in range(2)]
        assert all(row[0] == 0 for row in rows)
        assert rows[0][1:4] == bytes((10, 20, 30))
        assert rows[0][4:7] == bytes((255, 0, 0))

    def test_save_png(self, tmp_path):
        from repro.render import Framebuffer
        path = tmp_path / "out.png"
        Framebuffer(4, 4).save_png(str(path))
        assert path.read_bytes().startswith(b"\x89PNG\r\n\x1a\n")
        assert path.read_bytes().endswith(b"IEND\xaeB`\x82")

    def test_to_ascii_maps_luminance(self):
        from repro.render import Framebuffer
        from repro.render.framebuffer import ASCII_RAMP
        framebuffer = Framebuffer(2, 1)
        framebuffer.put_pixel(1, 0, (255, 255, 255))
        (row,) = framebuffer.to_ascii()
        assert row == ASCII_RAMP[0] + ASCII_RAMP[-1]


class TestTimelineModeRegistry:
    def test_every_name_instantiates(self):
        from repro.render import TIMELINE_MODES, timeline_mode
        for name in TIMELINE_MODES:
            assert timeline_mode(name) is not None

    def test_numa_modes_carry_their_kind(self):
        from repro.render import timeline_mode
        assert timeline_mode("numa-read").kind == "read"
        assert timeline_mode("numa-write").kind == "write"

    def test_unknown_name_lists_the_valid_ones(self):
        from repro.render import timeline_mode
        with pytest.raises(ValueError, match="state"):
            timeline_mode("vortex")
