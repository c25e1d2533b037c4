"""Tests for the crash-resilient durable experiment engine.

Covers the SQLite job journal (states, leases, retry/backoff,
quarantine, reclaim), the content-addressed trace store (label-free
keys, atomic publication, artifact quarantine), the engine drain
(idempotent reruns, store dedup, poison-spec quarantine, corrupt
artifacts regenerated, SIGKILL resume), trace-file CRC verification
and salvage, sidecar-corruption recovery, and the CLI's one-line
error hygiene.
"""

import importlib.util
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.analysis.experiments import (ExperimentError, ExperimentSpec,
                                        JobQueue, QueueError, RetryPolicy,
                                        StoreError, TraceStore,
                                        analyze_traces, describe_queue,
                                        generate_trace, job_key,
                                        journal_path, resume_suite,
                                        run_suite, run_suite_engine,
                                        spec_key, synthetic_sweep)
from repro.analysis.experiments.store import spec_from_json, spec_to_json
from repro.core import TopologyInfo, TraceBuilder, traces_equal
from repro.session import AnalysisSession
from repro.trace_format import (CacheError, default_cache_path,
                                read_chunk_index, read_trace,
                                salvage_trace, verify_trace, write_trace)
from repro.trace_format import cache as ostc
from repro.trace_format import format as fmt

CLI_PATH = (pathlib.Path(__file__).parent.parent / "examples"
            / "aftermath_cli.py")

#: Fast, jitter-free retries for tests that exercise the retry path.
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)


def make_queue(tmp_path, now, retry=None, **kwargs):
    """A journal with an injected clock (``now`` is a one-item list)."""
    return JobQueue(journal_path(tmp_path),
                    retry=retry or RetryPolicy(max_attempts=2,
                                               base_delay=8.0,
                                               jitter=0.0),
                    clock=lambda: now[0], **kwargs)


def corrupt_chunk(path, which=-1):
    """Flip bytes inside one data chunk of an indexed trace file."""
    entry = read_chunk_index(str(path)).entries[which]
    with open(str(path), "r+b") as stream:
        stream.seek(entry.offset + 3)
        original = stream.read(2)
        stream.seek(entry.offset + 3)
        stream.write(bytes(byte ^ 0xFF for byte in original))


class TestJobQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            specs = synthetic_sweep(3, events=100)
            assert queue.enqueue(specs) == 3
            assert queue.enqueue(specs) == 0
            assert queue.counts()["pending"] == 3
            assert [spec.name for spec in queue.load_specs()] \
                == [spec.name for spec in specs]

    def test_name_conflict_rejected(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue([ExperimentSpec(name="point", seed=1,
                                          workload="synthetic")])
            with pytest.raises(QueueError, match="conflicts"):
                queue.enqueue([ExperimentSpec(name="point", seed=2,
                                              workload="synthetic")])

    def test_claim_lease_complete_cycle(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("host:1")
            assert (job.name, job.attempts) == ("synthetic_0", 1)
            assert queue.counts()["leased"] == 1
            assert queue.claim("host:2") is None     # nothing else
            queue.complete(job.key, "host:1", "out.ost", simulated=True)
            record = queue.record(job.key)
            assert (record.state, record.executions) == ("done", 1)

    def test_store_hit_completion_does_not_count_execution(self,
                                                           tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("host:1")
            queue.complete(job.key, "host:1", "out.ost", simulated=False)
            assert queue.record(job.key).executions == 0

    def test_complete_requires_the_lease(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("host:1")
            with pytest.raises(QueueError, match="lost lease"):
                queue.complete(job.key, "intruder:2", "out.ost")
            with pytest.raises(QueueError, match="lost lease"):
                queue.fail(job.key, "intruder:2", "boom")

    def test_fail_backs_off_then_quarantines(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("host:1")
            assert queue.fail(job.key, "host:1", "ValueError: boom") \
                == "failed"
            assert queue.claim("host:1") is None     # backing off: 8s
            assert queue.runnable_in() == pytest.approx(8.0)
            now[0] = 9.0
            retry = queue.claim("host:1")
            assert retry.attempts == 2
            assert queue.fail(retry.key, "host:1", "ValueError: boom") \
                == "quarantined"
            assert queue.runnable_in() is None       # terminal
            (parked,) = queue.quarantined()
            assert parked.error == "ValueError: boom"

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=9, base_delay=2.0,
                             max_delay=10.0, jitter=0.0)
        delays = [policy.backoff("key", attempt)
                  for attempt in range(1, 6)]
        assert delays == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        assert policy.backoff("a", 1) == policy.backoff("a", 1)
        assert policy.backoff("a", 1) != policy.backoff("b", 1)
        assert 1.0 <= policy.backoff("a", 1) <= 1.5

    def test_reclaim_expired_lease_is_not_an_execution(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now, lease_seconds=30.0) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("{}:{}".format(socket.gethostname(),
                                             os.getpid()))
            assert queue.reclaim_stale() == 0        # heartbeat fresh
            now[0] = 31.0
            assert queue.reclaim_stale() == 1
            record = queue.record(job.key)
            assert record.state == "failed"
            assert record.executions == 0            # never finished
            assert "lease expired" in record.error

    def test_heartbeat_keeps_the_lease(self, tmp_path):
        now = [0.0]
        owner = "{}:{}".format(socket.gethostname(), os.getpid())
        with make_queue(tmp_path, now, lease_seconds=30.0) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim(owner)
            now[0] = 25.0
            queue.heartbeat(job.key, owner)
            now[0] = 45.0                            # < 25 + 30
            assert queue.reclaim_stale() == 0
            assert queue.record(job.key).state == "leased"

    def test_reclaim_provably_dead_owner(self, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()                                 # reaped: pid free
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("{}:{}:0".format(socket.gethostname(),
                                               probe.pid))
            assert queue.reclaim_stale() == 1        # despite heartbeat
            assert "died mid-job" in queue.record(job.key).error

    def test_requeue_forces_a_done_job_back(self, tmp_path):
        now = [0.0]
        with make_queue(tmp_path, now) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            job = queue.claim("host:1")
            queue.complete(job.key, "host:1", "out.ost", simulated=True)
            queue.requeue(job.key, reason="artifact corrupt")
            record = queue.record(job.key)
            assert (record.state, record.result) == ("pending", None)
            assert record.error == "artifact corrupt"

    def test_describe_queue_without_journal(self, tmp_path):
        with pytest.raises(QueueError, match="no journal"):
            describe_queue(str(tmp_path / "nowhere"))

    def test_export_debug_writes_postmortem_files(self, tmp_path):
        now = [0.0]
        debug_dir = str(tmp_path / "debug")
        with make_queue(tmp_path / "suite", now,
                        retry=FAST_RETRY) as queue:
            queue.enqueue(synthetic_sweep(1, events=100))
            for __ in range(2):                      # exhaust retries
                now[0] += 1.0
                job = queue.claim("host:1")
                queue.fail(job.key, "host:1", "Traceback ...\nboom")
            assert queue.export_debug(debug_dir) == debug_dir
        names = sorted(os.listdir(debug_dir))
        assert any(name.startswith("journal-") and
                   name.endswith(".sqlite") for name in names)
        assert any(name.endswith(".json") for name in names)
        (traceback_file,) = os.listdir(os.path.join(debug_dir,
                                                    "quarantine"))
        assert traceback_file.startswith("synthetic_0-")


class TestContentStore:
    def test_spec_key_ignores_display_labels(self):
        base = ExperimentSpec(name="a", workload="synthetic", seed=3,
                              events=500)
        renamed = ExperimentSpec(name="b", workload="synthetic", seed=3,
                                 events=500, params=(("seed", 3),))
        other = ExperimentSpec(name="a", workload="synthetic", seed=4,
                               events=500)
        assert spec_key(base) == spec_key(renamed)
        assert spec_key(base) != spec_key(other)
        assert job_key(base) != job_key(renamed)     # full-spec key

    def test_spec_json_roundtrip_keeps_tuples(self):
        spec = ExperimentSpec(name="p", workload="synthetic", seed=1,
                              events=100, params=(("seed", 1),),
                              faults=(("stall_cores", (0, 1)),))
        assert spec_from_json(spec_to_json(spec)) == spec
        with pytest.raises(StoreError):
            spec_from_json("{not json")
        with pytest.raises(StoreError):
            spec_from_json('{"name": "missing-everything-else"}')

    def test_publish_materialize_verify_quarantine(self, tmp_path):
        spec = ExperimentSpec(name="one", workload="synthetic", seed=5,
                              events=400)
        source = str(tmp_path / "source.ost")
        generate_trace(spec, source)
        store = TraceStore(str(tmp_path / "store"))
        key = spec_key(spec)
        assert not store.contains(key)
        assert not store.verify(key).ok              # absent: not ok
        store.publish(key, source)
        assert store.contains(key)
        store.publish(key, source)                   # idempotent
        assert store.verify(key).ok
        destination = str(tmp_path / "suite" / "one.ost")
        os.makedirs(os.path.dirname(destination))
        store.materialize(key, destination)
        with open(source, "rb") as a, open(destination, "rb") as b:
            assert a.read() == b.read()
        store.quarantine_artifact(key, reason="CRC mismatch")
        assert not store.contains(key)
        quarantine = pathlib.Path(store.root) / "quarantine"
        assert (quarantine / "{}.ost".format(key)).exists()
        assert "CRC mismatch" in (
            quarantine / "{}.ost.reason".format(key)).read_text()


class TestEngineDrain:
    def test_rerun_simulates_nothing(self, tmp_path):
        directory = str(tmp_path / "suite")
        specs = synthetic_sweep(3, events=500)
        paths = run_suite(specs, directory, workers=1)
        assert all(path and os.path.exists(path) for path in paths)
        report = run_suite_engine(specs, directory, workers=1)
        assert report.done_before == 3
        assert report.simulated == 0
        assert report.resimulated == 0
        assert report.paths == paths

    def test_store_dedup_across_renamed_specs(self, tmp_path):
        directory = str(tmp_path / "suite")
        specs = [
            ExperimentSpec(name="first", workload="synthetic", seed=7,
                           events=500),
            ExperimentSpec(name="second", workload="synthetic", seed=7,
                           events=500, params=(("alias", 1),)),
        ]
        report = run_suite_engine(specs, directory, workers=1)
        assert report.simulated == 1
        assert report.store_hits == 1
        with open(report.paths[0], "rb") as a, \
                open(report.paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_poison_spec_quarantined_not_fatal(self, tmp_path):
        directory = str(tmp_path / "suite")
        specs = synthetic_sweep(2, events=500) + [
            ExperimentSpec(name="poison", workload="no-such-workload")]
        with pytest.raises(ExperimentError) as info:
            run_suite(specs, directory, workers=1, retry=FAST_RETRY)
        message = str(info.value)
        assert "1 spec(s) quarantined" in message
        assert "poison" in message
        assert "queue-status" in message
        assert "Traceback" not in message            # one line per cause
        with JobQueue(journal_path(directory)) as queue:
            assert queue.counts()["done"] == 2       # sweep completed
            (parked,) = queue.quarantined()
            assert parked.attempts == FAST_RETRY.max_attempts
            assert "Traceback" in parked.error       # journal keeps it
            assert "ValueError" in parked.error

    def test_non_strict_returns_placeholders(self, tmp_path):
        directory = str(tmp_path / "suite")
        specs = [ExperimentSpec(name="poison",
                                workload="no-such-workload")] \
            + synthetic_sweep(2, events=500)
        paths = run_suite(specs, directory, workers=1, strict=False,
                          retry=FAST_RETRY)
        assert paths[0] is None
        assert all(path and os.path.exists(path) for path in paths[1:])

    def test_corrupt_done_artifact_regenerated_on_resume(self,
                                                         tmp_path):
        directory = str(tmp_path / "suite")
        specs = synthetic_sweep(2, events=500)
        paths = run_suite(specs, directory, workers=1)
        pristine = open(paths[0], "rb").read()
        corrupt_chunk(paths[0])
        assert not verify_trace(paths[0]).ok
        report = resume_suite(directory, workers=1)
        assert report.requeued == 1
        assert report.resimulated == 0               # it was not valid
        assert report.counts["done"] == 2
        assert open(paths[0], "rb").read() == pristine

    def test_max_jobs_crash_window_then_resume(self, tmp_path):
        directory = str(tmp_path / "suite")
        specs = synthetic_sweep(4, events=500)
        run_suite(specs, directory, workers=1, max_jobs=2)
        with JobQueue(journal_path(directory)) as queue:
            counts = queue.counts()
        assert counts["done"] == 2
        assert counts["pending"] == 2
        report = resume_suite(directory, workers=1)
        assert report.done_before == 2
        assert report.resimulated == 0
        assert report.simulated == 2
        assert report.counts["done"] == 4

    @pytest.mark.skipif(not hasattr(os, "killpg"),
                        reason="needs POSIX process groups")
    def test_sigkill_mid_sweep_resumes_without_resimulating(self,
                                                            tmp_path):
        directory = str(tmp_path / "suite")
        total = 4
        child = (
            "import sys\n"
            "from repro.analysis.experiments import synthetic_sweep, "
            "run_suite\n"
            "run_suite(synthetic_sweep({}, events=500), sys.argv[1], "
            "workers=2)\n".format(total))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(sys.path),
                   REPRO_ENGINE_TEST_JOB_DELAY="0.3")
        process = subprocess.Popen(
            [sys.executable, "-c", child, directory], env=env,
            start_new_session=True)
        done_at_kill = 0
        deadline = time.monotonic() + 60.0
        try:
            while time.monotonic() < deadline:
                if os.path.exists(journal_path(directory)):
                    with JobQueue(journal_path(directory)) as queue:
                        done_at_kill = queue.counts()["done"]
                    if 0 < done_at_kill < total:
                        break
                if process.poll() is not None:
                    pytest.fail("sweep finished before the kill")
                time.sleep(0.05)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        assert 0 < done_at_kill < total
        report = resume_suite(directory, workers=2)
        assert report.resimulated == 0
        assert report.counts["done"] == total
        assert all(verify_trace(path).ok for path in report.paths)

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"),
                        reason="needs SIGKILL")
    def test_kill_between_publish_and_complete_resumes_as_store_hit(
            self, tmp_path):
        """A SIGKILL after a job's artifact is published but before the
        journal marks it done: the resume serves that job from the
        store, so it counts as a store hit, not a simulation."""
        directory = str(tmp_path / "suite")
        total = 4
        child = (
            "import os, signal, sys\n"
            "from repro.analysis.experiments import run_suite, "
            "synthetic_sweep\n"
            "from repro.analysis.experiments.store import TraceStore\n"
            "publish = TraceStore.publish\n"
            "published = []\n"
            "def publish_then_die(self, key, source):\n"
            "    publish(self, key, source)\n"
            "    published.append(key)\n"
            "    if len(published) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "TraceStore.publish = publish_then_die\n"
            "run_suite(synthetic_sweep({}, events=500), sys.argv[1], "
            "workers=1)\n".format(total))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", child, directory],
                              env=env, timeout=120)
        assert done.returncode == -signal.SIGKILL
        report = resume_suite(directory, workers=1)
        assert report.done_before == 1
        assert report.store_hits == 1
        assert report.simulated == total - report.done_before - 1
        assert report.resimulated == 0
        assert report.counts["done"] == total
        assert all(verify_trace(path).ok for path in report.paths)


class TestVerifyAndSalvage:
    def _trace_path(self, tmp_path, chunk_records=2):
        builder = TraceBuilder(TopologyInfo(num_nodes=1,
                                            cores_per_node=2))
        for index in range(6):
            builder.state_interval(core=index % 2, state=0,
                                   start=100 * index,
                                   end=100 * index + 50)
        path = str(tmp_path / "trace.ost")
        write_trace(builder.build(), path, chunk_records=chunk_records)
        return path

    def test_verify_passes_then_catches_a_flipped_bit(self, tmp_path):
        path = self._trace_path(tmp_path)
        verification = verify_trace(path)
        assert verification.ok and verification.crc_checked
        corrupt_chunk(path)
        damaged = verify_trace(path)
        assert not damaged.ok
        assert "CRC" in damaged.reason

    def test_salvage_recovers_the_verified_prefix(self, tmp_path):
        path = self._trace_path(tmp_path)
        corrupt_chunk(path, which=-1)                # last chunk only
        trace, report = salvage_trace(path)
        assert not report.complete
        assert report.chunks_dropped == 1
        assert len(trace.states) == 4                # 2 of 3 chunks

    def test_legacy_uncrc_files_still_verify_structurally(self,
                                                          tmp_path):
        """v1 (CRC-less) footers are no longer written, but files that
        carry one still read, verify and salvage."""
        path = self._trace_path(tmp_path)
        original = read_trace(path)
        index = read_chunk_index(path)
        footer = [fmt.TAG.pack(int(fmt.RecordTag.CHUNK_INDEX)),
                  fmt.INDEX_HEADER.pack(index.num_chunks)]
        footer.extend(fmt.CHUNK_ENTRY.pack(
            entry.offset, entry.length, entry.t_min, entry.t_max,
            entry.records, entry.core, entry.flags)
            for entry in index.entries)
        footer.append(fmt.INDEX_TRAILER.pack(index.index_offset,
                                             fmt.INDEX_MAGIC))
        with open(path, "r+b") as stream:
            stream.truncate(index.index_offset)
            stream.seek(index.index_offset)
            stream.write(b"".join(footer))
        legacy = read_chunk_index(path)
        assert legacy.num_chunks == index.num_chunks
        assert not legacy.crc_checked
        assert traces_equal(read_trace(path), original)
        verification = verify_trace(path)
        assert verification.ok
        assert not verification.crc_checked
        trace, report = salvage_trace(path)
        assert report.complete
        assert traces_equal(trace, original)


class TestSidecarCorruption:
    @pytest.fixture()
    def cached_trace(self, tmp_path):
        builder = TraceBuilder(TopologyInfo(num_nodes=1,
                                            cores_per_node=2))
        builder.state_interval(core=0, state=0, start=0, end=200)
        for index in range(8):
            builder.counter_sample(core=0, counter_id=0,
                                   timestamp=25 * index,
                                   value=float(index))
        path = str(tmp_path / "trace.ost")
        write_trace(builder.build(), path)
        pristine = read_trace(path, cache=True)      # writes sidecar
        return path, pristine

    def _assert_raises_then_rebuilds(self, path, pristine):
        cache_path = default_cache_path(path)
        with pytest.raises(CacheError):
            ostc.load_cache(cache_path, source_path=path)
        rebuilt = read_trace(path, cache=True)       # transparent
        assert traces_equal(rebuilt, pristine)
        assert ostc.load_cache(cache_path, source_path=path) is not None

    def test_truncated_mid_blob(self, cached_trace):
        path, pristine = cached_trace
        cache_path = default_cache_path(path)
        __, data_start = ostc._read_header(cache_path)
        with open(cache_path, "r+b") as stream:
            stream.truncate(data_start + 8)
        self._assert_raises_then_rebuilds(path, pristine)

    def test_garbage_magic(self, cached_trace):
        path, pristine = cached_trace
        cache_path = default_cache_path(path)
        with open(cache_path, "r+b") as stream:
            stream.write(b"JUNKJUNK")
        with pytest.raises(CacheError):
            ostc.load_cache(cache_path, source_path=path)
        # The session rides the same transparent-rebuild path.
        session = AnalysisSession.open(path)
        assert traces_equal(session.trace, pristine)
        assert ostc.load_cache(cache_path, source_path=path) is not None

    def test_bad_pyramid_manifest(self, cached_trace):
        path, pristine = cached_trace
        cache_path = default_cache_path(path)

        def send_leaves_out_of_bounds(header):
            entry = header["manifest"]["counter_pyramids"][0]
            entry[2][0] = 10 ** 9                    # leaves offset

        self._rewrite_header(cache_path, send_leaves_out_of_bounds)
        self._assert_raises_then_rebuilds(path, pristine)

    @staticmethod
    def _rewrite_header(cache_path, mutate):
        """Re-encode the sidecar's JSON header after ``mutate``,
        keeping the data section's bytes (and relative offsets)."""
        with open(cache_path, "rb") as stream:
            blob = stream.read()
        prefix = ostc._PREFIX
        magic, version, length = prefix.unpack_from(blob)
        header = json.loads(blob[prefix.size:prefix.size + length])
        data = blob[ostc._align(prefix.size + length):]
        mutate(header)
        encoded = json.dumps(header).encode()
        start = ostc._align(prefix.size + len(encoded))
        with open(cache_path, "wb") as stream:
            stream.write(prefix.pack(magic, version, len(encoded)))
            stream.write(encoded)
            stream.write(b"\0" * (start - prefix.size - len(encoded)))
            stream.write(data)


class TestAnalysisErrorHygiene:
    def test_strict_collects_every_failure(self, tmp_path):
        good = str(tmp_path / "good.ost")
        generate_trace(ExperimentSpec(name="good", workload="synthetic",
                                      events=400), good)
        bad = str(tmp_path / "bad.ost")
        with open(bad, "wb") as stream:
            stream.write(b"this is not a trace file")
        with pytest.raises(ExperimentError) as info:
            analyze_traces([good, bad], workers=1)
        message = str(info.value)
        assert "1 of 2 trace(s) failed to analyze" in message
        assert "bad.ost" in message

    def test_non_strict_yields_placeholders(self, tmp_path):
        good = str(tmp_path / "good.ost")
        generate_trace(ExperimentSpec(name="good", workload="synthetic",
                                      events=400), good)
        missing = str(tmp_path / "missing.ost")
        summaries = analyze_traces([good, missing], workers=1,
                                   strict=False)
        assert summaries[0] is not None
        assert summaries[1] is None


class TestCLIErrorHygiene:
    @pytest.fixture(scope="class")
    def cli(self):
        spec = importlib.util.spec_from_file_location("aftermath_cli",
                                                      CLI_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _expect_one_line_failure(self, cli, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("aftermath_cli: ")
        # One line per cause (plus a header when several aggregate) —
        # never a raw worker traceback.
        assert len(err.strip().splitlines()) <= 2
        assert "Traceback" not in err
        return err

    def test_sweep_unreadable_trace(self, cli, tmp_path, capsys):
        missing = str(tmp_path / "missing.ost")
        err = self._expect_one_line_failure(
            cli, ["sweep", missing], capsys)
        assert "missing.ost" in err

    def test_sweep_malformed_trace(self, cli, tmp_path, capsys):
        garbage = str(tmp_path / "garbage.ost")
        with open(garbage, "wb") as stream:
            stream.write(b"not a trace")
        err = self._expect_one_line_failure(
            cli, ["sweep", garbage], capsys)
        assert "garbage.ost" in err

    def test_queue_status_without_journal(self, cli, tmp_path, capsys):
        err = self._expect_one_line_failure(
            cli, ["queue-status", str(tmp_path)], capsys)
        assert "no journal" in err

    def test_sweep_resume_reports_zero_resimulated(self, cli, tmp_path,
                                                   capsys):
        directory = str(tmp_path / "suite")
        run_suite(synthetic_sweep(3, events=500), directory, workers=1,
                  max_jobs=2)
        cli.main(["sweep", "--resume", directory])
        out = capsys.readouterr().out
        assert "re-simulated completed points: 0" in out
        assert "3 done" in out

    def test_queue_status_reports_states(self, cli, tmp_path, capsys):
        directory = str(tmp_path / "suite")
        run_suite(synthetic_sweep(2, events=500), directory, workers=1)
        cli.main(["queue-status", directory])
        out = capsys.readouterr().out
        assert "2 done" in out
        assert "synthetic_0" in out
