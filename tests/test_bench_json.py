"""Tests for the perf-history writer and the CI perf gate.

``tools/bench_json.py`` merges benchmark payloads into the sectioned
``BENCH_HISTORY.json`` under a file lock — two bench modules recording
concurrently must never lose each other's entries (the regression this
file pins: the old implementation re-read the file outside any lock,
so racing writers overwrote unrelated top-level keys).
``tools/perf_gate.py`` turns the history into an enforced floor.
"""

import json
import multiprocessing
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_json  # noqa: E402
import perf_gate  # noqa: E402

sys.path.pop(0)


class TestRecord:
    def test_round_trip_single_entry(self, tmp_path):
        path = tmp_path / "history.json"
        bench_json.record("bench_a", {"speedup": 4.5}, section="pr9",
                          path=path)
        assert bench_json.load_history(path) \
            == {"pr9": {"bench_a": {"speedup": 4.5}}}

    def test_sections_and_names_are_preserved(self, tmp_path):
        path = tmp_path / "history.json"
        bench_json.record("a", {"x": 1}, section="pr4", path=path)
        bench_json.record("b", {"y": 2}, section="pr5", path=path)
        bench_json.record("c", {"z": 3}, section="pr4", path=path)
        assert bench_json.load_history(path) == {
            "pr4": {"a": {"x": 1}, "c": {"z": 3}},
            "pr5": {"b": {"y": 2}},
        }

    def test_same_key_overwrites_only_itself(self, tmp_path):
        path = tmp_path / "history.json"
        bench_json.record("a", {"x": 1}, section="pr4", path=path)
        bench_json.record("a", {"x": 9}, section="pr4", path=path)
        bench_json.record("a", {"x": 7}, section="pr5", path=path)
        assert bench_json.load_history(path) == {
            "pr4": {"a": {"x": 9}}, "pr5": {"a": {"x": 7}}}

    def test_corrupt_file_recovers(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text("{not json")
        bench_json.record("a", {"x": 1}, section="pr4", path=path)
        assert bench_json.load_history(path) == {"pr4": {"a": {"x": 1}}}

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        """Many processes hammering distinct (section, name) keys: the
        lock makes every entry survive."""
        path = tmp_path / "history.json"
        jobs = [("pr{}".format(index % 3), "bench_{}".format(index),
                 str(path)) for index in range(24)]
        try:
            with multiprocessing.get_context().Pool(4) as pool:
                pool.map(_record_one, jobs)
        except (OSError, PermissionError):
            pytest.skip("platform cannot spawn processes")
        history = bench_json.load_history(path)
        recorded = {(section, name) for section in history
                    for name in history[section]}
        assert recorded == {(section, name)
                            for section, name, __ in jobs}


def _record_one(job):
    """Worker body for the concurrency test (module-level: picklable)."""
    section, name, path = job
    bench_json.record(name, {"value": 1}, section=section, path=path)


def _history(sweep_speedup=4.0, reopen=100.0, frames=12.0,
             scale="default", ingest=120_000.0, first_frame=0.6,
             deep_zoom=0.2, analyze=900_000.0):
    """A fresh history covering every tracked metric."""
    return {
        "pr4": {
            "cache_reopen": {"scale": scale,
                             "reopen_speedup": reopen},
            "frame_loop": {"scale": scale, "frame_speedup": frames},
        },
        "pr5": {
            "sweep_scaling": {"scale": scale, "cpus": 4,
                              "pool_speedup": sweep_speedup},
        },
        "pr6": {
            "ingest_throughput": {"scale": scale, "gate": "always",
                                  "events_per_sec": ingest},
        },
        "pr8": {
            "first_frame_reopen": {"scale": scale,
                                   "first_frame_reopen_ms":
                                       first_frame},
            "deep_zoom_frame": {"scale": scale,
                                "deep_zoom_frame_ms": deep_zoom},
        },
        "pr9": {
            "analyze_throughput": {"scale": scale, "gate": "always",
                                   "events_per_sec": analyze},
        },
    }


class TestPerfGate:
    def test_passes_when_all_floors_hold(self):
        failures, lines = perf_gate.check_history(_history())
        assert failures == []
        assert len(lines) == len(perf_gate.TRACKED)

    def test_fails_on_injected_regression(self):
        failures, __ = perf_gate.check_history(_history(reopen=2.0))
        assert any("below the floor" in failure
                   for failure in failures)

    def test_fails_when_tracked_metric_missing(self):
        history = _history()
        del history["pr5"]
        failures, __ = perf_gate.check_history(history)
        assert any("missing" in failure for failure in failures)

    def test_small_scale_entries_are_skipped(self):
        failures, lines = perf_gate.check_history(
            _history(sweep_speedup=0.1, reopen=0.1, frames=0.1,
                     scale="small"))
        assert failures == []
        # Every scale-gated metric skips; the always-enforced bounds
        # (ingest + analyze floors, deep-zoom ceiling) still get
        # checked (and hold here).
        skipped = [line for line in lines if "skipped" in line]
        assert len(skipped) == len(perf_gate.TRACKED) - 3
        assert any("ingest_throughput" in line and "skipped" not in
                   line for line in lines)
        assert any("deep_zoom_frame" in line and "skipped" not in
                   line for line in lines)
        assert any("analyze_throughput" in line and "skipped" not in
                   line for line in lines)

    def test_gate_skip_marker_respected(self):
        history = _history(sweep_speedup=0.5)
        history["pr5"]["sweep_scaling"]["gate"] = "skip"
        history["pr5"]["sweep_scaling"]["gate_reason"] = "1 cpu"
        failures, __ = perf_gate.check_history(history)
        assert failures == []

    def test_always_metric_enforced_at_small_scale(self):
        """The 1-CPU-runner regression this PR pins: an
        always-enforced metric must not silently skip when the bench
        ran at the small scale."""
        failures, __ = perf_gate.check_history(
            _history(scale="small", ingest=500.0))
        assert any("ingest_throughput" in failure
                   and "below the floor" in failure
                   for failure in failures)

    def test_always_metric_ignores_skip_marker(self):
        history = _history(ingest=500.0)
        history["pr6"]["ingest_throughput"]["gate"] = "skip"
        history["pr6"]["ingest_throughput"]["gate_reason"] = "nope"
        failures, __ = perf_gate.check_history(history)
        assert any("ingest_throughput" in failure
                   for failure in failures)

    def test_always_metric_keeps_small_scale_baseline(self):
        """Always metrics are scale-independent by contract, so even
        a small-scale committed baseline stays a collapse reference."""
        fresh = _history(ingest=15_000.0)     # above the 10k floor
        baseline = _history(ingest=200_000.0, scale="small")
        failures, __ = perf_gate.check_history(fresh,
                                               baseline=baseline,
                                               slack=0.5)
        assert any("ingest_throughput" in failure
                   and "regressed below" in failure
                   for failure in failures)

    def test_ceiling_metric_fails_above_the_bound(self):
        """Latency metrics gate in the other direction: a value above
        the ceiling fails even though every floor metric holds."""
        failures, __ = perf_gate.check_history(_history(first_frame=2.5))
        assert any("first_frame_reopen" in failure
                   and "above the ceiling" in failure
                   for failure in failures)

    def test_ceiling_metric_passes_below_the_bound(self):
        failures, __ = perf_gate.check_history(_history(first_frame=0.9,
                                                        deep_zoom=0.9))
        assert failures == []

    def test_always_ceiling_enforced_at_small_scale(self):
        """The deep-zoom frame is O(width) regardless of trace size,
        so its ceiling holds even for a small-scale run."""
        failures, __ = perf_gate.check_history(
            _history(scale="small", deep_zoom=3.0))
        assert any("deep_zoom_frame" in failure
                   and "above the ceiling" in failure
                   for failure in failures)

    def test_ceiling_baseline_collapse_fails_even_below_ceiling(self):
        """With slack, a latency that balloons versus the committed
        baseline fails even while it still clears the ceiling."""
        fresh = _history(first_frame=0.9)     # under the 1.0 ceiling
        baseline = _history(first_frame=0.3)  # committed trajectory
        failures, __ = perf_gate.check_history(fresh,
                                               baseline=baseline,
                                               slack=0.5)
        assert any("first_frame_reopen" in failure
                   and "regressed above" in failure
                   for failure in failures)

    def test_baseline_collapse_fails_even_above_floor(self):
        fresh = _history(reopen=6.0)          # above the 5.0 floor
        baseline = _history(reopen=5000.0)    # committed trajectory
        failures, __ = perf_gate.check_history(fresh,
                                               baseline=baseline,
                                               slack=0.5)
        assert any("regressed below" in failure
                   for failure in failures)

    def test_small_scale_baselines_are_not_collapse_references(self):
        """A baseline recorded at small scale (or opted out) is not
        comparable to a default-scale fresh run — only the floor
        applies."""
        fresh = _history(reopen=120.0)
        baseline = _history(reopen=318.0, scale="small")
        failures, __ = perf_gate.check_history(fresh,
                                               baseline=baseline,
                                               slack=0.5)
        assert failures == []
        skipped = _history(reopen=5000.0)
        skipped["pr4"]["cache_reopen"]["gate"] = "skip"
        failures, __ = perf_gate.check_history(_history(reopen=6.0),
                                               baseline=skipped,
                                               slack=0.5)
        assert failures == []

    def test_committed_history_is_default_scale(self):
        """The committed baseline must stay a default-scale trajectory
        — a small-scale smoke run accidentally committed would make
        every collapse comparison meaningless."""
        history = json.loads((ROOT / "BENCH_HISTORY.json").read_text())
        for section in history.values():
            for entry in section.values():
                assert entry.get("scale") == "default"

    def test_committed_history_passes_the_gate(self):
        """The repository's own BENCH_HISTORY.json must satisfy the
        gate it ships (the perf-gate CI job diffs against it)."""
        history = json.loads((ROOT / "BENCH_HISTORY.json").read_text())
        failures, __ = perf_gate.check_history(history)
        assert failures == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_history()))
        assert perf_gate.main(["--history", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_history(sweep_speedup=1.0)))
        assert perf_gate.main(["--history", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
