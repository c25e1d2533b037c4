"""Self-test of the benchmark harness (collected by the tier-1 run).

Five ``run.py --quick`` processes (8k-event traces, only the
always-run passes) are started side by side — a quick run mostly
waits on the service's 44 ms round trips, so they overlap well — and
every test below reads their result files.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

#: Metrics that are exact functions of the seed (single client).
EXACT = ("render.timeline.draw_calls.state.deep",
         "render.framebuffer.png_bytes",
         "service.server.reply_bytes.render_png",
         "service.server.reply_bytes.render_ascii",
         "service.server.reply_bytes.stats",
         "service.pool.hits", "service.pool.misses",
         "service.pool.evictions", "service.pool.invalidations",
         "service.pool.resident",
         "trace_format.cache.sidecar_bytes_per_event")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{tag: (exit code, stdout, result dict, result path)}``."""
    directory = tmp_path_factory.mktemp("perfbench")
    plans = {
        "plain": ("deepzoom", 1, 0), "traced": ("deepzoom", 1, 1),
        "again": ("deepzoom", 1, 1), "other": ("deepzoom", 2, 1),
        "batch": ("cold_batch", 1, 1)}
    started = {}
    for tag, (workload, seed, trace) in plans.items():
        path = str(directory / (tag + ".json"))
        started[tag] = (path, subprocess.Popen(
            RUN + ["--quick", "--workload", workload, "--seed",
                   str(seed), "--trace", str(trace), "--out", path],
            stdout=subprocess.PIPE, text=True))
    finished = {}
    for tag, (path, process) in started.items():
        output, __ = process.communicate(timeout=120)
        with open(path) as handle:
            result = json.load(handle)
        finished[tag] = (process.returncode, output, result, path)
    return finished


def _metrics(runs, tag):
    (block,) = runs[tag][2]["workloads"].values()
    return block["metrics"]


def test_every_run_is_correct_and_ends_with_the_contract_line(runs):
    for code, output, result, __ in runs.values():
        assert code == 0
        last = json.loads(output.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed",
                             "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        for metric in last["metrics"].values():
            assert set(metric) == {"value", "unit"}
        assert {"commit", "seed", "nproc", "python", "numpy",
                "steps"} <= set(result["fingerprint"])


def test_every_benchmark_name_is_emitted_with_its_unit(runs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    for section, tags in (("end_to_end", ("plain",)),
                          ("per_layer", ("traced", "batch"))):
        declared = {metric["name"]: metric["unit"]
                    for metric in benchmark[section]}
        for name in declared:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                                name)
        for tag in tags:
            emitted = _metrics(runs, tag)
            assert set(emitted) == set(declared)
            for name, metric in emitted.items():
                assert metric["unit"] == declared[name]
                assert metric["n"] >= 0
    # Every end-to-end metric has samples behind it and is not zero.
    for metric in _metrics(runs, "plain").values():
        assert metric["n"] >= 1 and metric["value"] > 0


def test_exact_counts_repeat_for_a_seed_and_follow_the_seed(runs):
    first, again, other = (_metrics(runs, tag)
                           for tag in ("traced", "again", "other"))
    for name in EXACT:
        assert first[name]["value"] == again[name]["value"], name
        assert first[name]["n"] >= 1, name
    assert any(first[name]["value"] != other[name]["value"]
               for name in EXACT)
    assert first["service.pool.misses"]["value"] == 1
    assert first["service.pool.evictions"]["value"] == 0


def test_batch_facts(runs):
    batch = _metrics(runs, "batch")
    assert batch["analysis.experiments.engine.resimulated"][
        "value"] == 0
    assert batch["analysis.experiments.store.dedup_hits"]["value"] == 1
    assert batch["trace_format.chunked.window_bytes_read"]["value"] > 0
    assert batch["runtime.simulator.tasks_per_s"]["value"] > 0


def test_the_tool_opens_its_own_requests(runs):
    from repro.trace_format import ingest_trace
    path = runs["traced"][3].replace(".json", ".deepzoom.chrome.json")
    trace = ingest_trace(path, columnar=True)
    assert len(trace.tasks) > 0
    assert trace.num_cores >= 2       # a client lane and a server lane


def test_children_are_reaped_and_nothing_is_left_behind(runs):
    work = os.path.join(HERE, "work")
    left = os.listdir(work) if os.path.isdir(work) else []
    assert not [name for name in left if name.startswith("run-")]
    serving = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open("/proc/{}/cmdline".format(pid), "rb") as handle:
                command = handle.read()
        except OSError:
            continue
        if os.path.join(HERE, "serve.py").encode() in command:
            serving.append(pid)
    assert not serving


def test_compare_flags_a_regression_beyond_the_bound(runs, tmp_path):
    path = runs["plain"][3]
    same = subprocess.run(RUN + ["--compare", path, path],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    with open(path) as handle:
        slower = json.load(handle)
    (block,) = slower["workloads"].values()
    block["metrics"]["frame_p50_ms"]["value"] *= 1.5
    worse = tmp_path / "slower.json"
    worse.write_text(json.dumps(slower))
    flagged = subprocess.run(RUN + ["--compare", path, str(worse)],
                             capture_output=True, text=True)
    assert flagged.returncode == 1
    assert "REGRESSION" in flagged.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(
                        "results", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    alone = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "deepzoom", "--seed", "1"],
        capture_output=True, text=True, cwd=tmp_path)
    assert alone.returncode not in (0, None)
    assert not alone.stdout.strip()
