"""Extension — crash-resilient durable experiment engine.

Mapping: docs/paper-mapping.md (Figs. 12–19 suite infrastructure).

The paper's comparative evaluation is only as good as the sweeps
behind it, and long sweeps die: workers get OOM-killed, machines
reboot, one mis-parameterized spec throws.  This bench pins the two
contracts of the durable engine (ISSUE 9):

* **per-trace analyze throughput** — the journal, lease heartbeats,
  content-store verification and CRC-checked trace I/O wrap every
  sweep point, so the per-trace analysis path must stay fast: one
  fixed-size corpus (scale-independent, comparable across machines)
  summarized single-core through the mapped sidecar must sustain
  >= 50k events/s, recorded as the always-enforced
  ``pr9/analyze_throughput`` metric of ``tools/perf_gate.py`` — like
  the ingest floor, it holds even on a 1-CPU runner and is never
  skipped;
* **crash-kill-resume** — a sweep SIGKILLed mid-flight (the whole
  process group, workers included) resumes from its journal alone,
  re-simulates **zero** completed points, and converges to a trace
  set bit-identical to an uninterrupted run.

Timings land in ``benchmarks/results/`` (human-readable) and the
``pr9`` section of ``BENCH_HISTORY.json`` (machine-readable, enforced
by ``tools/perf_gate.py`` in CI).
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

from bench_json import record
from figutils import write_result
from repro.analysis.experiments import analyze_traces, resume_suite
from repro.analysis.experiments.queue import JobQueue, journal_path
from repro.trace_format.synthesize import write_synthetic_trace

#: Event records in the fixed corpus (deliberately NOT scaled by
#: REPRO_SCALE: an always-enforced gate needs a stable denominator).
CORPUS_EVENTS = 40_000

#: Events/second the cached single-core analysis must sustain.  The
#: local reference machine summarizes ~1.37M events/s through the
#: mapped sidecar; the floor leaves >= 27x headroom for slow CI
#: runners, and the perf gate enforces it at *every* scale
#: (gate: always).
FLOOR_EVENTS_PER_SEC = 50_000.0

#: The interrupted sweep: spec count, per-trace events, and the
#: per-job delay that widens the kill window deterministically.
CRASH_SPECS = 6
CRASH_EVENTS = 4_000
CRASH_JOB_DELAY = 0.5


def test_analyze_throughput(scale, tmp_path):
    """Always-enforced criterion: the engine's per-trace analysis
    (mapped-sidecar open + full summary) sustains >= 50k events/s on
    one core."""
    path = str(tmp_path / "corpus.ost")
    write_synthetic_trace(path, events=CORPUS_EVENTS, nodes=2,
                          cores_per_node=4, task_types=5, seed=9)
    analyze_traces([path], workers=1)      # warm: writes the sidecar
    seconds = []
    for __ in range(3):
        begin = time.perf_counter()
        summaries = analyze_traces([path], workers=1)
        seconds.append(time.perf_counter() - begin)
    assert summaries[0].tasks > 0
    throughput = CORPUS_EVENTS / min(seconds)
    write_result("ext_engine_throughput", [
        "Extension: durable experiment engine — per-trace analyze",
        "throughput (single core, mapped .ostc sidecar):",
        "corpus: {} events".format(CORPUS_EVENTS),
        "best of 3: {:.4f} s -> {:.0f} events/s".format(
            min(seconds), throughput),
        "floor: {:.0f} events/s (enforced at every scale)".format(
            FLOOR_EVENTS_PER_SEC),
    ])
    record("analyze_throughput", {
        "scale": scale, "events": CORPUS_EVENTS,
        "gate": "always",
        "events_per_sec": throughput,
        "best_s": min(seconds),
    }, section="pr9")
    # No scale gate here on purpose: the corpus is fixed-size and the
    # path is single-core, so the floor must hold everywhere.
    assert throughput >= FLOOR_EVENTS_PER_SEC


def _suite_hashes(directory):
    return {
        name: hashlib.sha256(
            open(os.path.join(directory, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(directory))
        if name.endswith(".ost") and not name.startswith(".")}


@pytest.mark.skipif(not hasattr(os, "killpg"),
                    reason="needs POSIX process groups")
def test_crash_kill_resume(scale, tmp_path):
    """Robustness criterion: SIGKILL a sweep mid-flight (workers and
    all), resume from the journal alone, and re-simulate zero
    completed points — converging to a bit-identical trace set."""
    directory = str(tmp_path / "suite")
    child = (
        "import sys\n"
        "from repro.analysis.experiments import synthetic_sweep, "
        "run_suite\n"
        "run_suite(synthetic_sweep({}, events={}), sys.argv[1], "
        "workers=2)\n").format(CRASH_SPECS, CRASH_EVENTS)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_ENGINE_TEST_JOB_DELAY=str(CRASH_JOB_DELAY))
    process = subprocess.Popen([sys.executable, "-c", child, directory],
                               env=env, start_new_session=True)
    # Kill once the journal shows genuine partial progress: at least
    # one point completed, at least one still outstanding.
    done_at_kill = 0
    deadline = time.monotonic() + 60.0
    try:
        while time.monotonic() < deadline:
            if os.path.exists(journal_path(directory)):
                with JobQueue(journal_path(directory)) as queue:
                    counts = queue.counts()
                if 0 < counts["done"] < CRASH_SPECS:
                    done_at_kill = counts["done"]
                    break
            if process.poll() is not None:
                pytest.fail("sweep finished before it could be killed "
                            "— widen CRASH_JOB_DELAY")
            time.sleep(0.05)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    assert 0 < done_at_kill < CRASH_SPECS
    begin = time.perf_counter()
    report = resume_suite(directory, workers=2)
    resume_seconds = time.perf_counter() - begin
    assert report.resimulated == 0
    assert report.counts["done"] == CRASH_SPECS
    assert not report.quarantined
    # Exactly the interrupted remainder ran, nothing more.  A kill
    # between a job's store publish and its journal completion leaves
    # the artifact published: the resume serves that job as a store
    # hit, not a simulation — at most one such job per worker.
    assert (report.simulated + report.store_hits
            == CRASH_SPECS - report.done_before)
    assert report.store_hits <= 2
    # The resumed set must be bit-identical to an uninterrupted run.
    pristine = str(tmp_path / "pristine")
    from repro.analysis.experiments import run_suite, synthetic_sweep
    run_suite(synthetic_sweep(CRASH_SPECS, events=CRASH_EVENTS),
              pristine, workers=2)
    assert _suite_hashes(directory) == _suite_hashes(pristine)
    write_result("ext_engine_crash_resume", [
        "Extension: durable experiment engine — SIGKILL/resume:",
        "suite: {} specs x {} events, 2 workers".format(
            CRASH_SPECS, CRASH_EVENTS),
        "completed points at kill: {}".format(done_at_kill),
        "re-simulated completed points on resume: {} (required: "
        "0)".format(report.resimulated),
        "simulated on resume: {}, store hits: {} (together the "
        "interrupted remainder)".format(report.simulated,
                                        report.store_hits),
        "resume wall time: {:.3f} s".format(resume_seconds),
        "final trace set bit-identical to uninterrupted run: True",
    ])
    record("crash_resume", {
        "scale": scale, "specs": CRASH_SPECS, "events": CRASH_EVENTS,
        "done_at_kill": done_at_kill,
        "resimulated": report.resimulated,
        "simulated_on_resume": report.simulated,
        "resume_s": resume_seconds,
        "bit_identical": True,
    }, section="pr9")
