"""Extension — parallel multi-trace experiment engine.

Mapping: docs/paper-mapping.md (Figs. 12–19 extensions).

The paper's evaluation is comparative — block sizes (Fig. 12),
schedulers and placements (Figs. 13–15), counter correlations
(Figs. 17–19) — so the repo's experiment engine must sweep and
contrast *suites* of traces, not inspect one at a time.  This bench
quantifies and pins the engine's two contracts:

* **pooled sweep scaling** — ``analyze_traces`` over a suite of
  synthetic million-event-class traces through a 4-worker process
  pool, each worker opening its trace via the memory-mapped ``.ostc``
  sidecar, must beat the serial loop by >= 3x (near-linear on 4
  cores; gated to the default/paper scales on machines with >= 4
  CPUs) with per-trace summaries identical to the serial pass;
* **diff soundness** — diffing a trace against itself yields an empty
  report at the strictest tolerance, while diffing two different
  sweep points reports deviations.

Timings land in ``benchmarks/results/`` (human-readable) and the
``pr5`` section of ``BENCH_HISTORY.json`` (machine-readable, enforced
by ``tools/perf_gate.py`` in CI).
"""

import os
import time

import pytest

from bench_json import record
from figutils import write_result
from repro.analysis import parallel_streaming_statistics
from repro.analysis.experiments import (EXACT, analyze_traces,
                                        diff_trace_files, run_suite,
                                        sweep_table, synthetic_sweep)
from repro.trace_format import (StreamingStatistics, fold_records,
                                stream_records)

_EVENTS = {"small": 6_000, "default": 1_000_000, "paper": 2_000_000}
SUITE_TRACES = 4
POOL_WORKERS = 4


@pytest.fixture(scope="module")
def experiment_suite(scale, tmp_path_factory):
    """>= 4 synthetic traces with warm ``.ostc`` sidecars."""
    events = _EVENTS.get(scale, _EVENTS["default"])
    directory = str(tmp_path_factory.mktemp("suite"))
    specs = synthetic_sweep(SUITE_TRACES, events=events)
    paths = run_suite(specs, directory, workers=POOL_WORKERS)
    return paths, events


def _timed(function, *args, **kwargs):
    t0 = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - t0, result


def test_pooled_sweep_scaling(scale, experiment_suite):
    """Tentpole criterion: the pooled sweep must analyze >= 4 traces
    >= 3x faster than the serial loop on 4 workers (scale- and
    CPU-gated), with identical per-trace summaries."""
    paths, events = experiment_suite
    cpus = os.cpu_count() or 1
    analyze_traces(paths, workers=1)          # warm page cache + trees
    # Best-of-N on both sides (like the cache-reopen bench): shared CI
    # runners are noisy, and the floor is about capability, not one
    # unlucky scheduling quantum.
    serial_seconds, serial = min(
        (_timed(analyze_traces, paths, workers=1) for __ in range(2)),
        key=lambda timing: timing[0])
    pool_seconds, pooled = min(
        (_timed(analyze_traces, paths, workers=POOL_WORKERS)
         for __ in range(3)),
        key=lambda timing: timing[0])
    assert [summary.name for summary in pooled] \
        == [summary.name for summary in serial]
    for mine, theirs in zip(serial, pooled):
        assert mine == theirs
    speedup = serial_seconds / pool_seconds if pool_seconds else 0.0
    gated = scale != "small" and cpus >= POOL_WORKERS
    write_result("ext_experiments_scaling", [
        "Extension: parallel multi-trace experiment engine —",
        "pooled sweep analysis vs. the serial loop (Figs. 12-19",
        "comparisons at suite granularity).",
        "suite: {} traces x {} events, {} workers, {} cpus".format(
            len(paths), events, POOL_WORKERS, cpus),
        "serial sweep: {:.3f} s".format(serial_seconds),
        "pooled sweep: {:.3f} s".format(pool_seconds),
        "sweep speedup: {:.2f}x (required: >= 3x on 4 workers at "
        "default scale)".format(speedup),
        "summaries identical across serial/pooled: True",
    ])
    payload = {
        "scale": scale, "traces": len(paths), "events": events,
        "workers": POOL_WORKERS, "cpus": cpus,
        "serial_s": serial_seconds, "pool_s": pool_seconds,
        "pool_speedup": speedup,
    }
    if cpus < POOL_WORKERS:
        # Too few cores to show pool scaling; record the datapoint but
        # tell the perf gate not to enforce the floor on it.
        payload["gate"] = "skip"
        payload["gate_reason"] = "needs >= {} CPUs, machine has {}" \
            .format(POOL_WORKERS, cpus)
    record("sweep_scaling", payload, section="pr5")
    if gated:
        assert speedup >= 3.0


def test_aggregation_is_exact(experiment_suite):
    """The N-file fold equals per-file accumulation: merged
    record/task counts are the sums, and time bounds the envelopes,
    of the individual serial folds."""
    paths, __ = experiment_suite
    individual = [fold_records(stream_records(path),
                               StreamingStatistics()) for path in paths]
    merged = parallel_streaming_statistics(paths, workers=1)
    assert merged.records == sum(stats.records for stats in individual)
    assert merged.total_tasks == sum(stats.total_tasks
                                     for stats in individual)
    assert merged.begin == min(stats.begin for stats in individual)
    assert merged.end == max(stats.end for stats in individual)
    table = sweep_table(analyze_traces(paths, workers=1))
    assert len(table) == len(paths)
    write_result("ext_experiments_aggregate", [
        "Cross-trace aggregation exactness over {} traces:".format(
            len(paths)),
        "merged records: {} (= sum of parts)".format(merged.records),
        "merged tasks:   {} (= sum of parts)".format(
            merged.total_tasks),
        "sweep table rows: {}".format(len(table)),
    ])


def test_diff_engine_soundness(experiment_suite):
    """Self-diff is empty at the strictest tolerance; two different
    sweep points deviate."""
    paths, __ = experiment_suite
    self_report = diff_trace_files(paths[0], paths[0],
                                   tolerances=EXACT)
    assert self_report.is_empty
    cross_report = diff_trace_files(paths[0], paths[1],
                                    tolerances=EXACT)
    assert not cross_report.is_empty
    write_result("ext_experiments_diff", [
        "Trace-diff soundness:",
        "self-diff empty at zero tolerance: True",
        "cross-diff deviations (seed 0 vs seed 1): {}".format(
            len(cross_report)),
    ])
