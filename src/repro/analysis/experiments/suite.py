"""Parallel multi-trace experiment suites.

The paper's evaluation is comparative: every figure from Fig. 12 on
contrasts *runs* — block sizes, schedulers, NUMA placements — rather
than inspecting one trace in isolation.  This module turns the
single-run harness (:mod:`repro.analysis.experiments.harness`) into a
suite engine:

* :class:`ExperimentSpec` names one point of a parameter sweep
  (workload, optimized/non-optimized run-time, block size, seed);
  :func:`scheduler_sweep` and :func:`block_size_sweep` build the two
  sweeps the paper studies, :func:`synthetic_sweep` builds cheap
  seed-varied trace files for scale tests.
* :func:`run_suite` executes every spec and writes one indexed trace
  file (plus its ``.ostc`` mapped-cache sidecar) per point into a
  suite directory.  Since the durable-engine rework it is
  crash-resilient: specs become jobs in a SQLite journal
  (:mod:`~repro.analysis.experiments.queue`), artifacts live in a
  content-addressed store (:mod:`~repro.analysis.experiments.store`),
  and worker processes drain the journal with leases, backoff retries
  and quarantine (:mod:`~repro.analysis.experiments.engine`).
  :func:`resume_suite` picks a killed sweep back up from the journal
  alone, never re-simulating completed points.
* :func:`analyze_traces` ingests N trace files — from :func:`run_suite`
  or anywhere else — through a worker pool; each worker opens its
  trace via the memory-mapped columnar cache (``read_trace(path,
  cache=True)``), so repeated sweeps over the same files fault in
  pages instead of re-parsing records, and folds it into one
  :class:`TraceSummary`.  Per-trace failures are collected, not
  pool-fatal.

Workers are separate processes, so specs and summaries are plain
picklable dataclasses.  Platforms that cannot spawn processes (or
``workers=1``) degrade to an identical serial loop
(:func:`repro.analysis.parallel.pooled_map`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..parallel import pooled_map, resolve_workers
from . import harness


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of a parameter sweep.

    ``workload`` selects the generator: ``"seidel"``, ``"kmeans"``,
    ``"wavefront"`` and ``"pipeline"`` run applications through the
    simulator; ``"synthetic"`` writes a synthetic trace file directly
    (cheap, for scale tests).  ``params`` carries the swept values
    (for example ``("block_size", 10000)`` pairs) and is what the
    aggregation layer groups summary tables by.  ``faults`` carries a
    :class:`repro.runtime.faults.FaultInjectionConfig` as a tuple of
    ``(field, value)`` pairs (kept flat so specs stay hashable and
    picklable across pool workers); the empty tuple plants nothing.
    """

    name: str
    workload: str = "seidel"
    optimized: bool = True
    scale: str = "small"
    seed: int = 0
    block_size: Optional[int] = None
    events: int = 50_000
    params: Tuple[Tuple[str, object], ...] = ()
    faults: Tuple[Tuple[str, object], ...] = ()

    def param_dict(self):
        """The swept parameters as a plain dict (JSON-friendly)."""
        return dict(self.params)

    def fault_config(self):
        """The spec's :class:`FaultInjectionConfig` (None when the
        spec plants no faults)."""
        if not self.faults:
            return None
        from ...runtime.faults import FaultInjectionConfig
        return FaultInjectionConfig(**dict(self.faults))

    def trace_filename(self):
        """The suite-directory file name of this spec's trace."""
        return "{}.ost".format(self.name)


def scheduler_sweep(workload="seidel", scale="small", seed=0):
    """The paper's Section IV contrast: non-optimized vs. optimized
    run-time (random stealing/placement vs. NUMA-aware) for one
    workload."""
    return [
        ExperimentSpec(name="{}_nonopt".format(workload),
                       workload=workload, optimized=False, scale=scale,
                       seed=seed, params=(("scheduler", "random"),)),
        ExperimentSpec(name="{}_opt".format(workload), workload=workload,
                       optimized=True, scale=scale, seed=seed,
                       params=(("scheduler", "numa-aware"),)),
    ]


def block_size_sweep(block_sizes, scale="small", seed=0):
    """The Fig. 12 sweep: k-means across task granularities."""
    return [
        ExperimentSpec(name="kmeans_bs{}".format(block_size),
                       workload="kmeans", scale=scale, seed=seed,
                       block_size=int(block_size),
                       params=(("block_size", int(block_size)),))
        for block_size in block_sizes
    ]


def fault_sweep(workload="wavefront", scale="small", seed=0,
                straggler_core=2, throttle_core=1,
                throttle_window=(1_500_000, 4_500_000)):
    """The fault-injection scenario zoo: one clean run plus one spec
    per planted fault family (straggler core, frequency-throttle
    window), all over the same workload and seed so the clean trace
    is the controlled baseline the detector tests diff against."""
    start, end = throttle_window
    return [
        ExperimentSpec(name="{}_clean".format(workload),
                       workload=workload, scale=scale, seed=seed,
                       params=(("fault", "none"),)),
        ExperimentSpec(name="{}_straggler".format(workload),
                       workload=workload, scale=scale, seed=seed,
                       params=(("fault", "straggler"),),
                       faults=(("straggler_cores", (straggler_core,)),
                               ("straggler_factor", 4.0))),
        ExperimentSpec(name="{}_throttle".format(workload),
                       workload=workload, scale=scale, seed=seed,
                       params=(("fault", "throttle"),),
                       faults=(("throttle_cores", (throttle_core,)),
                               ("throttle_factor", 3.0),
                               ("throttle_start", int(start)),
                               ("throttle_end", int(end)))),
    ]


def synthetic_sweep(count, events=50_000, seed=0):
    """``count`` seed-varied synthetic trace specs (scale tests)."""
    return [
        ExperimentSpec(name="synthetic_{}".format(index),
                       workload="synthetic", seed=seed + index,
                       events=int(events),
                       params=(("seed", seed + index),))
        for index in range(count)
    ]


@dataclass
class TraceSummary:
    """The cross-trace comparison record of one analyzed trace.

    Everything the aggregation and table layers need, detached from
    the (possibly huge) store it was computed from: identification
    (``name``, ``path``, ``params``), scale (``records`` event rows,
    ``duration`` in cycles), the per-state cycle totals, per-type task
    counts and durations, and the headline scalar metrics.
    """

    name: str
    path: str
    params: Dict[str, object] = field(default_factory=dict)
    records: int = 0
    tasks: int = 0
    duration: int = 0
    average_parallelism: float = 0.0
    locality_fraction: float = 1.0
    state_cycles: Dict[int, int] = field(default_factory=dict)
    tasks_per_type: Dict[str, int] = field(default_factory=dict)
    duration_per_type: Dict[str, int] = field(default_factory=dict)
    anomaly_counts: Dict[str, int] = field(default_factory=dict)
    histogram_edges: Tuple[float, ...] = ()
    histogram_fractions: Tuple[float, ...] = ()
    counter_r2: Dict[str, float] = field(default_factory=dict)
    graph_edges: int = 0
    critical_path: int = 0
    peak_parallelism: int = 0

    def state_fraction(self, state):
        """Share of all state cycles spent in ``state`` (0.0 if none)."""
        total = sum(self.state_cycles.values())
        if total == 0:
            return 0.0
        return self.state_cycles.get(int(state), 0) / total


def summarize_trace(trace, name="", path="", params=None,
                    histogram_bins=16, graph=True):
    """Fold one loaded trace (in memory or mapped) into a
    :class:`TraceSummary`.

    This is the per-worker map step of :func:`analyze_traces`: the
    vectorized statistics, the anomaly scan, the task-duration
    histogram (Fig. 16), the per-counter duration correlations
    (Figs. 17–19) and — unless ``graph=False`` — the reconstructed
    task-graph metrics (Fig. 5's available parallelism, the critical
    path).  Together they are the full comparative view of one sweep
    point, which is the per-trace work the suite bench pools across
    workers.
    """
    from ...core import anomalies, statistics
    from ...core.taskgraph import reconstruct_task_graph
    state_cycles = {int(state): int(cycles) for state, cycles in
                    statistics.state_time_summary(trace).items()}
    type_names = {info.type_id: info.name for info in trace.task_types}
    columns = trace.tasks.columns
    tasks_per_type: Dict[str, int] = {}
    duration_per_type: Dict[str, int] = {}
    type_ids = columns["type_id"]
    durations = columns["end"] - columns["start"]
    for type_id in np.unique(type_ids):
        selected = type_ids == type_id
        label = type_names.get(int(type_id), str(int(type_id)))
        tasks_per_type[label] = int(selected.sum())
        duration_per_type[label] = int(durations[selected].sum())
    counts: Dict[str, int] = {}
    for finding in anomalies.scan(trace):
        counts[finding.kind] = counts.get(finding.kind, 0) + 1
    edges, fractions = statistics.task_duration_histogram(
        trace, bins=histogram_bins)
    counter_r2: Dict[str, float] = {}
    for entry in anomalies.correlate_counters(
            trace, require_positive_slope=False):
        best = counter_r2.get(entry.counter, 0.0)
        counter_r2[entry.counter] = max(best, float(entry.r_squared))
    graph_edges = critical_path = peak_parallelism = 0
    if graph:
        task_graph = reconstruct_task_graph(trace)
        __, depth_counts = task_graph.parallelism_profile()
        graph_edges = int(task_graph.num_edges)
        critical_path = int(task_graph.critical_path_length())
        peak_parallelism = (int(depth_counts.max())
                            if len(depth_counts) else 0)
    records = (len(trace.states) + len(trace.tasks)
               + len(trace.discrete))
    return TraceSummary(
        name=name, path=str(path),
        params=dict(params) if params else {},
        records=int(records),
        tasks=int(len(trace.tasks)),
        duration=int(trace.duration),
        average_parallelism=float(
            statistics.average_parallelism(trace)),
        locality_fraction=float(statistics.locality_fraction(trace)),
        state_cycles=state_cycles,
        tasks_per_type=tasks_per_type,
        duration_per_type=duration_per_type,
        anomaly_counts=counts,
        histogram_edges=tuple(float(edge) for edge in edges),
        histogram_fractions=tuple(float(fraction)
                                  for fraction in fractions),
        counter_r2=counter_r2,
        graph_edges=graph_edges,
        critical_path=critical_path,
        peak_parallelism=peak_parallelism)


def generate_trace(spec, path):
    """Simulate (or synthesize) one spec's trace into ``path``.

    The pure generation step of a sweep point — deterministic in the
    spec, no sidecar, no journal.  The durable engine
    (:mod:`repro.analysis.experiments.engine`) calls this into a temp
    file and publishes the result to the content-addressed store.
    """
    faults = spec.fault_config()
    if spec.workload == "synthetic":
        from ...trace_format.synthesize import write_synthetic_trace
        write_synthetic_trace(path, events=spec.events, seed=spec.seed,
                              faults=faults)
        return path
    from ...trace_format import write_trace
    if spec.workload == "seidel":
        __, trace = harness.seidel_trace(
            optimized=spec.optimized, scale=spec.scale,
            seed=spec.seed, faults=faults)
    elif spec.workload == "kmeans":
        kwargs = {}
        if spec.block_size is not None:
            kwargs["block_size"] = spec.block_size
        __, trace = harness.kmeans_trace(
            optimized=spec.optimized, scale=spec.scale,
            seed=spec.seed, faults=faults, **kwargs)
    elif spec.workload == "wavefront":
        __, trace = harness.wavefront_trace(
            optimized=spec.optimized, scale=spec.scale,
            seed=spec.seed, faults=faults)
    elif spec.workload == "pipeline":
        __, trace = harness.pipeline_trace(
            optimized=spec.optimized, scale=spec.scale,
            seed=spec.seed, faults=faults)
    else:
        raise ValueError("unknown workload {!r}".format(spec.workload))
    write_trace(trace, path, index=True)
    return path


def _summarize_path(job):
    """Worker body of :func:`analyze_traces`: open one trace through
    the mapped cache and summarize it.  Failures come back as data —
    ``("error", diagnostic)`` — instead of tearing down the pool, so
    one unreadable trace cannot lose the other workers' results."""
    path, name, params, cache = job
    try:
        from ...trace_format import read_trace
        trace = read_trace(path, cache=bool(cache))
        return ("ok", summarize_trace(trace, name=name, path=path,
                                      params=params))
    except Exception as error:
        message = str(error).strip().splitlines()
        return ("error", "{}: {}: {}".format(
            path, type(error).__name__,
            message[0] if message else "failed"))


def run_suite(specs, directory, workers=None, strict=True, retry=None,
              max_jobs=None):
    """Execute every spec of a sweep; returns the trace paths in order.

    Each spec becomes one indexed trace file (plus its ``.ostc``
    mapped-cache sidecar) under ``directory``, produced by worker
    processes draining the directory's durable job journal
    (:mod:`repro.analysis.experiments.engine`).  The call is
    idempotent and crash-resumable: re-running it over the same
    directory simulates only the points that never completed, and
    sweep points whose content hash matches an artifact already in
    the suite store are materialized for free instead of re-simulated.

    A failing spec retries with backoff per ``retry`` (a
    :class:`~repro.analysis.experiments.queue.RetryPolicy`; default 3
    attempts) and is then quarantined with its traceback — the rest of
    the sweep always completes.  With ``strict=True`` (default) any
    quarantined spec then raises a one-line-per-spec
    :class:`~repro.analysis.experiments.queue.ExperimentError`;
    ``strict=False`` returns ``None`` in that spec's slot instead.
    ``max_jobs`` stops the (then serial) drain after that many job
    executions — the crash-window test seam.
    """
    from .engine import run_suite_engine
    specs = list(specs)
    report = run_suite_engine(specs, directory, workers=workers,
                              retry=retry, max_jobs=max_jobs)
    if strict and max_jobs is None:
        _raise_for_quarantine(report, directory)
    return report.paths


def resume_suite(directory, workers=None, strict=True, retry=None,
                 max_jobs=None):
    """Resume a sweep from its journal alone; no spec list needed.

    Returns the :class:`~repro.analysis.experiments.engine.
    EngineReport` (its ``resimulated`` field is the crash-resume
    property: zero completed points re-simulated).  Raises
    :class:`~repro.analysis.experiments.queue.QueueError` when
    ``directory`` has no journal.
    """
    from .engine import resume_suite_engine
    report = resume_suite_engine(directory, workers=workers,
                                 retry=retry, max_jobs=max_jobs)
    if strict and max_jobs is None:
        _raise_for_quarantine(report, directory)
    return report


def _raise_for_quarantine(report, directory):
    from .queue import ExperimentError
    if not report.quarantined:
        return
    lines = ["{} spec(s) quarantined after exhausting retries:".format(
        len(report.quarantined))]
    for record in report.quarantined:
        last = (record.error or "").strip().splitlines()
        lines.append("  {}: {}".format(
            record.name, last[-1] if last else "unknown failure"))
    lines.append("full tracebacks: queue-status {}".format(directory))
    raise ExperimentError("\n".join(lines))


def analyze_traces(paths, workers=None, cache=True, names=None,
                   params=None, strict=True):
    """Summarize N trace files through a worker pool.

    Each worker opens its trace via the memory-mapped columnar cache
    (``cache=True``; the fast path that makes re-sweeps touch pages,
    not parsers) and folds it into a :class:`TraceSummary`.  Results
    keep the order of ``paths``.  ``names``/``params`` optionally label
    each summary (defaults: the file stem, no parameters).

    One unreadable or corrupt trace no longer aborts the pool: every
    other trace is still summarized, and the failures surface together
    afterwards — as a one-line-per-trace
    :class:`~repro.analysis.experiments.queue.ExperimentError` when
    ``strict=True`` (default), or as ``None`` placeholders when
    ``strict=False``.
    """
    paths = [str(path) for path in paths]
    if names is None:
        names = [os.path.splitext(os.path.basename(path))[0]
                 for path in paths]
    if params is None:
        params = [{} for __ in paths]
    if len(names) != len(paths) or len(params) != len(paths):
        raise ValueError("need one name and one params dict per trace "
                         "({} paths, {} names, {} params)".format(
                             len(paths), len(names), len(params)))
    jobs = [(path, name, spec_params, cache)
            for path, name, spec_params in zip(paths, names, params)]
    outcomes = pooled_map(_summarize_path, jobs,
                          resolve_workers(workers, len(paths)))
    failures = [detail for status, detail in outcomes
                if status == "error"]
    if failures and strict:
        from .queue import ExperimentError
        raise ExperimentError(
            "{} of {} trace(s) failed to analyze:\n  {}".format(
                len(failures), len(paths), "\n  ".join(failures)))
    return [detail if status == "ok" else None
            for status, detail in outcomes]

