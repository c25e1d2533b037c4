"""Semi-automatic detection of performance anomalies.

The paper's conclusion announces "semi-automatic statistical methods to
quickly focus the search for interesting anomalies" as work in
progress.  This module implements that layer on top of the analysis
core: scanners that walk a trace and emit ranked :class:`Anomaly`
findings, each pointing at a time interval (and optionally cores or
task types) worth inspecting in the timeline.

Detectors cover the anomaly families the paper studies manually:

* :func:`detect_idle_phases` — intervals where many workers idle
  simultaneously (Section III-A);
* :func:`detect_duration_outliers` — task types whose duration
  distribution has heavy outliers or is multi-modal (Sections III-B, V);
* :func:`detect_locality_anomalies` — phases with high remote-access
  fractions (Section IV);
* :func:`detect_load_imbalance` — intervals where per-core busy time
  diverges (Section III-C);
* :func:`correlate_counters` — ranks every recorded hardware counter
  by the strength of its linear relationship with task duration, the
  automated form of the Section V investigation;
* :func:`detect_stragglers` / :func:`detect_frequency_throttling` —
  cores that run tasks slower than their peers, for the whole run or
  only inside a time window; the fault-injection scenarios of
  :mod:`repro.runtime.faults` give both planted ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .correlation import counter_rate_per_task, linear_regression
from .events import WorkerState
from .filters import TaskTypeFilter
from .metrics import interval_edges, overlap_per_bin, state_count_series
from .numa import task_node_bytes


@dataclass
class Anomaly:
    """One ranked finding of a detector."""

    kind: str
    severity: float            # detector-specific, higher = worse
    start: int
    end: int
    description: str
    cores: Optional[List[int]] = None
    task_type: Optional[str] = None

    def __repr__(self):
        return ("Anomaly({}, severity={:.2f}, [{} .. {}): {})"
                .format(self.kind, self.severity, self.start, self.end,
                        self.description))


def _merge_flagged_bins(edges, flagged):
    """Contiguous runs of flagged bins -> (start, end, bins) tuples."""
    runs = []
    run_start = None
    for index, hot in enumerate(flagged):
        if hot and run_start is None:
            run_start = index
        elif not hot and run_start is not None:
            runs.append((int(edges[run_start]), int(edges[index]),
                         index - run_start))
            run_start = None
    if run_start is not None:
        runs.append((int(edges[run_start]), int(edges[-1]),
                     len(flagged) - run_start))
    return runs


def detect_idle_phases(trace, num_intervals=200, threshold=0.5):
    """Intervals where more than ``threshold`` of the workers idle.

    This automates the visual detection of the light-blue bands of
    Fig. 2 and the derived-counter confirmation of Fig. 3.
    """
    edges, counts = state_count_series(trace, WorkerState.IDLE,
                                       num_intervals)
    fractions = counts / trace.num_cores
    anomalies = []
    for start, end, bins in _merge_flagged_bins(edges,
                                                fractions >= threshold):
        window = fractions[(edges[:-1] >= start) & (edges[:-1] < end)]
        peak = float(window.max()) if len(window) else threshold
        anomalies.append(Anomaly(
            kind="idle-phase", severity=peak, start=start, end=end,
            description="{:.0%} of workers idle at the peak "
            "({} intervals)".format(peak, bins)))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def detect_duration_outliers(trace, z_threshold=3.0, min_tasks=10):
    """Task types with far-outlying durations (z-score based).

    Returns one anomaly per (type, outlier group), pointing at the
    interval covering the outliers — e.g. seidel's initialization
    tasks stand out against the compute tasks.
    """
    anomalies = []
    columns = trace.tasks.columns
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    if len(durations) < min_tasks:
        return anomalies
    mean = durations.mean()
    std = durations.std()
    if std == 0:
        return anomalies
    scores = (durations - mean) / std
    outliers = scores > z_threshold
    if not outliers.any():
        return anomalies
    type_names = {info.type_id: info.name for info in trace.task_types}
    for type_id in np.unique(columns["type_id"][outliers]):
        mask = outliers & (columns["type_id"] == type_id)
        anomalies.append(Anomaly(
            kind="duration-outlier",
            severity=float(scores[mask].max()),
            start=int(columns["start"][mask].min()),
            end=int(columns["end"][mask].max()),
            task_type=type_names.get(int(type_id)),
            description="{} tasks of type {} are >{:.0f} sigma slower "
            "than the mean ({:.0f} vs {:.0f} cycles)".format(
                int(mask.sum()), type_names.get(int(type_id)),
                z_threshold, durations[mask].mean(), mean)))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def detect_locality_anomalies(trace, num_intervals=20, threshold=0.4):
    """Phases whose remote-access fraction exceeds ``threshold``.

    Automates the NUMA heatmap reading of Fig. 14e/f: a healthy
    NUMA-aware execution stays mostly blue (local).

    Vectorized: the per-task (local, total) byte tallies are computed
    once and scattered onto the interval bins with a difference array
    — the old one-``average_remote_fraction``-call-per-bin loop (kept
    in :mod:`repro.core.reference`) rescanned every access per bin.
    All per-bin sums are integer-valued, so the fractions are
    bit-identical to the reference.
    """
    edges = interval_edges(trace, num_intervals).astype(np.int64)
    matrix = task_node_bytes(trace, "any")
    columns = trace.tasks.columns
    executing_node = columns["core"] // trace.topology.cores_per_node
    total = matrix.sum(axis=1)
    local = matrix[np.arange(len(matrix)), executing_node]
    # A task contributes to every bin it overlaps: bins [first, last].
    first = np.searchsorted(edges, columns["start"], side="right") - 1
    last = np.searchsorted(edges, columns["end"], side="left") - 1
    lo = np.maximum(first, 0)
    hi = np.minimum(last, num_intervals - 1)
    ok = lo <= hi
    local_bins = np.zeros(num_intervals + 1, dtype=np.float64)
    total_bins = np.zeros(num_intervals + 1, dtype=np.float64)
    np.add.at(local_bins, lo[ok], local[ok])
    np.add.at(local_bins, hi[ok] + 1, -local[ok])
    np.add.at(total_bins, lo[ok], total[ok])
    np.add.at(total_bins, hi[ok] + 1, -total[ok])
    local_bins = np.cumsum(local_bins[:num_intervals])
    total_bins = np.cumsum(total_bins[:num_intervals])
    anomalies = []
    for index in range(num_intervals):
        remote = (float(1.0 - local_bins[index] / total_bins[index])
                  if total_bins[index] > 0 else 0.0)
        if remote >= threshold:
            anomalies.append(Anomaly(
                kind="poor-locality", severity=remote,
                start=int(edges[index]), end=int(edges[index + 1]),
                description="{:.0%} of accessed bytes are remote"
                .format(remote)))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def detect_load_imbalance(trace, num_intervals=10, threshold=0.25):
    """Intervals where per-core busy time diverges.

    Severity is the coefficient of variation of per-core RUNNING time
    within the interval; the alternating idle patterns of Fig. 13b/c
    show up here.

    Vectorized: one :func:`~repro.core.metrics.overlap_per_bin` pass
    per core replaces the old one-``per_core_state_time``-call-per-bin
    loop (kept in :mod:`repro.core.reference`); every per-bin overlap
    is an integer in float64, so the coefficients of variation are
    bit-identical to the reference.
    """
    edges = interval_edges(trace, num_intervals).astype(np.int64)
    bin_edges = edges.astype(np.float64)
    busy_per_core = np.zeros((trace.num_cores, num_intervals),
                             dtype=np.float64)
    for core in range(trace.num_cores):
        states = trace.states.core_column(core, "state")
        keep = states == int(WorkerState.RUNNING)
        busy_per_core[core] = overlap_per_bin(
            trace.states.core_column(core, "start")[keep],
            trace.states.core_column(core, "end")[keep], bin_edges)
    anomalies = []
    for index in range(num_intervals):
        start, end = int(edges[index]), int(edges[index + 1])
        busy = busy_per_core[:, index]
        if busy.sum() == 0:
            continue
        cv = float(busy.std() / busy.mean()) if busy.mean() else 0.0
        if cv >= threshold:
            laggards = [int(core) for core in
                        np.flatnonzero(busy < busy.mean() / 2)]
            anomalies.append(Anomaly(
                kind="load-imbalance", severity=cv, start=start, end=end,
                cores=laggards or None,
                description="per-core busy time varies (CV {:.2f}); "
                "{} cores under half the mean".format(cv,
                                                      len(laggards))))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def _per_type_core_means(trace, min_tasks):
    """Per-(core, type) mean task durations and counts.

    Returns ``(means, counts)`` arrays of shape (cores, types) — the
    shared normalization step of the straggler and throttling
    detectors.  Types are normalized separately because a core that
    happens to run only long task types is not slow."""
    columns = trace.tasks.columns
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    num_types = int(columns["type_id"].max()) + 1 if len(durations) \
        else 0
    means = np.zeros((trace.num_cores, num_types), dtype=np.float64)
    counts = np.zeros((trace.num_cores, num_types), dtype=np.int64)
    np.add.at(means, (columns["core"], columns["type_id"]), durations)
    np.add.at(counts, (columns["core"], columns["type_id"]), 1)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, means / np.maximum(counts, 1),
                         np.nan)
    return means, counts


def detect_stragglers(trace, ratio_threshold=1.7, min_tasks=5):
    """Cores that execute tasks consistently slower than their peers.

    The whole-run form of the paper's per-core bottleneck hunts: for
    every task type, the per-core mean duration is compared against
    the *median core's* mean (robust to the stragglers themselves);
    a core whose task-weighted slowdown across types exceeds
    ``ratio_threshold`` is flagged.  One anomaly per straggler core,
    severity = the slowdown ratio.
    """
    anomalies = []
    means, counts = _per_type_core_means(trace, min_tasks)
    if not means.size:
        return anomalies
    # Baseline per type: the median of the per-core means over cores
    # that ran that type (NaN-aware), i.e. the typical core.  A type
    # id no core ran keeps a NaN baseline, which ``ran`` excludes.
    baseline = np.full(means.shape[1], np.nan)
    present = counts.any(axis=0)
    baseline[present] = np.nanmedian(means[:, present], axis=0)
    columns = trace.tasks.columns
    type_names = {info.type_id: info.name for info in trace.task_types}
    for core in range(trace.num_cores):
        ran = (counts[core] > 0) & (baseline > 0)
        total = int(counts[core][ran].sum())
        if total < min_tasks:
            continue
        ratios = means[core][ran] / baseline[ran]
        ratio = float(np.average(ratios, weights=counts[core][ran]))
        if ratio < ratio_threshold:
            continue
        worst = int(np.flatnonzero(ran)[np.argmax(ratios)])
        mask = columns["core"] == core
        anomalies.append(Anomaly(
            kind="straggler-core", severity=ratio,
            start=int(columns["start"][mask].min()),
            end=int(columns["end"][mask].max()), cores=[core],
            description="core {} runs tasks {:.1f}x slower than the "
            "median core (worst type: {})".format(
                core, ratio, type_names.get(worst, worst))))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


def detect_frequency_throttling(trace, num_intervals=None,
                                ratio_threshold=1.6, min_tasks=3):
    """Cores that slow down only during part of the run.

    The transient complement of :func:`detect_stragglers` (a DVFS or
    thermal-throttling episode): per-task slowdowns (duration over
    the type's median duration) are binned over time per core and
    compared against the *core's own* median bin — so a core that is
    uniformly slow (a straggler) does not trigger, only one whose
    slowness is localized in time.  One anomaly per throttled episode
    with the flagged window, severity = peak slowdown over the core's
    baseline.

    ``num_intervals=None`` (the default) adapts the bin count to the
    trace so the average core keeps ``2 * min_tasks`` tasks per bin —
    fixed fine binning would starve every bin below ``min_tasks`` on
    small traces and silently disable the detector.
    """
    anomalies = []
    columns = trace.tasks.columns
    if not len(columns["start"]):
        return anomalies
    if num_intervals is None:
        per_core = len(columns["start"]) / max(trace.num_cores, 1)
        num_intervals = int(max(4, min(24,
                                       per_core // (2 * min_tasks))))
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    num_types = int(columns["type_id"].max()) + 1
    type_median = np.zeros(num_types, dtype=np.float64)
    for type_id in range(num_types):
        mask = columns["type_id"] == type_id
        if mask.any():
            type_median[type_id] = np.median(durations[mask])
    ok = type_median[columns["type_id"]] > 0
    slowdown = np.ones(len(durations), dtype=np.float64)
    slowdown[ok] = durations[ok] / type_median[columns["type_id"]][ok]
    edges = interval_edges(trace, num_intervals).astype(np.int64)
    bins = np.clip(np.searchsorted(edges, columns["start"],
                                   side="right") - 1,
                   0, num_intervals - 1)
    for core in range(trace.num_cores):
        on_core = columns["core"] == core
        sums = np.zeros(num_intervals, dtype=np.float64)
        counts = np.zeros(num_intervals, dtype=np.int64)
        np.add.at(sums, bins[on_core], slowdown[on_core])
        np.add.at(counts, bins[on_core], 1)
        valid = counts >= min_tasks
        if valid.sum() < 2:
            continue
        per_bin = np.where(valid, sums / np.maximum(counts, 1), np.nan)
        with np.errstate(all="ignore"):
            core_baseline = float(np.nanmedian(per_bin))
        if not core_baseline > 0:
            continue
        hot = valid & (per_bin >= ratio_threshold * core_baseline)
        for start, end, __ in _merge_flagged_bins(edges, hot):
            window = per_bin[(edges[:-1] >= start) & (edges[:-1] < end)]
            with np.errstate(all="ignore"):
                peak = float(np.nanmax(window) / core_baseline)
            anomalies.append(Anomaly(
                kind="frequency-throttling", severity=peak,
                start=start, end=end, cores=[core],
                description="core {} ran {:.1f}x slower than its own "
                "baseline in this window".format(core, peak)))
    anomalies.sort(key=lambda anomaly: -anomaly.severity)
    return anomalies


@dataclass
class CounterCorrelation:
    """Strength of the duration ~ counter-rate relationship."""

    counter: str
    task_type: str
    r_squared: float
    slope: float
    samples: int


def correlate_counters(trace, task_filter=None, min_tasks=10,
                       require_positive_slope=True):
    """Rank all counters by their correlation with task duration.

    The automated Section V: instead of hand-picking branch
    mispredictions, fit every recorded counter and return the ranking.

    ``require_positive_slope`` drops inverse relationships: a counter
    whose per-task increment is roughly constant trivially anticorrelates
    its *rate* with duration (rate = constant / duration), which never
    explains slowness.  Only counters whose rate *increases* duration
    are candidates for a causal story like Fig. 19's.
    """
    results = []
    type_names = [info.name for info in trace.task_types]
    filters = ([(name, TaskTypeFilter(name)) for name in type_names]
               if task_filter is None else [("<filtered>", task_filter)])
    for type_name, current in filters:
        if current.count(trace) < min_tasks:
            continue
        for description in trace.counter_descriptions:
            columns, rates = counter_rate_per_task(
                trace, description.counter_id, current)
            durations = (columns["end"] - columns["start"]).astype(float)
            if len(rates) < min_tasks or np.ptp(rates) == 0:
                continue
            fit = linear_regression(rates, durations)
            if require_positive_slope and fit.slope <= 0:
                continue
            results.append(CounterCorrelation(
                counter=description.name, task_type=type_name,
                r_squared=fit.r_squared, slope=fit.slope,
                samples=fit.samples))
    results.sort(key=lambda entry: -entry.r_squared)
    return results


def scan(trace, num_intervals=100):
    """Run every detector and return all findings, ranked by severity
    within each kind — the "quickly focus the search" entry point."""
    findings = []
    findings.extend(detect_idle_phases(trace, num_intervals))
    findings.extend(detect_duration_outliers(trace))
    if len(trace.accesses["task_id"]):
        findings.extend(detect_locality_anomalies(trace))
    findings.extend(detect_load_imbalance(trace))
    findings.extend(detect_stragglers(trace))
    findings.extend(detect_frequency_throttling(trace))
    return findings
