"""Trace-diff engine: baseline-vs-candidate regression reports.

Comparative performance debugging needs a machine answer to "did this
run get worse, and where?".  :func:`diff_traces` compares two loaded
traces (in memory or mapped) metric by metric and reports every deviation
that exceeds its tolerance:

* **state-time deltas** — per-state cycle totals (the Fig. 13 state
  breakdowns), plus wall-clock duration, average parallelism and the
  NUMA locality fraction;
* **counter-distribution shifts** — for every counter present in both
  traces, the L1 distance between the normalized sample-value
  histograms over the union range (0 = identical, 2 = disjoint);
* **task-duration distribution shift** — the same distance over task
  durations (the Fig. 16 histogram);
* **anomaly-count regressions** — per-kind finding counts from
  :func:`repro.core.anomalies.scan`.

Tolerances are configurable per family (:class:`DiffTolerances`); a
deviation is only reported when it *strictly* exceeds its tolerance,
so diffing a trace against itself yields an empty report at every
tolerance — including zero (the property test pins this).  The report
serializes to JSON (:meth:`TraceDiffReport.to_json`) for CI gates and
dashboards.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ...core import anomalies as anomaly_scan
from ...core import statistics
from ...core.events import WorkerState

#: Histogram bins used for the distribution-shift metrics.
DISTRIBUTION_BINS = 32


@dataclass(frozen=True)
class DiffTolerances:
    """Per-family thresholds; a delta must *exceed* its threshold to
    be reported, so zero tolerances still pass identical traces.

    ``relative`` bounds the scalar metrics (state times, duration,
    parallelism, locality) as a fraction of the baseline value —
    baseline-zero metrics compare absolutely against ``absolute``.
    ``distribution`` bounds the L1 histogram distances (range 0..2);
    ``anomalies`` is the allowed per-kind finding-count difference.
    """

    relative: float = 0.05
    absolute: float = 0.0
    distribution: float = 0.1
    anomalies: int = 0


#: The tightest gate: any deviation at all is a finding.
EXACT = DiffTolerances(relative=0.0, absolute=0.0, distribution=0.0,
                       anomalies=0)


@dataclass
class DiffEntry:
    """One metric whose deviation exceeded its tolerance."""

    metric: str
    baseline: float
    candidate: float
    delta: float
    relative: Optional[float]
    tolerance: float

    def describe(self):
        """One report line for this deviation."""
        relative = ("{:+.1%}".format(self.relative)
                    if self.relative is not None else "n/a")
        return ("{:<32} baseline {:>14.6g} candidate {:>14.6g} "
                "delta {:>+14.6g} ({})".format(
                    self.metric, self.baseline, self.candidate,
                    self.delta, relative))


@dataclass
class TraceDiffReport:
    """The machine-readable outcome of one baseline/candidate diff."""

    baseline: str
    candidate: str
    tolerances: DiffTolerances
    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def is_empty(self):
        """True when no metric deviated beyond its tolerance."""
        return not self.entries

    def __len__(self):
        return len(self.entries)

    def describe(self):
        """Human-readable multi-line report."""
        if self.is_empty:
            return ("no deviations beyond tolerance between {} and {}"
                    .format(self.baseline or "baseline",
                            self.candidate or "candidate"))
        lines = ["{} deviation(s) between {} and {}:".format(
            len(self.entries), self.baseline or "baseline",
            self.candidate or "candidate")]
        lines.extend("  " + entry.describe() for entry in self.entries)
        return "\n".join(lines)

    def to_dict(self):
        """JSON-pure dict (what :meth:`to_json` serializes)."""
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "tolerances": {
                "relative": self.tolerances.relative,
                "absolute": self.tolerances.absolute,
                "distribution": self.tolerances.distribution,
                "anomalies": self.tolerances.anomalies,
            },
            "empty": self.is_empty,
            "deviations": [{
                "metric": entry.metric,
                "baseline": entry.baseline,
                "candidate": entry.candidate,
                "delta": entry.delta,
                "relative": entry.relative,
                "tolerance": entry.tolerance,
            } for entry in self.entries],
        }

    def to_json(self, path=None, indent=2):
        """Serialize the report; writes ``path`` when given, returns
        the JSON text either way."""
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            with open(path, "w") as stream:
                stream.write(text + "\n")
        return text


def _scalar_entries(pairs, tolerances):
    """Deviations among ``(metric, baseline, candidate)`` scalars.

    Relative comparison against a non-zero baseline; absolute
    comparison (``tolerances.absolute``) when the baseline is zero.
    Equal values can never be reported — the self-diff guarantee.
    """
    entries = []
    for metric, baseline, candidate in pairs:
        baseline = float(baseline)
        candidate = float(candidate)
        delta = candidate - baseline
        if delta == 0.0:
            continue
        if baseline != 0.0:
            relative = delta / abs(baseline)
            if abs(relative) > tolerances.relative:
                entries.append(DiffEntry(
                    metric=metric, baseline=baseline,
                    candidate=candidate, delta=delta,
                    relative=relative,
                    tolerance=tolerances.relative))
        elif abs(delta) > tolerances.absolute:
            entries.append(DiffEntry(
                metric=metric, baseline=baseline, candidate=candidate,
                delta=delta, relative=None,
                tolerance=tolerances.absolute))
    return entries


def distribution_shift(baseline_values, candidate_values,
                       bins=DISTRIBUTION_BINS):
    """L1 distance between two samples' normalized histograms.

    Both samples are binned over the union of their ranges, counts are
    normalized to fractions, and the distance is the sum of absolute
    per-bin differences — 0.0 for identical distributions, 2.0 for
    fully disjoint ones.  Two empty samples are identical; one empty
    sample against a non-empty one is maximally distant.
    """
    baseline_values = np.asarray(baseline_values, dtype=np.float64)
    candidate_values = np.asarray(candidate_values, dtype=np.float64)
    if len(baseline_values) == 0 and len(candidate_values) == 0:
        return 0.0
    if len(baseline_values) == 0 or len(candidate_values) == 0:
        return 2.0
    lo = min(baseline_values.min(), candidate_values.min())
    hi = max(baseline_values.max(), candidate_values.max())
    if hi == lo:
        hi = lo + 1.0
    base_counts, __ = np.histogram(baseline_values, bins=bins,
                                   range=(lo, hi))
    cand_counts, __ = np.histogram(candidate_values, bins=bins,
                                   range=(lo, hi))
    base_fractions = base_counts / base_counts.sum()
    cand_fractions = cand_counts / cand_counts.sum()
    return float(np.abs(base_fractions - cand_fractions).sum())


def _counter_values(trace, counter_id):
    """Every sample value of one counter, across all cores."""
    values = [trace.counter_samples(core, counter_id)[1]
              for core in range(trace.num_cores)]
    values = [array for array in values if len(array)]
    if not values:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(values)


def _distribution_entries(baseline, candidate, tolerances, bins):
    """Counter and task-duration distribution-shift deviations."""
    entries = []
    base_durations = (baseline.tasks.columns["end"]
                      - baseline.tasks.columns["start"])
    cand_durations = (candidate.tasks.columns["end"]
                      - candidate.tasks.columns["start"])
    shift = distribution_shift(base_durations, cand_durations, bins)
    if shift > tolerances.distribution:
        entries.append(DiffEntry(
            metric="distribution/task_duration", baseline=0.0,
            candidate=shift, delta=shift, relative=None,
            tolerance=tolerances.distribution))
    base_counters = {description.name: description.counter_id
                     for description in baseline.counter_descriptions}
    cand_counters = {description.name: description.counter_id
                     for description in candidate.counter_descriptions}
    for name in sorted(set(base_counters) & set(cand_counters)):
        shift = distribution_shift(
            _counter_values(baseline, base_counters[name]),
            _counter_values(candidate, cand_counters[name]), bins)
        if shift > tolerances.distribution:
            entries.append(DiffEntry(
                metric="distribution/counter/{}".format(name),
                baseline=0.0, candidate=shift, delta=shift,
                relative=None, tolerance=tolerances.distribution))
    return entries


def _anomaly_entries(baseline, candidate, tolerances):
    """Per-kind anomaly-count deviations beyond the allowed slack."""
    def counts(trace):
        tally = {}
        for finding in anomaly_scan.scan(trace):
            tally[finding.kind] = tally.get(finding.kind, 0) + 1
        return tally

    base_counts = counts(baseline)
    cand_counts = counts(candidate)
    entries = []
    for kind in sorted(set(base_counts) | set(cand_counts)):
        base = base_counts.get(kind, 0)
        cand = cand_counts.get(kind, 0)
        if abs(cand - base) > tolerances.anomalies:
            entries.append(DiffEntry(
                metric="anomalies/{}".format(kind),
                baseline=float(base), candidate=float(cand),
                delta=float(cand - base),
                relative=((cand - base) / base if base else None),
                tolerance=float(tolerances.anomalies)))
    return entries


def diff_traces(baseline, candidate, tolerances=None,
                baseline_name="baseline", candidate_name="candidate",
                bins=DISTRIBUTION_BINS):
    """Compare two loaded traces; returns a :class:`TraceDiffReport`.

    Both arguments are :class:`~repro.core.columnar.ColumnarTrace`
    stores, in memory or memory-mapped.  Every reported deviation
    *strictly* exceeds its tolerance, so identical traces produce an
    empty report at any tolerance setting.
    """
    tolerances = DiffTolerances() if tolerances is None else tolerances
    scalars = [
        ("duration", baseline.duration, candidate.duration),
        ("tasks", len(baseline.tasks), len(candidate.tasks)),
        ("average_parallelism",
         statistics.average_parallelism(baseline),
         statistics.average_parallelism(candidate)),
        ("locality_fraction",
         statistics.locality_fraction(baseline),
         statistics.locality_fraction(candidate)),
    ]
    base_states = statistics.state_time_summary(baseline)
    cand_states = statistics.state_time_summary(candidate)
    for state in sorted(set(base_states) | set(cand_states)):
        scalars.append((
            "state_time/{}".format(WorkerState(state).name),
            base_states.get(state, 0), cand_states.get(state, 0)))
    entries = _scalar_entries(scalars, tolerances)
    entries.extend(_distribution_entries(baseline, candidate,
                                         tolerances, bins))
    entries.extend(_anomaly_entries(baseline, candidate, tolerances))
    return TraceDiffReport(baseline=baseline_name,
                           candidate=candidate_name,
                           tolerances=tolerances, entries=entries)


def diff_trace_files(baseline_path, candidate_path, tolerances=None,
                     cache=True, bins=DISTRIBUTION_BINS):
    """:func:`diff_traces` over two trace *files*, opened through the
    mapped columnar cache (``cache=True``) so repeated gate runs map
    pages instead of re-parsing."""
    from ...trace_format import read_trace
    return diff_traces(
        read_trace(str(baseline_path), cache=bool(cache)),
        read_trace(str(candidate_path), cache=bool(cache)),
        tolerances=tolerances,
        baseline_name=os.path.basename(str(baseline_path)),
        candidate_name=os.path.basename(str(candidate_path)),
        bins=bins)
