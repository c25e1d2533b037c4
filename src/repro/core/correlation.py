"""Correlating performance indicators (Section V).

Aftermath attributes the increase of monotonically increasing hardware
counters to individual tasks (the counters are sampled immediately
before and after each task execution), exports the per-task values
together with task durations — honoring the active filters — and the
actual correlation test is carried out with a statistics package
(the paper uses SciPy, as do we): a least-squares linear regression
whose coefficient of determination quantifies the relationship
(Fig. 19: R^2 = 0.83 between task duration and branch mispredictions).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .filters import filtered_tasks


def counter_increase_per_task(trace, counter, task_filter=None):
    """Increase of a monotone counter across each task execution.

    Returns ``(columns, increases)`` where ``columns`` are the filtered
    task-execution columns and ``increases[i]`` is the counter increase
    attributed to task ``i`` (difference between the samples taken at
    the task's end and start on its core).

    Vectorized: tasks are grouped by core and each group's start/end
    sample positions come from two batched ``searchsorted`` calls over
    that core's sorted sample lane — the per-task scalar loop survives
    as the parity reference in
    :func:`repro.core.reference.counter_increase_per_task`.
    """
    counter_id = (trace.counter_id(counter) if isinstance(counter, str)
                  else counter)
    columns = filtered_tasks(trace, task_filter)
    increases = np.zeros(len(columns["task_id"]), dtype=np.float64)
    cores = columns["core"]
    for core in np.unique(cores):
        timestamps, values = trace.counter_samples(int(core), counter_id)
        if len(timestamps) == 0:
            continue
        selected = cores == core
        lo = np.searchsorted(timestamps, columns["start"][selected],
                             side="left")
        hi = np.searchsorted(timestamps, columns["end"][selected],
                             side="right") - 1
        lo = np.minimum(lo, len(values) - 1)
        hi = np.clip(hi, lo, len(values) - 1)
        increases[selected] = values[hi] - values[lo]
    return columns, increases


def counter_rate_per_task(trace, counter, task_filter=None, per=1000):
    """Counter increase per ``per`` cycles of task duration (the paper
    reports branch mispredictions per kilocycle)."""
    columns, increases = counter_increase_per_task(trace, counter,
                                                   task_filter)
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    rates = np.divide(increases * per, durations,
                      out=np.zeros_like(increases), where=durations > 0)
    return columns, rates


@dataclass
class RegressionResult:
    """Least-squares fit y = slope * x + intercept."""

    slope: float
    intercept: float
    r_squared: float
    p_value: float
    samples: int

    def predict(self, x):
        """Fitted value at ``x`` (slope * x + intercept)."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    def describe(self):
        """One-line fit summary (slope, r^2, sample count)."""
        return ("y = {:.4g} * x + {:.4g}  (R^2 = {:.3f}, p = {:.2g}, "
                "n = {})".format(self.slope, self.intercept,
                                 self.r_squared, self.p_value,
                                 self.samples))


def linear_regression(x, y):
    """Least-squares regression with coefficient of determination.

    SciPy is imported here, not at module level: nothing else in the
    package needs it, so importing :mod:`repro.core` stays cheap.
    """
    from scipy import stats
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 2:
        raise ValueError("need at least two samples for a regression")
    fit = stats.linregress(x, y)
    return RegressionResult(slope=float(fit.slope),
                            intercept=float(fit.intercept),
                            r_squared=float(fit.rvalue) ** 2,
                            p_value=float(fit.pvalue), samples=len(x))


def duration_vs_counter_rate(trace, counter, task_filter=None, per=1000):
    """The Fig. 19 scatter: ``(rates, durations, regression)``.

    ``rates`` is the per-task counter increase per ``per`` cycles,
    ``durations`` the task durations; the regression fits duration as a
    function of the rate.
    """
    columns, rates = counter_rate_per_task(trace, counter, task_filter,
                                           per=per)
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    regression = linear_regression(rates, durations)
    return rates, durations, regression


def export_task_table(trace, path, counters=(), task_filter=None):
    """Export per-task data for external statistical analysis.

    Writes a CSV with one row per (filtered) task: id, type name, core,
    start, duration, and the attributed increase of every counter in
    ``counters``.  This is the paper's export path feeding SciPy; the
    filter mechanism applies to the exported data as well.
    Returns the number of rows written.
    """
    columns = filtered_tasks(trace, task_filter)
    increases = {}
    for counter in counters:
        __, values = counter_increase_per_task(trace, counter, task_filter)
        increases[counter] = values
    type_names = {info.type_id: info.name for info in trace.task_types}
    # Convert each column to Python scalars once; per-row numpy
    # indexing dominated the export of large filtered task tables.
    names = [type_names.get(type_id, "?")
             for type_id in columns["type_id"].tolist()]
    fields = [columns["task_id"].tolist(), names,
              columns["core"].tolist(), columns["start"].tolist(),
              (columns["end"] - columns["start"]).tolist()]
    fields.extend(increases[counter].tolist() for counter in counters)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["task_id", "type", "core", "start", "duration"]
                        + list(counters))
        writer.writerows(zip(*fields))
    return len(columns["task_id"])
