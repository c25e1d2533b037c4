"""Cross-trace summary tables: arrange N traces' results by a swept
parameter.

:class:`SweepTable` arranges per-trace
:class:`~repro.analysis.experiments.suite.TraceSummary` rows by a
swept parameter (block size, scheduler, ...), the textual form of the
paper's cross-run comparisons (Figs. 12–16); :func:`speedup_curve`
normalizes their durations to a baseline.  Exact whole-file
statistics over the union of N trace files come from the out-of-core
driver: :func:`repro.analysis.parallel.parallel_streaming_statistics`,
:func:`~repro.analysis.parallel.parallel_task_histogram` and
:func:`~repro.analysis.parallel.parallel_comm_matrix` each take a
list of paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...core.events import WorkerState


@dataclass
class SweepRow:
    """One trace's line of a :class:`SweepTable`."""

    name: str
    param: object
    tasks: int
    duration: int
    average_parallelism: float
    locality_fraction: float
    idle_fraction: float


class SweepTable:
    """Per-parameter summary table over a suite's trace summaries.

    Rows keep the sweep order; :meth:`describe` renders the textual
    table the CLI prints, :meth:`to_dict` the machine-readable form.
    """

    def __init__(self, rows, param_name="param"):
        self.rows: List[SweepRow] = list(rows)
        self.param_name = param_name

    def __len__(self):
        return len(self.rows)

    def best(self, key=lambda row: row.duration):
        """The row minimizing ``key`` (default: wall-clock duration)."""
        if not self.rows:
            raise ValueError("empty sweep table")
        return min(self.rows, key=key)

    def describe(self):
        """Human-readable table, one line per trace."""
        header = ("{:>20} {:>12} {:>8} {:>14} {:>8} {:>8} {:>6}"
                  .format("name", self.param_name, "tasks", "duration",
                          "par", "local", "idle"))
        lines = [header]
        for row in self.rows:
            lines.append(
                "{:>20} {:>12} {:>8d} {:>14d} {:>8.2f} {:>7.1%} "
                "{:>5.1%}".format(
                    row.name, str(row.param), row.tasks, row.duration,
                    row.average_parallelism, row.locality_fraction,
                    row.idle_fraction))
        return "\n".join(lines)

    def to_dict(self):
        """JSON-friendly form of the table."""
        return {
            "param": self.param_name,
            "rows": [{
                "name": row.name, "param": row.param,
                "tasks": row.tasks, "duration": row.duration,
                "average_parallelism": row.average_parallelism,
                "locality_fraction": row.locality_fraction,
                "idle_fraction": row.idle_fraction,
            } for row in self.rows],
        }


def sweep_table(summaries, param=None):
    """Arrange per-trace summaries into a :class:`SweepTable`.

    ``param`` names the swept parameter to surface as the table's key
    column; when omitted, the first parameter present in any summary is
    used (falling back to the trace name).
    """
    summaries = list(summaries)
    if param is None:
        for summary in summaries:
            if summary.params:
                param = next(iter(summary.params))
                break
    rows = [SweepRow(
        name=summary.name,
        param=(summary.params.get(param) if param else summary.name),
        tasks=summary.tasks,
        duration=summary.duration,
        average_parallelism=summary.average_parallelism,
        locality_fraction=summary.locality_fraction,
        idle_fraction=summary.state_fraction(WorkerState.IDLE))
        for summary in summaries]
    return SweepTable(rows, param_name=param or "name")


def speedup_curve(summaries, baseline=None):
    """Durations normalized to a baseline summary (default: first).

    Returns a ``(names, speedups)`` pair where ``speedups[i]`` is
    ``baseline.duration / summaries[i].duration`` — the cross-run
    normalization behind the paper's block-size and scheduler
    comparisons.
    """
    summaries = list(summaries)
    if not summaries:
        return [], np.empty(0, dtype=np.float64)
    baseline = summaries[0] if baseline is None else baseline
    names = [summary.name for summary in summaries]
    durations = np.asarray([summary.duration for summary in summaries],
                           dtype=np.float64)
    reference = float(baseline.duration)
    with np.errstate(divide="ignore", invalid="ignore"):
        speedups = np.where(durations > 0, reference / durations, 0.0)
    return names, speedups
