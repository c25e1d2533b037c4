"""Statistical views (Section II-A.2).

Aggregate quantitative information for a user-selected interval of the
timeline: the task-duration histogram (Fig. 16), the average
parallelism, per-state time breakdowns and the NUMA communication
incidence matrix (Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .events import WorkerState
from .filters import IntervalFilter, filtered_tasks


def task_duration_histogram(trace, bins=20, task_filter=None, start=None,
                            end=None, value_range=None):
    """Distribution of task durations as fractions of tasks (Fig. 16).

    Returns ``(edges, fractions)``; fractions sum to 1 when any task
    matches.  ``value_range`` optionally pins the histogram range.
    """
    if start is not None or end is not None:
        interval = IntervalFilter(trace.begin if start is None else start,
                                  trace.end if end is None else end)
        task_filter = interval if task_filter is None \
            else task_filter & interval
    columns = filtered_tasks(trace, task_filter)
    durations = (columns["end"] - columns["start"]).astype(np.float64)
    counts, edges = np.histogram(durations, bins=bins, range=value_range)
    total = counts.sum()
    fractions = counts / total if total else counts.astype(np.float64)
    return edges, fractions


def counter_histogram(trace, counter, bins=20, task_filter=None,
                      value_range=None):
    """Distribution of a counter's per-task increase.

    The built-in histogram path of Section IV ("by letting Aftermath
    attribute counter data to tasks ... it is possible to analyze cache
    locality quantitatively in built-in histograms").  Returns
    ``(edges, fractions)``.
    """
    from .correlation import counter_increase_per_task

    __, increases = counter_increase_per_task(trace, counter,
                                              task_filter)
    counts, edges = np.histogram(increases, bins=bins, range=value_range)
    total = counts.sum()
    fractions = counts / total if total else counts.astype(np.float64)
    return edges, fractions


def average_parallelism(trace, start=None, end=None):
    """Average number of simultaneously running tasks in an interval —
    the "text field indicating the average parallelism" of Fig. 1."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    if end <= start:
        return 0.0
    columns = trace.tasks.columns
    clipped = (np.minimum(columns["end"], end)
               - np.maximum(columns["start"], start))
    busy = clipped[clipped > 0].sum()
    return float(busy) / float(end - start)


def state_time_summary(trace, start=None, end=None):
    """Total cycles spent per worker state within an interval."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    totals: Dict[int, int] = {}
    columns = trace.states.columns
    clipped = (np.minimum(columns["end"], end)
               - np.maximum(columns["start"], start))
    keep = clipped > 0
    states = columns["state"][keep]
    overlap = clipped[keep]
    for state in np.unique(states):
        totals[int(state)] = int(overlap[states == state].sum())
    return totals


def per_core_state_time(trace, state, start=None, end=None):
    """Cycles each core spent in ``state`` within an interval."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    result = np.zeros(trace.num_cores, dtype=np.int64)
    columns = trace.states.columns
    keep = columns["state"] == int(state)
    clipped = (np.minimum(columns["end"][keep], end)
               - np.maximum(columns["start"][keep], start))
    cores = columns["core"][keep]
    positive = clipped > 0
    np.add.at(result, cores[positive], clipped[positive])
    return result


def communication_matrix(trace, start=None, end=None, normalize=True,
                         kind="any"):
    """NUMA communication incidence matrix (Fig. 15).

    Entry ``[src, dst]`` is the number of bytes located on NUMA node
    ``src`` accessed by tasks executing on node ``dst`` — derived from
    the trace's memory accesses and the per-region placement table, the
    paper's fine-grained analysis of memory transfers between dependent
    tasks.  ``kind`` restricts to ``"read"``, ``"write"`` or ``"any"``
    accesses.  With ``normalize=True`` entries are fractions of the
    total traffic.
    """
    nodes = trace.topology.num_nodes
    matrix = np.zeros((nodes, nodes), dtype=np.float64)
    accesses = trace.accesses
    keep = np.ones(len(accesses["task_id"]), dtype=bool)
    if kind == "read":
        keep &= accesses["is_write"] == 0
    elif kind == "write":
        keep &= accesses["is_write"] == 1
    if start is not None:
        keep &= accesses["timestamp"] >= start
    if end is not None:
        keep &= accesses["timestamp"] < end
    src = trace.nodes_of_addresses(accesses["address"][keep])
    dst = accesses["core"][keep] // trace.topology.cores_per_node
    sizes = accesses["size"][keep].astype(np.float64)
    valid = src >= 0
    np.add.at(matrix, (src[valid], dst[valid]), sizes[valid])
    if normalize and matrix.sum() > 0:
        matrix /= matrix.sum()
    return matrix


def locality_fraction(trace, start=None, end=None):
    """Fraction of accessed bytes served from the local NUMA node —
    the single number summarizing Fig. 15's diagonal."""
    matrix = communication_matrix(trace, start=start, end=end,
                                  normalize=False)
    total = matrix.sum()
    if total == 0:
        return 1.0
    return float(np.trace(matrix)) / float(total)


def steal_matrix(trace, start=None, end=None):
    """Core-to-core successful steal counts from communication events."""
    cores = trace.num_cores
    matrix = np.zeros((cores, cores), dtype=np.int64)
    comm = trace.comm
    keep = np.ones(len(comm["timestamp"]), dtype=bool)
    if start is not None:
        keep &= comm["timestamp"] >= start
    if end is not None:
        keep &= comm["timestamp"] < end
    np.add.at(matrix, (comm["src_core"][keep], comm["dst_core"][keep]), 1)
    return matrix


@dataclass
class IntervalReport:
    """The textual summary panel for a selected interval (Fig. 1, box 3)."""

    start: int
    end: int
    tasks: int
    average_parallelism: float
    state_cycles: Dict[int, int]
    locality: float

    def describe(self):
        """The multi-line text panel (tasks, parallelism, states)."""
        lines = ["interval [{} .. {})".format(self.start, self.end),
                 "tasks executing: {}".format(self.tasks),
                 "average parallelism: {:.2f}".format(
                     self.average_parallelism),
                 "local-access fraction: {:.1%}".format(self.locality)]
        total = sum(self.state_cycles.values())
        for state, cycles in sorted(self.state_cycles.items()):
            share = cycles / total if total else 0.0
            lines.append("  state {}: {:.1%}".format(
                WorkerState(state).name, share))
        return "\n".join(lines)


def interval_report(trace, start=None, end=None):
    """Assemble the per-interval statistics panel."""
    start = trace.begin if start is None else start
    end = trace.end if end is None else end
    interval = IntervalFilter(start, end)
    return IntervalReport(
        start=start, end=end,
        tasks=int(interval.mask(trace).sum()),
        average_parallelism=average_parallelism(trace, start, end),
        state_cycles=state_time_summary(trace, start, end),
        locality=locality_fraction(trace, start, end))


# --- out-of-core entry points -----------------------------------------------
#
# The same statistical views, computed from a trace *file* instead of a
# loaded trace, in bounded memory.  Imports are deferred because
# repro.analysis builds on repro.trace_format, which builds on this
# package.


def state_time_summary_out_of_core(path, workers=None, columnar=False):
    """Whole-trace per-state cycle totals from a trace file.

    The out-of-core counterpart of :func:`state_time_summary`: the file
    is never loaded into memory — with a chunk index present the pass
    is sharded over ``workers`` processes, otherwise it streams
    serially.  Returns the same ``{state: cycles}`` mapping a full-file
    :func:`state_time_summary` would produce.  ``columnar`` has no
    effect: every pass folds records in per-kind column batches.  It is
    still accepted because existing callers pass it.
    """
    from ..analysis.parallel import parallel_streaming_statistics
    return dict(parallel_streaming_statistics(
        path, workers=workers).state_cycles)


def interval_report_out_of_core(path, start=None, end=None,
                                columnar=False):
    """Per-interval statistics panel computed from a trace file.

    Extracts just the ``[start, end)`` window of the file (seeking via
    the chunk index when present, streaming otherwise) and assembles
    the normal :class:`IntervalReport` from the small in-memory window.
    Omitted bounds are filled from
    :func:`repro.analysis.parallel.parallel_streaming_statistics`.
    ``columnar`` has no effect: the window is always a
    :class:`~repro.core.columnar.ColumnarTrace`.  It is still accepted
    because existing callers pass it.
    """
    from ..analysis.parallel import parallel_streaming_statistics
    from ..trace_format.streaming import split_time_window
    if start is None or end is None:
        bounds = parallel_streaming_statistics(path)
        start = bounds.begin if start is None else start
        end = bounds.end if end is None else end
    window = split_time_window(path, start, end)
    return interval_report(window, start, end)
