"""Selection and detail views (Fig. 1, box 4).

In the GUI, clicking the timeline selects the state or task under the
cursor and shows detailed textual information: task and state type,
duration, and the sources/destinations of the data read/written by the
task (with their NUMA nodes).  This module implements the same
hit-testing (binary search on the per-core arrays) and detail
assembly, headlessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .events import STATE_NAMES, WorkerState
from .symbols import symbols_from_trace


def task_at(trace, core, time):
    """The :class:`TaskExecution` running on ``core`` at ``time``, or
    ``None`` — the timeline's hit test.  Among nested spans the
    innermost (latest-starting) one is picked."""
    rows = trace.interval_rows("tasks", core, time, time + 1)
    task_ids = trace.tasks.core_column(core, "task_id")[rows]
    if not len(task_ids):
        return None
    return trace.task_by_id(int(task_ids[-1]))


def state_at(trace, core, time):
    """The state interval covering ``time`` on ``core``, or ``None``."""
    rows = trace.states.lane(core)[
        trace.interval_rows("states", core, time, time + 1)]
    if not len(rows):
        return None
    return {name: int(rows[name][-1])
            for name in ("state", "start", "end")}


@dataclass
class DataEndpoint:
    """One region (and NUMA node) a task reads from or writes to."""

    region_name: str
    address: int
    size: int
    numa_node: Optional[int]

    def describe(self):
        """One line naming the accessing task and byte count."""
        node = ("node {}".format(self.numa_node)
                if self.numa_node is not None else "unplaced")
        return "{} @0x{:x} ({} bytes, {})".format(
            self.region_name or "<anonymous>", self.address, self.size,
            node)


@dataclass
class TaskDetails:
    """Everything the detailed text view shows for a selected task."""

    task_id: int
    type_name: str
    function_address: int
    source_file: str
    source_line: int
    core: int
    numa_node: int
    start: int
    end: int
    reads: List[DataEndpoint] = field(default_factory=list)
    writes: List[DataEndpoint] = field(default_factory=list)
    counter_increases: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self):
        """Cycles the selected task executed for."""
        return self.end - self.start

    def describe(self):
        """The multi-line detail panel of the selected task (Fig. 1)."""
        lines = [
            "task {} ({})".format(self.task_id, self.type_name),
            "  work function 0x{:x} at {}:{}".format(
                self.function_address, self.source_file,
                self.source_line),
            "  executed on core {} (NUMA node {})".format(
                self.core, self.numa_node),
            "  interval [{}, {}) — {} cycles".format(
                self.start, self.end, self.duration),
        ]
        if self.reads:
            lines.append("  reads:")
            lines.extend("    " + endpoint.describe()
                         for endpoint in self.reads)
        if self.writes:
            lines.append("  writes:")
            lines.extend("    " + endpoint.describe()
                         for endpoint in self.writes)
        for name, increase in sorted(self.counter_increases.items()):
            lines.append("  {} during execution: {:.0f}".format(
                name, increase))
        return "\n".join(lines)


def _endpoints(trace, accesses, want_writes):
    endpoints = []
    for index in range(len(accesses["address"])):
        if bool(accesses["is_write"][index]) != want_writes:
            continue
        address = int(accesses["address"][index])
        region = trace.region_of(address)
        endpoints.append(DataEndpoint(
            region_name=region.name if region is not None else "",
            address=address,
            size=int(accesses["size"][index]),
            numa_node=trace.node_of_address(address)))
    return endpoints


def task_details(trace, task_id, symbol_table=None):
    """Assemble the full detail view for one task execution."""
    execution = trace.task_by_id(task_id)
    info = trace.task_types[execution.type_id]
    table = symbol_table if symbol_table is not None \
        else symbols_from_trace(trace)
    symbol = table.resolve(info.address)
    accesses = trace.task_accesses(task_id)
    increases = {}
    for description in trace.counter_descriptions:
        timestamps, values = trace.counter_samples(
            execution.core, description.counter_id)
        if len(timestamps) == 0:
            continue
        lo = int(np.searchsorted(timestamps, execution.start, "left"))
        hi = int(np.searchsorted(timestamps, execution.end, "right")) - 1
        lo = min(max(lo, 0), len(values) - 1)
        hi = min(max(hi, lo), len(values) - 1)
        increases[description.name] = float(values[hi] - values[lo])
    return TaskDetails(
        task_id=task_id,
        type_name=symbol.name if symbol is not None else info.name,
        function_address=info.address,
        source_file=info.source_file,
        source_line=info.source_line,
        core=execution.core,
        numa_node=trace.topology.node_of_core(execution.core),
        start=execution.start,
        end=execution.end,
        reads=_endpoints(trace, accesses, want_writes=False),
        writes=_endpoints(trace, accesses, want_writes=True),
        counter_increases=increases)


def describe_selection(trace, core, time):
    """The text-panel content for a click at (core, time): the state,
    plus full task details when a task is under the cursor."""
    state = state_at(trace, core, time)
    if state is None:
        return "core {}: no activity recorded at {}".format(core, time)
    lines = ["core {} at {}: {} [{} .. {})".format(
        core, time, STATE_NAMES.get(WorkerState(state["state"]),
                                    str(state["state"])),
        state["start"], state["end"])]
    execution = task_at(trace, core, time)
    if execution is not None:
        lines.append(task_details(trace, execution.task_id).describe())
    return "\n".join(lines)
