"""Run-time tracing hooks: simulator events -> trace records.

The OpenStream run-time instruments worker threads and writes per-worker
event streams with very low overhead (Section VI-A).  This module plays
that role for the simulator: it forwards state changes, task executions,
counter samples, memory accesses and discrete events to a
:class:`repro.core.trace.TraceBuilder`, registers counter descriptions,
and — once the simulation finished — records the static tables (machine
topology, task types, final NUMA placement of every memory region).
"""

from __future__ import annotations

from ..core.events import RegionInfo, TaskTypeInfo, TopologyInfo
from ..core.trace import TraceBuilder
from .counters import (BRANCH_MISPREDICTIONS, CACHE_MISSES,
                       OS_RESIDENT_KB, OS_SYSTEM_TIME_US)


class TraceCollector:
    """Collects simulator events and produces a
    :class:`~repro.core.columnar.ColumnarTrace`.

    ``collect_rusage`` adds the getrusage-like counters (system time and
    resident size); the paper records those in a separate trace because
    of their collection overhead, which a caller can mirror by running
    the simulation twice with different collector settings.
    """

    def __init__(self, machine, collect_rusage=True, collect_accesses=True):
        self.machine = machine
        self.collect_rusage = collect_rusage
        self.collect_accesses = collect_accesses
        topology = TopologyInfo(num_nodes=machine.num_nodes,
                                cores_per_node=machine.cores_per_node,
                                name=machine.name)
        self.builder = TraceBuilder(topology)
        self.counter_ids = {
            CACHE_MISSES: self.builder.describe_counter(CACHE_MISSES),
            BRANCH_MISPREDICTIONS: self.builder.describe_counter(
                BRANCH_MISPREDICTIONS),
        }
        if collect_rusage:
            self.counter_ids[OS_SYSTEM_TIME_US] = (
                self.builder.describe_counter(OS_SYSTEM_TIME_US))
            self.counter_ids[OS_RESIDENT_KB] = (
                self.builder.describe_counter(OS_RESIDENT_KB))

    # -- events forwarded by the simulator ---------------------------------
    def state(self, core, state, start, end):
        self.builder.state_interval(core, int(state), start, end)

    def task_execution(self, task, core, start, end):
        self.builder.task_execution(task.task_id, task.task_type.type_id,
                                    core, start, end)

    def memory_access(self, task, core, access, timestamp):
        if not self.collect_accesses:
            return
        self.builder.memory_access(
            task.task_id, core, access.region.address + access.offset,
            access.size, access.is_write, timestamp)

    def counter_sample(self, core, name, timestamp, value):
        counter_id = self.counter_ids.get(name)
        if counter_id is not None:
            self.builder.counter_sample(core, counter_id, timestamp, value)

    def discrete_event(self, core, kind, timestamp, payload=0):
        self.builder.discrete_event(core, int(kind), timestamp, payload)

    def comm_event(self, src_core, dst_core, timestamp, size=0, task_id=-1):
        self.builder.comm_event(src_core, dst_core, timestamp, size, task_id)

    # -- static tables ------------------------------------------------
    def record_static(self, program):
        """Record task types and final region placement.

        Placement is stored once per region regardless of the number of
        accesses (the redundancy-avoidance scheme of Section VI-A);
        pages never physically allocated are stored as node -1.
        """
        for task_type in program.task_types:
            self.builder.describe_task_type(TaskTypeInfo(
                type_id=task_type.type_id, name=task_type.name,
                address=task_type.address,
                source_file=task_type.source_file,
                source_line=task_type.source_line))
        for region in program.memory.regions:
            pages = tuple(-1 if node is None else node
                          for node in region.pages)
            self.builder.describe_region(RegionInfo(
                region_id=region.region_id, address=region.address,
                size=region.size, page_nodes=pages, name=region.name))

    def build(self):
        return self.builder.build()
