"""Building the in-memory trace.

Aftermath keeps simple, efficient data structures for traces
(Section VI-B-c): *one array per core and per type of event, sorted by
timestamp*, so that the events of any time interval can be found with a
binary search.  :class:`TraceBuilder` is the append-only accumulator
that fills them — used by the run-time tracer, the trace-file readers
and the foreign-format importers.  Columns are ``array.array``
buffers, so building million-event traces does not allocate millions
of Python objects; :meth:`TraceBuilder.build` hands them to
:meth:`repro.core.columnar.ColumnarTrace.from_columns`, which owns the
per-core layout.

Records may be appended in any order; the store sorts per core at
:meth:`TraceBuilder.build` time.  (Trace *files* additionally guarantee
per-core timestamp order, which makes this sort cheap — Section VI-A.)
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from .columnar import ColumnarTrace
from .events import CounterDescription, RegionInfo, TaskTypeInfo


class _Columns:
    """A set of parallel ``array.array('q')`` columns."""

    def __init__(self, names):
        self.names = tuple(names)
        self.columns = {name: array("q") for name in self.names}

    def append(self, *values):
        for name, value in zip(self.names, values):
            self.columns[name].append(int(value))

    def __len__(self):
        return len(self.columns[self.names[0]])

    def to_numpy(self):
        return {name: np.asarray(self.columns[name], dtype=np.int64)
                for name in self.names}


class TraceBuilder:
    """Accumulates trace records and assembles a
    :class:`~repro.core.columnar.ColumnarTrace`.

    The topology may arrive at any time before :meth:`build` (trace
    files allow static records anywhere): pass it to the constructor
    or assign :attr:`topology` later.
    """

    def __init__(self, topology=None):
        self.topology = topology
        self._states = _Columns(("core", "state", "start", "end"))
        self._tasks = _Columns(("task_id", "type_id", "core", "start",
                                "end"))
        self._discrete = _Columns(("core", "kind", "timestamp", "payload"))
        self._comm = _Columns(("src_core", "dst_core", "timestamp", "size",
                               "task_id"))
        self._accesses = _Columns(("task_id", "core", "address", "size",
                                   "is_write", "timestamp"))
        self._counter_times: Dict[Tuple[int, int], array] = {}
        self._counter_values: Dict[Tuple[int, int], array] = {}
        self.counter_descriptions: List[CounterDescription] = []
        self.task_types: List[TaskTypeInfo] = []
        self.regions: List[RegionInfo] = []
        self._placeholder_ids = set()

    # -- static records ---------------------------------------------------
    def describe_counter(self, name, monotone=True):
        """Register a counter; returns its id."""
        counter_id = len(self.counter_descriptions)
        self.counter_descriptions.append(
            CounterDescription(counter_id=counter_id, name=name,
                               monotone=monotone))
        return counter_id

    def place_counter(self, description):
        """Install a :class:`CounterDescription` in its id's slot.

        Readers use this for descriptions that carry their own id and
        may arrive in any order: gaps are padded with ``__unused_<id>``
        placeholders that a later description fills.  Returns
        ``False``, installing nothing, when the id is already
        described.
        """
        counter_id = description.counter_id
        while len(self.counter_descriptions) <= counter_id:
            placeholder = len(self.counter_descriptions)
            self._placeholder_ids.add(placeholder)
            self.counter_descriptions.append(CounterDescription(
                counter_id=placeholder,
                name="__unused_{}".format(placeholder)))
        if counter_id not in self._placeholder_ids:
            return False
        self._placeholder_ids.discard(counter_id)
        self.counter_descriptions[counter_id] = description
        return True

    def describe_task_type(self, info):
        """Register a :class:`TaskTypeInfo` static record."""
        self.task_types.append(info)

    def describe_region(self, info):
        """Register a :class:`RegionInfo` static record."""
        self.regions.append(info)

    # -- event records ----------------------------------------------------
    def state_interval(self, core, state, start, end):
        """Append one worker-state interval record."""
        if end > start:
            self._states.append(core, state, start, end)

    def task_execution(self, task_id, type_id, core, start, end):
        """Append one task-execution record."""
        self._tasks.append(task_id, type_id, core, start, end)

    def discrete_event(self, core, kind, timestamp, payload=0):
        """Append one discrete (point) event record."""
        self._discrete.append(core, kind, timestamp, payload)

    def comm_event(self, src_core, dst_core, timestamp, size=0, task_id=-1):
        """Append one communication event record."""
        self._comm.append(src_core, dst_core, timestamp, size, task_id)

    def memory_access(self, task_id, core, address, size, is_write,
                      timestamp):
        """Append one memory-access record."""
        self._accesses.append(task_id, core, address, size,
                              1 if is_write else 0, timestamp)

    def counter_sample(self, core, counter_id, timestamp, value):
        """Append one counter sample for a core's counter."""
        key = (core, counter_id)
        times = self._counter_times.get(key)
        if times is None:
            times = self._counter_times[key] = array("q")
            self._counter_values[key] = array("d")
        times.append(int(timestamp))
        self._counter_values[key].append(float(value))

    def build(self):
        """Freeze the accumulated records into a
        :class:`~repro.core.columnar.ColumnarTrace`."""
        if self.topology is None:
            raise ValueError("cannot build a trace without a topology")
        counter_series = {
            key: (np.asarray(times, dtype=np.int64),
                  np.asarray(self._counter_values[key], dtype=np.float64))
            for key, times in self._counter_times.items()}
        return ColumnarTrace.from_columns(
            topology=self.topology,
            states=self._states.to_numpy(),
            tasks=self._tasks.to_numpy(),
            discrete=self._discrete.to_numpy(),
            comm=self._comm.to_numpy(),
            accesses=self._accesses.to_numpy(),
            counter_series=counter_series,
            counter_descriptions=list(self.counter_descriptions),
            task_types=list(self.task_types),
            regions=list(self.regions))
