"""The in-memory trace store: one structured array per core per kind.

This is the literal data layout of Section VI-B-c — "one array per core
and per type of event, sorted by timestamp" — realized as numpy
structured arrays.  :class:`ColumnarTrace` holds, for every core, one
contiguous array per record kind (state intervals, task executions,
discrete events, communication events, memory accesses) plus one array
per ``(core, counter)`` pair for counter samples.  Every lane is sorted
by timestamp, so interval queries are two binary searches away and all
statistics run as vectorized array passes.

It is the only trace store: the simulator, the trace-file readers, the
Paraver/Chrome importers, time windows, corruption salvage and the
memory-mapped ``.ostc`` sidecar all produce a :class:`ColumnarTrace`.
This module is the one place that knows the layout:

* :meth:`ColumnarTrace.from_columns` — split flat record columns into
  per-core sorted lanes (what
  :meth:`repro.core.trace.TraceBuilder.build` calls);
* :meth:`ColumnarTrace.slice_time_window` — a zero-copy sub-trace;
* :func:`merge_counter_series` — join the counters of a second trace;
* :func:`traces_equal` — order-insensitive equality between two
  stores, the oracle of the round-trip property tests.

Besides the lanes, the store offers the concatenated views the
vectorized analyses use (``.states.columns``, ``core_column``,
``.comm``, ``.accesses``, ``.counter_series``) and per-event dataclass
iterators for the plain-Python reference implementations in
:mod:`repro.core.reference`.
"""

from __future__ import annotations

import numpy as np

from .events import (CommEvent, CounterDescription, DiscreteEvent,
                     MemoryAccess, StateInterval, TaskExecution)
from .index import end_reach, interval_slice, point_slice

#: One record per worker-state interval of one core.
STATE_DTYPE = np.dtype([("state", np.int64), ("start", np.int64),
                        ("end", np.int64)])
#: One record per task execution of one core.
TASK_DTYPE = np.dtype([("task_id", np.int64), ("type_id", np.int64),
                       ("start", np.int64), ("end", np.int64)])
#: One record per discrete (point) event of one core.
DISCRETE_DTYPE = np.dtype([("kind", np.int64), ("timestamp", np.int64),
                           ("payload", np.int64)])
#: One record per communication event originating at one core.
COMM_DTYPE = np.dtype([("dst_core", np.int64), ("timestamp", np.int64),
                       ("size", np.int64), ("task_id", np.int64)])
#: One record per memory access performed on one core.
ACCESS_DTYPE = np.dtype([("task_id", np.int64), ("address", np.int64),
                         ("size", np.int64), ("is_write", np.int64),
                         ("timestamp", np.int64)])
#: One record per sample of one counter on one core.
COUNTER_DTYPE = np.dtype([("timestamp", np.int64),
                          ("value", np.float64)])


class RegionLookup:
    """Address -> region / NUMA-node lookup over the placement table.

    The trace file stores placement once per region (Section VI-A);
    this index answers "which node holds this address" for single
    addresses and, vectorized, for whole access columns.
    """

    def __init__(self, regions):
        self.regions = sorted(regions, key=lambda region: region.address)
        self._starts = np.asarray(
            [region.address for region in self.regions], dtype=np.int64)
        self._built = False

    def _build(self):
        page_offsets = [0]
        pages = []
        for region in self.regions:
            pages.extend(region.page_nodes)
            page_offsets.append(len(pages))
        self._page_nodes_flat = np.asarray(pages, dtype=np.int64)
        self._page_offsets = np.asarray(page_offsets, dtype=np.int64)
        self._page_counts = np.asarray(
            [len(region.page_nodes) for region in self.regions],
            dtype=np.int64)
        self._ends = np.asarray(
            [region.end for region in self.regions], dtype=np.int64)
        self._built = True

    def region_of(self, address):
        """The :class:`RegionInfo` containing ``address`` or ``None``."""
        if not self.regions:
            return None
        position = int(np.searchsorted(self._starts, address,
                                       side="right")) - 1
        if position < 0:
            return None
        region = self.regions[position]
        if region.address <= address < region.end:
            return region
        return None

    def node_of_address(self, address):
        """NUMA node holding ``address``, or ``None`` outside regions.

        Pages past the end of a region's placement table count as never
        physically allocated, like explicit ``-1`` entries.
        """
        region = self.region_of(address)
        if region is None:
            return None
        page = (address - region.address) // 4096
        if page >= len(region.page_nodes):
            return None
        node = region.page_nodes[page]
        return None if node < 0 else node

    def nodes_of_addresses(self, addresses):
        """Vectorized :meth:`node_of_address`: NUMA node per address.

        Returns an int array; addresses outside any region (or on pages
        that were never physically allocated) map to -1.  The flattened
        page-placement index is built on first use and cached.
        """
        if not self._built:
            self._build()
        addresses = np.asarray(addresses, dtype=np.int64)
        result = np.full(len(addresses), -1, dtype=np.int64)
        if not self.regions or len(addresses) == 0:
            return result
        position = np.searchsorted(self._starts, addresses,
                                   side="right") - 1
        valid = position >= 0
        clipped = np.clip(position, 0, None)
        valid &= addresses < self._ends[clipped]
        if not valid.any():
            return result
        region_index = clipped[valid]
        page = (addresses[valid]
                - self._starts[region_index]) // 4096
        # Pages past a region's placement table were never physically
        # allocated — same as explicit -1 entries.
        placed = page < self._page_counts[region_index]
        nodes = np.full(len(region_index), -1, dtype=np.int64)
        nodes[placed] = self._page_nodes_flat[
            self._page_offsets[region_index[placed]] + page[placed]]
        result[valid] = nodes
        return result


class LaneStack:
    """One sorted structured array per core for one record kind.

    ``lane(core)`` is the per-core array itself (zero-copy field
    access); ``columns`` / ``core_column`` / ``core_slice`` present the
    concatenated core-major view the vectorized analyses run on.  The
    synthesized
    ``core_name`` column (the lane index) exists only in these views —
    the lanes themselves never store it.
    """

    def __init__(self, lanes, column_order, core_name="core"):
        self.lanes = list(lanes)
        self.column_order = tuple(column_order)
        self.core_name = core_name
        lengths = np.asarray([len(lane) for lane in self.lanes],
                             dtype=np.int64)
        self.offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
        self._columns = None

    def __len__(self):
        return int(self.offsets[-1])

    def lane(self, core):
        """The structured event array of one core."""
        return self.lanes[core]

    def core_slice(self, core):
        """Concatenated-column slice covering one core's events."""
        return slice(int(self.offsets[core]), int(self.offsets[core + 1]))

    def core_column(self, core, name):
        """One column of one core's lane (``core_name`` synthesized)."""
        if name == self.core_name:
            return np.full(len(self.lanes[core]), core, dtype=np.int64)
        return self.lanes[core][name]

    @property
    def columns(self):
        """Concatenated (core-major, per-core sorted) column dict.
        Built lazily."""
        if self._columns is None:
            lengths = [len(lane) for lane in self.lanes]
            columns = {}
            for name in self.column_order:
                if name == self.core_name:
                    columns[name] = np.repeat(
                        np.arange(len(self.lanes), dtype=np.int64),
                        lengths)
                elif self.lanes:
                    columns[name] = np.concatenate(
                        [np.ascontiguousarray(lane[name])
                         for lane in self.lanes])
                else:
                    columns[name] = np.empty(0, dtype=np.int64)
            self._columns = columns
        return self._columns


def _split_by_core(columns, core_key, sort_key, num_cores, dtype):
    """Per-core sorted lanes from flat columns (stable in ties)."""
    order = np.lexsort((columns[sort_key], columns[core_key]))
    offsets = np.searchsorted(columns[core_key][order],
                              np.arange(num_cores + 1))
    lanes = []
    for core in range(num_cores):
        rows = order[int(offsets[core]):int(offsets[core + 1])]
        lane = np.empty(len(rows), dtype=dtype)
        for name in dtype.names:
            lane[name] = columns[name][rows]
        lanes.append(lane)
    return lanes


class ColumnarTrace:
    """An immutable trace stored as per-core sorted structured arrays."""

    def __init__(self, topology, states, tasks, discrete, comm, accesses,
                 counter_lanes, counter_descriptions, task_types, regions,
                 time_bounds=None, pyramids=None):
        self.topology = topology
        # Persisted render pyramids of a memory-mapped open (see
        # repro.trace_format.cache.MappedPyramids); in-memory stores
        # build the equivalent structures lazily instead.  Windowed
        # sub-traces never inherit them: their lanes are slices the
        # persisted levels do not describe.
        self.pyramids = pyramids
        self.states = LaneStack(states, ("core", "state", "start", "end"))
        self.tasks = LaneStack(tasks, ("task_id", "type_id", "core",
                                       "start", "end"))
        self.discrete = LaneStack(discrete, ("core", "kind", "timestamp",
                                             "payload"))
        self.comm_lanes = LaneStack(comm, ("src_core", "dst_core",
                                           "timestamp", "size", "task_id"),
                                    core_name="src_core")
        self.access_lanes = LaneStack(accesses, ("task_id", "core",
                                                 "address", "size",
                                                 "is_write", "timestamp"))
        self.counter_lanes = dict(counter_lanes)
        self.counter_descriptions = list(counter_descriptions)
        self.task_types = list(task_types)
        self._region_lookup = RegionLookup(regions)
        self.regions = self._region_lookup.regions
        self._comm = None
        self._accesses = None
        self._counter_series = None
        self._task_index = None
        # Lazily built render structures (see minmax_tree, state_index
        # and end_reach).
        self._minmax_trees = {}
        self._state_indexes = {}
        self._end_reaches = {}
        # ``time_bounds`` lets a memory-mapped open skip the bounds
        # scan (which would fault in every page of the interval lanes);
        # the cache header stores the bounds instead.
        if time_bounds is None:
            self.begin, self.end = self._time_bounds()
        else:
            self.begin, self.end = int(time_bounds[0]), int(time_bounds[1])

    @classmethod
    def from_columns(cls, topology, states, tasks, discrete, comm,
                     accesses, counter_series, counter_descriptions,
                     task_types, regions):
        """Assemble the store from flat, unsorted record columns.

        Each event argument is a dict of equal-length int64 arrays
        keyed by the :class:`LaneStack` column names; records are split
        by core and sorted by timestamp (stable in ties).
        ``counter_series`` maps ``(core, counter_id)`` to unsorted
        ``(timestamps, values)`` arrays.
        """
        num_cores = topology.num_cores
        counter_lanes = {}
        for key, (timestamps, values) in counter_series.items():
            order = np.argsort(timestamps, kind="stable")
            lane = np.empty(len(timestamps), dtype=COUNTER_DTYPE)
            lane["timestamp"] = timestamps[order]
            lane["value"] = values[order]
            counter_lanes[key] = lane
        return cls(
            topology=topology,
            states=_split_by_core(states, "core", "start", num_cores,
                                  STATE_DTYPE),
            tasks=_split_by_core(tasks, "core", "start", num_cores,
                                 TASK_DTYPE),
            discrete=_split_by_core(discrete, "core", "timestamp",
                                    num_cores, DISCRETE_DTYPE),
            comm=_split_by_core(comm, "src_core", "timestamp", num_cores,
                                COMM_DTYPE),
            accesses=_split_by_core(accesses, "core", "timestamp",
                                    num_cores, ACCESS_DTYPE),
            counter_lanes=counter_lanes,
            counter_descriptions=counter_descriptions,
            task_types=task_types, regions=regions)

    # -- global properties --------------------------------------------
    @property
    def num_cores(self):
        """Total cores of the traced machine."""
        return self.topology.num_cores

    @property
    def duration(self):
        """Cycles between the first and last event."""
        return self.end - self.begin

    def _time_bounds(self):
        begin, end = [], []
        for stack in (self.states, self.tasks):
            for lane in stack.lanes:
                if len(lane):
                    begin.append(int(lane["start"][0]))
                    end.append(int(lane["end"].max()))
        for lane in self.counter_lanes.values():
            if len(lane):
                begin.append(int(lane["timestamp"][0]))
                end.append(int(lane["timestamp"][-1]))
        if not begin:
            return 0, 0
        return min(begin), max(end)

    # -- global views -------------------------------------------------
    @property
    def comm(self):
        """Communication events as one global, time-sorted column dict
        (ties ordered by source core)."""
        if self._comm is None:
            columns = self.comm_lanes.columns
            order = np.argsort(columns["timestamp"], kind="stable")
            self._comm = {name: columns[name][order]
                          for name in self.comm_lanes.column_order}
        return self._comm

    @property
    def accesses(self):
        """Memory accesses as one task-sorted column dict."""
        if self._accesses is None:
            columns = self.access_lanes.columns
            order = np.argsort(columns["task_id"], kind="stable")
            self._accesses = {name: columns[name][order]
                              for name in self.access_lanes.column_order}
        return self._accesses

    # -- counters -------------------------------------------------------
    def counter_id(self, name):
        """Counter id for a name (ids pass through unchanged)."""
        for description in self.counter_descriptions:
            if description.name == name:
                return description.counter_id
        raise KeyError("no counter named {!r}".format(name))

    def counter_name(self, counter_id):
        """Counter name for an id."""
        return self.counter_descriptions[counter_id].name

    @property
    def counter_series(self):
        """``(core, counter_id) -> (timestamps, values)`` views."""
        if self._counter_series is None:
            self._counter_series = {
                key: (lane["timestamp"], lane["value"])
                for key, lane in self.counter_lanes.items()}
        return self._counter_series

    def counter_lane(self, core, counter_id):
        """The structured sample array of one counter on one core."""
        empty = np.empty(0, dtype=COUNTER_DTYPE)
        return self.counter_lanes.get((core, counter_id), empty)

    def counter_samples(self, core, counter_id):
        """(timestamps, values) arrays for one counter on one core.

        Served straight from the lane dict: the first frame after a
        mapped reopen must not pay for cutting field views of every
        counter lane (the ``counter_series`` property) to read one.
        """
        lane = self.counter_lanes.get((core, counter_id))
        if lane is None:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return lane["timestamp"], lane["value"]

    def minmax_tree(self, core, counter_id, arity=None):
        """The n-ary min/max tree of one counter on one core, memoized.

        Section VI-B-c builds these once per (core, counter) at load
        time; memoizing them on the store gives the same effect lazily:
        the first frame of a counter overlay builds the tree, every
        later zoom/pan frame reuses it.  Shared by
        :func:`~repro.render.counter_overlay.value_bounds` and the
        counter render kernel.
        """
        from .interval_tree import DEFAULT_ARITY, MinMaxTree
        arity = DEFAULT_ARITY if arity is None else arity
        key = (core, counter_id, arity)
        tree = self._minmax_trees.get(key)
        if tree is None:
            __, values = self.counter_samples(core, counter_id)
            if self.pyramids is not None:
                # A memory-mapped store serves the persisted pyramid
                # levels instead of rebuilding the tree: first frame
                # after reopen touches O(header) bytes, not the lane.
                tree = self.pyramids.counter_tree(core, counter_id,
                                                  values, arity)
            if tree is None:
                tree = MinMaxTree(values, arity=arity)
            self._minmax_trees[key] = tree
        return tree

    def counter_columns(self, core, counter_id, view):
        """Persisted pixel columns for a counter lane under ``view``,
        or ``None`` when they cannot serve it.

        A mapped store carries pre-rendered whole-trace columns at the
        standard tile widths (written by the render kernel itself, so
        they are bit-identical to rendering live).  They apply only to
        a fit view — full time bounds, aggregated regime, persisted
        width; anything else falls back to the kernel.  Returns the
        ``(xs, vmins, vmaxs)`` triple the kernel would have produced.
        """
        if self.pyramids is None:
            return None
        if (view.start, view.end) != (self.begin, self.end):
            return None
        if view.duration < view.width:
            return None
        columns = self.pyramids.counter_columns(core, counter_id,
                                                view.width)
        if columns is None:
            return None
        vmins, vmaxs = columns
        xs = np.flatnonzero(~np.isnan(vmins))
        return xs, vmins[xs], vmaxs[xs]

    def state_index(self, core):
        """One core's exact per-state coverage index, memoized.

        Served from the sidecar's persisted pyramid on memory-mapped
        stores, built lazily from the state lane otherwise; ``None``
        when the lane cannot be indexed (overlapping intervals within
        a state), in which case rendering falls back to the lane
        scan.  See :class:`repro.core.pyramid.StateIndex`.
        """
        from .pyramid import StateIndex
        cache = self._state_indexes
        if core in cache:
            return cache[core]
        index = None
        if self.pyramids is not None:
            index = self.pyramids.state_index(core)
        if index is None:
            index = StateIndex.build(
                self.states.core_column(core, "start"),
                self.states.core_column(core, "end"),
                self.states.core_column(core, "state"))
        cache[core] = index
        return index

    def end_reach(self, kind, core):
        """The running maximum of the ``end`` column of one core's
        ``kind`` (``"states"``/``"tasks"``) lane, memoized; ``None``
        when the column is sorted (no span nests in an earlier one).
        Mapped stores read that from the sidecar, so a reopen scans no
        lane.  See :func:`repro.core.index.end_reach`."""
        cache = self._end_reaches
        key = (kind, core)
        if key not in cache:
            reach = None
            if self.pyramids is None or self.pyramids.nested(kind, core):
                reach = end_reach(getattr(self, kind).lanes[core]["end"])
            cache[key] = reach
        return cache[key]

    def interval_rows(self, kind, core, start, end):
        """Rows of one core's ``kind`` lane overlapping ``[start,
        end)``: a zero-copy slice, or an index array on a lane with
        nested spans (:func:`repro.core.index.interval_slice`)."""
        lane = getattr(self, kind).lanes[core]
        return interval_slice(lane["start"], lane["end"], start, end,
                              self.end_reach(kind, core))

    # -- per-event dataclass views ------------------------------------
    def task_by_id(self, task_id):
        """The :class:`TaskExecution` for a task id (raises
        ``KeyError``).  The id -> row index is built on first use."""
        index = self._task_index
        if index is None:
            ids = self.tasks.columns["task_id"]
            index = self._task_index = {
                int(value): position
                for position, value in enumerate(ids)}
        position = index[task_id]
        columns = self.tasks.columns
        return TaskExecution(task_id=int(columns["task_id"][position]),
                             type_id=int(columns["type_id"][position]),
                             core=int(columns["core"][position]),
                             start=int(columns["start"][position]),
                             end=int(columns["end"][position]))

    def task_executions(self):
        """Iterate all task executions (analysis convenience)."""
        columns = self.tasks.columns
        for position in range(len(self.tasks)):
            yield TaskExecution(task_id=int(columns["task_id"][position]),
                                type_id=int(columns["type_id"][position]),
                                core=int(columns["core"][position]),
                                start=int(columns["start"][position]),
                                end=int(columns["end"][position]))

    def state_intervals(self):
        """Iterate :class:`StateInterval` dataclasses (optionally one core)."""
        columns = self.states.columns
        for position in range(len(self.states)):
            yield StateInterval(core=int(columns["core"][position]),
                                state=int(columns["state"][position]),
                                start=int(columns["start"][position]),
                                end=int(columns["end"][position]))

    def discrete_events(self):
        """Iterate :class:`DiscreteEvent` dataclasses (optionally one core)."""
        columns = self.discrete.columns
        for position in range(len(self.discrete)):
            yield DiscreteEvent(core=int(columns["core"][position]),
                                kind=int(columns["kind"][position]),
                                timestamp=int(
                                    columns["timestamp"][position]),
                                payload=int(columns["payload"][position]))

    def comm_events(self):
        """Iterate :class:`CommEvent` dataclasses (optionally one source
        core)."""
        columns = self.comm
        for position in range(len(columns["timestamp"])):
            yield CommEvent(src_core=int(columns["src_core"][position]),
                            dst_core=int(columns["dst_core"][position]),
                            timestamp=int(columns["timestamp"][position]),
                            size=int(columns["size"][position]),
                            task_id=int(columns["task_id"][position]))

    def memory_accesses(self):
        """Iterate :class:`MemoryAccess` dataclasses (optionally one task)."""
        columns = self.accesses
        for position in range(len(columns["task_id"])):
            yield MemoryAccess(
                task_id=int(columns["task_id"][position]),
                core=int(columns["core"][position]),
                address=int(columns["address"][position]),
                size=int(columns["size"][position]),
                is_write=bool(columns["is_write"][position]),
                timestamp=int(columns["timestamp"][position]))

    # -- task accesses ----------------------------------------------------
    def task_accesses(self, task_id):
        """Column slices of the memory accesses of one task."""
        ids = self.accesses["task_id"]
        lo = int(np.searchsorted(ids, task_id, side="left"))
        hi = int(np.searchsorted(ids, task_id, side="right"))
        return {name: values[lo:hi]
                for name, values in self.accesses.items()}

    # -- memory regions -----------------------------------------------
    def region_of(self, address):
        """The :class:`RegionInfo` containing ``address`` or ``None``."""
        return self._region_lookup.region_of(address)

    def node_of_address(self, address):
        """NUMA node holding ``address`` (via the region placement
        table), or ``None`` for addresses outside any known region."""
        return self._region_lookup.node_of_address(address)

    def nodes_of_addresses(self, addresses):
        """Vectorized :meth:`node_of_address` (see
        :meth:`RegionLookup.nodes_of_addresses`)."""
        return self._region_lookup.nodes_of_addresses(addresses)

    # -- zero-copy window slicing -------------------------------------
    def slice_time_window(self, start, end):
        """The sub-trace overlapping ``[start, end)`` as lane *views*.

        Every lane is per-core sorted, so the events of the window are
        one binary-searched slice per lane (Section VI-B-c): interval
        kinds (states, tasks) keep every record overlapping the window,
        point kinds keep timestamps in ``[start, end)`` — the exact
        filtering semantics of
        :func:`repro.trace_format.streaming.split_time_window`.  No
        event data is copied except on interval lanes with nested spans,
        which are gathered through an index array
        (:meth:`interval_rows`); on a memory-mapped store only the pages
        the returned slices touch are ever read, which is what makes
        windowed queries on a cached million-event trace O(window).
        """
        def interval_lanes(kind):
            return [lane[self.interval_rows(kind, core, start, end)]
                    for core, lane in enumerate(getattr(self, kind).lanes)]

        def point_lanes(stack):
            return [lane[point_slice(lane["timestamp"], start, end)]
                    for lane in stack.lanes]

        counter_lanes = {
            key: lane[point_slice(lane["timestamp"], start, end)]
            for key, lane in self.counter_lanes.items()}
        return ColumnarTrace(
            topology=self.topology,
            states=interval_lanes("states"),
            tasks=interval_lanes("tasks"),
            discrete=point_lanes(self.discrete),
            comm=point_lanes(self.comm_lanes),
            accesses=point_lanes(self.access_lanes),
            counter_lanes=counter_lanes,
            counter_descriptions=self.counter_descriptions,
            task_types=self.task_types,
            regions=self.regions)

    def __repr__(self):
        return ("ColumnarTrace(cores={}, states={}, tasks={}, "
                "accesses={}, counters={})".format(
                    self.num_cores, len(self.states), len(self.tasks),
                    len(self.access_lanes),
                    len(self.counter_descriptions)))


def merge_counter_series(main, aux, counters=None):
    """Merge counter series of a second trace into a new trace.

    The paper collects ``getrusage`` statistics in a *separate* trace
    because concurrent calls to the function perturb the run
    (Section III-B); the analysis then needs the auxiliary counters
    joined with the main trace.  This returns a new
    :class:`ColumnarTrace` carrying ``main``'s events plus the selected
    ``counters`` (names; default: all) from ``aux``, re-numbered to
    avoid id collisions.
    Name clashes get an ``aux:`` prefix.

    Both traces must describe the same machine.
    """
    if (aux.topology.num_nodes != main.topology.num_nodes
            or aux.topology.cores_per_node
            != main.topology.cores_per_node):
        raise ValueError("traces describe different machines")
    wanted = ({description.name
               for description in aux.counter_descriptions}
              if counters is None else set(counters))
    existing = {description.name
                for description in main.counter_descriptions}
    descriptions = list(main.counter_descriptions)
    lanes = dict(main.counter_lanes)
    id_map = {}
    for description in aux.counter_descriptions:
        if description.name not in wanted:
            continue
        name = description.name
        if name in existing:
            name = "aux:" + name
        new_id = len(descriptions)
        id_map[description.counter_id] = new_id
        descriptions.append(CounterDescription(
            counter_id=new_id, name=name,
            monotone=description.monotone))
    for (core, counter_id), lane in aux.counter_lanes.items():
        if counter_id in id_map:
            lanes[(core, id_map[counter_id])] = lane
    return ColumnarTrace(topology=main.topology,
                         states=main.states.lanes, tasks=main.tasks.lanes,
                         discrete=main.discrete.lanes,
                         comm=main.comm_lanes.lanes,
                         accesses=main.access_lanes.lanes,
                         counter_lanes=lanes,
                         counter_descriptions=descriptions,
                         task_types=main.task_types, regions=main.regions)


def _canonical_columns(columns):
    """Columns reordered into a canonical total order (name-sorted
    lexsort), so equality ignores permitted tie reorderings."""
    names = sorted(columns)
    if not names or len(columns[names[0]]) == 0:
        return {name: columns[name] for name in names}
    order = np.lexsort(tuple(columns[name] for name in names))
    return {name: columns[name][order] for name in names}


def _columns_equal(left, right):
    if sorted(left) != sorted(right):
        return False
    left = _canonical_columns(left)
    right = _canonical_columns(right)
    return all(np.array_equal(left[name], right[name]) for name in left)


def traces_equal(left, right):
    """Whether two trace stores hold exactly the same records.

    Event comparison is order-insensitive within the orderings a
    store is free to choose (ties in the per-core / per-key sorts);
    values must match exactly, including counter-sample floats.
    """
    if left.topology != right.topology:
        return False
    if (list(left.counter_descriptions) != list(right.counter_descriptions)
            or list(left.task_types) != list(right.task_types)
            or list(left.regions) != list(right.regions)):
        return False
    for kind in ("states", "tasks", "discrete"):
        if not _columns_equal(getattr(left, kind).columns,
                              getattr(right, kind).columns):
            return False
    if not _columns_equal(left.comm, right.comm):
        return False
    if not _columns_equal(left.accesses, right.accesses):
        return False
    if set(left.counter_series) != set(right.counter_series):
        return False
    for key, (timestamps, values) in left.counter_series.items():
        other_times, other_values = right.counter_series[key]
        if not _columns_equal({"t": timestamps, "v": values},
                              {"t": other_times, "v": other_values}):
            return False
    return True
