"""Seeded random trace generator shared by the property-based and
parity test suites.

Builds an in-memory :class:`~repro.core.columnar.ColumnarTrace`
containing every record kind with randomized-but-valid content:
per-core monotone, non-overlapping state and task intervals, monotone
counter samples, discrete/communication events, memory accesses into
randomly placed regions, and the full static preamble.  Everything is
derived from one ``random.Random(seed)``, so a seed pins the trace
exactly.  :func:`mapped_copy` maps a store back from its ``.ostc``
sidecar, so tests can run on both production paths, and
:func:`render_lane_scan` renders a timeline without the state
pyramid, the reference the pyramid-served frames must match.
"""

import random

from repro.core import (RegionInfo, TaskTypeInfo, TopologyInfo,
                        TraceBuilder)
from repro.render import render_timeline
from repro.trace_format import load_cache, write_cache

PAGE = 4096


def make_random_trace(seed, events_per_core=40, sparse=False):
    """A deterministic random trace store exercising every record
    kind.  ``sparse=True`` drops some record kinds entirely (the trace
    format is incremental — readers must cope with missing kinds)."""
    rng = random.Random(seed)
    topology = TopologyInfo(num_nodes=rng.randint(1, 3),
                            cores_per_node=rng.randint(1, 4),
                            name="random-{}".format(seed))
    builder = TraceBuilder(topology)

    include = {kind: (not sparse or rng.random() < 0.7)
               for kind in ("states", "tasks", "discrete", "comm",
                            "accesses", "counters")}

    num_types = rng.randint(1, 4)
    for type_id in range(num_types):
        builder.describe_task_type(TaskTypeInfo(
            type_id=type_id, name="type_{}".format(type_id),
            address=0x1000 + 64 * type_id,
            source_file="gen.c", source_line=type_id + 1))

    regions = []
    cursor = PAGE * rng.randint(1, 8)
    for region_id in range(rng.randint(0, 3)):
        pages = rng.randint(1, 6)
        region = RegionInfo(
            region_id=region_id, address=cursor, size=pages * PAGE,
            page_nodes=tuple(rng.randrange(-1, topology.num_nodes)
                             for __ in range(pages)),
            name="region_{}".format(region_id))
        builder.describe_region(region)
        regions.append(region)
        cursor = region.address + region.size + PAGE * rng.randint(1, 8)

    counter_ids = []
    if include["counters"]:
        for name in ("cycles", "misses")[:rng.randint(1, 2)]:
            counter_ids.append(builder.describe_counter(name))

    task_id = 0
    for core in range(topology.num_cores):
        clock = rng.randint(0, 50)
        for __ in range(events_per_core):
            duration = rng.randint(1, 400)
            start, end = clock, clock + duration
            emitted = False
            if include["states"] and rng.random() < 0.6:
                builder.state_interval(core, rng.randrange(6), start, end)
                emitted = True
            if include["tasks"] and not emitted and rng.random() < 0.7:
                builder.task_execution(task_id,
                                       rng.randrange(num_types), core,
                                       start, end)
                task_id += 1
            if include["discrete"] and rng.random() < 0.3:
                builder.discrete_event(core, rng.randrange(4), start,
                                       rng.randint(0, 1000))
            if include["comm"] and rng.random() < 0.25:
                builder.comm_event(core,
                                   rng.randrange(topology.num_cores),
                                   start, size=rng.randint(0, 1 << 16),
                                   task_id=rng.randint(-1, task_id))
            if include["accesses"] and regions and rng.random() < 0.4:
                region = rng.choice(regions)
                builder.memory_access(
                    rng.randint(0, max(task_id, 1)), core,
                    region.address + rng.randrange(region.size),
                    rng.choice((8, 64, 512)), rng.random() < 0.5, start)
            for counter_id in counter_ids:
                if rng.random() < 0.5:
                    builder.counter_sample(core, counter_id, start,
                                           rng.random() * 1e9)
            clock = end + rng.randint(0, 60)
    return builder.build()


def mapped_copy(trace, directory):
    """``trace`` written to an ``.ostc`` sidecar in ``directory`` and
    mapped back — the store's other production path, which serves the
    persisted render pyramids instead of building them."""
    sidecar = str(directory / "mapped_copy.ostc")
    write_cache(trace, sidecar)
    return load_cache(sidecar)


def render_lane_scan(trace, mode, view):
    """``render_timeline`` with every lane sent through the
    lane-scanning kernel: the memoized state indexes are replaced by
    ``None`` — what an unindexable lane memoizes — for the frame, and
    restored afterwards."""
    saved = trace._state_indexes
    trace._state_indexes = dict.fromkeys(range(trace.num_cores))
    try:
        return render_timeline(trace, mode, view)
    finally:
        trace._state_indexes = saved
