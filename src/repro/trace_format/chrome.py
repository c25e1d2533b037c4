"""Chrome trace-event JSON export and import.

The Chrome ``trace_event`` format (the JSON consumed by
``chrome://tracing`` / Perfetto) is the lingua franca of timeline
tooling, which makes it a natural second foreign format next to
Paraver: exporting lets any trace produced here be eyeballed in a
browser, importing lets the analyses run on timelines captured by
other tools.

Two fidelity levels share one file format:

* Traces written by :func:`export_chrome` carry an
  ``otherData.repro`` block with the machine topology and the static
  description tables, and use raw cycle timestamps.  They re-import
  **losslessly** — every record kind including memory accesses, so
  :func:`repro.core.columnar.traces_equal` holds exactly across the
  round trip.
* Foreign files (no ``repro`` block) follow Chrome conventions:
  microsecond ``ts`` floats (scaled to integer nanoseconds on import),
  ``X`` / ``B`` / ``E`` duration events mapped to task executions,
  ``C`` counter events to counter samples and instant events to
  annotation marks, with one core per distinct ``(pid, tid)`` pair.
"""

from __future__ import annotations

import gzip
import json

from ..core.events import (STATE_NAMES, CounterDescription,
                           DiscreteEventKind, RegionInfo, TaskTypeInfo,
                           TopologyInfo)
from ..core.trace import TraceBuilder
from .format import FormatError


def _open_text(path, mode):
    """Text handle honouring a ``.gz`` suffix."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


def _type_names(trace):
    """type_id -> display name for the task types of a trace."""
    names = {info.type_id: info.name for info in trace.task_types}
    return names


def export_chrome(trace, path):
    """Write a trace as Chrome trace-event JSON (``.json``/``.json.gz``).

    Timestamps are raw cycles (the ``otherData.repro`` block marks the
    file as self-describing, so the importer skips the microsecond
    scaling Chrome tools assume).  Returns the number of events
    written.
    """
    events = []
    node_of = trace.topology.node_of_core
    kind_names = {int(kind): kind.name for kind in DiscreteEventKind}
    state_names = {int(state): name
                   for state, name in STATE_NAMES.items()}
    type_names = _type_names(trace)
    for core in range(trace.num_cores):
        columns = trace.states.columns
        for index in range(*trace.states.core_slice(core).indices(
                len(trace.states))):
            state = int(columns["state"][index])
            events.append({
                "ph": "X", "cat": "state",
                "name": state_names.get(state, "state_%d" % state),
                "pid": node_of(core), "tid": core,
                "ts": int(columns["start"][index]),
                "dur": int(columns["end"][index]
                           - columns["start"][index]),
                "args": {"state": state}})
        columns = trace.tasks.columns
        for index in range(*trace.tasks.core_slice(core).indices(
                len(trace.tasks))):
            type_id = int(columns["type_id"][index])
            events.append({
                "ph": "X", "cat": "task",
                "name": type_names.get(type_id, "type_%d" % type_id),
                "pid": node_of(core), "tid": core,
                "ts": int(columns["start"][index]),
                "dur": int(columns["end"][index]
                           - columns["start"][index]),
                "args": {"task_id": int(columns["task_id"][index]),
                         "type_id": type_id}})
        columns = trace.discrete.columns
        for index in range(*trace.discrete.core_slice(core).indices(
                len(trace.discrete))):
            kind = int(columns["kind"][index])
            events.append({
                "ph": "i", "cat": "discrete",
                "name": kind_names.get(kind, "event_%d" % kind),
                "pid": node_of(core), "tid": core,
                "ts": int(columns["timestamp"][index]), "s": "t",
                "args": {"kind": kind,
                         "payload": int(columns["payload"][index])}})
        for (counter_core, counter_id) in sorted(trace.counter_series):
            if counter_core != core:
                continue
            name = trace.counter_descriptions[counter_id].name \
                if counter_id < len(trace.counter_descriptions) \
                else "counter_%d" % counter_id
            timestamps, values = trace.counter_samples(core, counter_id)
            for index in range(len(timestamps)):
                events.append({
                    "ph": "C", "cat": "counter", "name": name,
                    "pid": node_of(core), "tid": core,
                    "ts": int(timestamps[index]),
                    "args": {"value": float(values[index]),
                             "counter_id": counter_id}})
    comm = trace.comm
    for index in range(len(comm["timestamp"])):
        src = int(comm["src_core"][index])
        events.append({
            "ph": "i", "cat": "comm", "name": "comm",
            "pid": node_of(src), "tid": src,
            "ts": int(comm["timestamp"][index]), "s": "t",
            "args": {"src_core": src,
                     "dst_core": int(comm["dst_core"][index]),
                     "size": int(comm["size"][index]),
                     "task_id": int(comm["task_id"][index])}})
    accesses = trace.accesses
    for index in range(len(accesses["timestamp"])):
        core = int(accesses["core"][index])
        events.append({
            "ph": "i", "cat": "mem", "name": "access",
            "pid": node_of(core), "tid": core,
            "ts": int(accesses["timestamp"][index]), "s": "t",
            "args": {"task_id": int(accesses["task_id"][index]),
                     "address": int(accesses["address"][index]),
                     "size": int(accesses["size"][index]),
                     "is_write": int(accesses["is_write"][index])}})
    events.sort(key=lambda event: (event["ts"], event["tid"]))
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"repro": {
            "topology": {"num_nodes": trace.topology.num_nodes,
                         "cores_per_node":
                             trace.topology.cores_per_node,
                         "name": trace.topology.name},
            "counter_descriptions": [
                {"counter_id": d.counter_id, "name": d.name,
                 "monotone": d.monotone}
                for d in trace.counter_descriptions],
            "task_types": [
                {"type_id": t.type_id, "name": t.name,
                 "address": t.address, "source_file": t.source_file,
                 "source_line": t.source_line}
                for t in trace.task_types],
            "regions": [
                {"region_id": r.region_id, "address": r.address,
                 "size": r.size, "page_nodes": list(r.page_nodes),
                 "name": r.name}
                for r in trace.regions],
        }},
    }
    with _open_text(path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return len(events)


def _load_document(path):
    """The parsed JSON document ({"traceEvents": [...]}-normalized)."""
    try:
        with _open_text(path, "r") as handle:
            document = json.load(handle)
    except ValueError as error:
        raise FormatError("not a Chrome trace: {}".format(error))
    if isinstance(document, list):
        document = {"traceEvents": document}
    if not isinstance(document, dict) \
            or not isinstance(document.get("traceEvents"), list):
        raise FormatError("not a Chrome trace (no traceEvents array)")
    return document


def _install_metadata(builder, repro):
    """Apply an ``otherData.repro`` block to a builder; returns the
    :class:`TopologyInfo` it names."""
    for entry in repro.get("counter_descriptions", ()):
        builder.counter_descriptions.append(CounterDescription(
            counter_id=int(entry["counter_id"]), name=entry["name"],
            monotone=bool(entry.get("monotone", True))))
    for entry in repro.get("task_types", ()):
        builder.describe_task_type(TaskTypeInfo(
            type_id=int(entry["type_id"]), name=entry["name"],
            address=int(entry.get("address", 0)),
            source_file=entry.get("source_file", ""),
            source_line=int(entry.get("source_line", 0))))
    for entry in repro.get("regions", ()):
        builder.describe_region(RegionInfo(
            region_id=int(entry["region_id"]),
            address=int(entry["address"]), size=int(entry["size"]),
            page_nodes=tuple(int(node)
                             for node in entry.get("page_nodes", ())),
            name=entry.get("name", "")))
    shape = repro["topology"]
    return TopologyInfo(num_nodes=int(shape["num_nodes"]),
                        cores_per_node=int(shape["cores_per_node"]),
                        name=shape.get("name", "machine"))


def _import_native(builder, events):
    """Replay self-describing (cycle-timestamped) events."""
    for event in events:
        phase = event.get("ph")
        args = event.get("args", {})
        core = int(event.get("tid", 0))
        time = int(event["ts"])
        category = event.get("cat", "")
        if phase == "X" and category == "state":
            builder.state_interval(core, int(args["state"]), time,
                                   time + int(event.get("dur", 0)))
        elif phase == "X" and category == "task":
            builder.task_execution(int(args["task_id"]),
                                   int(args["type_id"]), core, time,
                                   time + int(event.get("dur", 0)))
        elif phase == "C":
            builder.counter_sample(core, int(args["counter_id"]), time,
                                   float(args["value"]))
        elif phase == "i" and category == "discrete":
            builder.discrete_event(core, int(args["kind"]), time,
                                   int(args.get("payload", 0)))
        elif phase == "i" and category == "comm":
            builder.comm_event(int(args["src_core"]),
                               int(args["dst_core"]), time,
                               size=int(args.get("size", 0)),
                               task_id=int(args.get("task_id", -1)))
        elif phase == "i" and category == "mem":
            builder.memory_access(int(args["task_id"]), core,
                                  int(args["address"]),
                                  int(args["size"]),
                                  bool(args.get("is_write", 0)), time)


def _import_foreign(builder, events):
    """Replay Chrome-convention events (microsecond timestamps).

    Each distinct ``(pid, tid)`` pair becomes one core; ``X`` and
    paired ``B``/``E`` events become task executions (one task type
    per distinct name), ``C`` events counter samples (one counter per
    name, non-monotone) and instant events annotation marks.  Returns
    the number of cores seen.
    """
    lanes = {}

    def core_of(event):
        key = (event.get("pid", 0), event.get("tid", 0))
        return lanes.setdefault(key, len(lanes))

    type_ids = {}

    def type_of(name):
        if name not in type_ids:
            type_ids[name] = len(type_ids)
            builder.describe_task_type(TaskTypeInfo(
                type_id=type_ids[name], name=name))
        return type_ids[name]

    counter_ids = {}
    open_spans = {}
    next_task_id = [0]

    def add_task(core, name, start, end):
        builder.task_execution(next_task_id[0], type_of(name), core,
                               start, end)
        next_task_id[0] += 1

    for event in events:
        phase = event.get("ph")
        if phase == "M" or "ts" not in event:
            continue
        core = core_of(event)
        time = int(round(float(event["ts"]) * 1000.0))
        name = str(event.get("name", ""))
        if phase == "X":
            duration = int(round(float(event.get("dur", 0)) * 1000.0))
            add_task(core, name, time, time + duration)
        elif phase == "B":
            open_spans.setdefault(core, []).append((name, time))
        elif phase == "E":
            stack = open_spans.get(core)
            if stack:
                begin_name, begin = stack.pop()
                add_task(core, begin_name, begin, time)
        elif phase == "C":
            args = event.get("args", {})
            for key, value in sorted(args.items()):
                if not isinstance(value, (int, float)):
                    continue
                label = "{}:{}".format(name, key) if len(args) > 1 \
                    else name
                if label not in counter_ids:
                    counter_ids[label] = builder.describe_counter(
                        label, monotone=False)
                builder.counter_sample(core, counter_ids[label], time,
                                       float(value))
        elif phase in ("i", "I", "R"):
            builder.discrete_event(core,
                                   int(DiscreteEventKind.ANNOTATION),
                                   time, 0)
    return max(len(lanes), 1)


def import_chrome(path):
    """Load a Chrome trace-event JSON file into a
    :class:`~repro.core.columnar.ColumnarTrace`.

    Files produced by :func:`export_chrome` round-trip exactly;
    foreign files are normalized per the module docstring.
    """
    document = _load_document(path)
    repro = (document.get("otherData") or {}).get("repro")
    builder = TraceBuilder()
    events = document["traceEvents"]
    if repro is not None:
        topology = _install_metadata(builder, repro)
        _import_native(builder, events)
    else:
        cores = _import_foreign(builder, events)
        topology = TopologyInfo(num_nodes=1, cores_per_node=cores,
                                name="chrome")
    builder.topology = topology
    return builder.build()
