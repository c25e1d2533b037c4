"""The four workloads: their constants, inputs and scripted passes.

Every workload is a closed loop of *passes*.  A pass is a fixed
sequence of operations (the counts below — the same on every commit);
the seed picks the trace content and where each pass navigates.  A
run repeats passes until ``--seconds`` have elapsed, always finishing
the pass it is in, so every run holds the same mix of operations and
medians, percentiles and throughput compare across commits however
many passes fitted.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace

from .analyst import Analyst, LocalAnalyst
from .harness import WARMUP, Log, ServerChild, peak_rss_mb, \
    reset_peak_rss

NAMES = ("overview", "deepzoom", "shared_viewers", "cold_batch")

#: Why each workload exists (also the ``why`` of ``BENCHMARK.json``).
WHY = {
    "overview": "whole-trace views in all six modes: many events per "
                "pixel, so render aggregation and statistics dominate",
    "deepzoom": "zoom/scroll at 2^10-2^14x: a few events per lane, so "
                "transport, encoders and per-request overhead dominate",
    "shared_viewers": "concurrent clients on two traces over a pool "
                      "smaller than the working set: lock wait, GIL, "
                      "evict and re-map",
    "cold_batch": "no server: cold open to first frame, the deepzoom "
                  "walk in process, ingest, out-of-core scan, a sweep",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts of one benchmark size."""

    name: str
    main_events: int      # traces A and B
    side_events: int      # traces C0-C2 (shared_viewers)
    corpus_events: int    # the Paraver / Chrome corpus (cold_batch)
    sweep_events: int     # synthetic sweep points (cold_batch)
    setup_reps: int       # set-up repetitions; setup_s is their median
    exact_passes: int     # served passes always run; counts over them
                          # are exact functions of the seed
    step_divisor: int     # navigation steps per pass are divided by it


#: The contract allows a run about 35 s with its set-up thrice, so A
#: and B hold half a million events, not the ROADMAP's million (one
#: million costs 4.2 s per trace to write and index, here 2.1 s).
FULL = Scale("full", 500_000, 100_000, 50_000, 50_000, 3, 4, 1)
QUICK = Scale("quick", 8_000, 2_000, 2_000, 2_000, 1, 1, 3)

#: Operations per pass and navigation ranges — the one step table.
STEPS = {
    "overview": {
        "pool_capacity": 8, "zoom": (1.0, 8.0),
        "stats_per_view": 3, "diff_every": 2, "visit_every": 2},
    "deepzoom": {
        "pool_capacity": 8, "steps": 10, "zoom_log2": (10.0, 14.0),
        "diff_every": 2},
    "shared_viewers": {
        "pool_capacity": 2, "max_clients": 4, "steps": 10,
        "zoom_log2": (0.0, 12.0), "reopen_every": 3},
    "cold_batch": {
        "steps": 40, "zoom_log2": (10.0, 14.0), "reopen_every": 20,
        "scan_workers": 2, "windows": 5, "window_share": 0.02,
        "synthetic_specs": 4},
}


def steps_of(workload, scale):
    """A workload's row of :data:`STEPS` at ``scale``."""
    steps = dict(STEPS[workload])
    if "steps" in steps:
        steps["steps"] = steps["steps"] // scale.step_divisor
    return steps


def nproc():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def client_count(workload):
    """Closed-loop clients of a workload: one, except the viewers
    sharing a server, who are as many as there are CPUs (at most 4) so
    the load generator itself never queues."""
    if workload == "shared_viewers":
        return max(2, min(nproc(), STEPS[workload]["max_clients"]))
    return 1


# -- inputs ------------------------------------------------------------

@dataclass
class Inputs:
    """The files one workload reads, generated from the seed."""

    directory: str
    paths: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    corpus_tasks: int = 0
    writer_s: float = 0.0       # writing A (trace_format.writer)


def build_inputs(workload, seed, scale, directory):
    """Generate a workload's input files into ``directory``.

    Only what the program is given: no trace gets a sidecar here,
    because building one is the first contact every workload measures
    as ``first_frame_cold_s``.
    """
    from repro.trace_format import (export_chrome, export_paraver,
                                    read_trace, write_synthetic_trace)
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(directory)

    def synthesize(name, events, offset):
        path = os.path.join(directory, name + ".ost")
        start = time.perf_counter()
        write_synthetic_trace(path, events=events, nodes=4,
                              cores_per_node=4, task_types=6,
                              seed=seed + offset)
        if name == "A":
            inputs.writer_s = time.perf_counter() - start
        inputs.paths[name] = path
        inputs.events[name] = events
        return path

    synthesize("A", scale.main_events, 0)
    if workload in ("overview", "shared_viewers"):
        synthesize("B", scale.main_events, 1)
    if workload == "shared_viewers":
        for index in range(3):
            synthesize("C{}".format(index), scale.side_events,
                       2 + index)
    if workload == "cold_batch":
        corpus = read_trace(
            synthesize("corpus", scale.corpus_events, 5),
            columnar=True)
        inputs.corpus_tasks = len(corpus.tasks)
        for name, export, suffix in (
                ("corpus_paraver", export_paraver, ".prv"),
                ("corpus_chrome", export_chrome, ".json")):
            path = os.path.join(directory, "corpus" + suffix)
            export(corpus, path)
            inputs.paths[name] = path
            inputs.events[name] = scale.corpus_events
    return inputs


# -- navigation --------------------------------------------------------

def wander(analyst, zoom_log2):
    """One seeded ``scroll`` or ``zoom`` that keeps the window inside
    the trace, at a zoom of ``2 ** uniform(zoom_log2)``."""
    rng = analyst.rng
    begin, end = analyst.bounds
    view = analyst.view
    if rng.random() < 0.5:
        room_left = view.start - begin
        room_right = end - view.end
        sign = 1 if room_right >= room_left else -1
        fraction = min(rng.uniform(0.2, 0.9),
                       max(room_left, room_right) / view.duration)
        if fraction >= 0.05:
            analyst.navigate("scroll", fraction=sign * fraction)
            return
    full = end - begin
    target = 2.0 ** rng.uniform(*zoom_log2)
    span = full / target
    center = int(begin + span / 2 + rng.uniform(0, full - span))
    analyst.navigate("zoom", factor=target * view.duration / full,
                     center=center)


def encoding_of(step):
    """PNG, every third frame ASCII.  Not half and half: the two
    encoders cost differently, and a median between two equal
    clusters would jump from one to the other from run to run."""
    return "ascii" if step % 3 == 2 else "png"


# -- served passes -----------------------------------------------------

def overview_pass(analyst, index, inputs, steps):
    """One whole-trace-ish view in every timeline mode."""
    from repro.render import TIMELINE_MODES
    rng = analyst.rng
    begin, end = analyst.bounds
    span = int((end - begin) / rng.uniform(*steps["zoom"]))
    start = begin + int(rng.uniform(0, end - begin - span))
    analyst.navigate("goto", start=start, end=start + span)
    for mode in TIMELINE_MODES:
        analyst.frame(mode, "png")
    analyst.stats()
    edges = [start + span * part // (steps["stats_per_view"] - 1)
             for part in range(steps["stats_per_view"])]
    for left, right in zip(edges, edges[1:]):
        analyst.stats(left, right)
    if index % steps["diff_every"] == 0:
        analyst.diff(inputs.paths["A"], inputs.paths["B"])
    if index % steps["visit_every"] == 0:
        analyst.visit(inputs.paths["A"])


def deepzoom_pass(analyst, index, inputs, steps):
    """Ten zoom/scroll steps far inside the trace."""
    for step in range(steps["steps"]):
        wander(analyst, steps["zoom_log2"])
        analyst.frame("state", encoding_of(step))
        analyst.stats()
    analyst.visit(inputs.paths["A"])
    if index % steps["diff_every"] == 0:
        analyst.diff(inputs.paths["A"], inputs.paths["A"],
                     expect_empty=True)


def shared_pass(analyst, index, inputs, steps):
    """Ten mixed-depth steps (the clients' ASCII frames out of step),
    then colleagues' traces through the pool (an open and a diff of
    two of them), and now and then a fresh session."""
    for step in range(steps["steps"]):
        wander(analyst, steps["zoom_log2"])
        analyst.frame("state", encoding_of(step + analyst.index))
        analyst.stats()
    turn = index + analyst.index
    sides = [inputs.paths["C{}".format((turn + offset) % 3)]
             for offset in range(2)]
    analyst.visit(sides[0])
    # The small traces, not A and B: a diff holds both its traces'
    # locks, and 150 ms of that would put the other client's frames
    # right at the p90 rank.  overview times the large diff.
    analyst.diff(*sides)
    if index % steps["reopen_every"] == 0:
        analyst.reopen()


SERVED_PASSES = {"overview": overview_pass, "deepzoom": deepzoom_pass,
                 "shared_viewers": shared_pass}


# -- measurement -------------------------------------------------------

@dataclass
class Measurement:
    """What one server (or batch) lifetime produced."""

    log: Log
    exact_passes: int       # leading passes whose counts are exact
    walls: list = field(default_factory=list)   # seconds per client
    spans: list = field(default_factory=list)
    health: dict = field(default_factory=dict)  # /health pool block
    peak_rss_mb: float = 0.0
    kept: list = field(default_factory=list)    # replies for the oracle
    facts: dict = field(default_factory=dict)   # exact batch counts

    @property
    def requests_per_s(self):
        """Operations completed per second of the timed passes, summed
        over clients (each divides by its own wall time)."""
        total = 0.0
        for client, wall in enumerate(self.walls):
            done = sum(1 for sample in self.log.measured()
                       if sample.client == client
                       and sample.kind != "health")
            total += done / wall
        return total


def _timed_passes(analyst, run_pass, seconds, exact_passes, barrier,
                  snapshot):
    """One client's loop; returns its wall seconds."""
    barrier.wait()
    begin = time.perf_counter()
    count = 0
    while count < exact_passes or time.perf_counter() - begin < seconds:
        analyst.pass_index = count
        run_pass(analyst, count)
        count += 1
        if count == exact_passes and snapshot is not None:
            snapshot.update(analyst.health()["pool"])
    return time.perf_counter() - begin


def measure_served(workload, inputs, seconds, scale, seed,
                   spans_path=None):
    """Start a server child, script its analysts, stop it."""
    from repro.trace_format import default_cache_path
    steps = steps_of(workload, scale)
    clients = client_count(workload)
    log = Log()
    result = Measurement(log, scale.exact_passes)

    def run_pass(analyst, index):
        SERVED_PASSES[workload](analyst, index, inputs, steps)

    with ServerChild(steps["pool_capacity"], spans_path) as server:
        analysts = [Analyst(index, server.url, log,
                            random.Random(seed * 1000 + index))
                    for index in range(clients)]
        # First contact: no input has a sidecar yet, so each first
        # open parses and indexes the file before a frame can be
        # drawn.  A comes last and stays the lead's session.
        lead = analysts[0]
        cold = result.facts.setdefault("first_frame_cold_s", [])
        for name in reversed(list(inputs.paths)):
            path = inputs.paths[name]
            fresh = not os.path.exists(default_cache_path(path))
            if lead.session is not None:
                lead.close()
            begin = time.perf_counter()
            lead.open(path, kind="open_cold")
            lead.frame("state", "png")
            if fresh and inputs.events[name] == scale.main_events:
                cold.append(time.perf_counter() - begin)
        for analyst in analysts[1:]:
            analyst.open(inputs.paths["B" if analyst.index % 2
                                      else "A"])
        for __ in range(5):
            lead.health()
        for analyst in analysts:
            run_pass(analyst, 0)          # warm-up, pass_index WARMUP

        barrier = threading.Barrier(clients)
        exact = {} if clients == 1 else None
        with concurrent.futures.ThreadPoolExecutor(clients) as pool:
            futures = [pool.submit(_timed_passes, analyst, run_pass,
                                   seconds, scale.exact_passes,
                                   barrier,
                                   exact if analyst is lead else None)
                       for analyst in analysts]
            result.walls = [future.result() for future in futures]
        for analyst in analysts:
            analyst.pass_index = WARMUP
        # Pool counters: exact after the always-run passes of a single
        # client, else whatever the mix of clients arrived at.
        result.health = exact or lead.health()["pool"]
        for analyst in analysts:
            result.kept.extend(analyst.kept)
            analyst.close()
            analyst.client.close_connection()
    result.spans = server.spans
    result.peak_rss_mb = server.peak_rss_mb
    return result


# -- the batch workload ------------------------------------------------

def _digest(paths):
    """Content hash of a set of trace files."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def batch_pass(analyst, inputs, steps, scale, seed, facts):
    """First contact, a session walk, ingest, scan and a sweep — all
    through public functions, no server."""
    from repro.analysis.experiments import (
        analyze_traces, diff_trace_files, run_suite, run_suite_engine,
        scheduler_sweep, sweep_table, synthetic_sweep)
    from repro.core import interval_report, state_time_summary
    from repro.core.statistics import (interval_report_out_of_core,
                                       state_time_summary_out_of_core)
    from repro.session import AnalysisSession
    from repro.trace_format import default_cache_path, ingest_trace

    log, rng = analyst.log, analyst.rng
    trace_a = inputs.paths["A"]

    def timed(kind, function, **attrs):
        return log.call(kind, lambda rid: function(),
                        pass_index=analyst.pass_index, **attrs)

    # (a) first contact: parse, write the sidecar, draw, encode.
    sidecar = default_cache_path(trace_a)
    if os.path.exists(sidecar):
        os.remove(sidecar)

    def first_frame():
        session = AnalysisSession.open(trace_a)
        return session.render_frame("state").png_bytes()
    cold_png, __ = timed("first_frame", first_frame)
    facts["sidecar_bytes"] = os.path.getsize(sidecar)

    # ... then the walk a CLI user scripts, on the mapped store.  Its
    # first frame is the same view through the other open path.
    analyst.open(trace_a)
    if analyst.frame("state", "png") != cold_png:
        log.wrong(analyst.last, "mapped fit frame differs from the "
                  "frame of the parse that wrote the sidecar")
    for step in range(steps["steps"]):
        wander(analyst, steps["zoom_log2"])
        analyst.frame("state", encoding_of(step))
        analyst.stats()
        if (step + 1) % steps["reopen_every"] == 0:
            analyst.reopen()

    # (b) ingest the corpus in each format.
    for name in ("corpus", "corpus_paraver", "corpus_chrome"):
        ingested, sample = timed("ingest",
                                 lambda: ingest_trace(
                                     inputs.paths[name], columnar=True),
                                 source=name, events=inputs.events[name])
        if len(ingested.tasks) != inputs.corpus_tasks:
            log.wrong(sample, "{} tasks ingested from {}, corpus has "
                      "{}".format(len(ingested.tasks), name,
                                  inputs.corpus_tasks))

    # (c) out-of-core: one sharded whole-file scan, then 2 % windows.
    mapped = analyst.session.trace
    workers = min(nproc(), steps["scan_workers"])
    totals, sample = timed(
        "scan", lambda: state_time_summary_out_of_core(
            trace_a, workers=workers, columnar=True),
        events=inputs.events["A"])
    if totals != state_time_summary(mapped):
        log.wrong(sample, "out-of-core state totals differ from the "
                  "mapped store's")
    span = int((mapped.end - mapped.begin) * steps["window_share"])
    for __ in range(steps["windows"]):
        start = int(rng.uniform(mapped.begin, mapped.end - span))
        report, sample = timed(
            "window", lambda: interval_report_out_of_core(
                trace_a, start, start + span, columnar=True))
        expected = interval_report(mapped, start, start + span)
        if (report.tasks, report.state_cycles) != (
                expected.tasks, expected.state_cycles):
            log.wrong(sample, "out-of-core window report differs "
                      "from the mapped store's")

    # (d) a sweep through the durable engine, analysed and diffed,
    # then re-run: nothing may be simulated twice.
    directory = os.path.join(inputs.directory, "sweep")
    shutil.rmtree(directory, ignore_errors=True)
    specs = (scheduler_sweep("seidel", scale="small", seed=seed)
             + synthetic_sweep(steps["synthetic_specs"],
                               events=scale.sweep_events, seed=seed))
    paths, __ = timed("run_suite", lambda: run_suite(specs, directory))
    summaries, __ = timed("analyze_traces", lambda: analyze_traces(
        paths, names=[spec.name for spec in specs],
        params=[spec.param_dict() for spec in specs]))
    table, sample = timed("sweep_table", lambda: sweep_table(summaries))
    if len(table) != len(specs):
        log.wrong(sample, "sweep table lost a point")
    # Neighbouring synthetic points only: like against like, so the
    # diff samples form one cluster.
    for index in range(len(specs) - 1):
        if (specs[index].workload == specs[index + 1].workload
                == "synthetic"):
            timed("diff", lambda: diff_trace_files(paths[index],
                                                   paths[index + 1]))
    again, sample = timed("rerun", lambda: run_suite_engine(
        specs, directory))
    twin = replace(specs[-1], name="synthetic_twin")
    dedup, __ = timed("dedup", lambda: run_suite_engine(
        specs + [twin], directory))
    facts["resimulated"] = (facts.get("resimulated", 0)
                            + again.resimulated + dedup.resimulated)
    facts["dedup_hits"] = dedup.store_hits
    if again.simulated or again.resimulated or dedup.resimulated:
        log.wrong(sample, "re-running a finished sweep simulated "
                  "{} point(s)".format(again.simulated))
    digest = _digest(paths)
    if facts.setdefault("sweep_digest", digest) != digest:
        log.wrong("run_suite", "the sweep's trace set changed between "
                  "repetitions")


def measure_batch(inputs, seconds, scale, seed, recorder=None):
    """Run ``cold_batch`` passes in this process."""
    steps = steps_of("cold_batch", scale)
    log = Log(recorder)
    result = Measurement(log, exact_passes=1)
    analyst = LocalAnalyst(log, random.Random(seed * 1000))
    # What a batch user's process imports once is not a pass's cost.
    import repro.analysis.experiments    # noqa: F401
    import repro.session                 # noqa: F401
    reset_peak_rss()
    begin = time.perf_counter()
    passes = 0
    while not passes or time.perf_counter() - begin < seconds:
        analyst.pass_index = passes
        batch_pass(analyst, inputs, steps, scale, seed, result.facts)
        passes += 1
    result.walls = [time.perf_counter() - begin]
    result.peak_rss_mb = peak_rss_mb()
    if recorder is not None:
        result.spans = list(recorder.spans)
    return result
