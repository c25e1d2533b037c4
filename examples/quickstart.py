#!/usr/bin/env python3
"""Quickstart: simulate a task-parallel run, trace it, analyze it.

This script is the runnable version of the README's quickstart.  It
walks the full pipeline in twelve steps:

1. build a NUMA machine and the seidel task graph;
2. execute it on the simulated work-stealing run-time with tracing;
3. compute statistics and derived metrics (Aftermath's core);
4. render the timeline in state mode to a PPM image;
5. save the trace to a compressed file and load it back;
6. process the trace file *out-of-core*: a constant-memory streaming
   pass, the sharded parallel equivalent, and a seek-to-window
   extraction through the chunk index — the paths that keep working
   when the trace no longer fits in RAM (docs/architecture.md);
7. inspect the *columnar store* every producer builds — one
   structured array per core per record kind — and reload it from the
   indexed file;
8. write the *memory-mapped columnar cache* (the ``.ostc`` sidecar)
   and reopen the trace through it: the second open maps the arrays
   back instead of re-parsing, so an interactive session restarts in
   milliseconds;
9. run a *two-trace compare* through the experiment engine: a second
   run under another stealing seed is diffed against the first
   (state-time deltas, distribution shifts, anomaly counts) and both
   timelines render side by side on one shared time axis;
10. go *format-plural*: export the trace as Paraver ``.prv`` and
    Chrome trace-event JSON, ingest both back through the trace-source
    registry (which sniffs the format), and check the statistics
    match the native store — the analyses are runtime- and
    format-agnostic;
11. survive a *crash mid-sweep*: every point of a parameter sweep is
    a job in a durable SQLite journal next to the traces, so a sweep
    interrupted partway resumes from the journal alone and never
    re-simulates a completed point (docs/architecture.md, "Failure
    modes & recovery");
12. *serve* the trace over HTTP: the multi-tenant analysis service
    maps the ``.ostc`` sidecar once and every client session shares
    that one store — two clients open the same trace, the second open
    is a pool hit, and both see identical statistics
    (docs/service-api.md).

Run:  python examples/quickstart.py [output-directory]
"""

import os
import sys
import time

from repro.analysis import parallel_streaming_statistics
from repro.core import (WorkerState, average_parallelism, interval_report,
                        reconstruct_task_graph, state_count_series,
                        traces_equal)
from repro.render import StateMode, TimelineView, render_timeline
from repro.runtime import (Machine, RandomStealScheduler, TraceCollector,
                           run_program)
from repro.trace_format import (ScanStats, default_cache_path, read_trace,
                                split_time_window, write_trace)
from repro.workloads import SeidelConfig, build_seidel


def main(output_dir="."):
    os.makedirs(output_dir, exist_ok=True)
    # 1. A machine with 4 NUMA nodes x 8 cores, and a blocked 2-D
    #    stencil: 12x12 blocks of 64x64 doubles, 8 Gauss-Seidel sweeps.
    machine = Machine(num_nodes=4, cores_per_node=8, name="quickstart")
    program = build_seidel(machine, SeidelConfig(blocks=12, block_dim=64,
                                                 steps=8))
    print("machine:", machine)
    print("program:", program)

    # 2. Execute under random work-stealing, collecting a trace.
    collector = TraceCollector(machine)
    result, trace = run_program(program,
                                RandomStealScheduler(machine, seed=42),
                                collector=collector)
    print("makespan: {:.1f} Mcycles, {} steals, {} page faults".format(
        result.makespan / 1e6, result.steals, result.page_faults))

    # 3. Statistics for the whole execution.
    print()
    print(interval_report(trace).describe())
    print("average parallelism: {:.1f} of {} cores".format(
        average_parallelism(trace), machine.num_cores))
    __, idle = state_count_series(trace, WorkerState.IDLE, 100)
    print("peak idle workers: {:.0f}".format(idle.max()))
    graph = reconstruct_task_graph(trace)
    __, counts = graph.parallelism_profile()
    print("task graph: {} tasks, {} edges, critical path {} edges, "
          "peak available parallelism {}".format(
              len(graph.nodes), graph.num_edges,
              graph.critical_path_length(), counts.max()))

    # 4. Render the state timeline.
    view = TimelineView.fit(trace, width=1024,
                            height=4 * trace.num_cores)
    framebuffer = render_timeline(trace, StateMode(), view)
    image_path = "{}/quickstart_states.ppm".format(output_dir)
    framebuffer.save_ppm(image_path)
    print("\ntimeline written to", image_path)

    # 5. Round-trip through the compressed binary trace format.
    trace_path = "{}/quickstart.ost.gz".format(output_dir)
    records = write_trace(trace, trace_path)
    reloaded = read_trace(trace_path)
    print("trace file: {} records -> {}".format(records, trace_path))
    print("reloaded: {} (identical task count: {})".format(
        reloaded, len(reloaded.tasks) == len(trace.tasks)))

    # 6. The out-of-core path: the same analyses straight from the
    #    file, in bounded memory.  Uncompressed files get a seekable,
    #    CRC-checked chunk index: a whole-file pass is sharded over
    #    worker processes, and extracting a window of a huge trace
    #    reads only the chunks that overlap it.  One driver folds one
    #    file or several (here the indexed file plus the unindexed
    #    compressed one from step 5).
    indexed_path = "{}/quickstart.ost".format(output_dir)
    write_trace(trace, indexed_path)
    stats = parallel_streaming_statistics(indexed_path)
    print("\nout-of-core pass:", stats.describe().splitlines()[0])
    both = parallel_streaming_statistics([indexed_path, trace_path])
    print("two files folded together: {} tasks (2 x {})".format(
        both.total_tasks, stats.total_tasks))
    scan = ScanStats()
    window = split_time_window(indexed_path, trace.begin,
                               trace.begin + trace.duration // 10,
                               stats=scan)
    print("10% window: {} tasks, read {:.1%} of the file's bytes"
          .format(len(window.tasks),
                  scan.bytes_read / os.path.getsize(indexed_path)))

    # 7. The columnar store: the paper's "one array per core and per
    #    type of event" as numpy structured arrays.  The simulator and
    #    every reader build this one store, so a reload holds exactly
    #    the records that were written.
    print("\ncolumnar store:", repr(trace))
    print("core 0 executed {} tasks, first lane entry: {}".format(
        len(trace.tasks.lane(0)), trace.tasks.lane(0)[:1]))
    reloaded = read_trace(indexed_path)
    print("reload holds the written records:",
          traces_equal(reloaded, trace))

    # 8. The memory-mapped columnar cache: the first cache-enabled
    #    open parses once and writes the .ostc sidecar; every later
    #    open maps it back without parsing (and a windowed query
    #    touches only the pages its binary-searched slices cover).
    read_trace(indexed_path, cache=True)          # writes the sidecar
    t0 = time.perf_counter()
    mapped = read_trace(indexed_path, cache=True)  # maps it back
    reopen_ms = 1e3 * (time.perf_counter() - t0)
    print("\nmapped cache sidecar:", default_cache_path(indexed_path))
    print("cache reopen in {:.1f} ms; matches parsed store: {}".format(
        reopen_ms, traces_equal(mapped, reloaded)))
    window = mapped.slice_time_window(trace.begin,
                                      trace.begin + trace.duration // 10)
    print("zero-copy 10% window: {} tasks".format(len(window.tasks)))

    # 9. Compare two runs: the same workload under a different
    #    stealing seed, diffed through the experiment engine (the
    #    layer behind `aftermath_cli compare` / `sweep`).  The program
    #    is rebuilt so the second run first-touches its own pages —
    #    reusing the executed one would inherit run 1's placements.
    #    A self-diff is empty; two real runs deviate, and the report
    #    says exactly where.
    from repro.analysis.experiments import (
        diff_traces, render_timelines_side_by_side)
    rebuilt = build_seidel(machine, SeidelConfig(blocks=12,
                                                 block_dim=64, steps=8))
    __, other = run_program(rebuilt,
                            RandomStealScheduler(machine, seed=7),
                            collector=TraceCollector(machine))
    report = diff_traces(trace, other, baseline_name="seed42",
                         candidate_name="seed7")
    print("\ntwo-trace compare (seed 42 vs seed 7):")
    print("self-diff empty: {}".format(
        diff_traces(trace, trace).is_empty))
    print("deviations beyond tolerance: {}".format(len(report)))
    for entry in report.entries[:3]:
        print("  " + entry.describe())
    panel = render_timelines_side_by_side([trace, other], width=1024,
                                          lane_height=2)
    panel_path = "{}/quickstart_compare.ppm".format(output_dir)
    panel.save_ppm(panel_path)
    print("side-by-side comparison written to", panel_path)

    # 10. Format-plural ingestion: the same trace through foreign
    #     formats.  Paraver drops memory accesses (documented lossy),
    #     so the parity check compares statistics; the Chrome JSON
    #     round trip is exact, so it checks full store equality.
    from repro.core import state_time_summary
    from repro.trace_format import (detect_source, export_chrome,
                                    export_paraver, ingest_trace)
    prv_path = "{}/quickstart.prv".format(output_dir)
    json_path = "{}/quickstart.json".format(output_dir)
    export_paraver(trace, prv_path)
    export_chrome(trace, json_path)
    print("\ningestion registry: {} -> {}, {} -> {}".format(
        os.path.basename(prv_path), detect_source(prv_path).name,
        os.path.basename(json_path), detect_source(json_path).name))
    from_paraver = ingest_trace(prv_path)
    from_chrome = ingest_trace(json_path)
    print("paraver round trip keeps state times:",
          state_time_summary(from_paraver) == state_time_summary(trace))
    print("chrome round trip is exact:",
          traces_equal(from_chrome, trace))

    # 11. Crash-resilient sweeps: run_suite journals every point in
    #     the suite directory's journal.sqlite before simulating it.
    #     The max_jobs seam stands in for a crash — stop the drain
    #     after 2 of 4 points — and resume_suite finishes the sweep
    #     from the journal alone, re-simulating nothing that
    #     completed.
    from repro.analysis.experiments import (resume_suite, run_suite,
                                            synthetic_sweep)
    suite_dir = "{}/quickstart_suite".format(output_dir)
    specs = synthetic_sweep(4, events=2_000)
    run_suite(specs, suite_dir, workers=1, max_jobs=2)  # "crash" here
    report = resume_suite(suite_dir, workers=1)
    print("\ncrash-resumable sweep: {} of {} points survived the "
          "interruption".format(report.done_before, len(specs)))
    print("resumed sweep re-simulated completed points:",
          report.resimulated)
    print("sweep complete: {} of {} traces".format(
        report.counts["done"], len(specs)))

    # 12. The serving layer: the same store over HTTP.  Two clients
    #     open the same trace file; the pool parses it once, the
    #     second open is a hit on the resident mapping, and both
    #     sessions answer with identical statistics (the layer behind
    #     `aftermath_cli serve` and `--remote`).
    from repro.service import ServiceClient, start_server
    server = start_server(width=256, height=64)
    try:
        viewer = ServiceClient(server.url)
        analyst = ServiceClient(server.url)
        first = viewer.open(indexed_path)
        second = analyst.open(indexed_path)
        print("\ntrace service at {}".format(server.url))
        print("shared mapping on second open:", second["shared"])
        stats_a = viewer.stats(first["session"])
        stats_b = analyst.stats(second["session"])
        stats_a.pop("session"), stats_b.pop("session")
        print("stats identical across clients:", stats_a == stats_b)
    finally:
        server.shutdown()


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
