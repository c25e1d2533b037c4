"""Parallel multi-trace experiment engine.

The comparative layer the paper's evaluation implies: run or ingest N
traces (parameter sweeps over workloads, schedulers and block sizes —
Figs. 12–19), analyze them through a worker pool that opens each file
via the memory-mapped columnar cache, aggregate statistics across
traces, diff a candidate against a baseline with configurable
tolerances, and render side-by-side/overlay comparison panels.

Modules:

* :mod:`~repro.analysis.experiments.harness` — the single-run
  harness (scale presets, run-time pairs, per-workload trace
  builders);
* :mod:`~repro.analysis.experiments.suite` — sweep specs, the
  durable suite runner and per-trace summaries;
* :mod:`~repro.analysis.experiments.queue` — the SQLite job journal
  (states, leases, retry/backoff, quarantine) behind
  :func:`run_suite`;
* :mod:`~repro.analysis.experiments.store` — the content-addressed
  trace store (dedup across overlapping sweeps, atomic publication);
* :mod:`~repro.analysis.experiments.engine` — the crash-resilient
  drive loop tying journal, store and worker processes together;
* :mod:`~repro.analysis.experiments.aggregate` — per-parameter
  summary tables and speedup curves (whole-file statistics over N
  traces come from the one out-of-core driver,
  :func:`repro.analysis.parallel.parallel_map_reduce`);
* :mod:`~repro.analysis.experiments.diff` — the baseline/candidate
  regression reports (JSON-serializable);
* :mod:`~repro.analysis.experiments.render` — comparison panels on
  the shared framebuffer.
"""

from .aggregate import SweepRow, SweepTable, speedup_curve, sweep_table
from .diff import (DiffEntry, DiffTolerances, EXACT, TraceDiffReport,
                   diff_trace_files, diff_traces, distribution_shift)
from .harness import (KMEANS_SIM_CONFIG, PIPELINE_FRAMES, PRESETS,
                      ScalePreset, WAVEFRONT_ORDERS, kmeans_machine,
                      kmeans_makespan, kmeans_trace, pipeline_trace,
                      preset, runtime_pair, seidel_machine, seidel_trace,
                      wavefront_trace)
from .engine import EngineReport, resume_suite_engine, run_suite_engine
from .queue import (ExperimentError, JobQueue, JobRecord, QueueError,
                    RetryPolicy, describe_queue, journal_path,
                    queue_status)
from .render import (render_matrices_side_by_side, render_state_overlay,
                     render_timelines_side_by_side)
from .store import StoreError, TraceStore, job_key, spec_key
from .suite import (ExperimentSpec, TraceSummary, analyze_traces,
                    block_size_sweep, fault_sweep, generate_trace,
                    resume_suite, run_suite,
                    scheduler_sweep, summarize_trace, synthetic_sweep)

__all__ = [
    "SweepRow", "SweepTable", "speedup_curve", "sweep_table",
    "DiffEntry", "DiffTolerances", "EXACT", "TraceDiffReport",
    "diff_trace_files", "diff_traces", "distribution_shift",
    "KMEANS_SIM_CONFIG", "PIPELINE_FRAMES", "PRESETS", "ScalePreset",
    "WAVEFRONT_ORDERS", "kmeans_machine",
    "kmeans_makespan", "kmeans_trace", "pipeline_trace", "preset",
    "runtime_pair", "seidel_machine", "seidel_trace", "wavefront_trace",
    "render_matrices_side_by_side", "render_state_overlay",
    "render_timelines_side_by_side",
    "EngineReport", "resume_suite_engine", "run_suite_engine",
    "ExperimentError", "JobQueue", "JobRecord", "QueueError",
    "RetryPolicy", "describe_queue", "journal_path", "queue_status",
    "StoreError", "TraceStore", "job_key", "spec_key",
    "ExperimentSpec", "TraceSummary", "analyze_traces",
    "block_size_sweep", "fault_sweep", "generate_trace",
    "resume_suite", "run_suite",
    "scheduler_sweep", "summarize_trace", "synthetic_sweep",
]
