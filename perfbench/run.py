"""The served-path benchmark: one command, every metric by name.

    python3 perfbench/run.py --workload deepzoom --seed 7
    python3 perfbench/run.py --seed 7 --trace 1      # all four, traced
    python3 perfbench/run.py --compare before/ after/

A run generates its inputs from ``--seed`` (timed as ``setup_s``),
drives one workload against the public surface for ``--seconds``,
checks the outputs, prints every metric with unit and sample count,
writes a result file under ``perfbench/results/`` and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the layer entry points and reports the per-layer
ones, with the reconciliation of parts against wholes.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fingerprint(seed, scale, seconds, trace):
    """Where, on what and with which step table a result was taken."""
    import numpy
    from perfbench import workloads
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": workloads.nproc(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scale": vars(scale), "steps": workloads.STEPS}


def _measure(workload, inputs, seconds, scale, seed, spans_path=None,
             recorder=None):
    from perfbench import oracle, workloads
    if workload == "cold_batch":
        measurement = workloads.measure_batch(inputs, seconds, scale,
                                              seed, recorder)
    else:
        measurement = workloads.measure_served(
            workload, inputs, seconds, scale, seed, spans_path)
        oracle.check_replies(measurement.kept, measurement.log)
    return measurement


def _print_reconciliation(rows, out):
    out.write("  parts against wholes (means, ms; ! marks a residual "
              "beyond 10 % that is also over 1 % of the round trip)\n")
    for row in rows:
        material = row["self_ms"] > 0.01 * row["round_trip_ms"]
        out.write(
            "  {kind:<13}n={n:<5}round trip {round_trip_ms:9.3f} vs "
            "floor {floor_ms:.3f} + handle {handle_ms:.3f} "
            "({trip_residual:+.1%} unexplained{0}); handle self "
            "{self_ms:.3f} ({handle_residual:.1%} unexplained{1})\n"
            .format(" !" if abs(row["trip_residual"]) > 0.10 else "",
                    " !" if (row["handle_residual"] > 0.10
                             and material) else "",
                    **row))
        for name, value in sorted(row["children_ms"].items(),
                                  key=lambda item: -item[1]):
            out.write("      {:<44}{:9.3f}\n".format(name, value))


def run_workload(workload, seed, seconds, trace, scale, work, chrome,
                 out):
    """Set up, measure and check one workload; returns its result
    block (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    from perfbench import metrics, tracing, workloads

    setup_seconds = []
    directory = os.path.join(work, workload)
    for __ in range(scale.setup_reps):
        shutil.rmtree(directory, ignore_errors=True)
        begin = time.perf_counter()
        inputs = workloads.build_inputs(workload, seed, scale,
                                        directory)
        setup_seconds.append(time.perf_counter() - begin)

    logs = []
    if not trace:
        measurement = _measure(workload, inputs, seconds, scale, seed)
        logs.append(measurement.log)
        found = metrics.end_to_end(measurement, setup_seconds)
    else:
        # Two thirds of the time traced, one third untraced on the
        # same inputs: the ratio of their throughputs is what the
        # wrappers cost.  The batch workload traces in this process,
        # so its untraced part must come first; a server's traced
        # part comes first because only the first child meets trace A
        # without a sidecar.
        if workload == "cold_batch":
            plain = _measure(workload, inputs, seconds / 3, scale,
                             seed)
            recorder = tracing.Recorder()
            tracing.install(recorder)
            traced = _measure(workload, inputs, 2 * seconds / 3, scale,
                              seed, recorder=recorder)
            from repro.analysis.experiments import seidel_trace
            begin = time.perf_counter()
            __, simulated = seidel_trace(scale="small", seed=seed)
            traced.facts["simulator_tasks_per_s"] = (
                len(simulated.tasks) / (time.perf_counter() - begin))
        else:
            traced = _measure(
                workload, inputs, 2 * seconds / 3, scale, seed,
                spans_path=os.path.join(work, "spans.json"))
            plain = _measure(workload, inputs, seconds / 3, scale,
                             seed)
        logs += [traced.log, plain.log]
        found = metrics.per_layer(traced, inputs,
                                  plain.requests_per_s)
        _print_reconciliation(metrics.reconcile(traced), out)
        out.write("  layer shares of traced self time: {}\n".format(
            ", ".join("{} {:.1%}".format(*share) for share
                      in metrics.layer_shares(traced))))
        tracing.export_chrome(traced.log.samples, traced.spans, chrome)
        out.write("  spans as Chrome trace events: {}\n".format(chrome))

    samples = [sample for log in logs for sample in log.samples]
    problems = [line for log in logs for line in log.problems]
    failed = (sum(1 for sample in samples if not sample.ok)
              + sum(log.unattributed for log in logs))
    for line in problems[:20]:
        out.write("  WRONG {}\n".format(line))
    out.write("  {:<50}{:>12}{:>7}{:>16}\n".format(
        workload, "unit", "n", "value"))
    for name, (value, unit, n) in found.items():
        out.write("  {:<50}{:>12}{:>7}{:>16.4f}\n".format(
            name, unit, n, value))
    return {"correct": not failed, "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit, "n": n}
                        for name, (value, unit, n) in found.items()}}


def _contract_line(block):
    """The last line of standard output the driver parses."""
    return json.dumps({
        "correct": block["correct"], "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": {name: {"value": metric["value"],
                           "unit": metric["unit"]}
                    for name, metric in block["metrics"].items()}})


def main(argv=None):
    """Parse the command line, run, print; returns the exit code."""
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="8k-event traces and only the always-run "
                             "passes (the self-test's size)")
    parser.add_argument("--out", default=None,
                        help="result file (default: under "
                             "perfbench/results/)")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST",
                                                       "SECOND"))
    options = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write("perfbench: no program to measure: {} is "
                         "missing\n".format(
                             os.path.join(ROOT, "src", "repro")))
        return 2
    from perfbench import metrics, workloads

    if options.compare:
        return 1 if metrics.compare(*options.compare,
                                    out=sys.stdout) else 0
    import repro.trace_format    # noqa: F401  (before set-up is timed)

    chosen = (workloads.NAMES if options.workload == "all"
              else (options.workload,))
    if not set(chosen) <= set(workloads.NAMES):
        parser.error("--workload is one of: all, " + ", ".join(
            workloads.NAMES))
    scale = workloads.QUICK if options.quick else workloads.FULL
    seconds = options.seconds
    if seconds is None:
        seconds = (0.0 if options.quick
                   else float(metrics.load_benchmark()["run_seconds"]))

    path = options.out or os.path.join(
        HERE, "results", "{}-seed{}-trace{}.json".format(
            options.workload, options.seed, options.trace))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    work = os.path.join(HERE, "work", "run-{}".format(os.getpid()))
    os.makedirs(work)
    blocks = {}
    try:
        for workload in chosen:
            chrome = "{}.{}.chrome.json".format(
                os.path.splitext(path)[0], workload)
            blocks[workload] = run_workload(
                workload, options.seed, seconds, options.trace, scale,
                work, chrome, sys.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(path, "w") as handle:
        json.dump({"fingerprint": _fingerprint(
            options.seed, scale, seconds, options.trace),
            "workloads": blocks}, handle, indent=1)
    print("result file: {}".format(path))
    if len(blocks) == 1:
        block = blocks[chosen[0]]
    else:
        block = {
            "correct": all(b["correct"] for b in blocks.values()),
            "attempted": sum(b["attempted"] for b in blocks.values()),
            "failed": sum(b["failed"] for b in blocks.values()),
            "metrics": {"{}.{}".format(workload, name): metric
                        for workload, b in blocks.items()
                        for name, metric in b["metrics"].items()}}
    print(_contract_line(block))
    return 0 if block["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
