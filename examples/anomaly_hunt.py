#!/usr/bin/env python3
"""Semi-automatic anomaly hunting (the paper's announced follow-up).

Instead of visually scanning timelines, run the anomaly detectors over
a trace and let them point at the intervals worth inspecting:

1. simulate seidel under the non-optimized run-time (it has all the
   problems at once: idle phases, slow init, poor locality);
2. `scan()` the trace and print the ranked findings;
3. cross-check the findings against the manual analyses: the idle
   bands of Fig. 2/3, the init outliers of Fig. 7/8, the remote-access
   phases of Fig. 14;
4. run the automated counter-correlation ranking on k-means, which
   singles out branch mispredictions — the Section V conclusion —
   without being told where to look.

Run:  python examples/anomaly_hunt.py
"""

from repro.core import TaskTypeFilter, correlate_counters, scan
from repro.analysis.experiments import kmeans_trace, seidel_trace


def main():
    print("simulating seidel under the non-optimized run-time ...")
    __, trace = seidel_trace(optimized=False, seed=11)

    findings = scan(trace, num_intervals=100)
    print("\n{} findings:".format(len(findings)))
    by_kind = {}
    for finding in findings:
        by_kind.setdefault(finding.kind, []).append(finding)
    for kind, group in sorted(by_kind.items()):
        print("\n  [{}] {} finding(s); top 3:".format(kind, len(group)))
        for finding in group[:3]:
            where = " cores {}".format(finding.cores) \
                if finding.cores else ""
            print("    severity {:.2f} at {:.0%}..{:.0%} of the "
                  "execution{}: {}".format(
                      finding.severity,
                      (finding.start - trace.begin) / trace.duration,
                      (finding.end - trace.begin) / trace.duration,
                      where, finding.description))

    print("\nsimulating k-means and ranking all counters against task "
          "duration ...")
    __, kmeans = kmeans_trace(block_size=10_000, seed=11)
    ranking = correlate_counters(
        kmeans, task_filter=TaskTypeFilter("kmeans_distance"))
    print("counter correlation ranking (positive slopes only):")
    for entry in ranking:
        print("  {:28s} R^2 = {:.3f}  ({} tasks)".format(
            entry.counter, entry.r_squared, entry.samples))
    if ranking:
        print("-> the detector singles out {!r}, the Section V "
              "culprit".format(ranking[0].counter))


if __name__ == "__main__":
    main()
