#!/usr/bin/env python3
"""The Section III-C walkthrough: adjusting task granularity in k-means.

Sweeps the block size (the number of points per distance-calculation
task) and reports execution time and worker-state breakdowns,
reproducing the trade-off of Fig. 12/13: huge blocks starve the
machine, tiny blocks drown it in task-management overhead.

Run:  python examples/kmeans_granularity.py
"""

from repro.core import WorkerState
from repro.analysis.experiments import (kmeans_machine,
                                       kmeans_makespan, kmeans_trace)


def main():
    machine = kmeans_machine()
    cores = machine.num_cores
    num_points = 1_024_000
    block_counts = [cores // 2, cores, cores * 4, cores * 16,
                    cores * 64, cores * 256]

    print("k-means granularity sweep: {} points, {} cores".format(
        num_points, cores))
    print("{:>8s} {:>10s} {:>14s} {:>8s}".format(
        "blocks", "block_size", "cycles", "ratio"))
    makespans = {}
    for m in block_counts:
        block_size = num_points // m
        makespans[m] = kmeans_makespan(block_size, machine=machine,
                                       num_points=num_points, seed=5)
    best = min(makespans.values())
    for m in block_counts:
        print("{:8d} {:10d} {:14d} {:7.2f}x".format(
            m, num_points // m, makespans[m], makespans[m] / best))

    # State breakdown for the two pathological extremes and the sweet
    # spot, the quantitative view of Fig. 13's timelines.
    print("\nworker-state breakdown (fraction of core-cycles):")
    for label, m in (("starved (huge blocks)", cores // 2),
                     ("sweet spot", cores * 16),
                     ("overhead-bound (tiny)", cores * 256)):
        result, trace = kmeans_trace(
            machine=machine, block_size=num_points // m, seed=5,
            collect_accesses=False)
        total = result.makespan * trace.num_cores
        shares = {
            WorkerState(state).name: cycles / total
            for state, cycles in sorted(result.state_cycles.items())
            if cycles > 0
        }
        breakdown = ", ".join("{} {:.1%}".format(name, share)
                              for name, share in shares.items())
        print("  {:24s} m={:6d}: {}".format(label, m, breakdown))


if __name__ == "__main__":
    main()
