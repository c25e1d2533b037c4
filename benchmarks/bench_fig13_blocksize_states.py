"""Fig. 13 — k-means state timelines across block sizes.

Paper: with 1.28M-point blocks (m=32 on 64 cores) most workers idle
(light blue dominates); at 640K (m=64) an alternating pattern of
execution and idle phases appears as unequal task durations leave some
workers waiting at each iteration's reduction; small blocks make the
pattern imperceptible until, below 5K points, task-management overhead
causes idle phases at termination.

Mapping: docs/paper-mapping.md.
"""

import pytest

from figutils import write_result
from repro.analysis import experiments
from repro.core import WorkerState
from repro.render import StateMode, TimelineView, render_timeline


def idle_fraction(trace, result):
    total = result.makespan * trace.num_cores
    return result.state_cycles[int(WorkerState.IDLE)] / total


@pytest.fixture(scope="module")
def runs(scale):
    machine = experiments.kmeans_machine(scale)
    points = experiments.preset(scale).kmeans_points
    cores = machine.num_cores
    # Three regimes: m = cores/2 (starved), m = cores (alternating),
    # m very large (overhead-bound tail).
    cases = {}
    for label, m in (("starved", cores // 2), ("alternating", cores),
                     ("balanced", cores * 16), ("tiny", cores * 128)):
        result, trace = experiments.kmeans_trace(
            scale=scale, machine=machine,
            block_size=max(points // m, 1), seed=3,
            collect_accesses=False)
        cases[label] = (m, result, trace)
    return cases


def test_fig13_blocksize_state_patterns(benchmark, runs):
    __, __r, render_trace = runs["alternating"]
    view = TimelineView.fit(render_trace, 640,
                            4 * render_trace.num_cores)
    framebuffer = benchmark(render_timeline, render_trace, StateMode(),
                            view)
    assert framebuffer.rect_calls > 0

    fractions = {label: idle_fraction(trace, result)
                 for label, (m, result, trace) in runs.items()}
    # Fig. 13a: with fewer blocks than cores, workers mostly idle.
    assert fractions["starved"] > 0.4
    # The balanced middle keeps workers busy...
    assert fractions["balanced"] < fractions["starved"]
    # ...and the alternating regime sits in between.
    assert fractions["balanced"] <= fractions["alternating"] + 0.05
    # Fig. 13j: tiny blocks bring idle time back (management overhead).
    assert fractions["tiny"] > fractions["balanced"]

    lines = ["Fig. 13: k-means idle fraction by block-size regime",
             "paper: m=32 mostly idle; m=64 alternating idle bands; "
             "mid sizes imperceptible; <5K points idle at termination",
             "regime       m          idle fraction"]
    for label in ("starved", "alternating", "balanced", "tiny"):
        m, result, trace = runs[label]
        lines.append("{:12s} {:6d}     {:.1%}".format(label, m,
                                                      fractions[label]))
    write_result("fig13_blocksize_states", lines)
