"""Section VI-B — rendering optimizations.

Paper: (a) every pixel is drawn once, using the predominant state of
its interval; (b) adjacent same-color pixels are aggregated into a
single rectangle call; for counters, one vertical [pmin, pmax] line per
pixel replaces per-sample lines, dramatically reducing drawing
operations at coarse zoom.

Mapping: docs/paper-mapping.md.
"""

import numpy as np

from figutils import write_result
from repro.render import (Framebuffer, StateMode, TimelineView,
                          render_counter, render_timeline)


def test_state_rendering_optimized(benchmark, seidel_opt, scale):
    __, trace = seidel_opt
    view = TimelineView.fit(trace, 800, 4 * trace.num_cores)
    framebuffer = benchmark(render_timeline, trace, StateMode(), view,
                            optimized=True)
    naive = render_timeline(trace, StateMode(), view, optimized=False)

    # Aggregation only pays off once events outnumber pixels; a small
    # trace still must never draw more rectangles than the naive path.
    if scale == "small":
        assert framebuffer.rect_calls < naive.rect_calls
    else:
        assert framebuffer.rect_calls < naive.rect_calls / 2
    write_result("sec6_render_state", [
        "Section VI-B: state-mode rendering operations at full zoom-out",
        "{} state intervals on {} cores, {}px wide".format(
            len(trace.states), trace.num_cores, view.width),
        "naive (one rect per event): {} rect calls".format(
            naive.rect_calls),
        "optimized (predominant pixel + aggregation): {} rect calls "
        "({:.1f}x fewer)".format(
            framebuffer.rect_calls,
            naive.rect_calls / framebuffer.rect_calls),
    ])


def test_state_rendering_naive_baseline(benchmark, seidel_opt):
    __, trace = seidel_opt
    view = TimelineView.fit(trace, 800, 4 * trace.num_cores)
    benchmark(render_timeline, trace, StateMode(), view, optimized=False)


def dense_counter_trace(samples=100_000):
    """A high-frequency counter, the Fig. 21 scenario: at coarse zoom
    many samples fall within each horizontal pixel."""
    from repro.core import TopologyInfo, TraceBuilder

    builder = TraceBuilder(TopologyInfo(1, 1))
    counter = builder.describe_counter("dense")
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(size=samples))
    for index in range(samples):
        builder.counter_sample(0, counter, index * 7, values[index])
    return builder.build()


def test_counter_rendering_optimized(benchmark, seidel_opt):
    """Fig. 21: one min/max vertical line per pixel vs per-sample lines."""
    trace = dense_counter_trace()
    view = TimelineView.fit(trace, 800, 200)

    def optimized():
        fb = Framebuffer(view.width, 200)
        return render_counter(trace, "dense", view, fb, core=0)

    calls = benchmark(optimized)
    naive_fb = Framebuffer(view.width, 200)
    naive_calls = render_counter(trace, "dense", view, naive_fb, core=0,
                                 optimized=False)
    samples = len(trace.counter_samples(0, 0)[0])
    assert calls <= view.width
    assert calls < naive_calls / 50
    write_result("sec6_render_counter", [
        "Section VI-B (Fig. 21): counter rendering operations "
        "({} samples, {}px wide)".format(samples, view.width),
        "naive (line per sample pair): {} draw calls".format(
            naive_calls),
        "optimized (one min/max line per pixel): {} draw calls "
        "({:.0f}x fewer)".format(calls, naive_calls / calls),
    ])


def test_counter_rendering_naive_baseline(benchmark):
    trace = dense_counter_trace()
    view = TimelineView.fit(trace, 800, 200)

    def naive():
        fb = Framebuffer(view.width, 200)
        return render_counter(trace, "dense", view, fb, core=0,
                              optimized=False)

    benchmark(naive)


def test_zoomed_rendering_stays_fast(benchmark, seidel_opt):
    """Deep zoom renders a small slice; the binary-search slicing keeps
    the cost proportional to visible events, not trace size."""
    __, trace = seidel_opt
    view = TimelineView.fit(trace, 800, 4 * trace.num_cores).zoom(64.0)
    framebuffer = benchmark(render_timeline, trace, StateMode(), view)
    assert framebuffer.pixels_drawn > 0
