"""Extension — out-of-core trace processing (paper's future work).

The paper's conclusion announces work on "the out-of-core processing of
large traces".  This bench compares the out-of-core statistics pass
(one worker process) with a full in-memory load and validates the
time-window extraction path.

Mapping: docs/paper-mapping.md.
"""

import pytest

from figutils import write_result
from repro.analysis import parallel_streaming_statistics
from repro.trace_format import read_trace, split_time_window, write_trace


@pytest.fixture(scope="module")
def trace_file(seidel_opt, tmp_path_factory):
    __, trace = seidel_opt
    path = tmp_path_factory.mktemp("ooc") / "seidel.ost"
    write_trace(trace, str(path))
    return trace, str(path)


def test_streaming_statistics_pass(benchmark, trace_file):
    trace, path = trace_file
    stats = benchmark(parallel_streaming_statistics, path, workers=1)
    assert stats.total_tasks == len(trace.tasks)
    from repro.core import state_time_summary
    summary = state_time_summary(trace)
    for state, cycles in summary.items():
        assert stats.state_cycles[state] == cycles
    write_result("ext_streaming", [
        "Extension: out-of-core streaming statistics",
        "paper (conclusion): 'out-of-core processing of large traces'",
        "streamed {} records in one constant-memory pass".format(
            stats.records),
        stats.describe(),
    ])


def test_full_load_baseline(benchmark, trace_file):
    """The in-memory alternative the streaming pass avoids."""
    __, path = trace_file
    trace = benchmark(read_trace, path)
    assert len(trace.tasks) > 0


def test_window_extraction(benchmark, trace_file):
    """Extract a 10% window of the trace for interactive analysis."""
    trace, path = trace_file
    start = trace.begin
    end = trace.begin + trace.duration // 10
    window = benchmark(split_time_window, path, start, end)
    assert 0 < len(window.tasks) < len(trace.tasks)
    # The window supports normal rendering.
    from repro.render import StateMode, TimelineView, render_timeline
    fb = render_timeline(window, StateMode(),
                         TimelineView.fit(window, 200, 100))
    assert fb.pixels_drawn > 0
