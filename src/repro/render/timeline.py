"""The timeline component: view model, modes and optimized rendering.

The timeline shows the activity of each processor over time (Fig. 1).
Five main modes specialize it (Section II-B): worker *states*, the task
duration *heatmap*, the *typemap*, the *NUMA* read/write maps and the
*NUMA heatmap*.  Rendering follows Section VI-B:

(a) every pixel is drawn only once: each horizontal pixel covers a time
    sub-interval, and the color rendered is that of the *predominant*
    item within it (Fig. 20);
(b) adjacent pixels with identical colors are aggregated into a single
    rectangle-fill call;
(c) the per-core event slice for the visible window is obtained with a
    binary search over the sorted per-core arrays.

Every per-pixel kernel bins time on :meth:`TimelineView.pixel_grid`,
the one place that knows how a view maps to pixel intervals — also
below one cycle per pixel, where the intervals overlap.

A ``optimized=False`` escape hatch renders naively (one rectangle per
event) so the benchmarks can quantify the optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import numa as numa_analysis
from ..core.metrics import overlap_per_bin
from . import colors as palettes
from .framebuffer import Framebuffer


@dataclass(frozen=True)
class TimelineView:
    """Zoom/scroll state: the visible time window and the pixel grid.

    Views are immutable; :meth:`zoom` and :meth:`scroll` return new
    views, which is what makes navigation history trivial.
    """

    start: int
    end: int
    width: int = 800
    height: int = 256

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("view must span a non-empty time range")
        if self.width < 1 or self.height < 1:
            raise ValueError("view must span at least one pixel")

    @classmethod
    def fit(cls, trace, width=800, height=256):
        """A view covering the whole trace."""
        end = trace.end if trace.end > trace.begin else trace.begin + 1
        return cls(start=trace.begin, end=end, width=width, height=height)

    @property
    def duration(self):
        """Cycles spanned by the view window."""
        return self.end - self.start

    @property
    def cycles_per_pixel(self):
        """Trace cycles covered by one pixel column."""
        return self.duration / self.width

    def pixel_interval(self, x):
        """Time interval [t0, t1) covered by pixel column ``x``."""
        t0 = self.start + self.duration * x // self.width
        t1 = self.start + self.duration * (x + 1) // self.width
        return int(t0), int(max(t1, t0 + 1))

    def pixel_grid(self):
        """``(edges, pick)``: bin edges and each pixel's bin.

        Pixel ``x`` covers exactly ``[edges[pick[x]], edges[pick[x] +
        1])``, the interval :meth:`pixel_interval` reports, and
        ``edges`` is strictly increasing, so a kernel reduces once per
        bin and gathers per pixel with ``pick``.  With at least one
        cycle per pixel the bins are the pixels (``pick`` is the
        identity); below that every pixel interval is widened to one
        cycle, so the bins are the view's cycles and neighbouring
        pixels may pick the same one.
        """
        x = np.arange(self.width + 1, dtype=np.int64)
        edges = int(self.start) + int(self.duration) * x // self.width
        if self.duration >= self.width:
            return edges, np.arange(self.width, dtype=np.int64)
        return (np.arange(self.start, self.end + 1, dtype=np.int64),
                edges[:-1] - self.start)

    def time_to_pixel(self, time):
        """Pixel column of a timestamp (unclipped)."""
        return int((time - self.start) * self.width // self.duration)

    def zoom(self, factor, center=None):
        """Zoom by ``factor`` (> 1 zooms in) around ``center``."""
        if factor <= 0:
            raise ValueError("zoom factor must be positive")
        center = (self.start + self.end) // 2 if center is None else center
        span = max(1, int(self.duration / factor))
        start = int(center - span // 2)
        return replace(self, start=start, end=start + span)

    def scroll(self, fraction):
        """Scroll by a fraction of the visible span (negative = left)."""
        delta = int(self.duration * fraction)
        return replace(self, start=self.start + delta,
                       end=self.end + delta)

    def lane_geometry(self, num_cores):
        """(lane_height, list of lane top offsets), one lane per core."""
        lane = max(1, self.height // max(num_cores, 1))
        return lane, [core * lane for core in range(num_cores)]


class TimelineMode:
    """A timeline specialization: supplies per-core colored intervals.

    ``lane_events`` returns ``(starts, ends, keys)`` for one core, keys
    being small integers fed to ``color_of``; continuous modes (the NUMA
    heatmap) instead return float values fed to ``value_color``.
    ``lanes`` names the interval lanes those events come from
    (``"states"`` or ``"tasks"``).
    """

    continuous = False

    def prepare(self, trace):
        """Hook: precompute per-trace tables before rendering."""

    def lane_events(self, trace, core):
        """``(starts, ends, keys)`` of one core's drawable events."""
        raise NotImplementedError

    def pixel_keys(self, trace, core, view):
        """Predominant key per pixel straight from a per-trace index,
        or ``None`` to derive them from :meth:`lane_events` (the
        default).  Modes backed by a persisted pyramid override this
        so a frame never touches the event lane; both give the same
        keys."""
        return None

    def color_of(self, key):
        """RGB color of one event key."""
        raise NotImplementedError

    def value_color(self, value):
        """RGB color of one aggregated pixel value."""
        raise NotImplementedError


class StateMode(TimelineMode):
    """Default mode: the state of each worker over time (Fig. 2)."""

    name = "state"
    lanes = "states"

    def lane_events(self, trace, core):
        """One core's state intervals keyed by state id."""
        return (trace.states.core_column(core, "start"),
                trace.states.core_column(core, "end"),
                trace.states.core_column(core, "state"))

    def pixel_keys(self, trace, core, view):
        """Per-pixel dominant states served by the state pyramid
        (persisted in the ``.ostc`` sidecar on mapped stores, memoized
        in memory otherwise): exact coverage via per-state prefix
        sums, O(width log n) per lane at any zoom, bit-identical to
        :func:`_predominant_keys` over the lane.  ``None`` when the
        lane cannot be indexed."""
        index = trace.state_index(core)
        return None if index is None else index.pixel_keys(view)

    def color_of(self, key):
        """The state palette color of one state id."""
        return palettes.state_color(key)


class _TaskMode(TimelineMode):
    """Common base of the modes that color task executions."""

    lanes = "tasks"

    def lane_events(self, trace, core):
        starts = trace.tasks.core_column(core, "start")
        ends = trace.tasks.core_column(core, "end")
        keys = self.task_keys(trace, core)
        return starts, ends, keys

    def task_keys(self, trace, core):
        raise NotImplementedError


class HeatmapMode(_TaskMode):
    """Task durations as shades of red, darker = longer (Fig. 7/17).

    Durations are normalized either to a user-defined [minimum,
    maximum] interval or, by default, to the shortest and longest task
    in the trace (the paper normalizes to the currently displayed
    range; pass explicit bounds for that behaviour).
    """

    name = "heatmap"

    def __init__(self, shades=10, minimum=None, maximum=None,
                 task_filter=None):
        self.shades = palettes.heatmap_shades(shades)
        self.minimum = minimum
        self.maximum = maximum
        self.task_filter = task_filter
        self._mask = None

    def prepare(self, trace):
        """Compute the duration decile bounds over the whole trace."""
        columns = trace.tasks.columns
        durations = columns["end"] - columns["start"]
        if self.task_filter is not None:
            self._mask = self.task_filter.mask(trace)
            visible = durations[self._mask]
        else:
            visible = durations
        if len(visible) == 0:
            self._lo, self._hi = 0.0, 1.0
        else:
            self._lo = (float(visible.min()) if self.minimum is None
                        else float(self.minimum))
            self._hi = (float(visible.max()) if self.maximum is None
                        else float(self.maximum))
        if self._hi <= self._lo:
            self._hi = self._lo + 1.0

    def task_keys(self, trace, core):
        """One core's task intervals keyed by duration decile."""
        starts = trace.tasks.core_column(core, "start")
        ends = trace.tasks.core_column(core, "end")
        fractions = (ends - starts - self._lo) / (self._hi - self._lo)
        keys = np.clip((fractions * len(self.shades)).astype(np.int64),
                       0, len(self.shades) - 1)
        if self._mask is not None:
            lane = trace.tasks.core_slice(core)
            keys = np.where(self._mask[lane], keys, -1)
        return keys

    def color_of(self, key):
        """The red shade of one duration decile."""
        return self.shades[int(key)]


class TypeMode(_TaskMode):
    """One color per task type: which work function runs where (Fig. 9)."""

    name = "typemap"

    def prepare(self, trace):
        """Assign every task type a palette slot."""
        self._palette = palettes.type_palette(max(len(trace.task_types), 1))

    def task_keys(self, trace, core):
        """One core's task intervals keyed by type id."""
        return trace.tasks.core_column(core, "type_id")

    def color_of(self, key):
        """The palette color of one task type."""
        return self._palette[int(key) % len(self._palette)]


class NumaMode(_TaskMode):
    """NUMA node targeted by each task's reads or writes (Fig. 14a-d)."""

    def __init__(self, kind="read"):
        if kind not in ("read", "write"):
            raise ValueError("kind must be 'read' or 'write'")
        self.kind = kind
        self.name = "numa_{}".format(kind)

    def prepare(self, trace):
        """Precompute per-task NUMA byte tallies for the access kind."""
        self._palette = palettes.numa_palette(trace.topology.num_nodes)
        self._nodes = numa_analysis.task_predominant_nodes(trace,
                                                           self.kind)

    def task_keys(self, trace, core):
        """One core's task intervals keyed by dominant remote node."""
        return self._nodes[trace.tasks.core_slice(core)]

    def color_of(self, key):
        """The node palette color (gray for no data)."""
        return self._palette[int(key) % len(self._palette)]


class NumaHeatmapMode(_TaskMode):
    """Average fraction of remote accesses, blue to pink (Fig. 14e/f)."""

    name = "numa_heatmap"
    continuous = True

    def prepare(self, trace):
        """Precompute per-task remote-access fractions."""
        self._fractions = numa_analysis.task_remote_fractions(trace)

    def task_keys(self, trace, core):
        """One core's task intervals keyed by remote-fraction bucket."""
        return self._fractions[trace.tasks.core_slice(core)]

    def value_color(self, value):
        """Blue-to-red ramp over the remote fraction."""
        return palettes.numa_heat_color(value)


#: Public mode names -> zero-argument factories.  These are the
#: strings the CLI ``--mode`` flag and the service ``render`` endpoint
#: accept; :func:`timeline_mode` turns one into a ready mode object.
TIMELINE_MODES = {
    "state": StateMode,
    "heatmap": HeatmapMode,
    "typemap": TypeMode,
    "numa-read": lambda: NumaMode("read"),
    "numa-write": lambda: NumaMode("write"),
    "numa-heatmap": NumaHeatmapMode,
}


def timeline_mode(name):
    """Instantiate a timeline mode from its public name.

    Accepts any key of :data:`TIMELINE_MODES`; raises ``ValueError``
    (listing the valid names) otherwise, so callers that forward
    user-supplied strings get a clean diagnostic.
    """
    try:
        factory = TIMELINE_MODES[str(name)]
    except KeyError:
        raise ValueError("unknown timeline mode {!r}; valid: {}".format(
            name, ", ".join(sorted(TIMELINE_MODES)))) from None
    return factory()


def _bin_spans(starts, ends, edges):
    """First/last grid bin touched by each (clipped) event."""
    bins = len(edges) - 1
    first = np.clip(np.searchsorted(edges, starts, side="right") - 1,
                    0, bins - 1)
    last = np.clip(np.searchsorted(edges, ends, side="left") - 1,
                   0, bins - 1)
    return first, last


def _predominant_keys(starts, ends, keys, view):
    """Predominant key per pixel column (-1 where nothing is visible).

    Per-key coverage of each bin of the view's pixel grid is
    accumulated vectorized — partial first and last bins by
    scatter-add, fully covered interior bins by a per-key difference
    array — and the key with the largest coverage wins: Section
    VI-B's "every pixel is drawn only once".  Intervals may overlap
    or nest (Chrome ``B``/``E`` spans); each counts its own overlap.
    """
    edges, pick = view.pixel_grid()
    bins = len(edges) - 1
    result = np.full(bins, -1, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    visible = (ends > view.start) & (starts < view.end) & (keys >= 0)
    if not visible.any():
        return result[pick]
    starts = np.clip(starts[visible], view.start, view.end)
    ends = np.clip(ends[visible], view.start, view.end)
    uniq, inverse = np.unique(keys[visible], return_inverse=True)
    first, last = _bin_spans(starts, ends, edges)
    coverage = np.zeros((bins, len(uniq)), dtype=np.int64)
    head = (np.minimum(ends, edges[first + 1])
            - np.maximum(starts, edges[first]))
    np.add.at(coverage, (first, inverse), np.clip(head, 0, None))
    multi = last > first
    if multi.any():
        tail = (np.minimum(ends[multi], edges[last[multi] + 1])
                - edges[last[multi]])
        np.add.at(coverage, (last[multi], inverse[multi]),
                  np.clip(tail, 0, None))
        covering = np.zeros((bins + 1, len(uniq)), dtype=np.int64)
        np.add.at(covering, (first[multi] + 1, inverse[multi]), 1)
        np.add.at(covering, (last[multi], inverse[multi]), -1)
        coverage += (np.cumsum(covering[:bins], axis=0)
                     * np.diff(edges)[:, None])
    # argmax picks the first (smallest) key on coverage ties.
    best = np.argmax(coverage, axis=1)
    covered = coverage[np.arange(bins), best] > 0
    result[covered] = uniq[best[covered]]
    return result[pick]


def _mean_values_per_pixel(starts, ends, values, view):
    """Coverage-weighted mean value per pixel (continuous modes).

    Two value-weighted/unweighted overlap-binning passes over the
    view's pixel grid (the same difference-array kernel the derived
    metrics use, :func:`repro.core.metrics.overlap_per_bin`) and a
    divide.
    """
    edges, pick = view.pixel_grid()
    result = np.full(len(edges) - 1, np.nan, dtype=np.float64)
    if len(starts) == 0:
        return result[pick]
    edges = edges.astype(np.float64)
    weighted = overlap_per_bin(starts, ends, edges,
                                weights=np.asarray(values,
                                                   dtype=np.float64))
    coverage = overlap_per_bin(starts, ends, edges)
    covered = coverage > 0
    result[covered] = weighted[covered] / coverage[covered]
    return result[pick]


def _paint_background(framebuffer, lane_height, lane_tops):
    for index, top in enumerate(lane_tops):
        color = (palettes.BACKGROUND_EVEN if index % 2 == 0
                 else palettes.BACKGROUND_ODD)
        framebuffer.fill_rect(0, top, framebuffer.width, lane_height,
                              color)


def render_timeline(trace, mode, view=None, framebuffer=None,
                    optimized=True):
    """Render one timeline mode into a framebuffer.

    ``optimized=True`` uses predominant-pixel rendering with rectangle
    aggregation; ``optimized=False`` renders one rectangle per event
    (the naive approach of Fig. 20), useful only for benchmarking.
    A mode backed by a per-trace pyramid
    (:meth:`TimelineMode.pixel_keys`) computes each lane's per-pixel
    keys without touching the event lane; a lane it cannot index
    goes through the lane-scanning kernel, with bit-identical
    framebuffers and draw-call counts.
    """
    view = TimelineView.fit(trace) if view is None else view
    if framebuffer is None:
        framebuffer = Framebuffer(view.width, view.height)
    mode.prepare(trace)
    lane_height, lane_tops = view.lane_geometry(trace.num_cores)
    _paint_background(framebuffer, lane_height, lane_tops)
    framebuffer.reset_counters()
    for core in range(trace.num_cores):
        top = lane_tops[core]
        if optimized and not mode.continuous:
            pixel_keys = mode.pixel_keys(trace, core, view)
            if pixel_keys is not None:
                _fill_key_runs(framebuffer, mode, pixel_keys, view, top,
                               lane_height)
                continue
        starts, ends, keys = mode.lane_events(trace, core)
        visible = trace.interval_rows(mode.lanes, core, view.start,
                                      view.end)
        starts = starts[visible]
        ends = ends[visible]
        keys = keys[visible]
        if mode.continuous:
            _render_lane_continuous(framebuffer, mode, view, starts, ends,
                                    keys, top, lane_height)
        elif optimized:
            _render_lane_optimized(framebuffer, mode, view, starts, ends,
                                   keys, top, lane_height)
        else:
            _render_lane_naive(framebuffer, mode, view, starts, ends,
                               keys, top, lane_height)
    return framebuffer


def _render_lane_optimized(framebuffer, mode, view, starts, ends, keys,
                           top, lane_height):
    pixel_keys = _predominant_keys(starts, ends, keys, view)
    _fill_key_runs(framebuffer, mode, pixel_keys, view, top, lane_height)


def _fill_key_runs(framebuffer, mode, pixel_keys, view, top, lane_height):
    """Aggregate equal-key pixel runs into single rectangle fills
    (Section VI-B's draw-call aggregation)."""
    x = 0
    width = view.width
    while x < width:
        key = pixel_keys[x]
        if key < 0:
            x += 1
            continue
        run_end = x + 1
        while run_end < width and pixel_keys[run_end] == key:
            run_end += 1
        framebuffer.fill_rect(x, top, run_end - x, lane_height,
                              mode.color_of(key))
        x = run_end


def _render_lane_continuous(framebuffer, mode, view, starts, ends, values,
                            top, lane_height):
    pixel_values = _mean_values_per_pixel(starts, ends, values, view)
    x = 0
    width = view.width
    while x < width:
        if np.isnan(pixel_values[x]):
            x += 1
            continue
        color = mode.value_color(pixel_values[x])
        run_end = x + 1
        while (run_end < width and not np.isnan(pixel_values[run_end])
               and mode.value_color(pixel_values[run_end]) == color):
            run_end += 1
        framebuffer.fill_rect(x, top, run_end - x, lane_height, color)
        x = run_end


def _render_lane_naive(framebuffer, mode, view, starts, ends, keys, top,
                       lane_height):
    """One rectangle per event, possibly overdrawing the same pixel."""
    for index in range(len(starts)):
        key = int(keys[index])
        if key < 0:
            continue
        x0 = view.time_to_pixel(int(starts[index]))
        x1 = view.time_to_pixel(int(ends[index]))
        framebuffer.fill_rect(max(x0, 0), top, max(x1 - x0, 1),
                              lane_height, mode.color_of(key))
