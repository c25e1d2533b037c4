"""Headless rendering of Aftermath's timeline modes and views."""

from .colors import (heatmap_shades, numa_heat_color, numa_palette,
                     state_color, type_palette)
from .counter_overlay import (render_counter, render_counter_rate,
                              value_bounds)
from .event_overlay import (EVENT_COLORS, render_annotations,
                            render_discrete_events)
from .framebuffer import Framebuffer
from .matrix import (histogram_to_text, matrix_to_text, render_histogram,
                     render_matrix)
from .timeline import (TIMELINE_MODES, HeatmapMode, NumaHeatmapMode,
                       NumaMode, StateMode, TimelineMode, TimelineView,
                       TypeMode, render_timeline, timeline_mode)

__all__ = [
    "heatmap_shades", "numa_heat_color", "numa_palette", "state_color",
    "type_palette", "render_counter", "render_counter_rate",
    "value_bounds", "EVENT_COLORS",
    "render_annotations",
    "render_discrete_events", "Framebuffer", "histogram_to_text",
    "matrix_to_text",
    "render_histogram", "render_matrix", "HeatmapMode", "NumaHeatmapMode",
    "NumaMode", "StateMode", "TimelineMode", "TimelineView", "TypeMode",
    "TIMELINE_MODES", "render_timeline", "timeline_mode",
]
