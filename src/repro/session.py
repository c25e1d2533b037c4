"""Analysis sessions: the interactive state around a trace.

The GUI of the paper keeps per-analysis state beyond the trace itself:
the current zoom/scroll position, the active filters, the configured
derived metrics (Fig. 1 box 5) and the user's annotations (Section
VI-C, explicitly designed for sharing between colleagues).  An
:class:`AnalysisSession` bundles that state, provides navigation with
history (back/forward, like the GUI's zoom stack), and persists
everything *except the trace* to a JSON file — matching the paper's
point that annotations (and by extension the analysis setup) are
saved independently from the trace file.  Traces are compared
side by side with the experiment engine's
:func:`~repro.analysis.experiments.diff_traces` and
:func:`~repro.analysis.experiments.render_timelines_side_by_side`,
not through a session.

The session object is also the service boundary: the multi-tenant
server (:mod:`repro.service`) and ``aftermath_cli`` are two clients of
the same API.  The uniform verbs — :meth:`AnalysisSession.navigate`
(one dispatch point over zoom/scroll/goto/back/forward/reset),
:meth:`AnalysisSession.view_state`,
:meth:`AnalysisSession.statistics` and
:meth:`AnalysisSession.render_frame` — take and return
JSON-serializable values, so a request handler is a thin shell around
them.
"""

from __future__ import annotations

import json
from typing import List

from .core.annotations import Annotation, AnnotationStore
from .core.derived import DerivedMetricMenu
from .render.timeline import TimelineView


class AnalysisSession:
    """A trace plus the interactive state of one analysis."""

    FORMAT_VERSION = 1

    def __init__(self, trace, width=1024, height=256):
        self.trace = trace
        self.view = TimelineView.fit(trace, width, height)
        self.annotations = AnnotationStore()
        self.metrics = DerivedMetricMenu()
        self._history: List[TimelineView] = []
        self._future: List[TimelineView] = []

    @classmethod
    def open(cls, path, width=1024, height=256, cache=True):
        """Start a session straight from a trace file.

        The interactive loop wants time-to-first-pixel, so by default
        the trace is opened through the memory-mapped columnar cache
        (``read_trace(path, cache=True)``): the first open parses once
        and writes the ``.ostc`` sidecar, every later open maps it back
        in milliseconds.  ``cache=False`` parses into a (non-mapped)
        columnar store instead; either way the session holds a store
        every analysis and render entry point accepts.
        """
        from .trace_format import read_trace
        return cls(read_trace(path, cache=cache), width=width,
                   height=height)

    # -- navigation ---------------------------------------------------
    def _move(self, view):
        self._history.append(self.view)
        self._future.clear()
        self.view = view
        return view

    def zoom(self, factor, center=None):
        """Zoom the timeline; the previous view goes on the history."""
        return self._move(self.view.zoom(factor, center))

    def scroll(self, fraction):
        """Scroll by a fraction of the window (negative = left)."""
        return self._move(self.view.scroll(fraction))

    def goto(self, start, end):
        """Jump to an explicit interval (e.g. an anomaly's span)."""
        from dataclasses import replace
        return self._move(replace(self.view, start=int(start),
                                  end=int(end)))

    def back(self):
        """Undo the last navigation step; returns the restored view."""
        if not self._history:
            return self.view
        self._future.append(self.view)
        self.view = self._history.pop()
        return self.view

    def forward(self):
        """Redo the navigation step :meth:`back` undid."""
        if not self._future:
            return self.view
        self._history.append(self.view)
        self.view = self._future.pop()
        return self.view

    def reset_view(self):
        """Return to the whole-trace fit view (a history step)."""
        return self._move(TimelineView.fit(self.trace, self.view.width,
                                           self.view.height))

    # -- the uniform session API (CLI + service) ----------------------
    #: Navigation verbs :meth:`navigate` dispatches, with the
    #: parameter names each one accepts.
    NAVIGATION_ACTIONS = {
        "zoom": ("factor", "center"), "scroll": ("fraction",),
        "goto": ("start", "end"), "back": (), "forward": (),
        "reset": (),
    }

    def navigate(self, action, **params):
        """One dispatch point over the navigation verbs.

        ``action`` is a key of :data:`NAVIGATION_ACTIONS`;  ``params``
        are that verb's arguments (e.g. ``factor``/``center`` for
        ``zoom``).  Remote clients and the CLI funnel through here so
        both speak exactly the same vocabulary.  Returns the new view;
        raises ``ValueError`` on an unknown action and ``KeyError`` on
        a missing required parameter.
        """
        if action == "zoom":
            return self.zoom(params["factor"], params.get("center"))
        if action == "scroll":
            return self.scroll(params["fraction"])
        if action == "goto":
            return self.goto(params["start"], params["end"])
        if action == "back":
            return self.back()
        if action == "forward":
            return self.forward()
        if action == "reset":
            return self.reset_view()
        raise ValueError("unknown navigation action {!r}; valid: {}"
                         .format(action,
                                 ", ".join(self.NAVIGATION_ACTIONS)))

    def view_state(self):
        """The current view as a JSON-serializable dict."""
        return {"start": int(self.view.start),
                "end": int(self.view.end),
                "width": int(self.view.width),
                "height": int(self.view.height)}

    def statistics(self, start=None, end=None):
        """The interval-statistics panel as a JSON-serializable dict.

        Defaults to the session's current view window (pass
        ``start``/``end`` for an explicit interval).  State ids are
        spelled out as :class:`~repro.core.WorkerState` names, so the
        payload is self-describing across the wire.
        """
        from .core import WorkerState, interval_report
        start = self.view.start if start is None else int(start)
        end = self.view.end if end is None else int(end)
        report = interval_report(self.trace, start, end)
        return {"start": int(report.start), "end": int(report.end),
                "tasks": int(report.tasks),
                "average_parallelism":
                    round(float(report.average_parallelism), 6),
                "locality": round(float(report.locality), 6),
                "state_cycles": {
                    WorkerState(state).name.lower(): int(cycles)
                    for state, cycles
                    in sorted(report.state_cycles.items())}}

    def render_frame(self, mode="state"):
        """Rasterize the current view into a fresh framebuffer.

        ``mode`` is a timeline-mode name from
        :func:`repro.render.timeline_mode` (``state``, ``heatmap``,
        ``typemap``, ``numa-read``, ``numa-write``, ``numa-heatmap``)
        or an already-built mode object.  Returns the
        :class:`~repro.render.Framebuffer`.
        """
        from .render import render_timeline, timeline_mode
        if isinstance(mode, str):
            mode = timeline_mode(mode)
        return render_timeline(self.trace, mode, self.view)

    # -- annotations ----------------------------------------------------
    def annotate(self, text, timestamp=None, core=None, author=""):
        """Drop an annotation at a timestamp (default: view center)."""
        if timestamp is None:
            timestamp = (self.view.start + self.view.end) // 2
        note = Annotation(timestamp=int(timestamp), text=text, core=core,
                          author=author)
        self.annotations.add(note)
        return note

    def visible_annotations(self):
        """The annotations inside the current view window."""
        return self.annotations.in_interval(self.view.start,
                                            self.view.end)

    # -- anomaly-driven navigation ----------------------------------------
    def goto_anomaly(self, anomaly, margin=0.25):
        """Frame an :class:`Anomaly` with some context around it."""
        span = max(anomaly.end - anomaly.start, 1)
        pad = int(span * margin)
        return self.goto(anomaly.start - pad, anomaly.end + pad)

    # -- persistence ----------------------------------------------------
    def save(self, path):
        """Persist view, history, annotations and metric menu (not the
        trace) to a JSON session file."""
        payload = {
            "version": self.FORMAT_VERSION,
            "view": {"start": self.view.start, "end": self.view.end,
                     "width": self.view.width,
                     "height": self.view.height},
            "history": [{"start": view.start, "end": view.end}
                        for view in self._history],
            "annotations": [note.to_dict()
                            for note in self.annotations],
            "metrics": self.metrics.to_config(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)

    @classmethod
    def load(cls, path, trace):
        """Restore a session file against a (re-)loaded trace."""
        with open(path) as handle:
            payload = json.load(handle)
        if payload.get("version") != cls.FORMAT_VERSION:
            raise ValueError("unsupported session file version")
        view = payload["view"]
        session = cls(trace, width=view["width"], height=view["height"])
        from dataclasses import replace
        session.view = replace(session.view, start=view["start"],
                               end=view["end"])
        session._history = [
            replace(session.view, start=entry["start"],
                    end=entry["end"])
            for entry in payload.get("history", [])
        ]
        session.annotations = AnnotationStore(
            Annotation.from_dict(entry)
            for entry in payload.get("annotations", []))
        session.metrics = DerivedMetricMenu.from_config(
            payload.get("metrics", {}))
        return session

