"""One closed-loop analyst: a keep-alive ``ServiceClient``, one
session, the next request only after the previous reply.

The analyst mirrors its session's view with the public
``TimelineView`` arithmetic, so every ``navigate`` reply is checked
exactly and every frame knows its zoom depth without asking the
server.  A seeded sample of frame and ``stats`` replies is kept whole
for the in-process oracle (:mod:`perfbench.oracle`).
"""

from __future__ import annotations

from .harness import WARMUP

#: Zoom factor (trace duration / window) from which a view counts as
#: ``deep``: a few events per lane instead of many per pixel.
DEEP_ZOOM = 64.0

#: Share of frame / stats replies kept for the oracle, and the cap.
KEEP_SHARE = 0.12
KEEP_LIMIT = 20


class Analyst:
    """A scripted viewer of one trace behind the HTTP API."""

    def __init__(self, index, url, log, rng):
        from repro.service import ServiceClient
        self.index = index
        self.client = ServiceClient(url)
        self.log = log
        self.rng = rng
        self.pass_index = WARMUP
        self.kept = []
        self.session = None

    # -- plumbing ------------------------------------------------------

    def _request(self, kind, endpoint, attrs=None, **params):
        """POST one endpoint, timed and logged; returns the reply
        (``None`` when the service refused it)."""
        reply, self.last = self.log.call(
            kind, lambda rid: self.client.call(endpoint, rid=rid,
                                               **params),
            client=self.index, pass_index=self.pass_index,
            **(attrs or {}))
        return reply

    @property
    def depth(self):
        """``fit`` or ``deep``, from the mirrored view's zoom."""
        zoom = (self.bounds[1] - self.bounds[0]) / self.view.duration
        return "deep" if zoom >= DEEP_ZOOM else "fit"

    def _view_matches(self, reply):
        view = reply.get("view", {})
        expected = {"start": self.view.start, "end": self.view.end,
                    "width": self.view.width,
                    "height": self.view.height}
        if view != expected:
            self.log.wrong(self.last, "view {} != expected {}".format(
                view, expected))

    def _keep(self, record):
        if (len(self.kept) < KEEP_LIMIT
                and self.rng.random() < KEEP_SHARE):
            self.kept.append(record)

    # -- the analyst's verbs -------------------------------------------

    def open(self, path, kind="open"):
        """Open ``path`` and make it this analyst's session."""
        from repro.render import TimelineView
        reply = self._request(kind, "open", path=path)
        if reply is None:
            raise RuntimeError("cannot open " + path)
        self.session = reply["session"]
        self.path = path
        self.view = TimelineView(**reply["view"])
        self.bounds = (self.view.start, self.view.end)
        return reply

    def visit(self, path):
        """Open ``path`` in a second session and close it again — a
        colleague's trace passing through the pool."""
        reply = self._request("open", "open", path=path)
        if reply is not None:
            self._request("close", "close", session=reply["session"])

    def reopen(self):
        """Close the session and open the same trace afresh."""
        self._request("close", "close", session=self.session)
        self.open(self.path)

    def navigate(self, action, **arguments):
        """One navigation verb; the reply must match the mirror."""
        if action == "goto":
            from dataclasses import replace
            expected = replace(self.view, **arguments)
        else:
            expected = getattr(self.view, action)(**arguments)
        reply = self._request("navigate", "navigate",
                              session=self.session, action=action,
                              **arguments)
        if reply is not None:
            self.view = expected
            self._view_matches(reply)

    def frame(self, mode, encoding):
        """Render the current view; returns the reply."""
        kind = "render_" + encoding
        reply = self._request(
            kind, "render", {"mode": mode, "depth": self.depth},
            session=self.session, mode=mode, format=encoding)
        if reply is None:
            return None
        self._view_matches(reply)
        self.last.attrs["draw_calls"] = reply.get("draw_calls")
        payload = reply.get("png_base64" if encoding == "png"
                            else "rows")
        if not payload:
            self.log.wrong(self.last, "empty frame")
        self._keep({"what": "frame", "sample": self.last,
                    "path": self.path,
                    "view": (self.view.start, self.view.end,
                             self.view.width, self.view.height),
                    "mode": mode, "encoding": encoding,
                    "payload": payload,
                    "draw_calls": reply.get("draw_calls")})
        return reply

    def stats(self, start=None, end=None):
        """The statistics panel of the view (or an explicit window)."""
        window = {} if start is None else {"start": start, "end": end}
        reply = self._request("stats", "stats",
                              {"depth": self.depth},
                              session=self.session, **window)
        if reply is None:
            return None
        self._keep({"what": "stats", "sample": self.last,
                    "path": self.path,
                    "window": (reply["start"], reply["end"]),
                    "reply": reply})
        return reply

    def diff(self, baseline, candidate, expect_empty=False):
        """Diff two trace files through the service."""
        reply = self._request("diff", "diff", baseline=baseline,
                              candidate=candidate)
        if reply is not None and expect_empty and not reply["empty"]:
            self.log.wrong(self.last, "a trace differs from itself")
        return reply

    def health(self):
        """``GET /health`` on the analyst's own connection."""
        return self.log.call("health",
                             lambda rid: self.client.health(),
                             client=self.index,
                             pass_index=self.pass_index)[0]

    def close(self):
        """End the session."""
        self._request("close", "close", session=self.session)


class LocalAnalyst:
    """The same verbs on an in-process ``AnalysisSession`` — the
    batch / CLI user of ``cold_batch``, with no transport at all.

    A frame is ``render_frame`` plus the encoder, as a served frame
    is; the difference between this analyst's timings and a served
    analyst's on the same views is what the service layers cost.
    """

    def __init__(self, log, rng):
        self.index = 0
        self.log = log
        self.rng = rng
        self.pass_index = WARMUP
        self.session = None

    def _timed(self, kind, function, **attrs):
        result, self.last = self.log.call(
            kind, lambda rid: function(), client=self.index,
            pass_index=self.pass_index, **attrs)
        return result

    depth = Analyst.depth

    @property
    def view(self):
        """The session's current view."""
        return self.session.view

    def open(self, path):
        """Open ``path`` through its sidecar (``open`` sample)."""
        from repro.session import AnalysisSession
        self.path = path
        self.session = self._timed(
            "open", lambda: AnalysisSession.open(path))
        self.bounds = (self.view.start, self.view.end)

    def reopen(self):
        """Open the same trace afresh."""
        self.open(self.path)

    def navigate(self, action, **arguments):
        """One navigation verb on the session."""
        self._timed("navigate",
                    lambda: self.session.navigate(action, **arguments))

    def frame(self, mode, encoding):
        """Render and encode the current view; returns the bytes or
        rows."""
        def render():
            framebuffer = self.session.render_frame(mode)
            return (framebuffer.png_bytes() if encoding == "png"
                    else framebuffer.to_ascii())
        return self._timed("render_" + encoding, render, mode=mode,
                           depth=self.depth)

    def stats(self):
        """The statistics panel of the current view."""
        return self._timed("stats", self.session.statistics,
                           depth=self.depth)
