"""Transport-independent request handlers of the trace service.

:class:`TraceService` is the whole multi-tenant story minus the
socket: JSON-shaped parameter dicts in, JSON-serializable reply dicts
out, with every failure normalized to a :class:`ServiceError` carrying
a machine-readable ``code`` and an HTTP status.  The HTTP transport
(:mod:`~repro.service.server`) is a thin shell over
:meth:`TraceService.handle`; tests and the doctested API reference
(``docs/service-api.md``) drive the same handlers.

Each client ``open`` creates one server-side
:class:`~repro.session.AnalysisSession` — per-client view, history and
navigation — but every session of the same trace file shares **one**
mapped store through the :class:`~repro.service.pool.MappedCachePool`,
which is what makes the service multi-tenant instead of
multi-process-expensive.  Handlers hold the entry's per-trace lock
while touching the shared store (its memoized pyramids/indexes are
plain dicts), so concurrent clients are safe and still zero-copy.
"""

from __future__ import annotations

import base64
import itertools
import threading

from ..session import AnalysisSession
from ..trace_format.format import FormatError
from .pool import MappedCachePool

#: The service's public endpoints, in documentation order.
ENDPOINTS = ("open", "navigate", "render", "stats", "diff",
             "sweep-status", "close")

#: Largest ``width`` or ``height`` an ``open`` accepts.  A session's
#: first render allocates a ``height x width`` RGB framebuffer while
#: holding the shared per-trace lock, so the geometry is bounded here.
MAX_VIEW_SIDE = 4096


class ServiceError(Exception):
    """A request failure with a machine-readable code.

    ``code`` is one of the stable strings documented in
    ``docs/service-api.md`` (``bad_request``, ``unknown_session``,
    ``unknown_endpoint``, ``trace_error``, ``forbidden``,
    ``queue_error``, ``internal``); ``status`` is the HTTP status the
    transport should send.
    """

    def __init__(self, code, message, status=400):
        super().__init__(message)
        self.code = code
        self.status = int(status)

    def payload(self):
        """The JSON error body: ``{"error": {"code", "message"}}``."""
        return {"error": {"code": self.code, "message": str(self)}}


class _SessionRecord:
    """One client session: its path and server-side session object."""

    def __init__(self, sid, path, session):
        self.sid = sid
        self.path = path
        self.session = session


class TraceService:
    """The multi-tenant request handlers over one shared trace pool.

    ``pool_capacity`` bounds resident traces (LRU);  ``root``, when
    given, confines every trace/suite path to that directory
    (requests outside it fail with code ``forbidden``);  ``width`` /
    ``height`` are the default view geometry of new sessions.
    """

    def __init__(self, pool_capacity=8, root=None, width=1024,
                 height=256):
        self.pool = MappedCachePool(capacity=pool_capacity)
        self.root = None
        if root is not None:
            import os
            self.root = os.path.realpath(str(root))
        self.width = int(width)
        self.height = int(height)
        self._sessions = {}
        self._sessions_lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- plumbing ------------------------------------------------------

    def handle(self, endpoint, params):
        """Dispatch one request; the single entry point transports
        call.  Unknown endpoints, malformed parameters and trace
        failures all come back as :class:`ServiceError`."""
        handler = {
            "open": self.open, "navigate": self.navigate,
            "render": self.render, "stats": self.stats,
            "diff": self.diff, "sweep-status": self.sweep_status,
            "close": self.close,
        }.get(endpoint)
        if handler is None:
            raise ServiceError(
                "unknown_endpoint",
                "no endpoint {!r}; valid: {}".format(
                    endpoint, ", ".join(ENDPOINTS)), status=404)
        if not isinstance(params, dict):
            raise ServiceError("bad_request",
                               "request body must be a JSON object")
        try:
            return handler(params)
        except ServiceError:
            raise
        except FileNotFoundError as error:
            raise ServiceError("trace_error",
                               "no such file: {}".format(
                                   error.filename or error), status=404)
        except FormatError as error:
            raise ServiceError("trace_error", str(error), status=422)
        except OSError as error:
            raise ServiceError("trace_error", str(error), status=422)
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError("bad_request",
                               "malformed request: {}".format(error))

    def _check_path(self, path):
        """Normalize a client-supplied path, enforcing the root jail."""
        import os
        path = str(path)
        if self.root is not None:
            real = os.path.realpath(path)
            if not (real + os.sep).startswith(self.root + os.sep):
                raise ServiceError(
                    "forbidden",
                    "path {} is outside the served root".format(path),
                    status=403)
        return path

    def _record(self, params):
        sid = str(params.get("session", ""))
        with self._sessions_lock:
            record = self._sessions.get(sid)
        if record is None:
            raise ServiceError("unknown_session",
                               "no session {!r} (expired or never "
                               "opened)".format(sid), status=404)
        return record

    def _attach(self, record):
        """The pool entry serving one request.

        Refreshes the session's store from the shared pool — picking
        up stat-stamp invalidations — and returns the entry whose lock
        the caller must hold.
        """
        entry = self.pool.entry(record.path)
        record.session.trace = entry.trace
        return entry

    # -- endpoints -----------------------------------------------------

    def open(self, params):
        """``open``: start a session on a trace file.

        Parameters: ``path`` (required), ``width``/``height``
        (optional view geometry, each at most :data:`MAX_VIEW_SIDE`).
        Returns the session id, whether the mapping was already
        resident (``shared``), topology facts and the initial
        whole-trace view.
        """
        path = self._check_path(params["path"])
        width = int(params.get("width", self.width))
        height = int(params.get("height", self.height))
        if not (0 < width <= MAX_VIEW_SIDE
                and 0 < height <= MAX_VIEW_SIDE):
            raise ServiceError(
                "bad_request", "width and height must be 1..{} pixels, "
                "got {}x{}".format(MAX_VIEW_SIDE, width, height))
        before = self.pool.hits
        trace = self.pool.entry(path).trace
        shared = self.pool.hits > before
        session = AnalysisSession(trace, width=width, height=height)
        sid = "s{}".format(next(self._ids))
        with self._sessions_lock:
            self._sessions[sid] = _SessionRecord(sid, path, session)
        return {"session": sid, "path": path, "shared": shared,
                "cores": int(trace.num_cores),
                "duration": int(trace.duration),
                "view": session.view_state()}

    def navigate(self, params):
        """``navigate``: move a session's view.

        Parameters: ``session``, ``action`` (``zoom`` / ``scroll`` /
        ``goto`` / ``back`` / ``forward`` / ``reset``) plus the
        action's arguments (``factor``/``center``, ``fraction``,
        ``start``/``end``).  Returns the new view.
        """
        record = self._record(params)
        action = params.get("action")
        arguments = {key: params[key]
                     for key in ("factor", "center", "fraction",
                                 "start", "end") if key in params}
        entry = self._attach(record)
        with entry.lock:
            record.session.navigate(action, **arguments)
        return {"session": record.sid,
                "view": record.session.view_state()}

    def render(self, params):
        """``render``: rasterize a session's current view.

        Parameters: ``session``, ``mode`` (a timeline-mode name,
        default ``state``), ``format`` (``ascii`` or ``png``, default
        ``ascii``).  ASCII replies carry ``rows`` (one string per
        pixel row); PNG replies carry base64 bytes in ``png_base64``.
        """
        record = self._record(params)
        mode = params.get("mode", "state")
        encoding = params.get("format", "ascii")
        if encoding not in ("ascii", "png"):
            raise ServiceError("bad_request",
                               "format must be 'ascii' or 'png', got "
                               "{!r}".format(encoding))
        entry = self._attach(record)
        with entry.lock:
            framebuffer = record.session.render_frame(mode)
        reply = {"session": record.sid, "mode": mode,
                 "format": encoding,
                 "width": framebuffer.width,
                 "height": framebuffer.height,
                 "draw_calls": int(framebuffer.draw_calls),
                 "view": record.session.view_state()}
        if encoding == "png":
            reply["png_base64"] = base64.b64encode(
                framebuffer.png_bytes()).decode("ascii")
        else:
            reply["rows"] = framebuffer.to_ascii()
        return reply

    def stats(self, params):
        """``stats``: the interval-statistics panel of a session.

        Parameters: ``session``, optional ``start``/``end`` (default:
        the session's current view window).  Returns the
        :func:`~repro.core.statistics.interval_report` fields with
        state names spelled out.
        """
        record = self._record(params)
        entry = self._attach(record)
        with entry.lock:
            reply = record.session.statistics(
                start=params.get("start"), end=params.get("end"))
        reply["session"] = record.sid
        return reply

    def diff(self, params):
        """``diff``: compare two trace files (experiment engine).

        Parameters: ``baseline`` and ``candidate`` paths, optional
        ``tolerances`` (``relative`` / ``absolute`` /
        ``distribution`` / ``anomalies``).  Returns the
        machine-readable
        :class:`~repro.analysis.experiments.diff.TraceDiffReport`
        dict plus ``empty``/``deviations`` summaries.
        """
        from ..analysis.experiments import DiffTolerances, diff_traces
        baseline = self._check_path(params["baseline"])
        candidate = self._check_path(params["candidate"])
        tolerances = None
        if "tolerances" in params:
            tolerances = DiffTolerances(**dict(params["tolerances"]))
        first = self.pool.entry(baseline)
        second = self.pool.entry(candidate)
        # Two locks: take them in path order so two concurrent diffs
        # with swapped operands cannot deadlock.
        ordered = sorted({id(e): e for e in (first, second)}.values(),
                         key=lambda e: e.path)
        with _hold_all(ordered):
            report = diff_traces(first.trace, second.trace,
                                 tolerances=tolerances)
        payload = report.to_dict()
        payload.update({"empty": report.is_empty,
                        "deviations": len(report)})
        return payload

    def sweep_status(self, params):
        """``sweep-status``: poll a suite directory's durable journal.

        Parameters: ``directory`` (a suite directory with a
        ``journal.sqlite``).  Returns per-state job counts plus one
        entry per job — the machine-readable side of
        ``aftermath_cli queue-status``.
        """
        from ..analysis.experiments import QueueError, queue_status
        directory = self._check_path(params["directory"])
        try:
            return queue_status(directory)
        except QueueError as error:
            raise ServiceError("queue_error", str(error), status=404)

    def close(self, params):
        """``close``: drop a session (its trace stays pooled for
        other clients).  Returns the closed id."""
        record = self._record(params)
        with self._sessions_lock:
            self._sessions.pop(record.sid, None)
        return {"closed": record.sid}

    # -- monitoring ----------------------------------------------------

    def describe(self):
        """Pool and session counters (the ``/health`` body)."""
        with self._sessions_lock:
            sessions = len(self._sessions)
        return {"status": "ok", "sessions": sessions,
                "endpoints": list(ENDPOINTS),
                "pool": self.pool.stats()}


class _hold_all:
    """Context manager acquiring several entry locks in given order."""

    def __init__(self, entries):
        self.entries = list(entries)

    def __enter__(self):
        for entry in self.entries:
            entry.lock.acquire()

    def __exit__(self, *exc):
        for entry in reversed(self.entries):
            entry.lock.release()
