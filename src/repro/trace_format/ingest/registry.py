"""Trace-source registry: format-plural ingestion behind one call.

Aftermath's analyses are runtime-agnostic — the paper demonstrates
them on OpenStream *and* OpenMP traces — so loading must not be
hard-wired to one file format.  Instead of an if/else chain, every
supported format registers a :class:`TraceSource` subclass: a small
object with a ``can_load`` heuristic (file suffix + the first bytes
of content) and a ``load`` method that normalizes the file into the
trace stores everything downstream consumes.

:func:`ingest_trace` is the single entry point: it sniffs the file,
picks the first matching source (registration order is priority
order, the native format first), and returns a trace on which every
statistic, anomaly detector and renderer works unmodified.
"""

from __future__ import annotations

from ..format import MAGIC, FormatError

#: Registered sources, in priority order.
_SOURCES = []


def register_source(cls):
    """Class decorator adding a :class:`TraceSource` to the registry.

    Sources are probed in registration order, so register more
    specific formats (magic-numbered binaries) before permissive ones
    (textual formats).  Returns the class unchanged.
    """
    _SOURCES.append(cls())
    return cls


def registered_sources():
    """The registered source instances, in probe order."""
    return tuple(_SOURCES)


class TraceSource:
    """One ingestible trace format.

    Subclasses set ``name`` (the CLI-facing identifier) and
    ``suffixes`` (file endings the format conventionally uses) and
    implement :meth:`can_load` and :meth:`load`.
    """

    #: Identifier used by ``--format`` flags and reports.
    name = "?"
    #: File suffixes conventionally used by the format.
    suffixes = ()

    def matches_suffix(self, path):
        """Whether ``path`` carries one of the format's suffixes."""
        name = str(path)
        if name.endswith(".gz") or name.endswith(".bz2") \
                or name.endswith(".xz"):
            name = name.rsplit(".", 1)[0]
        return any(name.endswith(suffix) for suffix in self.suffixes)

    def can_load(self, path, head):
        """Whether this source recognizes the file.

        ``head`` holds the first bytes of the (decompressed) file; a
        source must only claim files it can actually parse, since the
        first claimant wins.
        """
        raise NotImplementedError

    def load(self, path):
        """Parse the file into a
        :class:`~repro.core.columnar.ColumnarTrace`."""
        raise NotImplementedError


def _read_head(path, size=4096):
    """The first ``size`` decompressed bytes of a file."""
    from ..compression import open_trace_file
    try:
        with open_trace_file(str(path)) as handle:
            return handle.read(size)
    except OSError as error:
        raise FormatError("cannot read {}: {}".format(path, error))


def detect_source(path):
    """The first registered source claiming ``path``.

    Raises :class:`~repro.trace_format.format.FormatError` when no
    source recognizes the file — ambiguity is resolved by probe
    order, never by guessing.
    """
    head = _read_head(path)
    for source in _SOURCES:
        if source.can_load(path, head):
            return source
    raise FormatError(
        "no registered trace source recognizes {!r} (tried: {})".format(
            str(path),
            ", ".join(source.name for source in _SOURCES)))


def ingest_trace(path, columnar=False, source=None):
    """Load a trace file of any registered format into a
    :class:`~repro.core.columnar.ColumnarTrace`.

    ``source`` forces a format by name (bypassing detection).
    ``columnar`` has no effect: every source returns the columnar
    store.  It is still accepted because existing callers pass it.
    Raises :class:`~repro.trace_format.format.FormatError` for
    unrecognized files or unknown source names.
    """
    if source is not None:
        for candidate in _SOURCES:
            if candidate.name == source:
                return candidate.load(path)
        raise FormatError("unknown trace source {!r} (known: {})".format(
            source, ", ".join(entry.name for entry in _SOURCES)))
    return detect_source(path).load(path)


@register_source
class NativeTraceSource(TraceSource):
    """The repository's own binary format (``AFTM`` magic)."""

    name = "native"
    suffixes = (".ost",)

    def can_load(self, path, head):
        """Claim files opening with the native magic bytes."""
        return head[:len(MAGIC)] == MAGIC

    def load(self, path):
        """Defer to :func:`repro.trace_format.reader.read_trace`
        (which also handles the ``.ostc`` sidecar cache)."""
        from ..reader import read_trace
        return read_trace(str(path))


@register_source
class ParaverTraceSource(TraceSource):
    """Textual Paraver ``.prv`` traces (BSC tool family)."""

    name = "paraver"
    suffixes = (".prv",)

    def can_load(self, path, head):
        """Claim files opening with a ``#Paraver`` header line."""
        return head[:len(b"#Paraver")] == b"#Paraver"

    def load(self, path):
        """Defer to :func:`repro.trace_format.paraver.import_paraver`."""
        from ..paraver import import_paraver
        return import_paraver(str(path))


@register_source
class ChromeTraceSource(TraceSource):
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""

    name = "chrome"
    suffixes = (".json",)

    def can_load(self, path, head):
        """Claim JSON files that plausibly hold a trace-event
        document: an object with a ``traceEvents`` key, or a bare
        event array."""
        stripped = head.lstrip()
        if stripped.startswith(b"{"):
            return b'"traceEvents"' in head
        return stripped.startswith(b"[") and self.matches_suffix(path)

    def load(self, path):
        """Defer to :func:`repro.trace_format.chrome.import_chrome`."""
        from ..chrome import import_chrome
        return import_chrome(str(path))
