#!/usr/bin/env python3
"""Machine-readable perf trajectory: merge benchmark timings into one
JSON history file.

The per-figure benchmarks write human-readable series to
``benchmarks/results/``; this helper adds the machine-readable side —
a single ``BENCH_HISTORY.json`` with one section per PR generation
(``pr4``, ``pr5``, ...), each keyed by benchmark name with one flat
payload of timings/speedups per entry.  Benchmarks call :func:`record`
(the benchmarks ``conftest.py`` puts ``tools/`` on ``sys.path``), which
writes the git-ignored ``benchmarks/results/BENCH_HISTORY.json``, so a
bench run never dirties the tracked tree.  CI uploads that file as a
workflow artifact and ``tools/perf_gate.py`` fails the build when a
tracked metric drops below its floor.  The ``BENCH_HISTORY.json``
committed at the repository root is the gate's baseline.

Concurrent writers are safe: the merge happens under an exclusive
``flock`` on a sidecar lock file, and the current contents are
re-read *inside* the lock — two bench modules recording at once can
never lose each other's (or an unrelated section's) top-level keys.

Run directly to pretty-print the current trajectory:

    python tools/bench_json.py
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib

try:
    import fcntl
except ImportError:                       # non-POSIX: degrade politely
    fcntl = None

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_PATH = ROOT / "benchmarks" / "results" / "BENCH_HISTORY.json"

#: The default section new benchmarks record into.
CURRENT_SECTION = "pr5"


@contextlib.contextmanager
def _locked(path):
    """Hold an exclusive advisory lock tied to ``path`` (no-op where
    ``fcntl`` is unavailable).

    The sidecar lock file is removed on exit so interrupted benchmark
    runs stop littering ``*.json.lock`` files next to the history.
    Removal is only safe with revalidation: after acquiring the lock,
    the held descriptor must still be the file at ``lock_path`` — a
    concurrent holder may have unlinked it between our ``open`` and
    ``flock``, in which case we hold a lock nobody else can contend
    on and must retry on the fresh file.
    """
    if fcntl is None:
        yield
        return
    lock_path = path.with_suffix(path.suffix + ".lock")
    while True:
        lock = open(lock_path, "w")
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                if os.fstat(lock.fileno()).st_ino \
                        == os.stat(lock_path).st_ino:
                    break
            except OSError:
                pass          # unlinked under us: retry
        except BaseException:
            lock.close()
            raise
        lock.close()
    try:
        yield
    finally:
        try:
            # Unlink while still holding the exclusive lock: a waiter
            # blocked in flock() wakes on the old inode, fails the
            # revalidation above, and retries on a fresh lock file.
            os.unlink(lock_path)
        except OSError:
            pass
        lock.close()


def _load(path):
    """The history dict currently on disk ({} when absent/corrupt)."""
    if not path.exists():
        return {}
    try:
        entries = json.loads(path.read_text())
    except ValueError:
        return {}
    return entries if isinstance(entries, dict) else {}


def record(name, payload, section=CURRENT_SECTION, path=None):
    """Merge ``{section: {name: payload}}`` into the history file.

    ``payload`` must be JSON-serializable (flat dicts of floats/ints/
    strings by convention).  Existing entries — under other names *and*
    other sections — are preserved; recording the same
    ``(section, name)`` twice overwrites that entry only.  The
    read-merge-write cycle runs under a file lock, so concurrent bench
    modules cannot clobber each other.  Returns the path written.
    """
    path = DEFAULT_PATH if path is None else pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _locked(path):
        entries = _load(path)
        entries.setdefault(str(section), {})[str(name)] = payload
        path.write_text(json.dumps(entries, indent=2, sort_keys=True)
                        + "\n")
    return path


def load_history(path=None):
    """The full history dict (sections -> benchmark name -> payload)."""
    path = DEFAULT_PATH if path is None else pathlib.Path(path)
    return _load(path)


def main():
    """Pretty-print the current trajectory file."""
    if not DEFAULT_PATH.exists():
        print("no trajectory recorded yet:", DEFAULT_PATH)
        return
    print(DEFAULT_PATH)
    print(json.dumps(load_history(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
