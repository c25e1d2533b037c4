"""Durable work-queue journal for the experiment engine.

The PR 5 suite runner was fire-and-forget: one crashed worker, one
OOM-killed simulation or one poison spec lost the whole sweep.  This
module is the crash-resilient core that replaces it — a SQLite job
journal (stdlib ``sqlite3`` guarded by a shared lock around write
transactions, the colrev idiom named in ROADMAP item 4) that survives
the process:

* **States.**  Every job is exactly one of ``pending`` (runnable),
  ``leased`` (claimed by a worker under a heartbeat lease), ``done``
  (artifact published), ``failed`` (errored, awaiting its backoff
  retry) or ``quarantined`` (retries exhausted — parked with the
  captured traceback instead of poisoning the pool).
* **Leases.**  :meth:`JobQueue.claim` hands one eligible job to a
  worker and stamps a heartbeat; workers renew it while executing.  A
  lease whose heartbeat goes stale (dead or hung worker) is reclaimed
  by :meth:`JobQueue.reclaim_stale` and the job becomes runnable
  again — counting as a failed attempt, so a job that keeps killing
  its workers still ends up quarantined, not retried forever.
* **Retry with backoff.**  A failed attempt schedules the next one at
  ``base_delay * 2**(attempt-1)`` seconds (capped, plus deterministic
  jitter derived from the job key so stampedes decorrelate without
  nondeterministic tests) until ``max_attempts`` is exhausted.
* **Resume.**  The journal is the source of truth: re-running a sweep
  re-enqueues the same jobs idempotently (keyed by a content hash of
  the spec), finds the completed ones already ``done``, and never
  re-simulates them.  :func:`load_specs` rebuilds the full spec list
  from the journal alone, so a resume needs nothing but the suite
  directory.

Concurrency: every process opens its own connection (SQLite
connections must not cross ``fork``); cross-process serialization is
``BEGIN IMMEDIATE`` transactions plus a busy timeout, and an optional
``multiprocessing.Lock`` shared by the engine's workers keeps claim
contention off the busy-retry path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Optional

#: Journal file name inside a suite directory.
JOURNAL_NAME = "journal.sqlite"

#: Environment variable naming a directory where the engine mirrors
#: its journal and quarantine records for post-mortem debugging (CI
#: uploads it as an artifact when the test job fails).
DEBUG_DIR_ENV = "REPRO_ENGINE_DEBUG_DIR"

#: Seconds a lease may go without a heartbeat before any monitor may
#: reclaim it (dead or hung worker).
DEFAULT_LEASE_SECONDS = 300.0

_STATES = ("pending", "leased", "done", "failed", "quarantined")


class ExperimentError(RuntimeError):
    """A clean, one-line-per-cause failure of the experiment engine.

    Raised instead of letting raw worker tracebacks propagate through
    the pool; the full tracebacks stay queryable in the journal
    (:meth:`JobQueue.quarantined`)."""


class QueueError(ExperimentError):
    """The journal itself is unusable (missing, corrupt, conflicting)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How failed jobs are retried before quarantine.

    ``max_attempts`` counts executions *started* (the first run is
    attempt 1); ``base_delay`` doubles per attempt up to ``max_delay``;
    ``jitter`` adds up to that fraction of the delay, derived
    deterministically from the job key and attempt number.
    """

    max_attempts: int = 3
    base_delay: float = 1.0
    max_delay: float = 60.0
    jitter: float = 0.25

    def backoff(self, key, attempt):
        """Seconds to wait after failed attempt number ``attempt``."""
        delay = min(self.max_delay,
                    self.base_delay * (2.0 ** max(0, attempt - 1)))
        if self.jitter > 0:
            seed = int.from_bytes(hashlib.sha256(
                "{}:{}".format(key, attempt).encode()).digest()[:8],
                "big")
            delay *= 1.0 + self.jitter * random.Random(seed).random()
        return delay


@dataclass(frozen=True)
class Job:
    """One claimed unit of work, as handed to a worker."""

    key: str
    name: str
    spec_json: str
    attempts: int

    @property
    def spec(self):
        """The job's :class:`ExperimentSpec`, rebuilt from the
        journal's JSON."""
        from .store import spec_from_json
        return spec_from_json(self.spec_json)


def journal_path(directory):
    """The conventional journal location inside a suite directory."""
    return os.path.join(str(directory), JOURNAL_NAME)


def _default_owner():
    return "{}:{}".format(socket.gethostname(), os.getpid())


def _pid_alive(pid):
    """Whether ``pid`` is a live process on this host.

    A zombie counts as dead: a SIGKILLed worker can linger in ``Z``
    state until its reaper runs, and its lease must not outlive it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True           # exists but not ours (EPERM)
    try:
        with open("/proc/{}/stat".format(pid), "rb") as stream:
            data = stream.read()
        # The state letter follows the parenthesized command name.
        if data[data.rindex(b")") + 2:data.rindex(b")") + 3] == b"Z":
            return False
    except (OSError, ValueError):
        pass                  # no procfs: the kill(0) answer stands
    return True


def _owner_is_dead(owner):
    """True when ``owner`` ("host:pid[:n]") is provably dead: a local
    pid that no longer exists.  Remote owners are never provably dead,
    so only their lease expiry reclaims them."""
    parts = str(owner or "").split(":")
    if len(parts) < 2 or parts[0] != socket.gethostname():
        return False
    try:
        pid = int(parts[1])
    except ValueError:
        return False
    return not _pid_alive(pid)


class JobQueue:
    """The durable job journal of one suite directory.

    Open one instance per process; methods are thread-safe within the
    instance (a worker's heartbeat thread shares it with the claim
    loop).  ``clock`` is injectable for deterministic tests.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS jobs (
        key        TEXT PRIMARY KEY,
        name       TEXT NOT NULL,
        spec       TEXT NOT NULL,
        store_key  TEXT NOT NULL,
        state      TEXT NOT NULL DEFAULT 'pending',
        attempts   INTEGER NOT NULL DEFAULT 0,
        executions INTEGER NOT NULL DEFAULT 0,
        owner      TEXT,
        heartbeat  REAL,
        not_before REAL NOT NULL DEFAULT 0,
        result     TEXT,
        error      TEXT,
        created    REAL NOT NULL,
        updated    REAL NOT NULL
    )
    """

    def __init__(self, path, retry=None, clock=time.time, lock=None,
                 lease_seconds=DEFAULT_LEASE_SECONDS):
        self.path = str(path)
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = clock
        self.lease_seconds = float(lease_seconds)
        self._lock = lock if lock is not None else threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            self._conn = sqlite3.connect(self.path, timeout=30.0,
                                         check_same_thread=False)
            self._conn.execute(self._SCHEMA)
            self._conn.commit()
        except sqlite3.Error as error:
            raise QueueError("cannot open journal {}: {}".format(
                self.path, error))

    def close(self):
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def _write(self, sql, parameters=()):
        with self._lock:
            try:
                with self._conn:      # one implicit transaction
                    return self._conn.execute(sql, parameters)
            except sqlite3.Error as error:
                raise QueueError("journal write failed: {}".format(
                    error))

    def _query(self, sql, parameters=()):
        with self._lock:
            try:
                return self._conn.execute(sql, parameters).fetchall()
            except sqlite3.Error as error:
                raise QueueError("journal read failed: {}".format(
                    error))

    # -- enqueue / resume ------------------------------------------------

    def enqueue(self, specs):
        """Idempotently add ``specs`` as jobs; returns how many were new.

        Jobs are keyed by a content hash of the full spec, so
        re-enqueueing the same sweep is a no-op and a resumed run
        never duplicates work.  A spec whose *name* collides with a
        differently-configured job already journaled is rejected —
        two jobs must not race for one output file.
        """
        from .store import job_key, spec_key, spec_to_json
        now = self.clock()
        added = 0
        for spec in specs:
            key = job_key(spec)
            existing = self._query(
                "SELECT key FROM jobs WHERE name = ?", (spec.name,))
            if existing and existing[0][0] != key:
                raise QueueError(
                    "spec {!r} conflicts with a differently-configured "
                    "job already in the journal (key {} vs {})".format(
                        spec.name, key[:12], existing[0][0][:12]))
            cursor = self._write(
                "INSERT OR IGNORE INTO jobs "
                "(key, name, spec, store_key, created, updated) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (key, spec.name, spec_to_json(spec), spec_key(spec),
                 now, now))
            added += cursor.rowcount
        return added

    def load_specs(self):
        """Every journaled spec, in enqueue order — a resume needs
        nothing but the journal."""
        rows = self._query(
            "SELECT spec FROM jobs ORDER BY rowid")
        from .store import spec_from_json
        return [spec_from_json(row[0]) for row in rows]

    # -- worker protocol -------------------------------------------------

    def claim(self, owner, now=None):
        """Atomically lease one runnable job to ``owner``.

        Runnable: ``pending`` or ``failed`` with its backoff expired.
        Returns a :class:`Job` or ``None`` when nothing is currently
        claimable.  Claiming counts as starting an attempt.
        """
        now = self.clock() if now is None else now
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                row = self._conn.execute(
                    "SELECT key, name, spec, attempts FROM jobs "
                    "WHERE state IN ('pending', 'failed') "
                    "AND not_before <= ? ORDER BY rowid LIMIT 1",
                    (now,)).fetchone()
                if row is None:
                    self._conn.execute("ROLLBACK")
                    return None
                key, name, spec_json, attempts = row
                self._conn.execute(
                    "UPDATE jobs SET state = 'leased', owner = ?, "
                    "heartbeat = ?, attempts = attempts + 1, "
                    "updated = ? WHERE key = ?",
                    (owner, now, now, key))
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.Error:
                    pass
                raise QueueError("claim failed: {}".format(error))
        return Job(key=key, name=name, spec_json=spec_json,
                   attempts=attempts + 1)

    def heartbeat(self, key, owner, now=None):
        """Renew the lease of a running job (worker liveness signal)."""
        now = self.clock() if now is None else now
        self._write(
            "UPDATE jobs SET heartbeat = ?, updated = ? "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (now, now, key, owner))

    def complete(self, key, owner, result, simulated=False, now=None):
        """Mark a leased job done; ``simulated`` bumps the execution
        counter (a content-store hit completes without simulating)."""
        now = self.clock() if now is None else now
        cursor = self._write(
            "UPDATE jobs SET state = 'done', result = ?, error = NULL, "
            "executions = executions + ?, updated = ? "
            "WHERE key = ? AND owner = ? AND state = 'leased'",
            (str(result), 1 if simulated else 0, now, key, owner))
        if cursor.rowcount == 0:
            raise QueueError(
                "job {} is not leased by {} (lost lease?)".format(
                    key[:12], owner))

    def fail(self, key, owner, error, simulated=True, now=None):
        """Record a failed attempt: schedule the backoff retry, or
        quarantine the job with its traceback when attempts are
        exhausted.  Returns the new state."""
        now = self.clock() if now is None else now
        rows = self._query(
            "SELECT attempts FROM jobs WHERE key = ? AND owner = ? "
            "AND state = 'leased'", (key, owner))
        if not rows:
            raise QueueError(
                "job {} is not leased by {} (lost lease?)".format(
                    key[:12], owner))
        (attempts,) = rows[0]
        return self._fail_locked(key, attempts, str(error),
                                 simulated=simulated, now=now)

    def _fail_locked(self, key, attempts, error, simulated, now):
        if attempts >= self.retry.max_attempts:
            state, not_before = "quarantined", 0.0
        else:
            state = "failed"
            not_before = now + self.retry.backoff(key, attempts)
        self._write(
            "UPDATE jobs SET state = ?, not_before = ?, error = ?, "
            "owner = NULL, heartbeat = NULL, "
            "executions = executions + ?, updated = ? WHERE key = ?",
            (state, not_before, error, 1 if simulated else 0, now, key))
        if state == "quarantined":
            self.export_debug()
        return state

    def requeue(self, key, reason=None, now=None):
        """Force a job (any state) back to ``pending`` — used when a
        done job's artifact turns out corrupt and must regenerate."""
        now = self.clock() if now is None else now
        self._write(
            "UPDATE jobs SET state = 'pending', not_before = 0, "
            "owner = NULL, heartbeat = NULL, result = NULL, "
            "error = ?, updated = ? WHERE key = ?",
            (reason, now, key))

    def reclaim_stale(self, now=None, owners=None):
        """Return expired or orphaned leases to the runnable pool.

        A lease is stale when its heartbeat is older than the lease
        window, when its owner is a provably-dead local process, or
        when its owner is in ``owners`` (a monitor that watched the
        worker die passes it explicitly).  Each reclaim counts as a
        failed attempt — exhausted jobs land in quarantine.  Returns
        the number of reclaimed leases.
        """
        now = self.clock() if now is None else now
        rows = self._query(
            "SELECT key, attempts, owner, heartbeat FROM jobs "
            "WHERE state = 'leased'")
        reclaimed = 0
        for key, attempts, owner, heartbeat in rows:
            expired = (heartbeat is None
                       or heartbeat + self.lease_seconds <= now)
            orphaned = (owners is not None and owner in owners) \
                or _owner_is_dead(owner)
            if not (expired or orphaned):
                continue
            reason = ("worker {} died mid-job".format(owner)
                      if orphaned else
                      "lease expired (no heartbeat from {} for {:.0f}s)"
                      .format(owner, now - (heartbeat or 0)))
            # Not ``simulated``: the dead worker's execution never
            # reached complete/fail, so it is not in the counter — and
            # a reclaim must not inflate the resumed run's tally.
            self._fail_locked(key, attempts, reason, simulated=False,
                              now=now)
            reclaimed += 1
        return reclaimed

    # -- inspection ------------------------------------------------------

    def counts(self):
        """``{state: number of jobs}`` with every state present."""
        rows = self._query(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state")
        counts = {state: 0 for state in _STATES}
        counts.update({state: int(count) for state, count in rows})
        return counts

    def snapshot(self):
        """Every job's journal row, in enqueue order (for status
        displays and tests)."""
        rows = self._query(
            "SELECT key, name, state, attempts, executions, owner, "
            "not_before, result, error, spec, store_key "
            "FROM jobs ORDER BY rowid")
        return [JobRecord(key=key, name=name, state=state,
                          attempts=attempts, executions=executions,
                          owner=owner, not_before=not_before,
                          result=result, error=error,
                          spec_json=spec, store_key=store_key)
                for (key, name, state, attempts, executions, owner,
                     not_before, result, error, spec, store_key)
                in rows]

    def record(self, key):
        """One job's :class:`JobRecord` (None when absent)."""
        for entry in self.snapshot():
            if entry.key == key:
                return entry
        return None

    def quarantined(self):
        """The quarantined jobs with their captured tracebacks."""
        return [entry for entry in self.snapshot()
                if entry.state == "quarantined"]

    def runnable_in(self, now=None):
        """Seconds until a job becomes claimable: ``0.0`` when one is
        runnable now, a positive delay when every runnable job is
        backing off or leased, ``None`` when nothing can ever become
        runnable (all done/quarantined) — the worker-loop exit signal.
        """
        now = self.clock() if now is None else now
        rows = self._query(
            "SELECT state, not_before, heartbeat FROM jobs "
            "WHERE state IN ('pending', 'failed', 'leased')")
        delay = None
        for state, not_before, heartbeat in rows:
            if state in ("pending", "failed"):
                wait = max(0.0, float(not_before or 0) - now)
            else:
                wait = max(0.0, float(heartbeat or 0)
                           + self.lease_seconds - now)
            delay = wait if delay is None else min(delay, wait)
            if delay == 0.0:
                return 0.0
        return delay

    # -- debugging -------------------------------------------------------

    def export_debug(self, directory=None):
        """Mirror the journal and quarantine records for post-mortem.

        ``directory`` defaults to ``$REPRO_ENGINE_DEBUG_DIR`` (no-op
        when unset).  Writes a copy of the journal file, a JSON
        snapshot, and one traceback file per quarantined job — the
        artifact CI uploads when the test job fails.
        """
        directory = directory or os.environ.get(DEBUG_DIR_ENV)
        if not directory:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            stem = hashlib.sha256(
                os.path.abspath(self.path).encode()).hexdigest()[:12]
            shutil.copyfile(self.path, os.path.join(
                directory, "journal-{}.sqlite".format(stem)))
            snapshot = [record.__dict__ for record in self.snapshot()]
            with open(os.path.join(
                    directory, "journal-{}.json".format(stem)),
                    "w") as stream:
                json.dump(snapshot, stream, indent=2, sort_keys=True)
            quarantine_dir = os.path.join(directory, "quarantine")
            for entry in self.quarantined():
                os.makedirs(quarantine_dir, exist_ok=True)
                with open(os.path.join(
                        quarantine_dir,
                        "{}-{}.txt".format(entry.name, entry.key[:12])),
                        "w") as stream:
                    stream.write(entry.error or "(no traceback)")
        except OSError:
            return None           # debugging must never break the run
        return directory


@dataclass(frozen=True)
class JobRecord:
    """One row of the journal, as reported by
    :meth:`JobQueue.snapshot`."""

    key: str
    name: str
    state: str
    attempts: int
    executions: int
    owner: Optional[str] = None
    not_before: float = 0.0
    result: Optional[str] = None
    error: Optional[str] = None
    spec_json: Optional[str] = None
    store_key: Optional[str] = None


def queue_status(directory):
    """Machine-readable status of a suite directory's journal.

    Returns ``{"journal", "counts", "jobs"}``: the journal path,
    per-state job counts (every state present), and one dict per job
    (``name``/``state``/``attempts``/``executions`` plus ``error`` —
    the last line of the failure traceback, or ``None``).  This is the
    payload behind both the ``queue-status`` CLI report and the
    service's ``sweep-status`` endpoint.  Raises :class:`QueueError`
    when the directory has no journal.
    """
    path = journal_path(directory)
    if not os.path.exists(path):
        raise QueueError("{}: no journal (not a suite directory, or "
                         "the sweep never started)".format(path))
    queue = JobQueue(path)
    try:
        jobs = []
        for entry in queue.snapshot():
            error = None
            if entry.state in ("failed", "quarantined") and entry.error:
                error = entry.error.strip().splitlines()[-1]
            jobs.append({"name": entry.name, "state": entry.state,
                         "attempts": int(entry.attempts),
                         "executions": int(entry.executions),
                         "error": error})
        return {"journal": path, "counts": queue.counts(),
                "jobs": jobs}
    finally:
        queue.close()


def describe_queue(directory):
    """Human-readable status of a suite directory's journal.

    Returns the report string (the ``queue-status`` CLI body) —
    :func:`queue_status` formatted for a terminal.  Raises
    :class:`QueueError` when the directory has no journal.
    """
    status = queue_status(directory)
    counts = status["counts"]
    lines = ["journal: {}".format(status["journal"]),
             "jobs: " + "  ".join(
                 "{} {}".format(counts[state], state)
                 for state in _STATES)]
    for job in status["jobs"]:
        lines.append(
            "  {:24s} {:12s} attempts={} executions={}{}".format(
                job["name"], job["state"], job["attempts"],
                job["executions"],
                "  [{}]".format(job["error"]) if job["error"] else ""))
    return "\n".join(lines)
