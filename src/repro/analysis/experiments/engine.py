"""Crash-resilient drive loop of the experiment suite.

This is the engine behind :func:`repro.analysis.experiments.run_suite`:
specs become jobs in the durable journal (:mod:`.queue`), artifacts
live in the content-addressed store (:mod:`.store`), and a pool of
worker *processes* drains the journal with the lease/retry/quarantine
protocol.  The parts that make it survive a SIGKILL at any instant:

* The journal, not the Python call stack, holds the sweep's progress.
  Re-running the same sweep over the same directory enqueues nothing
  new, reclaims leases orphaned by the dead run, and only simulates
  the points that never completed — completed points are *never*
  re-simulated (the crash-kill-resume benchmark asserts exactly this).
* Every artifact is published to the store atomically, so the resumed
  run finds either a complete verified trace or nothing.
* On resume, every ``done`` job's artifact is CRC-verified
  (:func:`repro.trace_format.verify_trace`); a corrupt artifact is
  quarantined aside and its job requeued, so bit-rot regenerates
  instead of propagating into analyses.
* A worker that dies or hangs forfeits its lease; a spec that keeps
  failing retries with exponential backoff and then lands in
  quarantine with its captured traceback — one bad spec costs one
  journal row, not the sweep.

Workers claim jobs from the shared journal rather than being handed a
pre-sharded list, so a slow simulation does not idle the other
workers.  Platforms that cannot spawn processes (and ``workers=1``)
degrade to an identical inline loop, like every pool in this repo.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...trace_format import read_trace, verify_trace
from ..parallel import resolve_workers
from .queue import (DEFAULT_LEASE_SECONDS, JobQueue, JobRecord,
                    QueueError, journal_path)
from .store import TraceStore, job_key, spec_key

#: Store directory inside a suite directory.
STORE_DIRNAME = "store"

#: Test seam: seconds each job sleeps before executing, so crash tests
#: can SIGKILL a sweep with deterministic partial progress.
TEST_JOB_DELAY_ENV = "REPRO_ENGINE_TEST_JOB_DELAY"


@dataclass
class EngineReport:
    """What one :func:`run_suite_engine` call did to the journal.

    ``paths`` follows the spec order; an entry is ``None`` when its
    job did not finish (quarantined, or the run stopped early via
    ``max_jobs``).  ``resimulated`` counts executions this run spent
    on points that were already *validly* complete when it started —
    the crash-resume property is ``resimulated == 0``.
    """

    paths: List[Optional[str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    done_before: int = 0
    simulated: int = 0
    resimulated: int = 0
    store_hits: int = 0
    reclaimed: int = 0
    requeued: int = 0
    quarantined: List[JobRecord] = field(default_factory=list)

    def describe(self):
        """One status line (the CLI sweep summary)."""
        return ("{} done ({} resumed, {} store hit(s), {} simulated), "
                "{} quarantined".format(
                    self.counts.get("done", 0), self.done_before,
                    self.store_hits, self.simulated,
                    len(self.quarantined)))


def suite_store(directory):
    """The suite directory's content-addressed :class:`TraceStore`."""
    return TraceStore(os.path.join(str(directory), STORE_DIRNAME))


def _worker_owner(index):
    return "{}:{}:{}".format(socket.gethostname(), os.getpid(), index)


def _ensure_sidecar(path):
    """Write the ``.ostc`` mapped-cache sidecar through (idempotent)."""
    read_trace(path, cache=True)


def _execute_job(queue, store, directory, job, owner):
    """Run one claimed job to ``done``/``failed``/``quarantined``.

    Store hit: verify and materialize the existing artifact (no
    simulation).  Miss: simulate into a temp file, publish atomically,
    then materialize.  A heartbeat thread keeps the lease warm for the
    whole execution, however slow the simulation.  Exceptions are
    captured into the journal, never propagated — the loop goes on to
    the next job.
    """
    stop = threading.Event()

    def beat():
        interval = max(0.05, queue.lease_seconds / 4.0)
        while not stop.wait(interval):
            try:
                queue.heartbeat(job.key, owner)
            except QueueError:
                return

    heartbeat = threading.Thread(target=beat, daemon=True)
    heartbeat.start()
    try:
        delay = float(os.environ.get(TEST_JOB_DELAY_ENV, "0") or 0)
        if delay > 0:
            time.sleep(delay)
        spec = job.spec
        key = spec_key(spec)
        final = os.path.join(directory, spec.trace_filename())
        simulated = False
        if store.contains(key):
            verification = store.verify(key)
            if not verification.ok:
                store.quarantine_artifact(
                    key, reason=verification.reason or "CRC mismatch")
        if not store.contains(key):
            from .suite import generate_trace
            temp = os.path.join(directory, ".{}.work".format(
                spec.trace_filename()))
            try:
                generate_trace(spec, temp)
                store.publish(key, temp)
            finally:
                if os.path.exists(temp):
                    os.unlink(temp)
            simulated = True
        store.materialize(key, final)
        _ensure_sidecar(final)
        queue.complete(job.key, owner, final, simulated=simulated)
        return final
    except Exception:
        try:
            queue.fail(job.key, owner, traceback.format_exc())
        except QueueError:
            pass        # lease was reclaimed under us; its loss, not ours
        return None
    finally:
        stop.set()
        heartbeat.join(timeout=5.0)


def _worker_loop(queue, store, directory, owner, max_jobs=None):
    """Claim-execute until the journal has nothing left to run.

    The loop also waits out other workers' leases and backoff windows
    (a failed job may become runnable again), and opportunistically
    reclaims stale leases it notices.  ``max_jobs`` caps how many jobs
    this loop executes — the crash-window test seam.
    """
    executed = 0
    while max_jobs is None or executed < max_jobs:
        job = queue.claim(owner)
        if job is None:
            delay = queue.runnable_in()
            if delay is None:
                break
            if delay > 0:
                queue.reclaim_stale()
            time.sleep(min(max(delay, 0.01), 0.25))
            continue
        executed += 1
        _execute_job(queue, store, directory, job, owner)
    return executed


def _worker_main(journal, store_root, directory, retry, lease_seconds,
                 index, lock):
    """Worker-process entry point: fresh connection, own owner id."""
    queue = JobQueue(journal, retry=retry, lease_seconds=lease_seconds,
                     lock=lock)
    store = TraceStore(store_root)
    try:
        _worker_loop(queue, store, directory, _worker_owner(index))
    finally:
        queue.close()


def _verify_done_jobs(queue, store, directory):
    """CRC-audit every done job's artifact on resume.

    A missing suite file is re-materialized from the store; a corrupt
    one (or a corrupt store artifact behind it) is quarantined aside
    and the job requeued for regeneration.  Returns the number of
    requeued jobs.
    """
    requeued = 0
    for record in queue.snapshot():
        if record.state != "done":
            continue
        spec = record_spec(record)
        key = spec_key(spec)
        final = os.path.join(directory, spec.trace_filename())
        reason = None
        if os.path.exists(final):
            verification = verify_trace(final)
            if not verification.ok:
                reason = verification.reason or "CRC mismatch"
                os.unlink(final)
        if not os.path.exists(final):
            stored = store.verify(key)
            if stored.ok:
                store.materialize(key, final)
                _ensure_sidecar(final)
            else:
                store.quarantine_artifact(
                    key, reason=stored.reason or reason or "CRC mismatch")
                queue.requeue(record.key, reason=reason or stored.reason)
                requeued += 1
    return requeued


def record_spec(record):
    """The :class:`ExperimentSpec` journaled in a job record."""
    from .store import spec_from_json
    return spec_from_json(record.spec_json)


def _drain(queue, store, directory, workers, retry, lease_seconds,
           max_jobs):
    """Run worker processes (or the inline loop) until the journal has
    no runnable jobs left."""
    runnable = queue.counts()
    jobs = runnable["pending"] + runnable["failed"] + runnable["leased"]
    if jobs == 0:
        return
    workers = resolve_workers(workers, jobs)
    if workers == 1 or max_jobs is not None:
        _worker_loop(queue, store, directory, _worker_owner(0),
                     max_jobs=max_jobs)
        return
    try:
        context = multiprocessing.get_context()
        lock = context.Lock()
        processes = [
            context.Process(
                target=_worker_main,
                args=(queue.path, store.root, directory, queue.retry,
                      lease_seconds, index, lock),
                daemon=True)
            for index in range(workers)]
        for process in processes:
            process.start()
    except (OSError, ImportError, PermissionError):
        # Platforms without working process support still get correct
        # results from the identical inline loop.
        _worker_loop(queue, store, directory, _worker_owner(0))
        return
    try:
        while any(process.is_alive() for process in processes):
            for process in processes:
                process.join(timeout=0.2)
            queue.reclaim_stale()
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
    # Anything a dying worker left leased goes back to runnable; a
    # fresh inline pass picks up stragglers so the drain is complete.
    if queue.reclaim_stale() or (queue.runnable_in() == 0.0):
        _worker_loop(queue, store, directory, _worker_owner(0))


def run_suite_engine(specs, directory, workers=None, retry=None,
                     lease_seconds=DEFAULT_LEASE_SECONDS,
                     max_jobs=None):
    """Enqueue ``specs`` into the suite directory's journal and drain it.

    Idempotent and resumable: completed points are verified, not
    re-simulated.  Returns an :class:`EngineReport`; strictness (raise
    on quarantined specs) is the caller's policy
    (:func:`repro.analysis.experiments.run_suite` applies it).
    """
    specs = list(specs)
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    store = suite_store(directory)
    queue = JobQueue(journal_path(directory), retry=retry,
                     lease_seconds=lease_seconds)
    try:
        queue.enqueue(specs)
        report = EngineReport()
        report.reclaimed = queue.reclaim_stale()
        report.requeued = _verify_done_jobs(queue, store, directory)
        before = {record.key: record for record in queue.snapshot()}
        done_keys = {key for key, record in before.items()
                     if record.state == "done"}
        report.done_before = len(done_keys)
        _drain(queue, store, directory, workers, queue.retry,
               lease_seconds, max_jobs)
        report.reclaimed += queue.reclaim_stale()
        after = {record.key: record for record in queue.snapshot()}
        for key, record in after.items():
            prior = before.get(key)
            executed = record.executions - (prior.executions
                                            if prior else 0)
            report.simulated += max(0, executed)
            if key in done_keys:
                report.resimulated += max(0, executed)
            elif record.state == "done" and executed == 0:
                report.store_hits += 1
        report.counts = queue.counts()
        report.quarantined = queue.quarantined()
        if report.quarantined:
            queue.export_debug()
        for spec in specs:
            record = after.get(job_key(spec))
            if record is not None and record.state == "done":
                report.paths.append(
                    os.path.join(directory, spec.trace_filename()))
            else:
                report.paths.append(None)
        return report
    finally:
        queue.close()


def resume_suite_engine(directory, workers=None, retry=None,
                        lease_seconds=DEFAULT_LEASE_SECONDS,
                        max_jobs=None):
    """Resume a sweep from its journal alone (no spec list needed).

    Raises :class:`QueueError` when the directory has no journal.
    """
    path = journal_path(directory)
    if not os.path.exists(path):
        raise QueueError(
            "{}: no journal to resume (the sweep never started)".format(
                path))
    queue = JobQueue(path)
    try:
        specs = queue.load_specs()
    finally:
        queue.close()
    return run_suite_engine(specs, directory, workers=workers,
                            retry=retry, lease_seconds=lease_seconds,
                            max_jobs=max_jobs)
