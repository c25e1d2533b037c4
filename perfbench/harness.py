"""Run-time plumbing shared by the workloads: the client-side sample
log, the server child and peak-memory readings."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pass index of the untimed warm-up pass.
WARMUP = -1


@dataclass
class Sample:
    """One client-side operation: what was asked, when, and whether
    the reply was right."""

    kind: str
    start: float
    end: float
    client: int
    pass_index: int
    rid: int
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self):
        """Wall time of the operation in milliseconds."""
        return (self.end - self.start) * 1e3


class Log:
    """Every operation of one measured server (or batch) lifetime.

    ``call`` times one operation as its caller sees it and files a
    :class:`Sample`; a ``ServiceError`` reply is counted as failed and
    returned as ``None`` (the workloads are chosen so none occurs).
    ``wrong`` marks a reply the oracle rejected.  Appends are atomic,
    so client threads share one log.
    """

    def __init__(self, recorder=None):
        self.samples = []
        self.problems = []
        self.unattributed = 0       # wrong outputs tied to no sample
        self.recorder = recorder
        self._rids = itertools.count(1)

    def call(self, kind, function, client=0, pass_index=WARMUP,
             **attrs):
        """Run ``function(rid)``, timed; returns ``(result, sample)``."""
        from repro.service import ServiceError
        rid = next(self._rids)
        if self.recorder is not None:
            self.recorder.set_rid(rid)
        sample = Sample(kind, 0.0, 0.0, client, pass_index, rid,
                        attrs=attrs)
        clock = time.perf_counter
        try:
            sample.start = clock()
            result = function(rid)
            sample.end = clock()
        except ServiceError as error:
            sample.end = clock()
            result = None
            sample.ok = False
            self.problems.append("{} #{}: {}: {}".format(
                kind, rid, error.code, error))
        self.samples.append(sample)
        return result, sample

    def wrong(self, sample_or_kind, message):
        """Count one incorrect output."""
        if isinstance(sample_or_kind, Sample):
            sample_or_kind.ok = False
            sample_or_kind = sample_or_kind.kind
        else:
            self.unattributed += 1
        self.problems.append("{}: {}".format(sample_or_kind, message))

    def measured(self, *kinds):
        """Samples of the timed passes, optionally of given kinds."""
        return [sample for sample in self.samples
                if sample.pass_index != WARMUP
                and (not kinds or sample.kind in kinds)]


def peak_rss_mb(pid="self"):
    """``VmHWM`` of a process in MiB (0.0 where ``/proc`` lacks it)."""
    try:
        with open("/proc/{}/status".format(pid)) as handle:
            match = re.search(r"VmHWM:\s+(\d+)", handle.read())
    except OSError:
        return 0.0
    return int(match.group(1)) / 1024.0 if match else 0.0


def reset_peak_rss():
    """Restart this process's ``VmHWM`` so set-up's peak does not
    mask the measured phase's (best effort: needs Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


class ServerChild:
    """``perfbench/serve.py`` as a child process (context manager).

    Leaving the block closes the child's standard input — its stop
    signal — waits for it, and kills it if it does not go; ``spans``
    then holds what a traced child recorded and ``peak_rss_mb`` its
    high-water mark read just before the stop.
    """

    def __init__(self, pool_capacity, spans_path=None):
        self.command = [sys.executable,
                        os.path.join(HERE, "serve.py"),
                        "--pool-capacity", str(pool_capacity)]
        self.spans_path = spans_path
        if spans_path:
            self.command += ["--spans", spans_path]
        self.spans = []
        self.peak_rss_mb = 0.0

    def __enter__(self):
        self.process = subprocess.Popen(
            self.command, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.url = self.process.stdout.readline().strip()
        if not self.url.startswith("http://"):
            self._stop()
            raise RuntimeError("server child did not start "
                               "(exit code {})".format(
                                   self.process.returncode))
        return self

    def _stop(self):
        self.peak_rss_mb = peak_rss_mb(self.process.pid)
        self.process.stdin.close()
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __exit__(self, *exc):
        self._stop()
        if self.spans_path and os.path.exists(self.spans_path):
            with open(self.spans_path) as handle:
                self.spans = json.load(handle)
        return False
