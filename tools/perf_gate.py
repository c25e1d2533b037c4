#!/usr/bin/env python3
"""CI perf gate: fail the build when a tracked metric regresses.

``BENCH_HISTORY.json`` (see ``tools/bench_json.py``) carries the
machine-readable perf trajectory, one section per PR generation.  This
tool turns it from a passive artifact into an enforced floor: every
tracked metric in a freshly produced history (by default the one the
benchmarks write, ``benchmarks/results/BENCH_HISTORY.json``) must

1. hold its **asserted bound** — at or above the floor for
   higher-is-better metrics, at or below the ceiling for latency
   metrics (the same bound the bench itself asserts at default scale
   — the hard line), and
2. with ``--slack`` above zero, not collapse versus the **committed
   baseline** — the checked-in ``BENCH_HISTORY.json`` of the branch
   point.  The default slack is 0.0 (report the baseline next to each
   metric, never fail on it): the committed numbers come from a
   different machine class than the runner, so only an explicit slack
   turns the comparison into a gate.

Entries recorded at the ``small`` scale are skipped with a notice:
constant overheads dominate there and the benches themselves skip
their assertions.  A tracked metric missing from the fresh history is
an error — a silently vanished benchmark must not pass the gate.
Metrics marked ``always`` opt out of every bypass: they are enforced
at any scale and ignore ``gate: skip`` markers, so a scale-independent
single-core floor (like the ingest throughput) cannot silently vanish
on a 1-CPU runner.

Usage:

    python tools/perf_gate.py [--history path/to/fresh.json]
                              [--baseline path/to/committed.json]
                              [--slack 0.5]

Exit status 0 when every tracked metric holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_HISTORY = ROOT / "benchmarks" / "results" / "BENCH_HISTORY.json"


@dataclass(frozen=True)
class TrackedMetric:
    """One enforced entry of the perf history.

    By default higher is better and ``bound`` is a floor; with
    ``ceiling=True`` lower is better (latency metrics) and ``bound``
    is an upper limit.  ``always=True`` removes every bypass: the
    metric is enforced even when its entry was recorded at the
    ``small`` scale or carries ``gate: skip`` — for scale-independent
    bounds that must hold on any runner, including 1-CPU CI machines.
    """

    section: str
    bench: str
    metric: str
    bound: float
    always: bool = False
    ceiling: bool = False

    @property
    def key(self):
        """The dotted name used in reports."""
        return "{}/{}/{}".format(self.section, self.bench, self.metric)


#: Every metric the gate enforces, with the bound its bench asserts.
TRACKED = (
    TrackedMetric("pr4", "cache_reopen", "reopen_speedup", 5.0),
    TrackedMetric("pr4", "frame_loop", "frame_speedup", 10.0),
    TrackedMetric("pr5", "sweep_scaling", "pool_speedup", 3.0),
    TrackedMetric("pr6", "ingest_throughput", "events_per_sec",
                  10_000.0, always=True),
    # ISSUE 8: interactivity ceilings of the persisted pyramids.  The
    # first frame after a reopen is default-scale gated (it includes
    # the mapped open); a deep-zoom frame is O(width) by construction,
    # so its ceiling is scale-independent and always enforced.
    TrackedMetric("pr8", "first_frame_reopen", "first_frame_reopen_ms",
                  1.0, ceiling=True),
    TrackedMetric("pr8", "deep_zoom_frame", "deep_zoom_frame_ms",
                  1.0, always=True, ceiling=True),
    # ISSUE 9: the durable engine wraps every sweep point in journal,
    # lease and CRC machinery; the per-trace analysis path must stay
    # fast regardless.  Fixed corpus, single core: scale-independent,
    # so the floor is enforced on any runner.
    TrackedMetric("pr9", "analyze_throughput", "events_per_sec",
                  50_000.0, always=True),
)


def _entry(history, tracked):
    """The payload dict of one tracked benchmark (None when absent)."""
    return history.get(tracked.section, {}).get(tracked.bench)


def check_history(history, baseline=None, slack=0.0):
    """Evaluate every tracked metric; returns (failures, lines).

    ``failures`` is a list of human-readable failure strings (empty
    when the gate passes); ``lines`` is the full per-metric report.
    ``baseline``, when given, is the committed history to diff
    against: with ``slack > 0``, a fresh value below
    ``baseline * slack`` fails even when it still clears the floor
    (at the default 0.0 the baseline is reported, never enforced —
    cross-machine speedups are not directly comparable).
    """
    failures = []
    lines = []
    for tracked in TRACKED:
        entry = _entry(history, tracked)
        if entry is None:
            failures.append("{}: missing from history (benchmark did "
                            "not run?)".format(tracked.key))
            continue
        if not tracked.always and entry.get("scale") == "small":
            lines.append("{}: skipped (recorded at small scale)"
                         .format(tracked.key))
            continue
        if not tracked.always and entry.get("gate") == "skip":
            lines.append("{}: skipped ({})".format(
                tracked.key, entry.get("gate_reason", "bench opted "
                                       "out")))
            continue
        value = entry.get(tracked.metric)
        if value is None:
            failures.append("{}: metric missing from payload"
                            .format(tracked.key))
            continue
        value = float(value)
        bound_kind = "ceiling" if tracked.ceiling else "floor"
        status = "{}: {:.2f} ({} {:.2f}".format(
            tracked.key, value, bound_kind, tracked.bound)
        if tracked.ceiling:
            if value > tracked.bound:
                failures.append(
                    "{}: {:.2f} is above the ceiling {:.2f}"
                    .format(tracked.key, value, tracked.bound))
        elif value < tracked.bound:
            failures.append("{}: {:.2f} is below the floor {:.2f}"
                            .format(tracked.key, value, tracked.bound))
        if baseline is not None:
            reference = _entry(baseline, tracked)
            # Baselines recorded at small scale or explicitly opted
            # out are not comparable to a default-scale fresh run —
            # the floor stays the only check then.  Always-enforced
            # metrics are scale-independent by contract, so their
            # baselines stay comparable.
            if not tracked.always and reference is not None and (
                    reference.get("scale") == "small"
                    or reference.get("gate") == "skip"):
                reference = None
            reference_value = (reference or {}).get(tracked.metric)
            if reference_value is not None:
                reference_value = float(reference_value)
                status += ", baseline {:.2f}".format(reference_value)
                if tracked.ceiling:
                    # Lower is better: allow the latency to grow to
                    # baseline / slack before calling it a collapse.
                    allowed = (reference_value / slack if slack > 0
                               else float("inf"))
                    if slack > 0 and value > allowed:
                        failures.append(
                            "{}: {:.2f} regressed above {:.2f} "
                            "(baseline {:.2f} / {}% slack)"
                            .format(tracked.key, value, allowed,
                                    reference_value, int(slack * 100)))
                else:
                    allowed = reference_value * slack
                    if slack > 0 and value < allowed:
                        failures.append(
                            "{}: {:.2f} regressed below {:.2f} "
                            "({}% of the committed baseline {:.2f})"
                            .format(tracked.key, value, allowed,
                                    int(slack * 100), reference_value))
        lines.append(status + ")")
    return failures, lines


def _load(path):
    """Parse one history file, with a clear error on failure."""
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as error:
        raise SystemExit("perf-gate: cannot read {}: {}".format(path,
                                                                error))


def main(argv=None):
    """Command-line entry point; returns the exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--history", default=str(DEFAULT_HISTORY),
                        help="freshly produced history to check")
    parser.add_argument("--baseline", default=None,
                        help="committed history to diff against")
    parser.add_argument("--slack", type=float, default=0.0,
                        help="fraction of the baseline value below "
                             "which a metric fails (0 = report only)")
    args = parser.parse_args(argv)
    history = _load(args.history)
    baseline = _load(args.baseline) if args.baseline else None
    failures, lines = check_history(history, baseline=baseline,
                                    slack=args.slack)
    for line in lines:
        print("perf-gate:", line)
    if failures:
        for failure in failures:
            print("perf-gate: FAIL:", failure)
        return 1
    print("perf-gate: {} tracked metric(s) ok".format(len(TRACKED)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
