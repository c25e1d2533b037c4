"""The correctness oracle: served replies against in-process answers.

A seeded sample of the frames and ``stats`` replies an analyst
received is recomputed here on a private ``AnalysisSession`` of the
same file, moved to the same view: PNG bytes and ASCII rows must be
identical, and ``stats`` must equal ``interval_report`` on the
window.  Any difference marks the sample wrong, which counts into
``failed`` and makes the run exit non-zero.
"""

from __future__ import annotations

import base64


def check_replies(kept, log):
    """Recompute every kept reply and mark the ones that differ."""
    from repro.core import WorkerState, interval_report
    from repro.session import AnalysisSession

    sessions = {}

    def session_of(path, **geometry):
        key = (path, tuple(sorted(geometry.items())))
        if key not in sessions:
            sessions[key] = AnalysisSession.open(path, **geometry)
        return sessions[key]

    for record in kept:
        if record["what"] == "frame":
            start, end, width, height = record["view"]
            session = session_of(record["path"], width=width,
                                 height=height)
            session.goto(start, end)
            framebuffer = session.render_frame(record["mode"])
            if record["encoding"] == "png":
                same = (base64.b64decode(record["payload"])
                        == framebuffer.png_bytes())
            else:
                same = record["payload"] == framebuffer.to_ascii()
            if not same or (record["draw_calls"]
                            != framebuffer.draw_calls):
                log.wrong(record["sample"],
                          "{} {} frame of [{}, {}) differs from the "
                          "in-process render".format(
                              record["mode"], record["encoding"],
                              start, end))
        else:
            start, end = record["window"]
            report = interval_report(session_of(record["path"]).trace,
                                     start, end)
            reply = record["reply"]
            cycles = {WorkerState(state).name.lower(): int(total)
                      for state, total in report.state_cycles.items()}
            if (reply["tasks"] != report.tasks
                    or reply["state_cycles"] != cycles
                    or reply["average_parallelism"] != round(
                        float(report.average_parallelism), 6)
                    or reply["locality"] != round(
                        float(report.locality), 6)):
                log.wrong(record["sample"],
                          "stats of [{}, {}) differ from "
                          "interval_report".format(start, end))
