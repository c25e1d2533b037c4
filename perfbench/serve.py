"""The benchmark's server child process.

``python3 perfbench/serve.py --pool-capacity N [--spans FILE]`` binds
``repro.service.create_server`` on an ephemeral port, prints its URL
as the first line of standard output and serves until standard input
reaches end of file — the parent closing the pipe, or dying, both stop
the child, so a crashed run cannot orphan a server.  With ``--spans``
the layer entry points are wrapped (:mod:`perfbench.tracing`) before
the first request and the recorded spans are written to ``FILE`` on
shutdown.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    """Serve until standard input closes; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool-capacity", type=int, default=8)
    parser.add_argument("--spans", default=None)
    options = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.service import create_server

    recorder = None
    if options.spans:
        from perfbench import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)

    server = create_server(pool_capacity=options.pool_capacity)
    thread = threading.Thread(target=server.serve_forever,
                              name="trace-service", daemon=True)
    thread.start()
    print(server.url, flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        if recorder is not None:
            recorder.save(options.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
