#!/usr/bin/env python3
"""Dynamic reach map: which ``src/repro`` functions production runs.

A static name scan only bounds what is dead: it misses callers in the
same module and callers that go through a registry or a string.  This
tool runs the production drivers instead and records every Python
function that is actually entered:

* perfbench ``--quick`` on all four workloads;
* the example studies in ``examples/`` (``quickstart`` and the rest);
* every ``aftermath_cli`` subcommand over copies of the golden
  traces, including ``serve`` with ``--remote`` clients;
* the figure benchmarks' ``--self-test``.

Each driver runs in a child process whose ``PYTHONPATH`` starts with
a generated ``sitecustomize`` directory.  That module installs a
:func:`sys.setprofile` / :func:`threading.setprofile` hook before the
driver's own code, so every process the driver starts (subprocesses,
spawned and forked pool workers, server threads) records its calls
too.  The hook appends one line per first-seen code object under the
package root to a shared log, so no exit handler has to run.

The report lists every function defined under the package (found by
:mod:`ast`) as reached or unreached.  It is evidence, not a delete
list: salvage, corruption and failure paths are never entered by a
clean run, yet they are the safety code.

The unreached list is checked against the committed ledger
``tools/reach_baseline.txt`` (one sorted ``module:qualname`` per
line).  An unreached function the ledger lacks fails the run, so new
code needs a driver that calls it; a ledger entry that a driver now
reaches is printed, so that it can be removed and the ledger only
shrinks.

Usage::

    python tools/reach.py

It exits 1 when an unreached function is missing from the ledger, or
when a driver exits non-zero (or ``serve`` never listens): a partial
run reports functions as unreached that a full run reaches, so such a
map is flagged incomplete.  Stdlib only.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CLI = ROOT / "examples" / "aftermath_cli.py"
#: The committed ledger of functions no driver reaches.
BASELINE = ROOT / "tools" / "reach_baseline.txt"

#: The hook every driver process imports at start-up.  ``{package}``
#: and ``{log}`` are filled in by :func:`write_sitecustomize`.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_PACKAGE = {package!r}
_LOG = os.open({log!r}, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
_SEEN = set()


def _reach_hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _SEEN:
        return
    _SEEN.add(code)
    path = os.path.abspath(code.co_filename)
    if path.startswith(_PACKAGE):
        os.write(_LOG, "{{}}\\t{{}}\\n".format(
            path, code.co_firstlineno).encode())


sys.setprofile(_reach_hook)
threading.setprofile(_reach_hook)
'''


def defined_functions(package=PACKAGE):
    """``{(absolute path, first line): qualified name}`` of every
    ``def`` under ``package``.  The first line is that of the first
    decorator when there is one, as in ``co_firstlineno``."""
    package = pathlib.Path(package).resolve()
    functions = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(package.parent)
                          .with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno
                                                  for decorator
                                                  in child.decorator_list])
                    name = prefix + child.name
                    functions[(str(path), first)] = module + ":" + name
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def write_sitecustomize(directory, package, log):
    """Generate the hook module into ``directory``."""
    pathlib.Path(directory).mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(directory) / "sitecustomize.py"
    path.write_text(SITECUSTOMIZE.format(
        package=str(pathlib.Path(package).resolve()), log=str(log)))
    return path


def read_log(log):
    """The ``(path, first line)`` keys recorded in a hook log."""
    reached = set()
    if not os.path.exists(log):
        return reached
    with open(log) as stream:
        for line in stream:
            path, first = line.rstrip("\n").split("\t")
            reached.add((path, int(first)))
    return reached


def hooked_environment(hook_directory, extra_paths=()):
    """The driver environment: the hook directory first on
    ``PYTHONPATH``, then ``extra_paths``, then the caller's."""
    environment = dict(os.environ)
    paths = [str(hook_directory)] + [str(path) for path in extra_paths]
    if environment.get("PYTHONPATH"):
        paths.append(environment["PYTHONPATH"])
    environment["PYTHONPATH"] = os.pathsep.join(paths)
    return environment


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_for_port(port, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), 1.0):
                return True
        except OSError:
            time.sleep(0.2)
    return False


def driver_commands(work):
    """``{group: [(label, argv, cwd)]}`` of the production drivers.
    ``work`` is a scratch directory that receives every output."""
    python = sys.executable
    work = pathlib.Path(work)
    cli = [python, str(CLI)]
    seidel = str(work / "golden_seidel.ost")
    kmeans = str(work / "golden_kmeans.ost")
    prv = str(work / "golden_foreign.prv")
    # quickstart leaves a durable sweep suite for the journal verbs.
    suite = str(work / "quickstart" / "quickstart_suite")
    examples = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        if path.stem != "aftermath_cli":
            (work / path.stem).mkdir(exist_ok=True)
            examples.append((path.stem, [python, str(path),
                                         str(work / path.stem)], work))
    subcommands = [
        ["info", seidel], ["info", kmeans, "--cache"],
        ["report", seidel, "--cache"],
        ["render", seidel, str(work / "seidel.ppm"), "--mode",
         "heatmap"],
        ["parallelism", seidel], ["matrix", seidel],
        ["export", seidel, str(work / "tasks.csv")],
        ["dot", seidel, str(work / "graph.dot"), "--task", "0"],
        ["anomalies", seidel], ["profile", seidel],
        ["critical-path", seidel, "--show-path"], ["task", seidel, "0"],
        ["ingest", prv, str(work / "foreign.ost")],
        ["compare", seidel, kmeans, "--json",
         str(work / "compare.json")],
        ["sweep", seidel, kmeans, "--workers", "1"],
        ["sweep", suite, "--resume", "--workers", "1"],
        ["queue-status", suite]]
    return {
        "perfbench": [("perfbench --quick",
                       [python, str(ROOT / "perfbench" / "run.py"),
                        "--quick", "--out", str(work / "perfbench.json")],
                       ROOT)],
        "examples": examples,
        "cli": [("aftermath_cli " + " ".join(map(os.path.basename, args)),
                 cli + args, work) for args in subcommands],
        "benchmarks": [("benchmarks --self-test",
                        [python, "-m", "pytest", "-q", "--self-test",
                         "-p", "no:cacheprovider", "."],
                        ROOT / "benchmarks")],
    }


def _run_serve(work, environment, log_output):
    """``serve`` plus ``--remote`` clients; returns exit codes."""
    cli = [sys.executable, str(CLI)]
    port = _free_port()
    url = "http://127.0.0.1:{}".format(port)
    server = subprocess.Popen(
        cli + ["serve", "--port", str(port), "--root", str(work)],
        cwd=work, env=environment, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    codes = {}
    try:
        if not _wait_for_port(port):
            return {"aftermath_cli serve": "no listener"}
        for args in (["info"], ["report"],
                     ["render", str(work / "remote.png")]):
            label = "aftermath_cli {} --remote".format(args[0])
            codes[label] = subprocess.run(
                cli + args[:1] + ["golden_seidel.ost"] + args[1:]
                + ["--remote", url], cwd=work, env=environment,
                stdout=log_output, stderr=subprocess.STDOUT).returncode
    finally:
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    return codes


def run_drivers(commands, hook_directory, log, package=PACKAGE,
                extra_paths=(), log_output=subprocess.DEVNULL):
    """Run ``[(label, argv, cwd)]`` under the hook; returns
    ``{label: exit code}``.  Calls land in ``log``."""
    write_sitecustomize(hook_directory, package, log)
    environment = hooked_environment(hook_directory, extra_paths)
    codes = {}
    for label, argv, cwd in commands:
        codes[label] = subprocess.run(
            argv, cwd=cwd, env=environment, stdout=log_output,
            stderr=subprocess.STDOUT).returncode
    return codes


def report(functions, reached):
    """``(reached names, unreached names)``, each sorted."""
    hit = sorted(name for key, name in functions.items() if key in reached)
    missed = sorted(name for key, name in functions.items()
                    if key not in reached)
    return hit, missed


def print_report(codes, total, hit, missed):
    """Print the driver exit codes and the map; returns the exit
    status, 1 when any driver failed (the map is then incomplete)."""
    failed = [label for label, code in codes.items() if code != 0]
    for label, code in codes.items():
        print("{:>4}  {}".format(code, label))
    print("reached {} of {} functions under src/repro; {} unreached"
          .format(len(hit), total, len(missed)))
    if failed:
        print("WARNING: {} driver(s) failed ({}); the map is incomplete "
              "and lists as unreached functions a full run may reach"
              .format(len(failed), ", ".join(failed)))
    for name in missed:
        print("  unreached", name)
    return 1 if failed else 0


def read_baseline():
    """The ``module:qualname`` entries of the ledger, in file order."""
    return BASELINE.read_text().splitlines()


def check_ledger(missed, baseline):
    """Compare the unreached names with the ledger's entries.

    Prints each unreached function the ledger lacks and each entry a
    driver now reaches; returns 1 when there is an unreached function
    the ledger lacks, else 0.  A reached entry is only reported."""
    missed, baseline = set(missed), set(baseline)
    new = sorted(missed - baseline)
    for name in new:
        print("NEW unreached, not in {}: {}".format(BASELINE.name, name))
    for name in sorted(baseline - missed):
        print("now reached, remove from {}: {}".format(BASELINE.name,
                                                       name))
    return 1 if new else 0


def main():
    work = pathlib.Path(tempfile.mkdtemp(prefix="reach-"))
    hooks = work / "hook"
    log = work / "reach.log"
    try:
        for name in ("golden_seidel.ost", "golden_kmeans.ost",
                     "golden_foreign.prv", "golden_foreign.pcf"):
            shutil.copy(ROOT / "tests" / "data" / name, work / name)
        commands = [command for group in driver_commands(work).values()
                    for command in group]
        with open(work / "drivers.out", "w") as output:
            codes = run_drivers(commands, hooks, log,
                                extra_paths=[ROOT / "src"],
                                log_output=output)
            codes.update(_run_serve(
                work, hooked_environment(hooks, [ROOT / "src"]), output))
        functions = defined_functions()
        hit, missed = report(functions, read_log(log))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    status = print_report(codes, len(functions), hit, missed)
    return max(status, check_ledger(missed, read_baseline()))


if __name__ == "__main__":
    sys.exit(main())
