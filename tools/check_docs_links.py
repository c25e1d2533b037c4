#!/usr/bin/env python3
"""Dangling-reference check over the documentation.

Documentation rots by pointing at things that moved: a renamed module,
a dropped doc, a benchmark folded into another.  This tool walks
``README.md`` and every ``docs/*.md`` and verifies that

* every relative markdown link target (``[text](docs/foo.md)``,
  anchors and external URLs excluded) resolves to a real file, and
* every repo path named in prose or code spans — anything matching
  ``src/... docs/... tools/... tests/... benchmarks/... examples/...``
  — exists in the working tree (glob-ish mentions containing ``*``
  are skipped), and
* no reference names a path git ignores (generated output such as a
  bench's results directory): a fresh clone lacks it, so the verdict
  must not depend on whether something was run in this tree.

Exit status 0 when every reference resolves, 1 with one line per
dangling reference otherwise (CI-enforced).

Usage: python tools/check_docs_links.py [markdown-file ...]
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` markdown links (images included via the ``!``
#: prefix being irrelevant to the target capture).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Bare repo paths named in prose/code: a known top-level directory
#: followed by path characters.  The trailing ``[A-Za-z0-9_]`` keeps
#: sentence punctuation (``.``, ``/``) out of the match.
_REPO_PATH = re.compile(
    r"\b(?:src|docs|tools|tests|benchmarks|examples)"
    r"/[A-Za-z0-9_./*-]*[A-Za-z0-9_*]")


def _targets(text, base):
    """Yield ``(reference, resolved path or None)`` for every checkable
    reference in one document (``None`` marks a skipped reference:
    external URL, anchor, or glob)."""
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:                       # pure in-page anchor
            continue
        if "*" in target:
            continue
        # Root-relative targets (the repo convention) and
        # document-relative ones both resolve; accept either.
        candidates = [ROOT / target, base / target]
        yield target, candidates
    for match in _REPO_PATH.finditer(text):
        target = match.group(0)
        if "*" in target:                    # glob-ish mention
            continue
        yield target, [ROOT / target]


def _ignored(relpaths):
    """The subset of repo-relative ``relpaths`` that git ignores, as a
    path or as a directory (empty outside a git checkout).  Paths
    outside the repo are never ignored: git refuses to judge them."""
    queries = sorted({query for relpath in relpaths
                      if not relpath.startswith(os.pardir)
                      for query in (relpath, relpath + "/")})
    try:
        done = subprocess.run(["git", "check-ignore", "--"] + queries,
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return set()
    return {line.rstrip("/") for line in done.stdout.splitlines()}


def check(paths):
    """Return a list of ``file: dangling reference`` report lines."""
    references = []
    for path in paths:
        seen = set()
        for target, candidates in _targets(path.read_text(),
                                           path.parent):
            if target not in seen:
                seen.add(target)
                references.append((path, target, [
                    os.path.relpath(candidate, ROOT)
                    for candidate in candidates]))
    ignored = _ignored(relpath for __, __, relpaths in references
                       for relpath in relpaths)
    problems = []
    for path, target, relpaths in references:
        if any(relpath in ignored for relpath in relpaths):
            reason = "generated (git-ignored) path"
        elif not any((ROOT / relpath).exists() for relpath in relpaths):
            reason = "dangling reference"
        else:
            continue
        problems.append("{}: {} {}".format(
            os.path.relpath(path, ROOT), reason, target))
    return problems


def main(argv):
    """CLI entry point: check the given files, or the default doc set."""
    if argv[1:]:
        paths = [pathlib.Path(arg).resolve() for arg in argv[1:]]
    else:
        paths = [ROOT / "README.md"] + sorted(ROOT.glob("docs/*.md"))
    problems = check(paths)
    for line in problems:
        print(line)
    if problems:
        print("{} dangling reference(s)".format(len(problems)))
        return 1
    print("docs-link check: {} file(s) clean".format(len(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
