#!/usr/bin/env python3
"""Docstring lint: presence on the public API, resolvable references.

Every public module, class, function and method in
``src/repro/trace_format/`` (including ``ingest/``),
``src/repro/analysis/`` (including ``experiments/``),
``src/repro/core/``, ``src/repro/render/``, ``src/repro/service/``
and ``src/repro/session.py`` must carry a docstring: these are the
layers external tools integrate against, so the documentation
contract is enforced in CI.  "Public" means the name does not start
with an underscore and the module is not private.

Every ``:class:``/``:func:``/``:meth:``/``:mod:``/``:attr:``/``:data:``
/``:exc:`` role in a docstring under ``src/repro/`` whose target is
``repro.``-qualified must name something that exists: the target's
longest importable module prefix is imported and the rest looked up
attribute by attribute.  This needs ``src`` on ``PYTHONPATH``.

Exit status 0 when clean, 1 with one line per offender otherwise.

Usage: python tools/lint_docstrings.py [package-dir-or-file ...]
(the targets of the presence check; references are always checked
over ``src/repro``).
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys

DEFAULT_TARGETS = ("src/repro/trace_format", "src/repro/analysis",
                   "src/repro/core", "src/repro/render",
                   "src/repro/service", "src/repro/session.py")


def _is_public(name):
    return not name.startswith("_")


def _missing_docstrings(path):
    """Yield ``(lineno, description)`` for every public definition in
    ``path`` that lacks a docstring.

    Only module-level functions and classes, and the methods of public
    classes, are checked — helpers nested inside function bodies are
    implementation detail, not API surface.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    if ast.get_docstring(tree) is None:
        yield 1, "module"
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not _is_public(node.name):
            continue
        if ast.get_docstring(node) is None:
            kind = ("class" if isinstance(node, ast.ClassDef)
                    else "function")
            yield node.lineno, "{} {}".format(kind, node.name)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if not _is_public(member.name):
                    continue
                if ast.get_docstring(member) is None:
                    yield member.lineno, "method {}.{}".format(
                        node.name, member.name)


#: Where docstring cross-references are checked.
REFERENCE_TARGETS = ("src/repro",)

#: A Sphinx cross-reference role; the target may wrap across lines.
_ROLE = re.compile(r":(?:class|func|meth|mod|attr|data|exc):`([^`]+)`")


def _resolves(target):
    """Whether a dotted ``repro.`` name imports and looks up."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def _dangling_references(path):
    """Yield ``(lineno, target)`` for every ``repro.``-qualified role
    target in ``path``'s docstrings that does not resolve."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        docstring = ast.get_docstring(node, clean=False)
        if docstring is None:
            continue
        first_line = node.body[0].lineno
        for match in _ROLE.finditer(docstring):
            target = "".join(match.group(1).split()).lstrip("~!")
            if target.startswith("repro.") and not _resolves(target):
                yield (first_line + docstring.count("\n", 0,
                                                    match.start()),
                       target)


def _python_files(targets, root):
    for target in targets:
        base = pathlib.Path(root) / target
        paths = [base] if base.is_file() else sorted(base.rglob("*.py"))
        yield from paths


def lint_references(targets=REFERENCE_TARGETS, root="."):
    """Collect docstring roles whose ``repro.`` target does not
    resolve; returns a list of report lines (empty when clean)."""
    return ["{}:{}: unresolved docstring reference {}".format(
                path, lineno, target)
            for path in _python_files(targets, root)
            for lineno, target in _dangling_references(path)]


def lint(targets=DEFAULT_TARGETS, root="."):
    """Collect offenders over ``targets``; returns a list of report
    lines (empty when everything is documented)."""
    problems = []
    for path in _python_files(targets, root):
        if path.name.startswith("_") and path.name != "__init__.py":
            continue
        for lineno, what in _missing_docstrings(path):
            problems.append("{}:{}: missing docstring for {}"
                            .format(path, lineno, what))
    return problems


def main(argv):
    targets = argv[1:] or list(DEFAULT_TARGETS)
    problems = lint(targets)
    references = lint_references()
    for line in problems + references:
        print(line)
    if problems or references:
        print("{} public definition(s) without docstrings, {} "
              "unresolved reference(s)".format(len(problems),
                                               len(references)))
        return 1
    print("docstring lint: {} target(s) clean, references resolve"
          .format(len(targets)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
