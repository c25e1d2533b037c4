#!/usr/bin/env python3
"""Stdlib-only lint: unused imports, unused local names, long lines,
and production imports of the executable specification.

A small stand-in for the pyflakes/pycodestyle checks that matter most
after a deletion: an import nothing uses any more, a local variable
assigned and never read, and a line over 79 columns.  It walks
``src/``, ``tools/``, ``tests/``, ``examples/`` and ``benchmarks/``
with :mod:`ast` and plain line checks, so it needs nothing beyond the
interpreter.

* An import is unused when its bound name is never loaded anywhere in
  the module and is not listed in ``__all__``.  Package
  ``__init__.py`` files are exempt: their imports are re-exports.
* A local name is unused when a function assigns it (``x = ...`` or
  ``except E as x``) and neither the function nor a function nested
  in it ever reads it.  Names starting with ``_`` are deliberate
  throwaways and are skipped, as are functions calling ``locals()``.
* A module of the ``repro`` package (a file under ``src/repro``) may
  not import :data:`SPEC_MODULES`, absolutely or relatively; only the
  spec modules themselves may.  Tests and benchmarks compare against
  them, production never runs them.
* A line carrying ``# noqa`` (with or without codes) is skipped.

Exit status 0 when clean, 1 with one ``path:line: message`` per
finding otherwise.

Usage: python tools/lint_lite.py [file-or-directory ...]
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = ("src", "tools", "tests", "examples", "benchmarks")
MAX_COLUMNS = 79
SPEC_MODULES = ("repro.core.reference", "repro.render.reference")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.Lambda, ast.ClassDef)


def _loaded_names(tree):
    """Every identifier the module reads: bare names, plus the root
    of dotted names (``os`` in ``os.path.join``)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}


def _exported(tree):
    """The string entries of a module-level ``__all__`` list/tuple."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant))
    return names


def _unused_imports(tree, path):
    """Yield ``(lineno, message)`` for imports nothing reads."""
    if path.name == "__init__.py":
        return
    used = _loaded_names(tree) | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
        elif not isinstance(node, ast.Import):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                yield node.lineno, "unused import {}".format(bound)


def _own_nodes(function):
    """The nodes of ``function``'s body, not descending into nested
    functions or classes."""
    pending = list(ast.iter_child_nodes(function))
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, _SCOPES):
            pending.extend(ast.iter_child_nodes(node))


def _unused_locals(tree):
    """Yield ``(lineno, message)`` for locals assigned, never read."""
    for function in ast.walk(tree):
        if not isinstance(function, _FUNCTIONS):
            continue
        declared = set()
        assigned = {}
        for node in _own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.setdefault(node.name, node.lineno)
        read = _loaded_names(function)
        if "locals" in read:
            continue
        for name, lineno in sorted(assigned.items(),
                                   key=lambda item: item[1]):
            if (name not in read and name not in declared
                    and not name.startswith("_")):
                yield lineno, "local {} assigned but never used".format(
                    name)


def _module_name(path):
    """Dotted name of a module under a ``src/repro`` tree, else
    ``None`` (``__init__.py`` names its package)."""
    parts = path.resolve().with_suffix("").parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "src" and parts[index + 1] == "repro":
            names = list(parts[index + 1:])
            if names[-1] == "__init__":
                names.pop()
            return ".".join(names)
    return None


def _imported_modules(node, package):
    """Modules an import statement may load: the module itself, and
    for ``from m import n`` also ``m.n`` (``n`` may be a submodule).
    Relative imports resolve against ``package``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        anchor = parts[:len(parts) - node.level + 1]
        base = ".".join(anchor + ([base] if base else []))
    return [base] + [base + "." + alias.name for alias in node.names]


def _spec_imports(tree, path):
    """Yield ``(lineno, message)`` for production imports of a
    :data:`SPEC_MODULES` module."""
    module = _module_name(path)
    if module is None or module in SPEC_MODULES:
        return
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name in _imported_modules(node, package):
            if name in SPEC_MODULES:
                yield node.lineno, "production imports {}".format(name)
                break


def _long_lines(lines):
    """Yield ``(lineno, message)`` for lines over :data:`MAX_COLUMNS`."""
    for lineno, line in enumerate(lines, 1):
        if len(line) > MAX_COLUMNS:
            yield lineno, "line has {} columns (max {})".format(
                len(line), MAX_COLUMNS)


def lint_file(path):
    """All findings of one Python file, as ``(lineno, message)``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    findings = (list(_unused_imports(tree, path))
                + list(_unused_locals(tree)) + list(_long_lines(lines))
                + list(_spec_imports(tree, path)))
    return sorted((lineno, message) for lineno, message in findings
                  if "# noqa" not in lines[lineno - 1])


def _python_files(targets):
    for target in targets:
        target = pathlib.Path(target)
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        else:
            yield target


def lint(targets=None):
    """``path:line: message`` lines for every finding under
    ``targets`` (default: the repo's Python trees)."""
    if targets is None:
        targets = [ROOT / name for name in DEFAULT_TARGETS]
    report = []
    for path in _python_files(targets):
        shown = path.resolve()
        if shown.is_relative_to(ROOT):
            shown = shown.relative_to(ROOT)
        report.extend("{}:{}: {}".format(shown, lineno, message)
                      for lineno, message in lint_file(path))
    return report


def main(argv):
    """CLI entry point: lint the given paths, or the default trees."""
    report = lint(argv[1:] or None)
    for line in report:
        print(line)
    if report:
        print("{} finding(s)".format(len(report)))
        return 1
    print("lint-lite: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
