"""The stdlib lint (``tools/lint_lite.py``) runs as part of the suite.

It keeps deletions honest: an import left behind, a local nobody reads
or an over-long line fails here, without needing ``ruff`` installed.
"""

import pathlib
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def lint_lite():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import lint_lite
        yield lint_lite
    finally:
        sys.path.pop(0)


def test_repo_is_clean(lint_lite):
    assert lint_lite.lint() == []


def test_each_check_fires(lint_lite, tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(textwrap.dedent('''\
        import os
        import sys
        from json import dumps, loads  # noqa: F401


        def work(value):
            unused = value * 2
            _ignored = value
            try:
                return sys.argv
            except KeyError as error:
                return None
        ''') + "x = '" + "y" * 80 + "'\n")
    production = tmp_path / "src" / "repro" / "render"
    production.mkdir(parents=True)
    planted = production / "planted.py"
    planted.write_text(textwrap.dedent('''\
        import repro.core.reference
        from . import reference
        from ..core.reference import state_time_summary
        from ..render import framebuffer

        __all__ = ["repro", "reference", "state_time_summary",
                   "framebuffer"]
        '''))
    # The spec modules themselves, and code outside src/repro (tests,
    # benchmarks), may import the spec.
    (production / "reference.py").write_text(
        "from ..core import reference\n\n__all__ = ['reference']\n")
    (tmp_path / "bench.py").write_text(
        "from repro.render import reference\n\n"
        "__all__ = ['reference']\n")
    messages = [line.split(": ", 1)[1]
                for line in lint_lite.lint([module, tmp_path / "src",
                                            tmp_path / "bench.py"])]
    assert messages == [
        "unused import os",
        "local unused assigned but never used",
        "local error assigned but never used",
        "line has 86 columns (max 79)",
        "production imports repro.core.reference",
        "production imports repro.render.reference",
        "production imports repro.core.reference",
    ]


def test_package_reexports_and_all_are_uses(lint_lite, tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from os import path\n")
    (package / "api.py").write_text(
        "from os import sep\n\n__all__ = ['sep']\n")
    assert lint_lite.lint([package]) == []
