"""The reach map (``tools/reach.py``) on a planted two-function
package: the hook must follow the driver into a child process and
label exactly the called function as reached.  The production drivers
themselves are too slow for the suite and are not run here."""

import pathlib
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def reach():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import reach
        yield reach
    finally:
        sys.path.pop(0)


def test_planted_module_reports_called_and_uncalled(reach, tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent('''\
        import functools


        @functools.lru_cache()
        def called():
            return 1


        def never_called():
            return 2
        '''))
    # The driver calls the function only in a grandchild process, so
    # the hook must travel through the environment.
    driver = tmp_path / "driver.py"
    driver.write_text(textwrap.dedent('''\
        import subprocess
        import sys
        subprocess.run([sys.executable, "-c",
                        "import planted.mod; planted.mod.called()"],
                       check=True)
        '''))
    log = tmp_path / "reach.log"
    codes = reach.run_drivers(
        [("driver", [sys.executable, str(driver)], tmp_path)],
        tmp_path / "hook", log, package=package,
        extra_paths=[tmp_path])
    assert codes == {"driver": 0}
    functions = reach.defined_functions(package)
    hit, missed = reach.report(functions, reach.read_log(log))
    assert hit == ["planted.mod:called"]
    assert missed == ["planted.mod:never_called"]


def test_failed_driver_marks_the_map_incomplete(reach, capsys):
    missed = ["planted.mod:never_called"]
    assert reach.print_report({"a": 0}, 2, ["planted.mod:called"],
                              missed) == 0
    assert "WARNING" not in capsys.readouterr().out
    status = reach.print_report({"a": 0, "serve": "no listener"}, 2,
                                ["planted.mod:called"], missed)
    output = capsys.readouterr().out
    assert status == 1
    assert "map is incomplete" in output
    assert output.index("WARNING") < output.index("unreached planted")
