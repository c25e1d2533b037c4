"""The reach map (``tools/reach.py``) on a planted two-function
package: the hook must follow the driver into a child process and
label exactly the called function as reached, and the ledger check
must fail on a new unreached function only.  The production drivers
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


@pytest.fixture(scope="module")
def planted_map(reach, tmp_path_factory):
    """``(functions, reached)`` of a planted package whose driver
    calls ``called`` only in a grandchild process, so the hook must
    travel through the environment."""
    tmp_path = tmp_path_factory.mktemp("reach")
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
    return reach.defined_functions(package), reach.read_log(log)


def test_planted_module_reports_called_and_uncalled(reach, planted_map):
    hit, missed = reach.report(*planted_map)
    assert hit == ["planted.mod:called"]
    assert missed == ["planted.mod:never_called"]


def test_unreached_function_missing_from_ledger_fails(reach, planted_map,
                                                      capsys):
    __, missed = reach.report(*planted_map)
    assert reach.check_ledger(missed, []) == 1
    assert "NEW unreached" in capsys.readouterr().out
    assert reach.check_ledger(missed, ["planted.mod:never_called"]) == 0
    assert capsys.readouterr().out == ""


def test_reached_ledger_entry_is_only_reported(reach, planted_map,
                                               capsys):
    __, missed = reach.report(*planted_map)
    ledger = ["planted.mod:called", "planted.mod:never_called"]
    assert reach.check_ledger(missed, ledger) == 0
    output = capsys.readouterr().out
    assert "now reached" in output and "planted.mod:called" in output
    assert "NEW" not in output


def test_committed_ledger_is_sorted_unique_and_defined(reach):
    """Every ledger entry names a function that still exists, so a
    deletion removes its entry in the same change."""
    ledger = reach.read_baseline()
    assert ledger == sorted(set(ledger))
    defined = set(reach.defined_functions().values())
    assert [name for name in ledger if name not in defined] == []


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
