"""The reachability census counts what runs, forked children included."""

import importlib.util
import os
import sys
import textwrap

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "census.py")


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census_under_test", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy(tmp_path):
    """A package with one called, one uncalled and one fork-only function."""
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        textwrap.dedent(
            """
            def called():
                return 1


            def uncalled():
                return 2


            def in_child():
                return 3
            """
        )
    )
    # The child leaves through os._exit, as the aggregator tier and the
    # partitioned DES's workers do: no atexit, no interpreter teardown.
    (tmp_path / "drive.py").write_text(
        textwrap.dedent(
            """
            import os

            from toy import mod

            mod.called()
            pid = os.fork()
            if pid == 0:
                mod.in_child()
                os._exit(0)
            os.waitpid(pid, 0)
            """
        )
    )
    return tmp_path


def test_table_lists_exactly_the_uncalled_function(census, toy):
    funcs, runs, statuses = census.census(
        {"toy": [[sys.executable, "drive.py"]]}, src=str(toy), package="toy", cwd=str(toy)
    )
    assert [status for _, status in statuses["toy"]] == [0]
    assert census.never_executed(funcs, runs) == [("toy.mod", "uncalled")]
    table = census.render(funcs, runs, {})
    rows = [line for line in table.splitlines() if line.startswith("| `toy.mod:")]
    assert rows == ["| `toy.mod:uncalled` | 2 | UNDECIDED |"]


def test_check_fails_on_an_unlisted_function_and_a_gone_one(census, toy):
    funcs = census.functions(str(toy), "toy")
    runs = {"toy": {("toy.mod", "called"), ("toy.mod", "in_child")}}
    kept = {("toy.mod", "uncalled"): "kept: oracle"}
    assert census.check(funcs, runs, kept) == []
    assert census.check(funcs, runs, {}) == [
        "never executed and not kept: toy.mod:uncalled"
    ]
    gone = {**kept, ("toy.mod", "deleted"): "kept: y"}
    assert census.check(funcs, runs, gone) == [
        "listed but no longer defined: toy.mod:deleted"
    ]


def test_verdicts_survive_a_rewrite(census, toy, tmp_path):
    funcs = census.functions(str(toy), "toy")
    runs = {"toy": {("toy.mod", "called")}}
    verdicts = {
        ("toy.mod", "uncalled"): "kept: oracle; `tests/x.py::y`",
        ("toy.mod", "in_child"): "kept: fault path; `tests/x.py::z`",
    }
    table = tmp_path / "CENSUS.md"
    table.write_text(census.render(funcs, runs, verdicts))
    assert census.read_verdicts(str(table)) == verdicts
    # A kept row whose function this run executed stays, marked.
    runs["toy"].add(("toy.mod", "in_child"))
    assert "| `toy.mod:in_child` | 2 | kept: fault path; `tests/x.py::z` *(ran)* |" in (
        census.render(funcs, runs, verdicts)
    )
