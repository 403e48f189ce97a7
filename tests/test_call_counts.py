"""tools/call_counts.py: calls, operator evaluations and projections per
iteration of each scheme, the same on every run of one checkout and
within the budget of call_budget.txt, counted by a hook that patches
nothing, counts every call of the threads the counted call starts, and
restores the profile functions it found."""

import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from call_counts import COLUMNS, by_name, count_calls, counts
from vikit.algorithms import Scheme
from vikit.operators import PositivePart

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"
BUDGET = Path(__file__).with_name("call_budget.txt")
SLACK = {"python": 0.5, "c": 0.5}  # every other column is held exactly


def _rows(out: str) -> list:
    """The tool's table below its two header lines, one list per scheme."""
    return [line.split() for line in out.splitlines()[2:]]


def _table(spec: str) -> list:
    return _rows(subprocess.run([sys.executable, str(TOOL), spec, "--iters", "20"],
                                capture_output=True, text=True, check=True).stdout)


def _budget() -> dict:
    """{tool arguments: {scheme: {column: row}}}"""
    budget = {}
    for line in BUDGET.read_text().splitlines():
        if line and not line.startswith("#"):
            fields = line.split()
            args, scheme = fields[:-len(COLUMNS) - 1], fields[-len(COLUMNS) - 1]
            budget.setdefault(" ".join(args), {})[scheme] = dict(
                zip(COLUMNS, map(float, fields[-len(COLUMNS):])))
    return budget


def _outside(rows: dict, table: dict) -> list:
    """(scheme, column, count, row) of each count of table ({scheme:
    {column: count}}) outside its budget row: above it, or more than its
    column's slack below it."""
    return [(scheme, column, count, rows[scheme][column])
            for scheme, counted in table.items() for column, count in counted.items()
            if not rows[scheme][column] - SLACK.get(column, 0.0) <= count <= rows[scheme][column]]


def test_every_count_is_within_its_budget_row():
    budget = _budget()
    # one fresh process per argument list, side by side, at the tool's 200 iterations
    runs = {args: subprocess.Popen([sys.executable, str(TOOL), *args.split()],
                                   stdout=subprocess.PIPE, text=True) for args in budget}
    outside = []
    for args, run in runs.items():
        out, _ = run.communicate()
        assert run.returncode == 0
        assert out.splitlines()[1].split() == ["scheme", *COLUMNS]
        rows = _rows(out)
        assert [row[0] for row in rows] == list(budget[args]) == [s.value for s in Scheme]
        table = {scheme: dict(zip(COLUMNS, map(float, counted))) for scheme, *counted in rows}
        outside += [(args, *miss) for miss in _outside(budget[args], table)]
    assert not outside, f"counts outside their rows, as (args, scheme, column, count, row): {outside}"


def test_an_operator_whose_call_runs_twice_fails_its_column(monkeypatch):
    # ex2's A is a PositivePart: each evaluation now runs the __call__ that
    # the tool read on import twice
    call = PositivePart.__call__
    monkeypatch.setattr(PositivePart, "__call__",
                        lambda self, x, out=None: (call(self, x, out), call(self, x, out))[1])
    outside = _outside(_budget()["ex2:grid=1001"], counts("ex2:grid=1001", 200))
    assert {(scheme, column) for scheme, column, *_ in outside if column not in SLACK} == {
        (scheme.value, "A") for scheme in Scheme}


def test_two_runs_give_the_same_counts_for_every_scheme():
    # each run is a fresh process, as from the command line: the first
    # solve in a process also fills the library's caches
    first = _table("ex1:n=8,seed=1")
    assert [row[0] for row in first] == [scheme.value for scheme in Scheme]
    assert all(len(row) == 1 + len(COLUMNS) and float(row[1]) > 0 and float(row[2]) > 0
               and float(row[3]) > 0 for row in first)
    assert _table("ex1:n=8,seed=1") == first


def _counted():
    """A function the tests below count by its code object."""


COUNTED = {_counted.__code__: by_name}


def _on_threads(count: int, calls: int):
    """_counted() calls times in each of count tasks, run on a pool of up
    to count threads that is started and joined here, as a plan's is."""
    with ThreadPoolExecutor(count) as pool:
        list(pool.map(lambda _: [_counted() for _ in range(calls)], range(count)))


def test_a_call_on_a_thread_the_counted_call_starts_is_counted():
    assert count_calls(COUNTED, _on_threads, 1, 1)[1]["_counted"] == 1


def test_threads_that_call_at_once_all_count(switching_often):
    assert count_calls(COUNTED, _on_threads, 8, 10_000)[1]["_counted"] == 80_000


def test_the_hook_restores_the_profile_function_it_found():
    seen = []

    def found(frame, event, arg):
        seen.append(frame.f_code if event == "call" else arg)

    before = sys.getprofile(), threading.getprofile()
    sys.setprofile(found)
    threading.setprofile(found)
    try:
        total, calls = count_calls({}, sum, [1, 2])
        count_calls(COUNTED, _on_threads, 1, 1)  # a thread it starts gets the hook, not found
        after = sys.getprofile(), threading.getprofile()
    finally:
        sys.setprofile(before[0])
        threading.setprofile(before[1])
    # sum and the hook's own sys.setprofile, and none of them seen by found
    assert (after, total, calls) == ((found, found), 3, {"c_call": 2})
    assert sum not in seen and _counted.__code__ not in seen


def test_a_second_equal_problem_costs_no_more_per_iteration():
    # in one fresh process, two builds of one spec give equal spaces; a
    # cache keyed on the space would pay a comparison per step on the second
    code = (f"import runpy; counts = runpy.run_path({str(TOOL)!r})['counts']; "
            "print(*(counts('ex1:n=8,seed=1', 20)['stegm']['python'] for _ in range(2)))")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True).stdout
    first, second = map(float, out.split())
    assert second <= first


def test_a_spec_vikit_rejects_is_named_with_exit_code_2():
    run = subprocess.run([sys.executable, str(TOOL), "ex9:n=3"], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: unknown problem family 'ex9' in 'ex9:n=3'\n"


@pytest.mark.parametrize("iters", ["1_0", "٣"])  # int() reads both: 10 and 3
def test_iters_that_is_not_an_ascii_decimal_integer_is_a_usage_error(iters):
    run = subprocess.run([sys.executable, str(TOOL), "ex1:n=8,seed=1", "--iters", iters],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.endswith(f"error: argument --iters: invalid integer value: {iters!r}\n")
