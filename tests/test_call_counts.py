"""tools/call_counts.py: calls per iteration of each scheme, the same on
every run of one checkout, and within the budget of call_budget.txt."""

import subprocess
import sys
from pathlib import Path

import pytest

from vikit.algorithms import Scheme

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"
BUDGET = Path(__file__).with_name("call_budget.txt")


def _rows(out: str) -> list:
    """The tool's table below its two header lines, one list per scheme."""
    return [line.split() for line in out.splitlines()[2:]]


def _table(spec: str) -> list:
    return _rows(subprocess.run([sys.executable, str(TOOL), spec, "--iters", "20"],
                                capture_output=True, text=True, check=True).stdout)


def test_every_count_is_within_its_budget_row():
    budget = {}  # {tool arguments: {scheme: (python, c)}}
    for line in BUDGET.read_text().splitlines():
        if line and not line.startswith("#"):
            *args, scheme, python, c = line.split()
            budget.setdefault(" ".join(args), {})[scheme] = float(python), float(c)
    # one fresh process per argument list, side by side, at the tool's 200 iterations
    runs = {args: subprocess.Popen([sys.executable, str(TOOL), *args.split()],
                                   stdout=subprocess.PIPE, text=True) for args in budget}
    outside = []
    for args, run in runs.items():
        out, _ = run.communicate()
        assert run.returncode == 0
        rows = _rows(out)
        assert [row[0] for row in rows] == list(budget[args]) == [s.value for s in Scheme]
        for scheme, *counts in rows:
            for kind, count, row in zip(("python", "c"), map(float, counts), budget[args][scheme]):
                if not row - 0.5 <= count <= row:
                    outside.append(f"{args} {scheme} {kind}: {count} against {row}")
    assert not outside, "counts outside [row - 0.5, row]: " + "; ".join(outside)


def test_two_runs_give_the_same_counts_for_every_scheme():
    # each run is a fresh process, as from the command line: the first
    # solve in a process also fills the library's caches
    first = _table("ex1:n=8,seed=1")
    assert [row[0] for row in first] == [scheme.value for scheme in Scheme]
    assert all(float(python) > 0 and float(c) > 0 for _, python, c in first)
    assert _table("ex1:n=8,seed=1") == first


def test_a_second_equal_problem_costs_no_more_per_iteration():
    # in one fresh process, two builds of one spec give equal spaces; a
    # cache keyed on the space would pay a comparison per step on the second
    code = (f"import runpy; counts = runpy.run_path({str(TOOL)!r})['counts']; "
            "print(*(counts('ex1:n=8,seed=1', 20)['stegm'][0] for _ in range(2)))")
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
