"""Every example of README.md runs, and its scheme table states the schemes.

Each ```python block runs as a script and must print, last, a finite
distance D_k below 1e-8. Each `vikit ...` line of a ```sh block, its
backslash continuations joined, runs through `vikit.cli.main` with its
`--out` directory moved under the test's temporary directory, and must
exit 0. The scheme table has one row per `Scheme` member, in member
order, whose columns name the member's parts.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from vikit.algorithms import Outer, Scheme
from vikit.cli import main
from vikit.harness import TABLE1_FIXED_GAMMA_FACTOR
from vikit.stepsize import Adaptive, Armijo, Fixed

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [shlex.split(line)[1:]
            for lang, body in BLOCKS if lang == "sh"
            for line in body.replace("\\\n", " ").splitlines() if line.startswith("vikit ")]
# the scheme table's rows, as {column heading: cell}
_TABLE = [[cell.strip() for cell in line.strip().strip("|").split("|")]
          for line in README.splitlines() if line.startswith("|")]
SCHEME_ROWS = [dict(zip(_TABLE[0], row)) for row in _TABLE[2:]]
# README's words for an outer update and for a step policy other than the fixed step
OUTER_WORDS = {"Mann": Outer.MANN, "modified Mann": Outer.MODIFIED_MANN,
               "anchored": Outer.ANCHORED, "viscosity": Outer.VISCOSITY,
               "hybrid steepest descent": Outer.HSD}
STEP_WORDS = {"adaptive": Adaptive, "Armijo backtracking": Armijo}


def test_readme_shows_a_library_example_and_each_command():
    assert PYTHON
    assert {argv[0] for argv in COMMANDS} == {"run", "validate", "check"}


@pytest.mark.parametrize("code", PYTHON, ids=lambda code: f"block{PYTHON.index(code) + 1}")
def test_python_example_reaches_the_solution(code, capsys):
    exec(compile(code, "README.md", "exec"), {})
    d = float(capsys.readouterr().out.split()[-1])
    assert math.isfinite(d) and d < 1e-8


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_zero(argv, tmp_path, capsys):
    argv = list(argv)
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0
    capsys.readouterr()  # the command's report, which exit code 0 vouches for


def test_scheme_table_names_each_members_parts():
    assert [row["scheme"] for row in SCHEME_ROWS] == [f"`{s.value}`" for s in Scheme]
    for row in SCHEME_ROWS:
        scheme = Scheme(row["scheme"].strip("`"))
        assert row["extrapolation"] == ("inertial" if scheme.inertial else "none"), scheme
        assert row["correction"].lower() == scheme.correction, scheme
        assert OUTER_WORDS[row["outer update"]] is scheme.outer, scheme
        fixed = re.fullmatch(r"fixed \((.+)/L\)", row["step size"])
        if fixed is None:
            assert STEP_WORDS[row["step size"]] is scheme.step, scheme
        else:
            assert scheme.step is Fixed and float(fixed[1]) == TABLE1_FIXED_GAMMA_FACTOR, scheme
