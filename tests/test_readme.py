"""Every example of README.md runs.

Each ```python block runs as a script and must print, last, a finite
distance D_k below 1e-8. Each `vikit ...` line of a ```sh block, its
backslash continuations joined, runs through `vikit.cli.main` with its
`--out` directory moved under the test's temporary directory, and must
exit 0.
"""

import math
import re
import shlex
from pathlib import Path

import pytest

from vikit.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [shlex.split(line)[1:]
            for lang, body in BLOCKS if lang == "sh"
            for line in body.replace("\\\n", " ").splitlines() if line.startswith("vikit ")]


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
