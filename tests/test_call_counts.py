"""tools/call_counts.py: calls per iteration of each scheme, the same on
every run of one checkout."""

import subprocess
import sys
from pathlib import Path

from vikit.algorithms import Scheme

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_counts.py"


def _table(spec: str) -> list:
    out = subprocess.run([sys.executable, str(TOOL), spec, "--iters", "20"],
                         capture_output=True, text=True, check=True).stdout
    return [line.split() for line in out.splitlines()[2:]]


def test_two_runs_give_the_same_counts_for_every_scheme():
    # each run is a fresh process, as from the command line: the first
    # solve in a process also fills the library's caches
    first = _table("ex1:n=8,seed=1")
    assert [row[0] for row in first] == [scheme.value for scheme in Scheme]
    assert all(float(python) > 0 and float(c) > 0 for _, python, c in first)
    assert _table("ex1:n=8,seed=1") == first
