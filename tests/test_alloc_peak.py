"""tools/alloc_peak.py: ex1's build holds two n x n arrays at a time, its
Lipschitz estimate included, and certify adds at most a quarter of one."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "alloc_peak.py"


def _peaks(spec: str) -> dict:
    """{phase: peak in n x n arrays} from the tool's table."""
    out = subprocess.run([sys.executable, str(TOOL), spec], capture_output=True, text=True,
                         check=True).stdout
    return {phase: float(arrays) for phase, arrays, _ in
            (line.split() for line in out.splitlines()[2:])}


def test_ex1_build_holds_two_arrays_and_certify_adds_at_most_a_quarter():
    peaks = _peaks("ex1:n=1024,seed=1")
    assert list(peaks) == ["build", "lipschitz", "certify"]
    # G and B, then G and M, then G and G^T G, and a skew block of n^2/8 floats
    assert 2.0 <= peaks["lipschitz"] <= peaks["build"] <= 2.25
    # blocks of 32 pairs: the points, their values and two differences
    assert 0.0 < peaks["certify"] <= 0.25


def test_a_spec_vikit_rejects_exits_2_naming_it():
    run = subprocess.run([sys.executable, str(TOOL), "ex1:n=0"], capture_output=True, text=True)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "error: 'ex1:n=0': n must be an integer in [1,inf), got 0\n"
