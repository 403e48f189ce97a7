"""Print the most memory a problem's build, Lipschitz estimate and
certification hold at once, as tracemalloc counts it.

    python tools/alloc_peak.py SPEC

The problem of SPEC (a `vikit run` problem spec, built at plan seed 1) is
built and then certified under tracemalloc, which counts every numpy array
(but not BLAS's own buffers). The table gives three peaks, each in n x n
float64 arrays (n the problem's dimension) and in MB:

- build: the most traced at once while the problem is built, its
  Lipschitz estimate included;
- lipschitz: the same, inside `operators.estimate_lipschitz`, where the
  build calls it (0 when the build states L itself);
- certify: the most `problems.certify` adds to what the built problem holds.

Like `call_counts.py` for time, the peaks are the same on every run of one
checkout, so they can be compared across commits where `peak_rss_mb`
cannot. vikit is imported from the src directory next to this script's
parent. A spec that vikit rejects prints `error: ...` and exits 2, as
`vikit` does.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy.random  # noqa: E402,F401  numpy imports it lazily, at a build's first draw

from vikit import operators, problems  # noqa: E402
from vikit.harness import parse_problem_spec  # noqa: E402

SEED = 1  # the plan seed
PHASES = ("build", "lipschitz", "certify")


def peaks(spec: str) -> tuple:
    """(n, {phase: peak bytes}) of SPEC's build and certification."""
    out = {"lipschitz": 0}
    estimate = operators.estimate_lipschitz

    def measured(op):
        # the build's peak so far is kept in out["build"]; the estimate's own
        # peak starts from what is alive when it is called
        out["build"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        try:
            return estimate(op)
        finally:
            out["lipschitz"] = tracemalloc.get_traced_memory()[1]

    operators.estimate_lipschitz = measured
    tracemalloc.start()
    try:
        problem, _ = parse_problem_spec(spec, SEED)
        out["build"] = max(out.get("build", 0), tracemalloc.get_traced_memory()[1])
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        problems.certify(problem)
        out["certify"] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
        operators.estimate_lipschitz = estimate
    return problem.space.dim, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="problem spec, such as ex1:n=1024,seed=1")
    args = parser.parse_args(argv)
    try:
        n, table = peaks(args.spec)
    except ValueError as exc:  # a spec vikit rejects, as `vikit check` reports it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    array = 8 * n * n
    print(f"{args.spec}, seed {SEED}, one {n} x {n} array = {array / 1e6:.3f} MB")
    print(f"{'phase':10}  {'arrays':>8}  {'MB':>10}")
    for phase in PHASES:
        print(f"{phase:10}  {table[phase] / array:8.4f}  {table[phase] / 1e6:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
