"""Count the Python-level and C-level calls per iteration of each scheme.

    python tools/call_counts.py SPEC [--iters N]

For every scheme, the problem of SPEC (a `vikit run` problem spec, built at
plan seed 1) is solved for N iterations (default 200) from its spec's
start drawn at seed 1, with no tolerance, under sys.setprofile. The table
gives the profiler's `call` events (Python functions) and `c_call` events
(builtins and C functions) of the whole solve divided by N; the first
solve also fills the library's caches. The counts patch no name, and two runs of one
checkout give the same counts, so unlike wall time they can be compared
across commits on a noisy host. vikit is imported from the src directory
next to this script's parent, so a copy of this file in another checkout
counts that checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vikit.algorithms import Scheme, solve  # noqa: E402
from vikit.harness import make_config, parse_problem_spec  # noqa: E402
from vikit.problems import initial_points  # noqa: E402

SEED = 1  # the plan seed and the start seed


def counts(spec: str, iters: int) -> dict:
    """{scheme name: (call events, c_call events) per iteration}."""
    problem, init = parse_problem_spec(spec, SEED)
    x0, x1 = initial_points(problem, init, seed=SEED)
    out = {}
    for scheme in Scheme:
        cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter=iters)
        events = {"call": 0, "c_call": 0}

        def on_event(frame, event, arg):
            if event in events:
                events[event] += 1

        sys.setprofile(on_event)
        try:
            solve(problem, cfg)
        finally:
            sys.setprofile(None)
        out[scheme.value] = events["call"] / iters, events["c_call"] / iters
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count calls per iteration of each scheme.")
    parser.add_argument("spec", help="problem spec, such as ex1:n=100,seed=1")
    parser.add_argument("--iters", type=int, default=200, help="iterations (default 200)")
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    print(f"{args.spec}, {args.iters} iterations, seed {SEED}")
    print(f"{'scheme':8}  {'python':>8}  {'c':>8}")
    for name, (python, c) in counts(args.spec, args.iters).items():
        print(f"{name:8}  {python:8.2f}  {c:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
