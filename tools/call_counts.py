"""Count the calls, operator evaluations and projections per iteration of
each scheme.

    python tools/call_counts.py SPEC [--iters N] [--record-invariants]

`count_calls` is the one call counter of the repository's tests and tools:
one profile function, keyed on code objects and set on the calling thread
and on each thread the counted call starts, that rebinds, mocks and
subclasses nothing, so it counts the path the code runs anyway.

For every scheme, the problem of SPEC (a `vikit run` problem spec, built at
plan seed 1) is solved for N iterations (default 200) from its spec's
start drawn at seed 1, with no tolerance, under `count_calls`; with
--record-invariants each solve also records its residuals. The table
gives, each divided by N:
- python and c: the profiler's `call` events (Python functions) and
  `c_call` events (builtins and C functions) of the whole solve;
- A, T, F and f_visc: the evaluations of the problem's operators
  (`work_rules`);
- box, ball and halfspace: the projections onto each kind of set, the
  Armijo search's trials among them;
- armijo: the Armijo search's serial trials, one projection each.
A scheme's first solve in a process also pays one-time costs: stegm
builds its Armijo screen's steps (`_screened_steps`) and the space's
cached weight (`sqrt_min_weight`). Two runs of one checkout give the same
counts, so unlike wall time they can be compared across commits on a
noisy host. vikit is imported from the src directory next to this
script's parent, so a copy of this file in another checkout counts that
checkout. A spec that vikit rejects prints `error: ...` and exits 2, as
`vikit` does.
"""

from __future__ import annotations

import argparse
import sys
import threading
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vikit.algorithms import Scheme, solve  # noqa: E402
from vikit.cli import integer  # noqa: E402
from vikit.harness import make_config, parse_problem_spec  # noqa: E402
from vikit.operators import OWN_OPERATORS, AffineMatrix  # noqa: E402
from vikit.problems import initial_points  # noqa: E402
from vikit.projections import Ball, Box, HalfSpace, project_halfspace  # noqa: E402
from vikit.stepsize import armijo_search  # noqa: E402

SEED = 1  # the plan seed and the start seed
OPERATORS = ("A", "T", "F", "f_visc")  # a problem's operators, by field name
SETS = ("box", "ball", "halfspace")
COLUMNS = ("python", "c", *OPERATORS, *SETS, "armijo")
# the operators' __call__ code objects, read once, as vikit defines them
CALLS = {cls: cls.__call__.__code__ for cls in OWN_OPERATORS}


def count_calls(rules: dict, fn, *args):
    """(fn(*args), a Counter of the calls it made), counted by one profile
    function that rebinds, mocks and subclasses nothing, so the calls are
    those of the path the code runs anyway. It is set with sys.setprofile
    on this thread and with threading.setprofile for every thread started
    while fn runs, such as a plan's worker pool; a thread started before
    the hook is set is not covered, and one that fn leaves running counts
    on until it ends. The counts are kept under a lock, so threads that
    call at once all count. "call" counts the profiler's `call` events
    (Python functions) and "c_call" its `c_call` events (builtins and C
    functions). `rules` maps a code object to rule(frame, None), run at
    each call of that code with the callee's frame, and the string
    "c_call" to rule(frame, function), run at each C call with the calling
    frame; each adds one to the key its rule gives, unless that is None,
    so a rule that needs order or several values records into its caller's
    own list and gives None. fn is called from this frame, so that this
    thread's events are fn's own and sys.setprofile's last call; both
    profile functions found on entry are restored on exit and see none of
    fn's events."""
    counts, lock = Counter(), threading.Lock()

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            rule = rules.get(frame.f_code if event == "call" else event)
            key = None if rule is None else rule(frame, arg)
            with lock:
                counts[event] += 1
                if key is not None:
                    counts[key] += 1

    found, found_threads = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(found)
        threading.setprofile(found_threads)
    return result, counts


def by_name(frame, arg):
    """A rule that counts a call under its function's name."""
    return frame.f_code.co_name


def work_rules(problem) -> dict:
    """Rules for `count_calls` that count the problem's operator
    evaluations and the projections a solve makes.

    An evaluation counts under the operator's field name (A, T, F or
    f_visc), told apart by identity, as ex1's T, F and f_visc are equal:
    a call of an operator's __call__, and a C call of G's method from
    outside AffineMatrix.__call__, as where A is exactly an AffineMatrix a
    solve may evaluate it as G.dot (`operators.bare_map`). A projection
    counts under (its set's kind, whether armijo_search made it): a call of
    a set's `project`, or of `project_halfspace`, with which a step
    projects onto its own halfspace; one that `HalfSpace.project` hands on
    to `project_halfspace` counts once."""
    named = [(getattr(problem, name), name) for name in OPERATORS]

    def operator(frame, arg):
        op = frame.f_locals["self"]
        return next((name for candidate, name in named if candidate is op), None)

    def projection(kind):
        def rule(frame, arg):
            caller = frame.f_back.f_code
            if caller is not HalfSpace.project.__code__:
                return kind, caller is armijo_search.__code__
        return rule

    rules = dict.fromkeys(CALLS.values(), operator)
    rules.update({Box.project.__code__: projection("box"),
                  Ball.project.__code__: projection("ball"),
                  HalfSpace.project.__code__: projection("halfspace"),
                  project_halfspace.__code__: projection("halfspace")})
    if type(problem.A) is AffineMatrix:
        G, call = problem.A.G, CALLS[AffineMatrix]
        rules["c_call"] = lambda frame, fn: (
            "A" if getattr(fn, "__self__", None) is G and frame.f_code is not call else None)
    return rules


def counts(spec: str, iters: int, record: bool = False) -> dict:
    """{scheme name: {column: count per iteration}} over COLUMNS, of solves
    that record their residuals when record is set."""
    problem, init = parse_problem_spec(spec, SEED)
    x0, x1 = initial_points(problem, init, seed=SEED)
    rules = work_rules(problem)
    out = {}
    for scheme in Scheme:
        cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter=iters,
                          record_invariants=record)
        _, calls = count_calls(rules, solve, problem, cfg)
        row = [calls["call"], calls["c_call"], *(calls[name] for name in OPERATORS)]
        row += [calls[kind, False] + calls[kind, True] for kind in SETS]
        row.append(sum(calls[kind, True] for kind in SETS))
        out[scheme.value] = {column: n / iters for column, n in zip(COLUMNS, row)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count calls per iteration of each scheme.")
    parser.add_argument("spec", help="problem spec, such as ex1:n=100,seed=1")
    parser.add_argument("--iters", type=integer, default=200, help="iterations (default 200)")
    parser.add_argument("--record-invariants", action="store_true",
                        help="count solves that record their residuals")
    args = parser.parse_args(argv)
    if args.iters < 1:
        parser.error("--iters must be at least 1")
    try:
        table = counts(args.spec, args.iters, args.record_invariants)
    except ValueError as exc:  # a spec vikit rejects, as `vikit check` reports it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recording = ", recording invariants" if args.record_invariants else ""
    print(f"{args.spec}, {args.iters} iterations, seed {SEED}{recording}")
    print(f"{'scheme':8}  {'python':>8}  {'c':>8}", *(f"{name:>9}" for name in COLUMNS[2:]))
    for name, row in table.items():
        python, c, *work = row.values()
        print(f"{name:8}  {python:8.2f}  {c:8.2f}", *(f"{n:9.3f}" for n in work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
