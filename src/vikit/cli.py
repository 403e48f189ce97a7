"""Command-line entry point.

Subcommands:
  run       execute an algorithm x problem x seed grid, writing CSV traces
  validate  check a scheme's Table 1 sequences against its condition set
  check     certify a problem instance (operators and known solution)

Exit codes: 0 success, 2 bad input (configuration, conditions or
certification), 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, problems
from .algorithms import Scheme, SolverConfig


def _scheme_list(name: str):
    if name == "all":
        return list(Scheme)
    try:
        return [Scheme(name)]
    except ValueError:
        raise ValueError(f"unknown algorithm {name!r}; choose one of "
                         + ", ".join(s.value for s in Scheme) + ", all")


def integer(text: str) -> int:
    """An integer flag's value, by the ASCII-decimal rule of problem specs;
    argparse names the flag when it fails."""
    return harness._integer(text, "value")


def decimal(text: str) -> float:
    """--tol's value, by the ASCII-decimal rule of harness._decimal."""
    return harness._decimal(text, "value")


class _Once(argparse.Action):
    """Stores a scalar flag's value. A second occurrence of the flag is a
    usage error that names it (exit 2), where argparse would keep the last
    value without a word."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _cmd_run(args) -> int:
    plan = harness.ExperimentPlan(
        problems=args.problem,
        algorithms=[s for name in args.alg for s in _scheme_list(name)],
        max_iter=args.max_iter,
        seeds=args.seed or [1],
        output_dir=args.out,
        record_invariants=args.record_invariants,
        tol=args.tol,
    )
    result = harness.run_plan(plan)
    for path in result.paths:
        print(path)
    for cell, _, reason in result.errors:
        print(f"FAILED {cell}: {reason}", file=sys.stderr)
    if result.errors:
        return 2 if any(category != "runtime" for _, category, _ in result.errors) else 1
    return 0


def _cmd_validate(args) -> int:
    problem = harness.parse_problem_spec(args.problem, seed=args.seed)[0]
    status = 0
    for name in args.alg:
        for scheme in _scheme_list(name):
            cfg = harness.make_config(scheme, problem)
            violations = harness.validate_conditions(cfg, args.horizon)
            if violations:
                status = 2
                for v in violations:
                    print(f"{scheme.value}: {v}")
            else:
                print(f"{scheme.value}: ok ({scheme.outer.label}, {args.horizon} terms)")
    return status


def _cmd_check(args) -> int:
    problem, _ = harness.parse_problem_spec(args.problem, seed=args.seed)
    failures = problems.certify(problem)
    if failures:
        for f in failures:
            print(f"{problem.problem_id}: {f}")
        return 2
    print(f"{problem.problem_id}: certified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vikit",
                                     description="VI + fixed-point solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark grid")
    run.add_argument("--problem", action="append", required=True,
                     help="ex1:n=100,seed=7 or ex2:grid=101[,init=t_squared]")
    run.add_argument("--alg", action="append", required=True,
                     help="scheme name or 'all' (repeatable)")
    run.add_argument("--max-iter", type=integer, default=SolverConfig.max_iter, action=_Once)
    run.add_argument("--tol", type=decimal, default=None, action=_Once)
    run.add_argument("--seed", type=integer, action="append", default=None)
    run.add_argument("--record-invariants", action="store_true")
    run.add_argument("--out", required=True, action=_Once)
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="validate the Table 1 sequences")
    val.add_argument("--alg", action="append", required=True)
    val.add_argument("--horizon", type=integer, default=SolverConfig.max_iter, action=_Once)
    val.add_argument("--problem", default="ex1:n=10,seed=1", action=_Once,
                     help="instance whose mapping T supplies the demicontractive "
                          "constant lambda to the condition sets")
    val.add_argument("--seed", type=integer, default=1, action=_Once)
    val.set_defaults(func=_cmd_validate)

    chk = sub.add_parser("check", help="certify a problem instance")
    chk.add_argument("--problem", required=True, action=_Once)
    chk.add_argument("--seed", type=integer, default=1, action=_Once)
    chk.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return exc.code
    try:
        return args.func(args)
    except Exception as exc:  # bad input (ValueError) or a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
