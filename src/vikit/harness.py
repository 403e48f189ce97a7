"""Benchmark harness: the Table 1 parameter table, sequence-condition
validation, trace CSV serialization, and the experiment-plan runner."""

from __future__ import annotations

import datetime
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import problems as prob
from .algorithms import (
    SCHEMES,
    ConfigError,
    ConvergenceTrace,
    Scheme,
    SequenceRule,
    SolverConfig,
    TraceRow,
    check_tol,
    solve,
)
from .space import SpaceElement
from .stepsize import Adaptive, Armijo, Fixed


class ConditionSet(NamedTuple):
    """A strong-convergence condition set: its label, the upper bound on
    eta_k as a function of (theta_k, lambda), the divisor of zeta_k in the
    ratio that must decrease over the tail, and that ratio's name."""

    label: str
    eta_bound: Callable[[float, float], float]
    zeta_divisor: Callable[[float], float]
    ratio: str


# by outer update: (C4) for Mann with theta_k -> 0, (C5) for modified Mann
# with theta_k -> 1
CONDITIONS = {
    "mann": ConditionSet("C4", lambda th, lam: (1.0 - lam) * (1.0 - th),
                         lambda th: th, "zeta_over_theta"),
    "modified_mann": ConditionSet("C5", lambda th, lam: (1.0 - lam) * th / (lam + th),
                                  lambda th: 1.0 - th, "zeta_over_one_minus_theta"),
}

# Table 1 by part: theta_k and eta_k by outer update, 1/(k+1) and k/(2k+1)
# for every outer update not named here; zeta_k and delta of the inertial
# rows; the step policy by type. A Fixed step depends on the problem's
# Lipschitz constant, so make_config sets it to 0.99/L.
_OUTER_SEQS = {
    "mann": ("one_over_kp1", "half_one_minus_theta"),
    "modified_mann": ("k_over_kp1", "theta_over_3"),
}
_INERTIAL = dict(zeta=SequenceRule("one_over_kp1_sq"), delta=0.6)
_STEPS = {Adaptive: Adaptive(gamma1=0.5, phi=0.5), Armijo: Armijo(rho=1.0, l=0.5, phi=0.4)}
TABLE1_FIXED_GAMMA_FACTOR = 0.99


def _table1_row(parts) -> dict:
    theta, eta = _OUTER_SEQS.get(parts.outer, ("one_over_kp1", "k_over_2kp1"))
    row = dict(theta=SequenceRule(theta), eta=SequenceRule(eta))
    if parts.inertial:
        row.update(_INERTIAL)
    if parts.step in _STEPS:
        row["step"] = _STEPS[parts.step]
    return row


TABLE1: Dict[Scheme, dict] = {scheme: _table1_row(p) for scheme, p in SCHEMES.items()}

# The SolverConfig field each Table 1 key fills; make_config takes these
# keys as overrides.
TABLE1_FIELDS = {"theta": "theta_seq", "eta": "eta_seq", "zeta": "zeta_seq",
                 "delta": "delta", "step": "step", "hsd_lambda": "hsd_lambda"}


def make_config(scheme: Scheme, problem: prob.ProblemInstance,
                x0: Optional[SpaceElement] = None,
                x1: Optional[SpaceElement] = None,
                max_iter: int = 400, tol: Optional[float] = None,
                record_invariants: bool = False,
                **overrides) -> SolverConfig:
    """Build a SolverConfig from the scheme's TABLE1 row; keyword overrides
    win. An override key outside TABLE1_FIELDS raises ConfigError."""
    unknown = [key for key in overrides if key not in TABLE1_FIELDS]
    if unknown:
        raise ConfigError(f"unknown override key(s) {', '.join(unknown)}; "
                          f"make_config takes {', '.join(TABLE1_FIELDS)}")
    entry = dict(TABLE1[scheme], **overrides)
    if entry.get("step") is None:
        if problem.L is None:
            raise ConfigError(f"{scheme.value} needs a Lipschitz bound for its fixed step")
        entry["step"] = Fixed(TABLE1_FIXED_GAMMA_FACTOR / problem.L)
    return SolverConfig(
        algorithm=scheme,
        lambda_T=problem.lambda_T,
        max_iter=max_iter,
        x0=x0,
        x1=x1,
        tol=tol,
        record_invariants=record_invariants,
        **{TABLE1_FIELDS[key]: value for key, value in entry.items()},
    )


@dataclass(frozen=True)
class Violation:
    condition: str
    k: Optional[int]
    message: str

    def __str__(self):
        where = f" at k={self.k}" if self.k is not None else ""
        return f"{self.condition}{where}: {self.message}"


def validate_conditions(cfg: SolverConfig, horizon: int) -> List[Violation]:
    """Pointwise and tail checks of the parameter sequences over k=1..horizon.

    Schemes whose outer update has a CONDITIONS row: theta_k in (0,1),
    eta_k in (0, eta_bound(theta_k, lambda)), zeta_k > 0, and
    zeta_k / zeta_divisor(theta_k) decreasing over the last horizon/2
    terms. Other schemes get range checks only. A horizon below 1 raises
    ValueError.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out: List[Violation] = []
    lam = cfg.lambda_T
    cond = CONDITIONS.get(SCHEMES[cfg.algorithm].outer)
    ks = range(1, horizon + 1)

    thetas = {}
    for k in ks:
        th = cfg.theta_seq(k)
        thetas[k] = th
        if not 0.0 < th < 1.0:
            out.append(Violation("theta_range", k, f"theta_k={th} outside (0,1)"))
            continue
        eta = cfg.eta_seq(k, th)
        if cond is None:
            if not 0.0 < eta < 1.0:
                out.append(Violation("eta_range", k, f"eta_k={eta} outside (0,1)"))
            continue
        hi = cond.eta_bound(th, lam)
        if not 0.0 < eta < hi:
            out.append(Violation(f"{cond.label}.eta_range", k,
                                 f"eta_k={eta} outside (0, {hi})"))

    if cond is not None and cfg.zeta_seq is not None:
        ratios = []
        for k in ks:
            z = cfg.zeta_seq(k)
            if z <= 0.0:
                out.append(Violation("zeta_positive", k, f"zeta_k={z} not positive"))
                continue
            th = thetas[k]
            if 0.0 < th < 1.0:
                ratios.append((k, z / cond.zeta_divisor(th)))
        tail = ratios[len(ratios) // 2:]
        for (k0, r0), (k1, r1) in zip(tail, tail[1:]):
            if r1 >= r0:
                out.append(Violation(f"{cond.label}.{cond.ratio}", k1,
                                     f"ratio {r1} did not decrease from {r0}"))
                break
    return out


@dataclass(frozen=True)
class TraceFileHeader:
    scheme: str
    preset: str
    problem_id: str
    seed: int
    rng: str
    dim: int
    timestamp: str

    @classmethod
    def create(cls, scheme: Scheme, preset: str, problem_id: str, seed: int,
               dim: int) -> "TraceFileHeader":
        return cls(scheme=scheme.value, preset=preset, problem_id=problem_id,
                   seed=seed, rng=prob.RNG_ALGORITHM, dim=dim,
                   timestamp=datetime.datetime.now().isoformat())


def _fmt(v: float) -> str:
    return format(v, ".17g")


def emit_csv(trace: ConvergenceTrace, header: TraceFileHeader, path) -> None:
    """Write '#'-prefixed header lines, a '#' column line, and one data row
    per iterate with 17-significant-digit floats."""
    path = Path(path)
    has_res = any(r.residuals is not None for r in trace.rows)
    cols = "k,D_k,gamma_k,delta_k,elapsed_s"
    if has_res:
        cols += "," + ",".join(ConvergenceTrace.RESIDUAL_NAMES)
    lines = [
        f"# scheme: {header.scheme}",
        f"# preset: {header.preset}",
        f"# problem: {header.problem_id}",
        f"# seed: {header.seed}",
        f"# rng: {header.rng}",
        f"# dim: {header.dim}",
        f"# timestamp: {header.timestamp}",
        f"# columns: {cols}",
    ]
    for r in trace.rows:
        fields = [str(r.k), _fmt(r.D), _fmt(r.gamma), _fmt(r.delta), _fmt(r.elapsed)]
        if has_res:
            res = r.residuals if r.residuals is not None else (math.nan,) * 3
            fields += [_fmt(v) for v in res]
        lines.append(",".join(fields))
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write trace to {path}: {exc}") from exc


def parse_csv(path) -> Tuple[dict, List[TraceRow]]:
    """Inverse of emit_csv; float fields round-trip bitwise."""
    meta = {}
    rows: List[TraceRow] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
            continue
        parts = line.split(",")
        residuals = None
        if len(parts) > 5:
            residuals = tuple(float(v) for v in parts[5:8])
        rows.append(TraceRow(k=int(parts[0]), D=float(parts[1]),
                             gamma=float(parts[2]), delta=float(parts[3]),
                             elapsed=float(parts[4]), residuals=residuals))
    return meta, rows


def trace_fingerprint(path) -> List[str]:
    """CSV body with header lines and wall-clock fields removed; two runs of
    the same plan must agree on this exactly."""
    body = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split(",")
        del parts[4]  # elapsed_s
        body.append(",".join(parts))
    return body


@dataclass
class ExperimentPlan:
    problems: List[str]
    algorithms: List[Scheme]
    max_iter: int
    seeds: List[int]
    output_dir: str
    record_invariants: bool = False
    tol: Optional[float] = None

    def __post_init__(self):
        if not self.problems:
            raise ValueError("plan needs at least one problem spec")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        if not self.seeds:
            raise ValueError("plan needs a non-empty seed list")
        if min(self.seeds) < 0:
            raise ValueError(f"plan seeds must be >= 0, got {min(self.seeds)}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        check_tol(self.tol)
        written_by = {}
        for cell in self.cells():
            try:
                name = _trace_file_name(*cell)
            except ValueError:
                continue  # a malformed spec is reported by its own cell
            if name in written_by:
                raise ValueError(f"duplicate plan cells {_cell_id(*written_by[name])} "
                                 f"and {_cell_id(*cell)} would both write {name}")
            written_by[name] = cell

    def cells(self) -> List[Tuple[str, Scheme, int]]:
        """Every (problem spec, scheme, seed) combination, in run order."""
        return [(spec, scheme, seed)
                for spec in self.problems
                for scheme in self.algorithms
                for seed in self.seeds]


def _spec_fields(spec: str, seed: int) -> Tuple[str, Dict[str, int], str]:
    """Family, integer parameters with defaults filled in, and initial-point
    kind of a problem spec, resolved through problems.FAMILIES. An unknown
    family, an unknown or repeated key, a start the family does not accept
    and a non-integer value raise ValueError naming the spec."""
    name, _, rest = spec.partition(":")
    if name not in prob.FAMILIES:
        raise ValueError(f"unknown problem family {name!r} in {spec!r}")
    family = prob.FAMILIES[name]
    fields = dict(family.keys, init=family.starts[0])
    given = set()
    for item in rest.split(",") if rest else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in {spec!r}; {name} takes "
                             + ", ".join(fields))
        if key in given:
            raise ValueError(f"repeated key {key!r} in {spec!r}")
        given.add(key)
        fields[key] = val.strip()
    init = fields.pop("init")
    if init not in family.starts:
        raise ValueError(f"unsupported init {init!r} in {spec!r}; {name} accepts "
                         + ", ".join(family.starts))
    params = {}
    for key, val in fields.items():
        try:
            params[key] = seed if val is None else int(val)
        except ValueError:
            raise ValueError(f"key {key!r} in {spec!r} must be an integer, "
                             f"got {val!r}") from None
    return name, params, init


def parse_problem_spec(spec: str, seed: int) -> Tuple[prob.ProblemInstance, str]:
    """'ex1:n=100,seed=7[,init=...]' or 'ex2:grid=101[,init=t_squared]'.

    Returns the instance and the initial-point kind. The plan seed is used
    for ex1 generation when the spec does not pin one, and always for
    random initial points. A value the builder rejects raises ValueError
    naming the spec.
    """
    name, params, init = _spec_fields(spec, seed)
    try:
        return prob.FAMILIES[name].build(**params), init
    except ValueError as exc:
        raise ValueError(f"{spec!r}: {exc}") from exc


def _trace_file_name(spec: str, scheme: Scheme, seed: int) -> str:
    """CSV name of a plan cell: problem id, the initial-point kind when it
    is not the family default, scheme and seed. Two cells get the same
    name only when they run the same computation."""
    name, params, init = _spec_fields(spec, seed)
    stem = "_".join([name] + [f"{k}={v}" for k, v in params.items()])
    if init != prob.FAMILIES[name].starts[0]:
        stem += f"_init={init}"
    return f"{stem}__{scheme.value}__seed{seed}.csv"


def _cell_id(spec: str, scheme: Scheme, seed: int) -> str:
    return f"{spec}|{scheme.value}|seed={seed}"


def _problem_key(spec: str, seed: int):
    """Cells with equal keys share one problem: its family and resolved
    integer keys, so init and the scheme do not count. A spec that does not
    resolve is its own key; its build raises the same ValueError."""
    try:
        name, params, _ = _spec_fields(spec, seed)
    except ValueError:
        return spec
    return name, tuple(params.items())


def _cell_error(exc: Exception) -> Tuple[str, str]:
    return ("config" if isinstance(exc, ValueError) else "runtime"), str(exc)


class _SharedProblem:
    """The build and certification of one distinct problem of a plan. The
    first of its cells to ask does the work under the lock and the others
    wait for it. Only the group's queued and running cells refer to it, so
    the problem is freed when the last of them ends."""

    def __init__(self):
        self._lock = threading.Lock()
        self._outcome = None

    def take(self, spec: str, seed: int):
        """(certified problem, None) or (None, the error of every cell)."""
        with self._lock:
            if self._outcome is None:
                try:
                    problem, _ = parse_problem_spec(spec, seed)
                    failures = prob.certify(problem)
                    self._outcome = (problem, None) if not failures else (None, (
                        "certification", "certification failed: " + "; ".join(failures)))
                except Exception as exc:
                    self._outcome = None, _cell_error(exc)
            return self._outcome


def _run_cell(spec: str, scheme: Scheme, seed: int, plan: ExperimentPlan,
              shared: _SharedProblem
              ) -> Tuple[str, Optional[str], Optional[Tuple[str, str]]]:
    """Run one (problem, scheme, seed) cell on its group's shared problem;
    returns (cell id, path, error), where error is a (category, message)
    pair."""
    cell = _cell_id(spec, scheme, seed)
    problem, error = shared.take(spec, seed)
    if error is not None:
        return cell, None, error
    try:
        x0, x1 = prob.initial_points(problem, _spec_fields(spec, seed)[2], seed=seed)
        cfg = make_config(scheme, problem, x0=x0, x1=x1,
                          max_iter=plan.max_iter, tol=plan.tol,
                          record_invariants=plan.record_invariants)
        violations = validate_conditions(cfg, horizon=plan.max_iter)
        if violations:
            return cell, None, ("conditions", "; ".join(str(v) for v in violations))
        trace = solve(problem, cfg)
        header = TraceFileHeader.create(scheme, "table1", problem.problem_id,
                                        seed, problem.space.dim)
        path = Path(plan.output_dir) / _trace_file_name(spec, scheme, seed)
        emit_csv(trace, header, path)
        return cell, str(path), None
    except Exception as exc:
        return cell, None, _cell_error(exc)


@dataclass
class PlanResult:
    paths: List[str] = field(default_factory=list)
    # (cell id, category, message); the category is "certification",
    # "conditions", "config" (a ValueError before the run) or "runtime"
    errors: List[Tuple[str, str, str]] = field(default_factory=list)


def run_plan(plan: ExperimentPlan) -> PlanResult:
    """Execute every (problem, algorithm, seed) cell; failed cells are
    recorded with a category and a reason and do not abort the plan.

    Each distinct problem is built and certified once and shared by its
    cells. They are submitted group by group, so a plan holds about one
    problem per worker. Results follow plan.cells() order."""
    workers = os.environ.get("VIKIT_THREADS", "4").strip()
    if not workers.isdecimal() or int(workers) < 1:
        raise ValueError(f"VIKIT_THREADS must be an integer >= 1, got {workers!r}")
    Path(plan.output_dir).mkdir(parents=True, exist_ok=True)
    cells = plan.cells()
    groups: Dict[object, List[int]] = {}
    for i, (spec, _, seed) in enumerate(cells):
        groups.setdefault(_problem_key(spec, seed), []).append(i)
    futures = [None] * len(cells)
    result = PlanResult()
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        for members in groups.values():
            shared = _SharedProblem()
            for i in members:
                futures[i] = pool.submit(_run_cell, *cells[i], plan, shared)
        for future in futures:
            cell, path, error = future.result()
            if error is not None:
                result.errors.append((cell, *error))
            else:
                result.paths.append(path)
    return result
