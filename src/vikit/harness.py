"""Benchmark harness: the Table 1 parameter table, sequence-condition
validation, trace CSV serialization, and the experiment-plan runner."""

from __future__ import annotations

import datetime
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import problems as prob
from .algorithms import (
    C4_SCHEMES,
    C5_SCHEMES,
    ConfigError,
    ConvergenceTrace,
    Scheme,
    SequenceRule,
    SolverConfig,
    TraceRow,
    solve,
)
from .space import SpaceElement
from .stepsize import Adaptive, Armijo, Fixed


# Table 1 parameters: everything except the step policy for fixed-step
# schemes, whose gamma depends on the problem's Lipschitz constant (0.99/L).
TABLE1_FIXED_GAMMA_FACTOR = 0.99

_SEQ = SequenceRule

TABLE1: Dict[Scheme, dict] = {
    Scheme.HSEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("k_over_2kp1")),
    Scheme.MSEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("half_one_minus_theta")),
    Scheme.MMSEGM: dict(theta=_SEQ("k_over_kp1"), eta=_SEQ("theta_over_3")),
    Scheme.IMSEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("half_one_minus_theta"),
                        zeta=_SEQ("one_over_kp1_sq"), delta=0.6,
                        step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.IMTEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("half_one_minus_theta"),
                        zeta=_SEQ("one_over_kp1_sq"), delta=0.6,
                        step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.IMMSEGM: dict(theta=_SEQ("k_over_kp1"), eta=_SEQ("theta_over_3"),
                         zeta=_SEQ("one_over_kp1_sq"), delta=0.6,
                         step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.IMMTEGM: dict(theta=_SEQ("k_over_kp1"), eta=_SEQ("theta_over_3"),
                         zeta=_SEQ("one_over_kp1_sq"), delta=0.6,
                         step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.VSEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("k_over_2kp1"),
                       step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.VTEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("k_over_2kp1"),
                       step=Adaptive(gamma1=0.5, phi=0.5)),
    Scheme.STEGM: dict(theta=_SEQ("one_over_kp1"), eta=_SEQ("k_over_2kp1"),
                       step=Armijo(rho=1.0, l=0.5, phi=0.4), hsd_lambda=0.5),
}


def make_config(scheme: Scheme, problem: prob.ProblemInstance,
                x0: Optional[SpaceElement] = None,
                x1: Optional[SpaceElement] = None,
                max_iter: int = 400, tol: Optional[float] = None,
                record_invariants: bool = False,
                **overrides) -> SolverConfig:
    """Build a SolverConfig from the scheme's TABLE1 row; keyword overrides win."""
    entry = dict(TABLE1[scheme], **overrides)
    step = entry.get("step")
    if step is None:
        if problem.L is None:
            raise ConfigError(f"{scheme.value} needs a Lipschitz bound for its fixed step")
        step = Fixed(TABLE1_FIXED_GAMMA_FACTOR / problem.L)
    lam = problem.T_info.demicontractive_lambda
    return SolverConfig(
        algorithm=scheme,
        step=step,
        theta_seq=entry["theta"],
        eta_seq=entry["eta"],
        zeta_seq=entry.get("zeta"),
        delta=entry.get("delta", 0.0),
        lambda_T=lam if lam is not None else 0.0,
        hsd_lambda=entry.get("hsd_lambda", 0.5),
        max_iter=max_iter,
        x0=x0,
        x1=x1,
        tol=tol,
        record_invariants=record_invariants,
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

    Vanishing-theta schemes: theta_k in (0,1), eta_k in
    (0, (1-lambda)(1-theta_k)), zeta_k > 0, and zeta_k/theta_k decreasing
    over the last horizon/2 terms. Theta-to-one schemes: eta_k in
    (0, (1-lambda)theta_k/(lambda+theta_k)) and zeta_k/(1-theta_k)
    decreasing over the tail. Other schemes get range checks only.
    """
    out: List[Violation] = []
    lam = cfg.lambda_T
    scheme = cfg.algorithm
    ks = range(1, horizon + 1)

    thetas = {}
    for k in ks:
        th = cfg.theta_seq(k)
        thetas[k] = th
        if not 0.0 < th < 1.0:
            out.append(Violation("theta_range", k, f"theta_k={th} outside (0,1)"))
            continue
        eta = cfg.eta_seq(k, th)
        if scheme in C4_SCHEMES:
            hi = (1.0 - lam) * (1.0 - th)
            if not 0.0 < eta < hi:
                out.append(Violation("C4.eta_range", k,
                                     f"eta_k={eta} outside (0, {hi})"))
        elif scheme in C5_SCHEMES:
            hi = (1.0 - lam) * th / (lam + th)
            if not 0.0 < eta < hi:
                out.append(Violation("C5.eta_range", k,
                                     f"eta_k={eta} outside (0, {hi})"))
        else:
            if not 0.0 < eta < 1.0:
                out.append(Violation("eta_range", k, f"eta_k={eta} outside (0,1)"))

    needs_zeta = scheme in C4_SCHEMES or scheme in C5_SCHEMES
    if needs_zeta and cfg.zeta_seq is not None:
        ratios = []
        for k in ks:
            z = cfg.zeta_seq(k)
            if z <= 0.0:
                out.append(Violation("zeta_positive", k, f"zeta_k={z} not positive"))
                continue
            th = thetas.get(k)
            if th is None or not 0.0 < th < 1.0:
                continue
            if scheme in C4_SCHEMES:
                ratios.append((k, z / th))
            else:
                ratios.append((k, z / (1.0 - th)))
        tail = ratios[len(ratios) // 2:]
        label = "C4.zeta_over_theta" if scheme in C4_SCHEMES else "C5.zeta_over_one_minus_theta"
        for (k0, r0), (k1, r1) in zip(tail, tail[1:]):
            if r1 >= r0:
                out.append(Violation(label, k1,
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
        cols += ",res_contraction,res_halfspace,res_tseng"
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
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be a positive finite number, got {self.tol}")
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


# Keys each problem family accepts, in problem-id order, with their
# defaults; a None default is filled in with the plan seed.
_SPEC_KEYS = {
    "ex1": {"n": 100, "seed": None, "init": "random_uniform"},
    "ex2": {"grid": 101, "init": "t_squared"},
}


def _spec_fields(spec: str, seed: int) -> Tuple[str, Dict[str, int], str]:
    """Family, integer parameters with defaults filled in, and initial-point
    kind of a problem spec. Unknown families and keys raise ValueError."""
    name, _, rest = spec.partition(":")
    if name not in _SPEC_KEYS:
        raise ValueError(f"unknown problem family {name!r} in {spec!r}")
    fields = dict(_SPEC_KEYS[name])
    for item in rest.split(",") if rest else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in {spec!r}; {name} takes "
                             + ", ".join(fields))
        fields[key] = val.strip()
    init = fields.pop("init")
    return name, {k: seed if v is None else int(v) for k, v in fields.items()}, init


def parse_problem_spec(spec: str, seed: int) -> Tuple[prob.ProblemInstance, str]:
    """'ex1:n=100,seed=7[,init=...]' or 'ex2:grid=101[,init=t_squared]'.

    Returns the instance and the initial-point kind. The plan seed is used
    for ex1 generation when the spec does not pin one, and always for
    random initial points.
    """
    name, params, init = _spec_fields(spec, seed)
    if name == "ex1":
        instance = prob.make_example1(prob.RandomSpec(**params))
    else:
        instance = prob.make_example2(params["grid"])
    return instance, init


def _trace_file_name(spec: str, scheme: Scheme, seed: int) -> str:
    """CSV name of a plan cell: problem id, the initial-point kind when it
    is not the family default, scheme and seed. Two cells get the same
    name only when they run the same computation."""
    name, params, init = _spec_fields(spec, seed)
    stem = "_".join([name] + [f"{k}={v}" for k, v in params.items()])
    if init != _SPEC_KEYS[name]["init"]:
        stem += f"_init={init}"
    return f"{stem}__{scheme.value}__seed{seed}.csv"


def _cell_id(spec: str, scheme: Scheme, seed: int) -> str:
    return f"{spec}|{scheme.value}|seed={seed}"


def _run_cell(spec: str, scheme: Scheme, seed: int, plan: ExperimentPlan
              ) -> Tuple[str, Optional[str], Optional[Tuple[str, str]]]:
    """Run one (problem, scheme, seed) cell; returns (cell id, path, error),
    where error is a (category, message) pair."""
    cell = _cell_id(spec, scheme, seed)
    try:
        problem, init = parse_problem_spec(spec, seed)
        failures = prob.certify(problem)
        if failures:
            return cell, None, ("certification",
                                "certification failed: " + "; ".join(failures))
        x0, x1 = prob.initial_points(problem, init, seed=seed)
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
    except ValueError as exc:
        return cell, None, ("config", str(exc))
    except Exception as exc:
        return cell, None, ("runtime", str(exc))


@dataclass
class PlanResult:
    paths: List[str] = field(default_factory=list)
    # (cell id, category, message); the category is "certification",
    # "conditions", "config" (a ValueError before the run) or "runtime"
    errors: List[Tuple[str, str, str]] = field(default_factory=list)


def run_plan(plan: ExperimentPlan) -> PlanResult:
    """Execute every (problem, algorithm, seed) cell; failed cells are
    recorded with a category and a reason and do not abort the plan."""
    workers = os.environ.get("VIKIT_THREADS", "4").strip()
    if not workers.isdecimal() or int(workers) < 1:
        raise ValueError(f"VIKIT_THREADS must be an integer >= 1, got {workers!r}")
    Path(plan.output_dir).mkdir(parents=True, exist_ok=True)
    cells = plan.cells()
    result = PlanResult()
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        for cell, path, error in pool.map(lambda c: _run_cell(*c, plan), cells):
            if error is not None:
                result.errors.append((cell, *error))
            else:
                result.paths.append(path)
    return result
