"""Benchmark harness: the Table 1 parameter table, sequence-condition
validation, trace CSV serialization, and the experiment-plan runner."""

from __future__ import annotations

import datetime
import functools
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import problems as prob
from .algorithms import (
    ConfigError,
    ConvergenceTrace,
    Scheme,
    SequenceRule,
    SolverConfig,
    TraceRow,
    check_tol,
    solve,
)
from .space import NonFiniteElementError, check_field, check_type
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


def _conditions_label(scheme: Scheme) -> str:
    """What validate_conditions checks a scheme's sequences against: its
    outer update's CONDITIONS label, or range checks only."""
    return CONDITIONS[scheme.outer].label if scheme.outer in CONDITIONS else "range checks only"


# Table 1 by part: theta_k and eta_k by outer update, 1/(k+1) and k/(2k+1)
# for every outer update not named here; zeta_k of the inertial rows; the
# step policy by type. A Fixed step depends on the problem's Lipschitz
# constant, so make_config sets it to 0.99/L. The inertial cap delta and the
# hsd weight are algorithms.INERTIAL_DELTA and algorithms.HSD_LAMBDA.
_OUTER_SEQS = {
    "mann": ("one_over_kp1", "half_one_minus_theta"),
    "modified_mann": ("k_over_kp1", "theta_over_3"),
}
_STEPS = {Adaptive: Adaptive(gamma1=0.5, phi=0.5), Armijo: Armijo(rho=1.0, l=0.5, phi=0.4)}
TABLE1_FIXED_GAMMA_FACTOR = 0.99


def _table1_row(scheme: Scheme) -> dict:
    theta, eta = _OUTER_SEQS.get(scheme.outer, ("one_over_kp1", "k_over_2kp1"))
    row = dict(theta=SequenceRule(theta), eta=SequenceRule(eta))
    if scheme.inertial:
        row["zeta"] = SequenceRule("one_over_kp1_sq")
    if scheme.step in _STEPS:
        row["step"] = _STEPS[scheme.step]
    return row


# Each key of a row is the SolverConfig field it fills.
TABLE1: Dict[Scheme, dict] = {scheme: _table1_row(scheme) for scheme in Scheme}


# the SolverConfig fields make_config takes as keywords: all but the two it
# sets from the scheme and the problem
_CONFIG_FIELDS = tuple(f.name for f in dataclass_fields(SolverConfig)
                       if f.name not in ("algorithm", "lambda_T"))


def make_config(scheme: Scheme, problem: prob.ProblemInstance, **fields) -> SolverConfig:
    """The SolverConfig of scheme on problem: algorithm is scheme, lambda_T
    is the problem's, each keyword sets the SolverConfig field it names,
    and the scheme's TABLE1 row fills theta, eta, zeta and step where they
    are not given. A keyword that is no other SolverConfig field raises
    ConfigError naming it, as does a scheme that is not a Scheme or a
    problem that is not a ProblemInstance. A Fixed
    step is 0.99/L unless a step is given, so a problem with L unset or 0
    raises ConfigError. Every other rule is SolverConfig's.

    Table 1's sequences meet C4 and C5 only when lambda_T < 1/2: at 1/2
    the Mann rows' eta_k equals C4's strict bound at every k, and above it
    the modified Mann rows' eta_k reaches C5's bound from some k on. The
    config is built all the same; validate_conditions reports either."""
    check_type("scheme", scheme, Scheme)
    check_type("problem", problem, prob.ProblemInstance)
    unknown = [key for key in fields if key not in _CONFIG_FIELDS]
    if unknown:
        raise ConfigError(f"{', '.join(unknown)} not among the fields make_config takes: "
                          + ", ".join(_CONFIG_FIELDS))
    fields = dict(TABLE1[scheme], **fields)
    if "step" not in fields:
        if not problem.L:
            raise ConfigError(f"{scheme.value} needs a Lipschitz bound for its fixed step")
        fields["step"] = Fixed(TABLE1_FIXED_GAMMA_FACTOR / problem.L)
    return SolverConfig(algorithm=scheme, lambda_T=problem.lambda_T, **fields)


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
    terms. Other schemes get range checks only. The list gives the theta
    and eta violations by k, then the zeta_k > 0 violations by k, then the
    ratio's. A horizon that is not an integer of at least 1, or a cfg that
    is not a SolverConfig, raises ConfigError naming it.
    """
    check_field("horizon", horizon, 1, integer=True)
    cond = CONDITIONS.get(check_type("cfg", cfg, SolverConfig).algorithm.outer)
    eta_range = "eta_range" if cond is None else f"{cond.label}.eta_range"
    zeta = None if cond is None else cfg.zeta
    out: List[Violation] = []
    zeta_out: List[Violation] = []  # listed after every theta and eta violation
    ratios = []
    for k in range(1, horizon + 1):
        th = cfg.theta(k)
        z = None if zeta is None else zeta(k)
        if z is not None and z <= 0.0:
            zeta_out.append(Violation("zeta_positive", k, f"zeta_k={z} not positive"))
        if not 0.0 < th < 1.0:
            out.append(Violation("theta_range", k, f"theta_k={th} outside (0,1)"))
            continue
        if z is not None and z > 0.0:
            ratios.append((k, z / cond.zeta_divisor(th)))
        eta = cfg.eta(k, th)
        hi = 1 if cond is None else cond.eta_bound(th, cfg.lambda_T)
        if not 0.0 < eta < hi:
            out.append(Violation(eta_range, k, f"eta_k={eta} outside (0,{hi})"))
    tail = ratios[len(ratios) // 2:]
    for (k0, r0), (k1, r1) in zip(tail, tail[1:]):
        if r1 >= r0:
            zeta_out.append(Violation(f"{cond.label}.{cond.ratio}", k1,
                                      f"ratio {r1} did not decrease from {r0}"))
            break
    return out + zeta_out


@dataclass(frozen=True)
class TraceFileHeader:
    """The '# key: value' header lines of a trace CSV, in field order."""

    scheme: str
    preset: str
    problem: str
    seed: int
    rng: str
    dim: int
    timestamp: str
    # file name of the trace this one copies, when another cell ran the
    # same computation; the copied elapsed_s column is that run's
    same_as: Optional[str] = None

    @classmethod
    def create(cls, scheme: Scheme, preset: str, problem_id: str, seed: int,
               dim: int, same_as: Optional[str] = None) -> "TraceFileHeader":
        return cls(scheme=check_type("scheme", scheme, Scheme).value, preset=preset,
                   problem=problem_id, seed=seed, rng=prob.RNG_ALGORITHM, dim=dim,
                   timestamp=datetime.datetime.now().isoformat(), same_as=same_as)


def _row_format(width: int) -> str:
    """The %-format of a CSV data row of width fields: k as an integer,
    then floats to 17 significant digits, which read back bitwise."""
    return "%d" + ",%.17g" * (width - 1)


def emit_csv(trace: ConvergenceTrace, header: TraceFileHeader, path) -> None:
    """Write one '# key: value' line per header field that is set, a
    '# columns:' line, and one data row per iterate with 17-significant-digit
    floats. The residual columns are written when some row has them, as nan
    in the rows that do not. A header that is not a TraceFileHeader raises
    ConfigError naming it."""
    check_type("header", header, TraceFileHeader)
    names = ConvergenceTrace.SCALAR_NAMES
    missing = ()  # the residuals of a row that has none
    if any(r.residuals is not None for r in trace.rows):
        names += ConvergenceTrace.RESIDUAL_NAMES
        missing = (math.nan,) * len(ConvergenceTrace.RESIDUAL_NAMES)
    lines = [f"# {key}: {value}" for key, value in asdict(header).items() if value is not None]
    lines.append(f"# columns: {','.join(names)}")
    row = _row_format(len(names))
    # a TraceRow's last field is its residuals
    lines += [row % (r[:-1] + (r.residuals or missing)) for r in trace.rows]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write trace to {path}: {exc}") from exc


# the '# columns:' lines emit_csv writes: the scalars, then the residuals
# when they were recorded
_COLUMN_LINES = tuple(",".join(names) for names in (
    ConvergenceTrace.SCALAR_NAMES,
    ConvergenceTrace.SCALAR_NAMES + ConvergenceTrace.RESIDUAL_NAMES))


def parse_csv(path) -> Tuple[dict, List[TraceRow]]:
    """Inverse of emit_csv; float fields round-trip bitwise. A header key
    given twice (emit_csv writes each once), a '# columns:' line other than
    the two emit_csv writes, a data row with no '# columns:' line before it
    or whose field count differs from that line's, or a field that is not a
    number (k: not an integer), raises ValueError naming the path and the
    1-based line number."""
    scalars = len(ConvergenceTrace.SCALAR_NAMES)
    meta = {}
    rows: List[TraceRow] = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            key, val = key.strip(), val.strip()
            if key in meta:
                raise ValueError(f"{path} line {number}: a second '# {key}:' line")
            if key == "columns" and val not in _COLUMN_LINES:
                raise ValueError(f"{path} line {number}: '# columns:' line names {val!r}, "
                                 f"not {_COLUMN_LINES[0]!r} or {_COLUMN_LINES[1]!r}")
            meta[key] = val
            continue
        if "columns" not in meta:
            raise ValueError(f"{path} line {number}: a data row before any '# columns:' line")
        parts = line.split(",")
        width = meta["columns"].count(",") + 1
        if len(parts) != width:
            raise ValueError(f"{path} line {number}: {len(parts)} fields, but the "
                             f"'# columns:' line names {width}")
        try:
            residuals = tuple(map(float, parts[scalars:])) or None
            rows.append(TraceRow(int(parts[0]), *map(float, parts[1:scalars]), residuals))
        except ValueError as exc:  # a field that is not a number, or a k that is no integer
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return meta, rows


def trace_fingerprint(path) -> List[str]:
    """The CSV's data rows without the wall-clock field, read by parse_csv
    and written in emit_csv's row format; two runs of the same plan must
    agree on this exactly. A file parse_csv rejects raises its ValueError."""
    cut = ConvergenceTrace.SCALAR_NAMES.index("elapsed_s")
    meta, rows = parse_csv(path)
    row = _row_format(meta.get("columns", "").count(","))  # every column but elapsed_s
    return [row % (r[:cut] + r[cut + 1:-1] + (r.residuals or ())) for r in rows]


@dataclass(frozen=True)
class ExperimentPlan:
    """Every (problem spec, scheme, seed) cell, with the run settings they
    share. Construction checks the plan whole, so a bad plan fails before
    `run_plan` creates anything: each list field is a list (TypeError
    otherwise), stored as a tuple, non-empty, and holds strs, Schemes and
    integer seeds in [0, inf); max_iter is an integer in [1, inf), tol
    unset or in (0, inf), record_invariants a bool and output_dir a
    non-empty str or path (ConfigError naming the field otherwise). Each
    cell's spec is resolved here, once, and two cells that would write one
    file raise ValueError."""

    problems: Tuple[str, ...]
    algorithms: Tuple[Scheme, ...]
    max_iter: int
    seeds: Tuple[int, ...]
    output_dir: str
    record_invariants: bool = False
    tol: Optional[float] = None

    def __post_init__(self):
        # each list field: a list (stored as a tuple, so that the cells
        # resolved here stay the plan's), non-empty, and its entries' rule
        for name, check in (("problems", functools.partial(check_type, kind=str)),
                            ("algorithms", functools.partial(check_type, kind=Scheme)),
                            ("seeds", functools.partial(check_field, lo=0, integer=True))):
            value = getattr(self, name)
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise TypeError(f"plan {name} must be a list, got {value!r}")
            value = tuple(value)
            if not value:
                raise ConfigError(f"{name} must not be empty")
            for i, entry in enumerate(value):
                check(f"{name}[{i}]", entry)
            object.__setattr__(self, name, value)
        check_field("max_iter", self.max_iter, 1, integer=True)
        check_tol(self.tol)
        check_type("record_invariants", self.record_invariants, bool)
        if not check_type("output_dir", self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must name a directory, got {self.output_dir!r}")
        object.__setattr__(self, "_resolved", [_resolve(*cell) for cell in self.cells()])
        written_by = {}
        for cell in self._resolved:
            if cell.error is None and written_by.setdefault(cell.file, cell) is not cell:
                raise ValueError(f"duplicate plan cells {written_by[cell.file].id} "
                                 f"and {cell.id} would both write {cell.file}")

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
    params = {key: seed if val is None else _integer(str(val), f"key {key!r} in {spec!r}")
              for key, val in fields.items()}
    return name, params, init


def _integer(text: str, what: str) -> int:
    """The value of text written as an ASCII decimal integer, [+-]?[0-9]+.
    Anything else, such as '1_0' or non-ASCII digits that int() would read,
    raises ValueError naming what."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"{what} must be an integer, got {text!r}")
    return int(text)


def _decimal(text: str, what: str) -> float:
    """The value of text written as an ASCII decimal number, such as '2',
    '-.5' or '1e-8'. Anything else, such as '1_0', 'nan', 'inf' or
    non-ASCII digits that float() would read, raises ValueError naming
    what."""
    if re.fullmatch(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?", text) is None:
        raise ValueError(f"{what} must be a decimal number, got {text!r}")
    return float(text)


def parse_problem_spec(spec: str, seed: int) -> Tuple[prob.ProblemInstance, str]:
    """'ex1:n=100,seed=7[,init=...]' or 'ex2:grid=101[,init=t_squared]'.

    Returns the instance and the initial-point kind. The plan seed is used
    for ex1 generation when the spec does not pin one, and always for
    random initial points. A value the builder rejects raises ValueError
    naming the spec; a spec that is not a str, or a seed that is not an
    integer in [0, inf), raises ConfigError naming it, even when the spec
    pins its own seed.
    """
    check_field("seed", seed, 0, integer=True)
    name, params, init = _spec_fields(check_type("spec", spec, str), seed)
    try:
        return prob.FAMILIES[name].build(**params), init
    except ValueError as exc:
        raise ValueError(f"{spec!r}: {exc}") from exc


class _Cell(NamedTuple):
    """A plan cell resolved once: its id, trace file name, problem key and
    run key, or the ValueError of a spec that does not resolve. Cells with
    equal problem keys (family and resolved integer keys) share one
    problem. Of those, cells with equal run keys (scheme, start, and the
    seed only when the start draws from it) run the same computation, and
    only such cells share a file name."""

    spec: str
    scheme: Scheme
    seed: int
    id: str
    file: Optional[str] = None
    problem: Optional[tuple] = None
    run: Optional[tuple] = None
    error: Optional[ValueError] = None


def _resolve(spec: str, scheme: Scheme, seed: int) -> _Cell:
    cell = _Cell(spec, scheme, seed, f"{spec}|{scheme.value}|seed={seed}")
    try:
        name, params, init = _spec_fields(spec, seed)
    except ValueError as exc:
        return cell._replace(error=exc)
    stem = "_".join([name] + [f"{k}={v}" for k, v in params.items()])
    if init != prob.FAMILIES[name].starts[0]:
        stem += f"_init={init}"
    reads_seed = prob._START_RECIPES[init].reads_seed
    return cell._replace(file=f"{stem}__{scheme.value}__seed{seed}.csv",
                         problem=(name, tuple(params.items())),
                         run=(scheme, init, seed if reads_seed else None))


def _cell_error(exc: Exception) -> Tuple[str, str]:
    return ("config" if isinstance(exc, ValueError) else "runtime"), str(exc)


def _certified(cell: _Cell) -> Tuple[Optional[prob.ProblemInstance], Optional[Tuple[str, str]]]:
    """The problem of cell's spec, built and certified, and None; or None
    and the (category, message) error that fails every cell of it."""
    try:
        problem, _ = parse_problem_spec(cell.spec, cell.seed)
        try:
            failures = prob.certify(problem)
        except NonFiniteElementError as exc:
            failures = [str(exc)]
    except Exception as exc:
        return None, _cell_error(exc)
    return problem, None if not failures else (
        "certification", "certification failed: " + "; ".join(failures))


def _validator(horizon: int) -> Callable[[SolverConfig], List[Violation]]:
    """validate_conditions(cfg, horizon), called once for each distinct
    (scheme, lambda_T) of the configs it is given, from any thread. A plan
    cell's config takes theta, eta and zeta from its scheme's TABLE1 row,
    so these two decide the result."""
    memo: Dict[tuple, List[Violation]] = {}
    lock = threading.Lock()

    def validate(cfg: SolverConfig) -> List[Violation]:
        key = cfg.algorithm, cfg.lambda_T
        with lock:
            if key not in memo:
                memo[key] = validate_conditions(cfg, horizon=horizon)
            return memo[key]
    return validate


def _run_cells(cells: List[_Cell], plan: ExperimentPlan,
               problem: Optional[prob.ProblemInstance],
               error: Optional[Tuple[str, str]],
               validate: Callable[[SolverConfig], List[Violation]]) -> dict:
    """Run the computation that all of cells stand for once, on their
    group's certified problem, checking its config's sequences with
    validate (see `_validator`), and write one trace per cell. Returns
    {cell id: (trace path, error)}, with a (category, message) error or
    None. The first trace written is the computed one; the others name it
    in same_as. A failed computation, or the error that stands for the
    problem, fails every cell with the same error."""
    scheme, init, _ = cells[0].run
    if error is None:
        try:
            x0, x1 = prob.initial_points(problem, init, seed=cells[0].seed)
            cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter=plan.max_iter,
                              tol=plan.tol, record_invariants=plan.record_invariants)
            violations = validate(cfg)
            if violations:
                error = "conditions", "; ".join(str(v) for v in violations)
            else:
                trace = solve(problem, cfg)
        except Exception as exc:
            error = _cell_error(exc)
    if error is not None:
        return {cell.id: (None, error) for cell in cells}
    outcomes, source = {}, None
    for cell in cells:
        header = TraceFileHeader.create(scheme, "table1", problem.problem_id,
                                        cell.seed, problem.space.dim, same_as=source)
        path = Path(plan.output_dir) / cell.file
        try:
            emit_csv(trace, header, path)
            outcomes[cell.id] = str(path), None
            source = source or path.name
        except Exception as exc:
            outcomes[cell.id] = None, _cell_error(exc)
    return outcomes


@dataclass
class PlanResult:
    paths: List[str] = field(default_factory=list)
    # (cell id, category, message); the category is "certification",
    # "conditions", "config" (a ValueError before the run) or "runtime"
    errors: List[Tuple[str, str, str]] = field(default_factory=list)


def run_plan(plan: ExperimentPlan) -> PlanResult:
    """Execute every (problem, algorithm, seed) cell; failed cells are
    recorded with a category and a reason and do not abort the plan.

    A trace file of the plan that already exists, or an output path that
    is or lies under an existing non-directory, raises ValueError before
    anything runs, and a plan that is not an ExperimentPlan raises
    ConfigError naming it. A cell whose spec does not resolve fails with
    "config" and runs nothing. Each distinct problem is built and
    certified once, on the calling thread, before its runs go to the pool,
    and all of its runs end before the next problem is built, so one
    problem is alive at a time for every VIKIT_THREADS. Cells that differ
    only in a seed their start does not read run once: the first trace is
    computed and each other cell's trace copies it under its own header,
    with a same_as line naming the computed file. Each distinct scheme and
    lambda_T of a plan has its sequences validated once. Results follow
    plan.cells() order."""
    check_type("plan", plan, ExperimentPlan)
    workers = _integer(os.environ.get("VIKIT_THREADS", "4").strip(), "VIKIT_THREADS")
    check_field("VIKIT_THREADS", workers, 1, integer=True)
    out = Path(plan.output_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"output path {existing} exists and is not a directory")
    outcomes = {}  # {cell id: (trace path, error)}, as _run_cells returns them
    groups: Dict[tuple, Dict[tuple, List[_Cell]]] = {}  # cells by problem key, then run key
    for cell in plan._resolved:
        if cell.error is not None:
            outcomes[cell.id] = None, _cell_error(cell.error)
        elif (out / cell.file).is_file():
            raise ValueError(f"{out / cell.file} already exists; cell {cell.id} "
                             "would overwrite it")
        else:
            groups.setdefault(cell.problem, {}).setdefault(cell.run, []).append(cell)
    out.mkdir(parents=True, exist_ok=True)
    validate = _validator(plan.max_iter)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for runs in groups.values():
            problem, error = _certified(next(iter(runs.values()))[0])
            tasks = [pool.submit(_run_cells, run, plan, problem, error, validate)
                     for run in runs.values()]
            del problem  # now only the tasks hold it, so it is freed before the next build
            for task in tasks:
                outcomes.update(task.result())
    result = PlanResult()
    for cell in plan._resolved:
        path, error = outcomes[cell.id]
        if error is None:
            result.paths.append(path)
        else:
            result.errors.append((cell.id, *error))
    return result
