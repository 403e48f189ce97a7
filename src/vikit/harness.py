"""Benchmark harness: the Table 1 parameter table, sequence-condition
validation, trace CSV serialization, and the experiment-plan runner."""

from __future__ import annotations

import datetime
import functools
import math
import os
import re
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

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


# Table 1 by part: theta_k and eta_k by outer update (algorithms.Outer's
# kinds); zeta_k of the inertial rows; the step policy by type. A Fixed step
# depends on the problem's Lipschitz constant, so make_config sets it to
# 0.99/L. The inertial cap delta and the hsd weight are
# algorithms.INERTIAL_DELTA and algorithms.HSD_LAMBDA.
_STEPS = {Adaptive: Adaptive(gamma1=0.5, phi=0.5), Armijo: Armijo(rho=1.0, l=0.5, phi=0.4)}
TABLE1_FIXED_GAMMA_FACTOR = 0.99


def _table1_row(scheme: Scheme) -> dict:
    theta, eta = scheme.outer.kinds
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
    raises ConfigError. Every other rule is SolverConfig's. A lambda_T for
    which Table 1's sequences miss C4 or C5 (see algorithms.Outer) still
    builds; validate_conditions reports it."""
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

    Schemes whose outer update (algorithms.Outer) is proved under C4 or
    C5: theta_k in (0,1), eta_k in (0, eta_bound(theta_k, lambda)),
    zeta_k > 0, and zeta_k / zeta_divisor(theta_k) decreasing over the
    last horizon/2 terms. Other schemes get range checks only. The list
    gives the theta and eta violations by k, then the zeta_k > 0
    violations by k, then the ratio's. A horizon that is not an integer of at least 1, or a cfg that
    is not a SolverConfig, raises ConfigError naming it.
    """
    check_field("horizon", horizon, 1, integer=True)
    outer = check_type("cfg", cfg, SolverConfig).algorithm.outer
    cond = None if outer.eta_bound is None else outer
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
    or whose field count differs from that line's, or a field emit_csv
    would not write (k: an ASCII decimal integer; any other: an ASCII
    decimal number, nan, inf or -inf), raises ValueError naming the path
    and the 1-based line number."""
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
        if re.fullmatch(_WRITTEN_ROW, line) is None:  # a field emit_csv never writes; name it
            where = f"{path} line {number}:"
            _matched(_INTEGER, parts[0], f"{where} invalid literal for int() with base 10:")
            for part in parts[1:]:
                _matched(_WRITTEN_FLOAT, part, f"{where} could not convert string to float:")
        residuals = tuple(map(float, parts[scalars:])) or None
        rows.append(TraceRow(int(parts[0]), *map(float, parts[1:scalars]), residuals))
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
    `run_plan` creates anything: each list field is a list or a tuple
    (TypeError otherwise, so a set, a dict or a generator too, whose order
    or values a plan would not keep), stored as a tuple, non-empty, and
    holds strs, Schemes and integer seeds in [0, inf); max_iter is an
    integer in [1, inf), tol unset or in (0, inf), record_invariants a bool
    and output_dir a non-empty str or path (ConfigError naming the field
    otherwise). Each cell's spec is resolved here, once, and two cells that
    would write one file raise ValueError."""

    problems: Tuple[str, ...]
    algorithms: Tuple[Scheme, ...]
    max_iter: int
    seeds: Tuple[int, ...]
    output_dir: str
    record_invariants: bool = False
    tol: Optional[float] = None

    def __post_init__(self):
        # each list field: a list or tuple, so its order is the caller's
        # (stored as a tuple, so that the cells resolved here stay the
        # plan's), non-empty, and its entries' rule
        for name, check in (("problems", functools.partial(check_type, kind=str)),
                            ("algorithms", functools.partial(check_type, kind=Scheme)),
                            ("seeds", functools.partial(check_field, lo=0, integer=True))):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise TypeError(f"plan {name} must be a list, got {value!r}")
            if not value:
                raise ConfigError(f"{name} must not be empty")
            for i, entry in enumerate(value):
                check(f"{name}[{i}]", entry)
            object.__setattr__(self, name, tuple(value))
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


# an ASCII decimal integer; an ASCII decimal number, such as '2', '-.5' or
# '1e-8'; a float as emit_csv's %.17g writes it, which adds nan, inf and
# -inf; and a data row of emit_csv's, k then floats. Each refuses what
# int() or float() would also read, such as '1_0', ' 2 ' or non-ASCII
# digits. They are compiled on first use, through re's cache, so that
# importing vikit compiles none.
_INTEGER = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_WRITTEN_FLOAT = f"{_DECIMAL}|nan|-?inf"
_WRITTEN_ROW = f"{_INTEGER}(?:,(?:{_WRITTEN_FLOAT}))*"


def _matched(rule: str, text: str, message: str) -> str:
    """text, when the pattern rule matches all of it; ValueError
    '<message> <text!r>' otherwise."""
    if re.fullmatch(rule, text) is None:
        raise ValueError(f"{message} {text!r}")
    return text


def _integer(text: str, what: str) -> int:
    """The value of text written as an _INTEGER; anything else raises
    ValueError naming what."""
    return int(_matched(_INTEGER, text, f"{what} must be an integer, got"))


def _decimal(text: str, what: str) -> float:
    """The value of text written as a _DECIMAL, so not 'nan' or 'inf';
    anything else raises ValueError naming what."""
    return float(_matched(_DECIMAL, text, f"{what} must be a decimal number, got"))


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


def _configured(cell: _Cell, plan: ExperimentPlan, problem: prob.ProblemInstance,
                validated: dict) -> Tuple[Optional[SolverConfig], Optional[Tuple[str, str]]]:
    """The config of cell's run on its certified problem, and None; or None
    and the (category, message) error that fails every cell of the run.
    validated holds validate_conditions' violations, joined into one
    message, by (scheme, lambda_T): a plan cell's config takes theta, eta
    and zeta from its scheme's TABLE1 row, so these two decide them, and
    each pair is validated once."""
    scheme, init, _ = cell.run
    try:
        x0, x1 = prob.initial_points(problem, init, seed=cell.seed)
        cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter=plan.max_iter,
                          tol=plan.tol, record_invariants=plan.record_invariants)
        key = scheme, cfg.lambda_T
        if key not in validated:
            validated[key] = "; ".join(map(str, validate_conditions(cfg, horizon=plan.max_iter)))
    except Exception as exc:
        return None, _cell_error(exc)
    return (None, ("conditions", validated[key])) if validated[key] else (cfg, None)


def _outcomes(cells: List[_Cell], task: Future, plan: ExperimentPlan,
              problem: prob.ProblemInstance) -> dict:
    """{cell id: (trace path, error)} of the run that cells stand for, whose
    solve is task, with a (category, message) error or None: the solve's
    error for every cell if it raised, or else the outcome of writing its
    trace once per cell. The first trace written is the computed one; the
    others name it in same_as."""
    # read as task.exception(), not raised by task.result(): a raised
    # exception's traceback would hold this frame, and so task and problem
    exc = task.exception()
    if isinstance(exc, Exception):
        return {cell.id: (None, _cell_error(exc)) for cell in cells}
    trace = task.result()  # raises any other BaseException
    outcomes, source = {}, None
    for cell in cells:
        header = TraceFileHeader.create(cell.scheme, "table1", problem.problem_id,
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
    "config" and runs nothing. The plan's runs go one at a time: each
    distinct problem is built and certified once, then, for each of its
    runs in turn, the run's config is built and validated, its one solve
    runs, and its traces are written, before the next run is configured.
    numpy's BLAS threads are the plan's only parallelism. A failure is
    recorded where it is found, for every cell it stands for: a problem
    that fails to build or certify, or a run whose config or sequences
    fail, solves nothing, and a solve that raises fails each cell of its
    run. All of a problem's runs end and are written before the next
    problem is built, so one problem is alive at a time. Cells that
    differ only in a seed their start does not read run once: the first
    trace is computed and each other cell's trace copies it under its own
    header, with a same_as line naming the computed file. Each distinct
    scheme and lambda_T of a plan has its sequences validated once.
    Results follow plan.cells() order."""
    check_type("plan", plan, ExperimentPlan)
    out = Path(plan.output_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"output path {existing} exists and is not a directory")
    outcomes = {}  # {cell id: (trace path, error)}
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
    validated: Dict[tuple, str] = {}  # see _configured
    # one worker, one task in flight: perfbench's tracer counts each task as a cell
    with ThreadPoolExecutor(max_workers=1) as pool:
        for runs in groups.values():
            problem, error = _certified(next(iter(runs.values()))[0])
            for cells in runs.values():
                cfg, run_error = (None, error) if error else _configured(
                    cells[0], plan, problem, validated)
                if run_error is None:
                    outcomes.update(_outcomes(cells, pool.submit(solve, problem, cfg),
                                              plan, problem))
                else:
                    outcomes.update((cell.id, (None, run_error)) for cell in cells)
            del problem  # so that the next build is the only problem alive
    result = PlanResult()
    for cell in plan._resolved:
        path, error = outcomes[cell.id]
        if error is None:
            result.paths.append(path)
        else:
            result.errors.append((cell.id, *error))
    return result
