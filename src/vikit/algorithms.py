"""The ten iterative schemes behind one solver interface.

Four inertial Mann-type extragradient methods (two subgradient-halfspace
variants, two forward-correction variants) and six baselines: anchored,
hybrid-steepest-descent, two plain Mann-type, and two viscosity-type
extragradient methods. Each scheme is one `Scheme` member, which names
its parts, and one generic step runs every member.

`solve` checks its starting points against the problem's space once and
then iterates on plain coordinate arrays. A step that overflows, or meets
NaN, raises NonFiniteElementError at that step; where it checks follows
the `space` module's call convention.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .problems import ProblemInstance
from .projections import HalfSpace, halfspace_residual, project
from .space import (ConfigError, SpaceDescriptor, SpaceElement, check_field, check_finite,
                    check_space, check_type)
from .stepsize import (
    Adaptive,
    Armijo,
    Fixed,
    StepPolicy,
    adaptive_update,
    armijo_search,
)


class Scheme(enum.Enum):
    """A scheme's name (its value) and what it is built from: inertial
    extrapolation or none; the subgradient-extragradient "halfspace"
    projection or Tseng's forward correction "tseng"; the outer update
    ("mann", "modified_mann", "anchored", "viscosity" or "hsd", hybrid
    steepest descent); and the step-policy type."""

    IMSEGM = "imsegm", True, "halfspace", "mann", Adaptive
    IMTEGM = "imtegm", True, "tseng", "mann", Adaptive
    IMMSEGM = "immsegm", True, "halfspace", "modified_mann", Adaptive
    IMMTEGM = "immtegm", True, "tseng", "modified_mann", Adaptive
    HSEGM = "hsegm", False, "halfspace", "anchored", Fixed
    # the Armijo search yields y itself, so an Armijo scheme has no trial
    # point to build a halfspace from and must use the forward correction
    STEGM = "stegm", False, "tseng", "hsd", Armijo
    MSEGM = "msegm", False, "halfspace", "mann", Fixed
    MMSEGM = "mmsegm", False, "halfspace", "modified_mann", Fixed
    VSEGM = "vsegm", False, "halfspace", "viscosity", Adaptive
    VTEGM = "vtegm", False, "tseng", "viscosity", Adaptive

    def __new__(cls, value: str, inertial: bool, correction: str, outer: str, step: type):
        member = object.__new__(cls)
        member._value_ = value
        member.inertial, member.correction, member.outer = inertial, correction, outer
        member.step = step
        return member


PROPOSED = tuple(s for s in Scheme if s.inertial)


class SolveError(RuntimeError):
    """A step failed mid-run; the partial trace is attached."""

    def __init__(self, message: str, trace: "ConvergenceTrace"):
        super().__init__(message)
        self.trace = trace


# Closed forms of the Table 1 sequences, by kind, as functions of the
# 1-based index k, theta_k and a constant's value.
_SEQUENCES = {
    "one_over_kp1": lambda k, theta, value: 1.0 / (k + 1),
    "k_over_kp1": lambda k, theta, value: k / (k + 1),
    "k_over_2kp1": lambda k, theta, value: k / (2 * k + 1),
    "half_one_minus_theta": lambda k, theta, value: 0.5 * (1.0 - theta),
    "theta_over_3": lambda k, theta, value: theta / 3.0,
    "one_over_kp1_sq": lambda k, theta, value: 1.0 / (k + 1) ** 2,
    "constant": lambda k, theta, value: value,
}
_THETA_KINDS = frozenset({"half_one_minus_theta", "theta_over_3"})


@dataclass(frozen=True)
class SequenceRule:
    """Closed-form scalar sequence, evaluated at 1-based iteration index.
    `kind` names one of its closed forms (ConfigError otherwise). Only a
    "constant" reads `value`, which must then be finite; any other kind
    takes none (ConfigError). The terms themselves are not range-checked
    here: a theta_k or eta_k outside its condition's interval, such as
    theta_k = 2, is a violation that `harness.validate_conditions`
    reports, not an error."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SEQUENCES:
            raise ConfigError(f"kind must be one of {', '.join(_SEQUENCES)}, got {self.kind!r}")
        if self.kind == "constant":
            check_field("value", self.value, -math.inf)
        else:
            check_type("value", self.value, type(None))

    def __call__(self, k: int, theta: Optional[float] = None) -> float:
        if theta is None and self.kind in _THETA_KINDS:
            raise ValueError(f"sequence {self.kind!r} depends on theta_k")
        return _SEQUENCES[self.kind](k, theta, self.value)


@dataclass(frozen=True)
class SolverConfig:
    """The parameters of one run. Construction, and so dataclasses.replace,
    checks every rule that needs no problem and raises ConfigError naming
    the field: the kind of each field, by the scheme's parts (zeta is a
    SequenceRule for a scheme with inertia and None for one without, step
    is the scheme's policy type, x0 and x1 are SpaceElements or None),
    theta and zeta of a kind that needs no theta_k, max_iter an integer in
    [0, inf), lambda_T in [0, 1) and tol unset or in (0, inf). check_config
    adds the rules that read the problem. The inertial cap delta is the
    constant INERTIAL_DELTA."""

    algorithm: Scheme
    step: StepPolicy
    theta: SequenceRule
    eta: SequenceRule
    zeta: Optional[SequenceRule] = None
    lambda_T: float = 0.0
    max_iter: int = 400
    x0: Optional[SpaceElement] = None
    x1: Optional[SpaceElement] = None
    tol: Optional[float] = None
    record_invariants: bool = False

    def __post_init__(self):
        scheme, unset = check_type("algorithm", self.algorithm, Scheme), type(None)
        # only the inertial extrapolation reads zeta; check_config asks for x0 and x1
        for name, kind in (("theta", SequenceRule), ("eta", SequenceRule),
                           ("zeta", SequenceRule if scheme.inertial else unset),
                           ("step", scheme.step), ("record_invariants", bool),
                           ("x0", (SpaceElement, unset)), ("x1", (SpaceElement, unset))):
            check_type(name, getattr(self, name), kind)
        for name in ("theta", "zeta"):  # only eta is evaluated with theta_k
            if getattr(getattr(self, name), "kind", None) in _THETA_KINDS:
                raise ConfigError(f"{name} must not depend on theta_k, got {getattr(self, name)}")
        check_field("max_iter", self.max_iter, 0, integer=True)
        check_field("lambda_T", self.lambda_T, 0.0, 1.0)
        check_tol(self.tol)


@dataclass
class IterateState:
    """One iterate and the intermediate points of the step that formed it,
    as coordinate arrays."""

    k: int
    x_prev: np.ndarray
    x_curr: np.ndarray
    s: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    gamma: float = 0.0
    delta_k: float = 0.0
    gamma_prev: float = 0.0
    halfspace: Optional[HalfSpace] = None


class TraceRow(NamedTuple):
    """One trace CSV row: the scalar fields in column order, then the
    residuals in RESIDUAL_NAMES order when recorded."""

    k: int
    D: float
    gamma: float
    delta: float
    elapsed: float
    residuals: Optional[Tuple[float, float, float]] = None


@dataclass
class ConvergenceTrace:
    scheme: Scheme
    rows: List[TraceRow] = field(default_factory=list)

    # the CSV column names of TraceRow's scalar fields, in field order
    SCALAR_NAMES = ("k", "D_k", "gamma_k", "delta_k", "elapsed_s")
    RESIDUAL_NAMES = ("res_contraction", "res_halfspace", "res_tseng")

    def column(self, name: str) -> List[float]:
        """A TraceRow field or residual by name, over the rows that have it."""
        if name in TraceRow._fields:
            return [getattr(r, name) for r in self.rows]
        idx = self.RESIDUAL_NAMES.index(name)
        return [r.residuals[idx] for r in self.rows if r.residuals is not None]


# Table 1's cap delta on the inertial weight, and its hybrid-steepest-descent
# weight lambda for the hsd outer update
INERTIAL_DELTA = 0.6
HSD_LAMBDA = 0.5


def _inertial_weight(space, zeta_k: float, dx: np.ndarray) -> float:
    """Extrapolation weight from dx = x_k - x_{k-1}: min(zeta_k / ||dx||,
    INERTIAL_DELTA), or the cap INERTIAL_DELTA when the last two iterates
    coincide, so that delta_k * ||dx|| <= zeta_k. Like every norm, ||dx||
    raises NonFiniteElementError on a NaN or Inf entry, which the min
    could pass over; a zeta_k that is not positive (NaN included) raises
    ValueError."""
    if not zeta_k > 0:
        raise ValueError(f"zeta_k must be positive, got {zeta_k}")
    gap = space.norm(dx)
    if gap == 0.0:
        return INERTIAL_DELTA
    return min(zeta_k / gap, INERTIAL_DELTA)


# the field of each step-policy type that holds gamma_1
_FIRST_GAMMA = {Fixed: "gamma", Adaptive: "gamma1", Armijo: "rho"}


def _step(scheme: Scheme, state: IterateState, problem: ProblemInstance,
          cfg: SolverConfig) -> IterateState:
    """One iteration of scheme, built from its parts."""
    k = state.k
    theta = cfg.theta(k)
    eta = cfg.eta(k, theta)
    space, A, T = problem.space, problem.A, problem.T
    x = state.x_curr
    s, dk = x, 0.0
    if scheme.inertial:
        dx = x - state.x_prev
        dk = _inertial_weight(space, cfg.zeta(k), dx)
        s = x + dk * dx

    if scheme.step is Armijo:
        gamma, y, As, Ay = armijo_search(space, cfg.step, s, A, problem.C)
    else:
        gamma = state.gamma
        As = A(s)
        trial = s + (-gamma) * As
        y = project(problem.C, trial)
        Ay = A(y)

    hk = None
    if scheme.correction == "tseng":
        z = y + (-gamma) * (Ay - As)
    else:
        hk = HalfSpace(trial - y, y, space)
        z = project(hk, s + (-gamma) * Ay)

    if scheme.outer == "mann":
        x_next = (1.0 - theta - eta) * z + eta * T(z)
    elif scheme.outer == "modified_mann":
        x_next = (1.0 - eta) * (theta * z) + eta * T(z)
    elif scheme.outer == "anchored":
        z = theta * cfg.x0.coords + (1.0 - theta) * z
        x_next = eta * x + (1.0 - eta) * T(z)
    else:
        t = (1.0 - eta) * z + eta * T(z)
        if scheme.outer == "viscosity":
            x_next = theta * problem.f_visc(x) + (1.0 - theta) * t
        else:  # hsd
            x_next = t + (-HSD_LAMBDA * theta) * problem.F(t)
    x_next = check_finite(x_next)

    gamma_next = gamma
    if scheme.step is Adaptive:
        gamma_next = adaptive_update(space, gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k + 1, x, x_next, s, y, z, gamma_next, dk, state.gamma, hk)


# One function per proposed scheme, so each can be called (and profiled)
# on its own; solve runs every scheme through step_baseline.
def step_alg1(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type subgradient extragradient step."""
    return _step(Scheme.IMSEGM, state, problem, cfg)


def step_alg2(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type step with the forward correction in place of the
    second projection."""
    return _step(Scheme.IMTEGM, state, problem, cfg)


def step_alg3(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type subgradient extragradient step."""
    return _step(Scheme.IMMSEGM, state, problem, cfg)


def step_alg4(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type step with the forward correction."""
    return _step(Scheme.IMMTEGM, state, problem, cfg)


def step_baseline(state: IterateState, problem: ProblemInstance,
                  cfg: SolverConfig) -> IterateState:
    """Step of the scheme cfg.algorithm."""
    return _step(cfg.algorithm, state, problem, cfg)


def check_tol(tol: Optional[float]):
    """A stopping tolerance is unset or a positive finite number."""
    if tol is not None:
        check_field("tol", tol, 0.0, lo_open=True)


# the problem operator each outer update reads beyond T
_OUTER_OPERATORS = {"hsd": "F", "viscosity": "f_visc"}


def check_config(cfg: SolverConfig, problem: ProblemInstance):
    """The rules of cfg that read the problem; cfg checked the others when
    it was built, and sequence-condition checks live in the harness. Each
    rejected field raises ConfigError naming it, before any step, as does a
    cfg that is not a SolverConfig or a problem that is not a
    ProblemInstance."""
    check_type("cfg", cfg, SolverConfig)
    check_type("problem", problem, ProblemInstance)
    # validate_conditions reads lambda from the config, which has no problem
    if cfg.lambda_T != problem.lambda_T:
        raise ConfigError(f"lambda_T must be the problem's {problem.lambda_T}, got {cfg.lambda_T}")
    scheme = cfg.algorithm
    # every D_k and residual is measured against x_star
    for name in ("tol", "record_invariants"):
        if problem.x_star is None and getattr(cfg, name) not in (None, False):
            raise ConfigError(f"{name} needs a problem with a known solution x_star")
    # the solver iterates on bare coordinate arrays, which would broadcast
    # or combine silently across spaces, so each start is checked here once
    for name in ("x0", "x1"):
        check_space(name, check_type(name, getattr(cfg, name), SpaceElement), problem.space)
    # gamma in (0, 1/L), with no division: L = 0 admits every gamma
    if scheme.step is Fixed and problem.L is not None and not cfg.step.gamma * problem.L < 1.0:
        raise ConfigError(f"fixed step {cfg.step.gamma} outside (0, 1/L) for L={problem.L}")
    needed = _OUTER_OPERATORS.get(scheme.outer)
    if needed is not None and getattr(problem, needed) is None:
        raise ConfigError(f"{needed} must be set for {scheme.value}'s {scheme.outer} update")


def _residuals(scheme: Scheme, state: IterateState, phi: Optional[float],
               u: np.ndarray, space: SpaceDescriptor) -> Tuple[float, float, float]:
    """Per-iteration inequality slacks, nan where not applicable.

    res_contraction: slack of the halfspace-variant contraction bound, or of
    the phi^2-form bound for forward-correction variants (positive = violated).
    res_halfspace: membership residual of z in the constructed halfspace.
    res_tseng: slack of ||z - y|| <= phi (gamma_k/gamma_{k+1}) ||s - y||.
    """
    res_c = res_h = res_t = math.nan
    s, y, z = state.s, state.y, state.z

    def dist(a, b):
        return space.norm(a - b)

    if scheme.inertial:
        ratio = state.gamma_prev / state.gamma
        if scheme.correction == "tseng":
            coeff = 1.0 - (phi * ratio) ** 2
            d_sy = dist(s, y)
            res_c = dist(z, u) ** 2 - (dist(s, u) ** 2 - coeff * d_sy ** 2)
            res_t = dist(z, y) - phi * ratio * d_sy
        else:
            coeff = 1.0 - phi * ratio
            res_c = dist(z, u) ** 2 - (
                dist(s, u) ** 2
                - coeff * dist(y, s) ** 2
                - coeff * dist(z, y) ** 2
            )
    if state.halfspace is not None:
        res_h = halfspace_residual(state.halfspace, z)
    return res_c, res_h, res_t


def solve(problem: ProblemInstance, cfg: SolverConfig) -> ConvergenceTrace:
    """Run the selected scheme for max_iter iterations, or until D_k < tol
    when tol is set, recording the error D_k (when the solution is known),
    step and inertia parameters, elapsed time, and optional inequality
    residuals. A step that raises ends the run with SolveError, which
    carries the rows recorded so far."""
    check_config(cfg, problem)
    scheme, tol = cfg.algorithm, cfg.tol
    phi = getattr(cfg.step, "phi", None)
    space = problem.space
    x_star = None if problem.x_star is None else problem.x_star.coords

    def err(x: np.ndarray) -> float:
        return space.norm(x - x_star) if x_star is not None else math.nan

    trace = ConvergenceTrace(scheme=cfg.algorithm)
    rows = trace.rows
    state = IterateState(1, cfg.x0.coords, cfg.x1.coords,
                         gamma=getattr(cfg.step, _FIRST_GAMMA[scheme.step]))
    rows.append(TraceRow(1, err(state.x_curr), state.gamma, 0.0, 0.0))
    start = time.perf_counter()
    for _ in range(cfg.max_iter):
        try:
            state = step_baseline(state, problem, cfg)
        except Exception as exc:
            raise SolveError(f"{cfg.algorithm.value} failed at k={state.k}: {exc}",
                             trace) from exc
        residuals = None
        if cfg.record_invariants:
            residuals = _residuals(scheme, state, phi, x_star, space)
        d = err(state.x_curr)
        rows.append(TraceRow(state.k, d, state.gamma, state.delta_k,
                             time.perf_counter() - start, residuals))
        if tol is not None and d < tol:
            break
    return trace
