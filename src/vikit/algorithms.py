"""The ten iterative schemes behind one solver interface.

Four inertial Mann-type extragradient methods (two subgradient-halfspace
variants, two forward-correction variants) and six baselines: anchored,
hybrid-steepest-descent, two plain Mann-type, and two viscosity-type
extragradient methods. Each scheme is one row of `SCHEMES`, and one
generic step runs every row.

`solve` checks its starting points against the problem's space once and
then iterates on plain coordinate arrays. A step that overflows, or meets
NaN, raises NonFiniteElementError at that step; where it checks follows
README's call convention.
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
from .space import SpaceDescriptor, SpaceElement, check_finite, finite_norm
from .stepsize import (
    Adaptive,
    Armijo,
    Fixed,
    StepPolicy,
    adaptive_update,
    armijo_search,
)


class Scheme(enum.Enum):
    IMSEGM = "imsegm"
    IMTEGM = "imtegm"
    IMMSEGM = "immsegm"
    IMMTEGM = "immtegm"
    HSEGM = "hsegm"
    STEGM = "stegm"
    MSEGM = "msegm"
    MMSEGM = "mmsegm"
    VSEGM = "vsegm"
    VTEGM = "vtegm"

    # members are singletons, so identity hashes agree with equality;
    # Enum's own __hash__ hashes the name in Python, on every SCHEMES lookup
    __hash__ = object.__hash__


class Parts(NamedTuple):
    """What a scheme is built from: inertial extrapolation or none; the
    subgradient-extragradient "halfspace" projection or Tseng's forward
    correction "tseng"; the outer update ("mann", "modified_mann",
    "anchored", "viscosity" or "hsd", hybrid steepest descent); and the
    step-policy type."""

    inertial: bool
    correction: str
    outer: str
    step: type


SCHEMES = {
    Scheme.IMSEGM: Parts(True, "halfspace", "mann", Adaptive),
    Scheme.IMTEGM: Parts(True, "tseng", "mann", Adaptive),
    Scheme.IMMSEGM: Parts(True, "halfspace", "modified_mann", Adaptive),
    Scheme.IMMTEGM: Parts(True, "tseng", "modified_mann", Adaptive),
    Scheme.HSEGM: Parts(False, "halfspace", "anchored", Fixed),
    # the Armijo search yields y itself, so an Armijo row has no trial point
    # to build a halfspace from and must use the forward correction
    Scheme.STEGM: Parts(False, "tseng", "hsd", Armijo),
    Scheme.MSEGM: Parts(False, "halfspace", "mann", Fixed),
    Scheme.MMSEGM: Parts(False, "halfspace", "modified_mann", Fixed),
    Scheme.VSEGM: Parts(False, "halfspace", "viscosity", Adaptive),
    Scheme.VTEGM: Parts(False, "tseng", "viscosity", Adaptive),
}

PROPOSED = tuple(s for s, p in SCHEMES.items() if p.inertial)


class ConfigError(ValueError):
    """Solver configuration rejected before the run starts."""


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
    """Closed-form scalar sequence, evaluated at 1-based iteration index."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _SEQUENCES:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise ValueError("constant sequences need a value")

    def __call__(self, k: int, theta: Optional[float] = None) -> float:
        if theta is None and self.kind in _THETA_KINDS:
            raise ValueError(f"sequence {self.kind!r} depends on theta_k")
        return _SEQUENCES[self.kind](k, theta, self.value)


@dataclass
class SolverConfig:
    algorithm: Scheme
    step: StepPolicy
    theta: SequenceRule
    eta: SequenceRule
    zeta: Optional[SequenceRule] = None
    delta: float = 0.0
    lambda_T: float = 0.0
    max_iter: int = 400
    x0: Optional[SpaceElement] = None
    x1: Optional[SpaceElement] = None
    tol: Optional[float] = None
    record_invariants: bool = False


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


def inertial_delta(space: SpaceDescriptor, delta: float, zeta_k: float,
                   x_curr: np.ndarray, x_prev: np.ndarray) -> float:
    """Extrapolation weight: min(zeta_k / ||x_k - x_{k-1}||, delta), or the
    cap delta when the last two iterates coincide. Guarantees
    delta_k * ||x_k - x_{k-1}|| <= zeta_k. Raises NonFiniteElementError
    when x_k - x_{k-1} has a NaN or Inf entry, which the min could pass
    over."""
    if not 0.0 <= delta < math.inf:
        raise ValueError("inertial bound delta must be finite and nonnegative")
    if zeta_k <= 0:
        raise ValueError("zeta_k must be positive")
    gap = finite_norm(space, x_curr - x_prev)
    if gap == 0.0:
        return delta
    return min(zeta_k / gap, delta)


def _initial_gamma(step: StepPolicy) -> float:
    if isinstance(step, Fixed):
        return step.gamma
    if isinstance(step, Adaptive):
        return step.gamma1
    return step.rho


# Table 1's hybrid-steepest-descent weight lambda, for the hsd outer update
HSD_LAMBDA = 0.5


def _step(parts: Parts, state: IterateState, problem: ProblemInstance,
          cfg: SolverConfig) -> IterateState:
    """One iteration of the scheme built from parts."""
    k = state.k
    theta = cfg.theta(k)
    eta = cfg.eta(k, theta)
    space, A, T = problem.space, problem.A, problem.T
    x = state.x_curr
    s, dk = x, 0.0
    if parts.inertial:
        dk = inertial_delta(space, cfg.delta, cfg.zeta(k), x, state.x_prev)
        s = x + dk * (x - state.x_prev)

    if parts.step is Armijo:
        gamma, y, As, Ay = armijo_search(space, cfg.step, s, A, problem.C)
    else:
        gamma = state.gamma
        As = A(s)
        trial = s + (-gamma) * As
        y = project(problem.C, trial)
        Ay = A(y)

    hk = None
    if parts.correction == "tseng":
        z = y + (-gamma) * (Ay - As)
    else:
        hk = HalfSpace(trial - y, y, space)
        z = project(hk, s + (-gamma) * Ay)

    if parts.outer == "mann":
        x_next = (1.0 - theta - eta) * z + eta * T(z)
    elif parts.outer == "modified_mann":
        x_next = (1.0 - eta) * (theta * z) + eta * T(z)
    elif parts.outer == "anchored":
        z = theta * cfg.x0.coords + (1.0 - theta) * z
        x_next = eta * x + (1.0 - eta) * T(z)
    else:
        t = (1.0 - eta) * z + eta * T(z)
        if parts.outer == "viscosity":
            x_next = theta * problem.f_visc(x) + (1.0 - theta) * t
        else:  # hsd
            x_next = t + (-HSD_LAMBDA * theta) * problem.F(t)
    x_next = check_finite(x_next)

    gamma_next = gamma
    if parts.step is Adaptive:
        gamma_next = adaptive_update(space, gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k + 1, x, x_next, s, y, z, gamma_next, dk, state.gamma, hk)


# One function per proposed scheme, so each can be called (and profiled)
# on its own; solve runs every scheme through step_baseline.
def step_alg1(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type subgradient extragradient step."""
    return _step(SCHEMES[Scheme.IMSEGM], state, problem, cfg)


def step_alg2(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type step with the forward correction in place of the
    second projection."""
    return _step(SCHEMES[Scheme.IMTEGM], state, problem, cfg)


def step_alg3(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type subgradient extragradient step."""
    return _step(SCHEMES[Scheme.IMMSEGM], state, problem, cfg)


def step_alg4(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type step with the forward correction."""
    return _step(SCHEMES[Scheme.IMMTEGM], state, problem, cfg)


def step_baseline(state: IterateState, problem: ProblemInstance,
                  cfg: SolverConfig) -> IterateState:
    """Step of the scheme cfg.algorithm."""
    return _step(SCHEMES[cfg.algorithm], state, problem, cfg)


def check_tol(tol: Optional[float]):
    """A stopping tolerance is unset or a positive finite number."""
    if tol is not None and not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be a positive finite number, got {tol}")


def check_config(cfg: SolverConfig, problem: ProblemInstance):
    """Structural validation; sequence-condition checks live in the harness."""
    scheme = cfg.algorithm
    if cfg.max_iter < 0:
        raise ConfigError("max_iter must be nonnegative")
    if not 0.0 <= cfg.lambda_T < 1.0:
        raise ConfigError("demicontractive constant must lie in [0,1)")
    check_tol(cfg.tol)
    if cfg.tol is not None and problem.x_star is None:
        raise ConfigError("tol needs a problem with a known solution x_star")
    if cfg.record_invariants and problem.x_star is None:
        raise ConfigError("record_invariants needs a problem with a known solution x_star")
    if cfg.x1 is None or (cfg.x0 is None):
        raise ConfigError("both initial points are required")
    # the solver iterates on bare coordinate arrays, which would broadcast
    # or combine silently across spaces, so every point is checked here once
    for name, x in (("x0", cfg.x0), ("x1", cfg.x1), ("x_star", problem.x_star)):
        if x is not None and not (isinstance(x, SpaceElement) and x.space == problem.space):
            raise ConfigError(f"{name} must be a SpaceElement of {problem.space}")
    parts = SCHEMES[scheme]
    if not isinstance(cfg.step, parts.step):
        raise ConfigError(f"{scheme.value} requires a {parts.step.__name__} step policy")
    # gamma in (0, 1/L), with no division: L = 0 admits every gamma
    if parts.step is Fixed and problem.L is not None and not cfg.step.gamma * problem.L < 1.0:
        raise ConfigError(f"fixed step {cfg.step.gamma} outside (0, 1/L) for L={problem.L}")
    if parts.inertial:
        if cfg.zeta is None:
            raise ConfigError("inertial schemes need a zeta sequence")
        if not 0.0 <= cfg.delta < math.inf:
            raise ConfigError("inertial bound delta must be finite and nonnegative")
    if parts.outer == "hsd" and problem.F is None:
        raise ConfigError(f"{scheme.value} needs the damping operator F")
    if parts.outer == "viscosity" and problem.f_visc is None:
        raise ConfigError("viscosity schemes need the contraction f")


def _residuals(parts: Parts, state: IterateState, phi: Optional[float],
               u: np.ndarray, space: SpaceDescriptor) -> Tuple[float, float, float]:
    """Per-iteration inequality slacks, nan where not applicable.

    res_contraction: slack of the halfspace-variant contraction bound, or of
    the phi^2-form bound for forward-correction variants (positive = violated).
    res_halfspace: membership residual of z in the constructed halfspace.
    res_tseng: slack of ||z - y|| <= phi (gamma_k/gamma_{k+1}) ||s - y||.
    """
    nan = math.nan
    res_c = res_h = res_t = nan
    s, y, z = state.s, state.y, state.z

    def dist(a, b):
        return finite_norm(space, a - b)

    if parts.inertial:
        ratio = state.gamma_prev / state.gamma
        if parts.correction == "tseng":
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
    """Run the selected scheme for max_iter iterations, recording the
    error D_k (when the solution is known), step and inertia parameters,
    elapsed time, and optional inequality residuals."""
    check_config(cfg, problem)
    parts, tol = SCHEMES[cfg.algorithm], cfg.tol
    phi = getattr(cfg.step, "phi", None)
    space = problem.space
    x_star = None if problem.x_star is None else problem.x_star.coords

    def err(x: np.ndarray) -> float:
        return finite_norm(space, x - x_star) if x_star is not None else math.nan

    trace = ConvergenceTrace(scheme=cfg.algorithm)
    rows = trace.rows
    state = IterateState(1, cfg.x0.coords, cfg.x1.coords, gamma=_initial_gamma(cfg.step))
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
            residuals = _residuals(parts, state, phi, x_star, space)
        d = err(state.x_curr)
        rows.append(TraceRow(state.k, d, state.gamma, state.delta_k,
                             time.perf_counter() - start, residuals))
        if tol is not None and d < tol:
            break
    return trace
