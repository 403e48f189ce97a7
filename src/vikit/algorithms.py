"""The ten iterative schemes behind one solver interface.

Four inertial Mann-type extragradient methods (two subgradient-halfspace
variants, two forward-correction variants) and six baselines: anchored,
hybrid-steepest-descent, two plain Mann-type, and two viscosity-type
extragradient methods.

`solve` checks its starting points against the problem's space once and
then iterates on plain coordinate arrays. Every vector a step forms goes
through `check_finite`, so a step that overflows fails at that step.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .problems import ProblemInstance
from .projections import HalfSpace, halfspace_residual, project
from .space import SpaceDescriptor, SpaceElement, check_finite
from .stepsize import (
    Adaptive,
    Armijo,
    Fixed,
    StepPolicy,
    adaptive_update,
    armijo_search,
    validate_fixed,
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


PROPOSED = (Scheme.IMSEGM, Scheme.IMTEGM, Scheme.IMMSEGM, Scheme.IMMTEGM)
INERTIAL = frozenset(PROPOSED)
# schemes whose sequences are governed by the vanishing-theta condition set
C4_SCHEMES = frozenset({Scheme.IMSEGM, Scheme.IMTEGM, Scheme.MSEGM})
# schemes governed by the theta -> 1 condition set
C5_SCHEMES = frozenset({Scheme.IMMSEGM, Scheme.IMMTEGM, Scheme.MMSEGM})
TSENG = frozenset({Scheme.IMTEGM, Scheme.IMMTEGM, Scheme.VTEGM, Scheme.STEGM})
FIXED_STEP = frozenset({Scheme.HSEGM, Scheme.MSEGM, Scheme.MMSEGM})


class ConfigError(ValueError):
    """Solver configuration rejected before the run starts."""


class SolveError(RuntimeError):
    """A step failed mid-run; the partial trace is attached."""

    def __init__(self, message: str, trace: "ConvergenceTrace"):
        super().__init__(message)
        self.trace = trace


SEQUENCE_KINDS = (
    "one_over_kp1",
    "k_over_kp1",
    "k_over_2kp1",
    "half_one_minus_theta",
    "theta_over_3",
    "one_over_kp1_sq",
    "constant",
)


@dataclass(frozen=True)
class SequenceRule:
    """Closed-form scalar sequence, evaluated at 1-based iteration index."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise ValueError("constant sequences need a value")

    def __call__(self, k: int, theta: Optional[float] = None) -> float:
        if self.kind == "one_over_kp1":
            return 1.0 / (k + 1)
        if self.kind == "k_over_kp1":
            return k / (k + 1)
        if self.kind == "k_over_2kp1":
            return k / (2 * k + 1)
        if self.kind == "one_over_kp1_sq":
            return 1.0 / (k + 1) ** 2
        if self.kind == "constant":
            return self.value
        if theta is None:
            raise ValueError(f"sequence {self.kind!r} depends on theta_k")
        if self.kind == "half_one_minus_theta":
            return 0.5 * (1.0 - theta)
        return theta / 3.0  # theta_over_3


@dataclass
class SolverConfig:
    algorithm: Scheme
    step: StepPolicy
    theta_seq: SequenceRule
    eta_seq: SequenceRule
    zeta_seq: Optional[SequenceRule] = None
    delta: float = 0.0
    lambda_T: float = 0.0
    hsd_lambda: float = 0.5
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
    t: Optional[np.ndarray] = None
    gamma: float = 0.0
    delta_k: float = 0.0
    gamma_prev: float = 0.0
    halfspace: Optional[HalfSpace] = None


@dataclass(frozen=True)
class TraceRow:
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

    RESIDUAL_NAMES = ("res_contraction", "res_halfspace", "res_tseng")

    def column(self, name: str) -> List[float]:
        if name in ("k", "D", "gamma", "delta", "elapsed"):
            return [getattr(r, name) for r in self.rows]
        idx = self.RESIDUAL_NAMES.index(name)
        return [r.residuals[idx] for r in self.rows if r.residuals is not None]


def inertial_delta(space: SpaceDescriptor, delta: float, zeta_k: float,
                   x_curr: np.ndarray, x_prev: np.ndarray) -> float:
    """Extrapolation weight: min(zeta_k / ||x_k - x_{k-1}||, delta), or the
    cap delta when the last two iterates coincide. Guarantees
    delta_k * ||x_k - x_{k-1}|| <= zeta_k."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if zeta_k <= 0:
        raise ValueError("zeta_k must be positive")
    gap = space.norm(check_finite(x_curr - x_prev))
    if gap == 0.0:
        return delta
    return min(zeta_k / gap, delta)


def _initial_gamma(step: StepPolicy) -> float:
    if isinstance(step, Fixed):
        return step.gamma
    if isinstance(step, Adaptive):
        return step.gamma1
    return step.rho


def _halfspace_z(w: np.ndarray, gamma: float, problem: ProblemInstance):
    """Shared subgradient-extragradient block: trial point, halfspace, and
    the second (halfspace) projection."""
    A = problem.A
    Aw = A(w)
    trial = check_finite(w + (-gamma) * Aw)
    y = project(problem.C, trial)
    Ay = A(y)
    hk = HalfSpace(normal=check_finite(trial - y), anchor=y, space=problem.space)
    z = project(hk, check_finite(w + (-gamma) * Ay))
    return y, z, hk, Aw, Ay


def _tseng_z(w: np.ndarray, gamma: float, problem: ProblemInstance):
    A = problem.A
    Aw = A(w)
    y = project(problem.C, check_finite(w + (-gamma) * Aw))
    Ay = A(y)
    z = check_finite(y + (-gamma) * (Ay - Aw))
    return y, z, Aw, Ay


def _inertial_point(state: IterateState, cfg: SolverConfig,
                    space: SpaceDescriptor) -> Tuple[np.ndarray, float]:
    zeta = cfg.zeta_seq(state.k)
    dk = inertial_delta(space, cfg.delta, zeta, state.x_curr, state.x_prev)
    s = check_finite(state.x_curr + dk * (state.x_curr - state.x_prev))
    return s, dk


def step_alg1(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type subgradient extragradient step."""
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    s, dk = _inertial_point(state, cfg, problem.space)
    y, z, hk, As, Ay = _halfspace_z(s, state.gamma, problem)
    x_next = check_finite((1.0 - theta - eta) * z + eta * problem.T(z))
    gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=state.x_curr, x_curr=x_next, s=s, y=y,
                        z=z, gamma=gamma_next, delta_k=dk,
                        gamma_prev=state.gamma, halfspace=hk)


def step_alg2(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type step with the forward correction in place of the
    second projection."""
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    s, dk = _inertial_point(state, cfg, problem.space)
    y, z, As, Ay = _tseng_z(s, state.gamma, problem)
    x_next = check_finite((1.0 - theta - eta) * z + eta * problem.T(z))
    gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=state.x_curr, x_curr=x_next, s=s, y=y,
                        z=z, gamma=gamma_next, delta_k=dk,
                        gamma_prev=state.gamma)


def step_alg3(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type subgradient extragradient step."""
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    s, dk = _inertial_point(state, cfg, problem.space)
    y, z, hk, As, Ay = _halfspace_z(s, state.gamma, problem)
    x_next = check_finite((1.0 - eta) * (theta * z) + eta * problem.T(z))
    gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=state.x_curr, x_curr=x_next, s=s, y=y,
                        z=z, gamma=gamma_next, delta_k=dk,
                        gamma_prev=state.gamma, halfspace=hk)


def step_alg4(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type step with the forward correction."""
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    s, dk = _inertial_point(state, cfg, problem.space)
    y, z, As, Ay = _tseng_z(s, state.gamma, problem)
    x_next = check_finite((1.0 - eta) * (theta * z) + eta * problem.T(z))
    gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=state.x_curr, x_curr=x_next, s=s, y=y,
                        z=z, gamma=gamma_next, delta_k=dk,
                        gamma_prev=state.gamma)


def step_baseline(state: IterateState, problem: ProblemInstance,
                  cfg: SolverConfig) -> IterateState:
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    x = state.x_curr
    scheme = cfg.algorithm
    hk = None
    t = None

    if scheme is Scheme.HSEGM:
        y, w, hk, _, _ = _halfspace_z(x, state.gamma, problem)
        z = check_finite(theta * cfg.x0.coords + (1.0 - theta) * w)
        x_next = check_finite(eta * x + (1.0 - eta) * problem.T(z))
        gamma_next = state.gamma
    elif scheme is Scheme.STEGM:
        gamma, y = armijo_search(problem.space, cfg.step, x, problem.A, problem.C)
        z = check_finite(y + (-gamma) * (problem.A(y) - problem.A(x)))
        t = check_finite((1.0 - eta) * z + eta * problem.T(z))
        x_next = check_finite(t + (-cfg.hsd_lambda * theta) * problem.F(t))
        gamma_next = gamma
    elif scheme is Scheme.MSEGM:
        y, z, hk, _, _ = _halfspace_z(x, state.gamma, problem)
        x_next = check_finite((1.0 - theta - eta) * z + eta * problem.T(z))
        gamma_next = state.gamma
    elif scheme is Scheme.MMSEGM:
        y, z, hk, _, _ = _halfspace_z(x, state.gamma, problem)
        x_next = check_finite((1.0 - eta) * (theta * z) + eta * problem.T(z))
        gamma_next = state.gamma
    elif scheme is Scheme.VSEGM:
        y, z, hk, As, Ay = _halfspace_z(x, state.gamma, problem)
        mann = check_finite((1.0 - eta) * z + eta * problem.T(z))
        x_next = check_finite(theta * problem.f_visc(x) + (1.0 - theta) * mann)
        gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi,
                                     x, y, As, Ay)
    elif scheme is Scheme.VTEGM:
        y, z, As, Ay = _tseng_z(x, state.gamma, problem)
        mann = check_finite((1.0 - eta) * z + eta * problem.T(z))
        x_next = check_finite(theta * problem.f_visc(x) + (1.0 - theta) * mann)
        gamma_next = adaptive_update(problem.space, state.gamma, cfg.step.phi,
                                     x, y, As, Ay)
    else:
        raise ConfigError(f"{scheme} is not a baseline scheme")

    return IterateState(k=k + 1, x_prev=x, x_curr=x_next, s=x, y=y, z=z, t=t,
                        gamma=gamma_next, delta_k=0.0, gamma_prev=state.gamma,
                        halfspace=hk)


_STEPPERS = {
    Scheme.IMSEGM: step_alg1,
    Scheme.IMTEGM: step_alg2,
    Scheme.IMMSEGM: step_alg3,
    Scheme.IMMTEGM: step_alg4,
}


def check_config(cfg: SolverConfig, problem: ProblemInstance):
    """Structural validation; sequence-condition checks live in the harness."""
    scheme = cfg.algorithm
    if cfg.max_iter < 0:
        raise ConfigError("max_iter must be nonnegative")
    if not 0.0 <= cfg.lambda_T < 1.0:
        raise ConfigError("demicontractive constant must lie in [0,1)")
    if cfg.x1 is None or (cfg.x0 is None):
        raise ConfigError("both initial points are required")
    # the solver iterates on bare coordinate arrays, which would broadcast
    # or combine silently across spaces, so every point is checked here once
    for name, x in (("x0", cfg.x0), ("x1", cfg.x1), ("x_star", problem.x_star)):
        if x is not None and not (isinstance(x, SpaceElement) and x.space == problem.space):
            raise ConfigError(f"{name} must be a SpaceElement of {problem.space}")
    if scheme in FIXED_STEP:
        if not isinstance(cfg.step, Fixed):
            raise ConfigError(f"{scheme.value} requires a fixed step policy")
        if problem.L is not None and not validate_fixed(cfg.step.gamma, problem.L):
            raise ConfigError(
                f"fixed step {cfg.step.gamma} outside (0, 1/L) for L={problem.L}"
            )
    elif scheme is Scheme.STEGM:
        if not isinstance(cfg.step, Armijo):
            raise ConfigError("stegm requires an Armijo step policy")
        if problem.F is None:
            raise ConfigError("stegm needs the damping operator F")
    else:
        if not isinstance(cfg.step, Adaptive):
            raise ConfigError(f"{scheme.value} requires an adaptive step policy")
    if scheme in INERTIAL:
        if cfg.zeta_seq is None:
            raise ConfigError("inertial schemes need a zeta sequence")
        if cfg.delta < 0:
            raise ConfigError("inertial bound delta must be nonnegative")
    if scheme in (Scheme.VSEGM, Scheme.VTEGM) and problem.f_visc is None:
        raise ConfigError("viscosity schemes need the contraction f")


def _residuals(scheme: Scheme, state: IterateState, phi: Optional[float],
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
        return space.norm(check_finite(a - b))

    if phi is not None and s is not None and scheme in _STEPPERS:
        ratio = state.gamma_prev / state.gamma
        if scheme in TSENG:
            coeff = 1.0 - (phi * ratio) ** 2
            res_c = dist(z, u) ** 2 - (dist(s, u) ** 2 - coeff * dist(s, y) ** 2)
            res_t = dist(z, y) - phi * ratio * dist(s, y)
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
    stepper = _STEPPERS.get(cfg.algorithm, step_baseline)
    phi = getattr(cfg.step, "phi", None)
    space = problem.space
    x_star = None if problem.x_star is None else problem.x_star.coords

    def err(x: np.ndarray) -> float:
        return space.norm(check_finite(x - x_star)) if x_star is not None else math.nan

    trace = ConvergenceTrace(scheme=cfg.algorithm)
    state = IterateState(k=1, x_prev=cfg.x0.coords, x_curr=cfg.x1.coords,
                         gamma=_initial_gamma(cfg.step))
    trace.rows.append(TraceRow(k=1, D=err(state.x_curr), gamma=state.gamma,
                               delta=0.0, elapsed=0.0))
    start = time.perf_counter()
    for _ in range(cfg.max_iter):
        try:
            state = stepper(state, problem, cfg)
        except Exception as exc:
            raise SolveError(f"{cfg.algorithm.value} failed at k={state.k}: {exc}",
                             trace) from exc
        residuals = None
        if cfg.record_invariants and x_star is not None:
            residuals = _residuals(cfg.algorithm, state, phi, x_star, space)
        d = err(state.x_curr)
        trace.rows.append(TraceRow(k=state.k, D=d, gamma=state.gamma,
                                   delta=state.delta_k,
                                   elapsed=time.perf_counter() - start,
                                   residuals=residuals))
        if cfg.tol is not None and d < cfg.tol:
            break
    return trace
