"""The ten iterative schemes behind one solver interface.

Four inertial Mann-type extragradient methods (two subgradient-halfspace
variants, two forward-correction variants) and six baselines: anchored,
hybrid-steepest-descent, two plain Mann-type, and two viscosity-type
extragradient methods. Each scheme is one `Scheme` member, which names
its parts, and one builder, `_build_step`, makes the step of every member.

`solve` checks its starting points against the problem's space once and
then builds its scheme's step once, before the loop. The build resolves
what cannot change within a solve: the scheme's extrapolation,
correction, outer update and step policy; theta_k, eta_k and zeta_k as
their closed forms, called as `SequenceRule` calls them; the names
`armijo_search`, `adaptive_update` and `check_finite`, as they are bound
when solve starts; C's own `project`; and each of A, T, F and f_visc as
a function of (x, out). An operator that is exactly one of vikit's own
(`operators.OWN_OPERATORS`) is itself such a function, and writes its
value into out; any other is called with the point alone. Nothing in the
step tests the type of C or of an operator. Two direct paths skip
per-call checks that hold for the whole solve, each chosen where its
module states the rule for dot giving @'s bits (`space.dot_agrees`):
- `operators.bare_map`: A is G.dot, plus the offset f, when A is exactly
  an `AffineMatrix`, and G and both starts are C-contiguous with n > 1;
- `SpaceDescriptor.bare_inner`: the inner products of the projection
  onto the step's own halfspace, the inertial gap ||x_k - x_{k-1}|| and
  D_k are ndarray.dot in R^n when both starts are C-contiguous with
  n > 1 (on a grid, inner bound to a work vector); a norm whose sum of
  squares is not finite falls back to `SpaceDescriptor.norm`.
Every other input (any other operator, perfbench's wrapped ones among
them, a start at a reversed stride) keeps the calls of its own type.

The built step owns its solve's work vectors: sixteen n-vectors made
once by the build, plus the work vector of a grid's `bare_inner`, and a
0-d array into which each step writes -gamma_k once, for every product
that reads it (numpy multiplies by a 0-d array faster than by a Python
float, to the same bits). It writes every vector it forms into them with
numpy's `out` arguments, keeping each expression's order of operations:
dx, s, A(s), the trial point, y, A(y), the normal, z, T(z), the outer
update's terms and x_{k+1}, which rotates among three so that it never
overwrites x_k or x_{k-1} (the starts are only read). It passes work
vectors to C's `project`, `project_halfspace`, `adaptive_update` and
`armijo_search`. So a step over a box, a ball or a halfspace allocates
no vector, save the rows of the Armijo screen (`stepsize.armijo_search`)
and, over a halfspace C on a grid, the weighted products of that
space's `inner`. Every step is arrays in, arrays out: the loop carries
(x_{k-1}, x_k, gamma_k), and each step returns (x_{k+1}, gamma_{k+1},
delta_k, residuals). A recording solve builds a closure that the step
calls with its own points s, y, z and its halfspace's normal, which
gives the three residuals from solve's work vector and `bare_inner`
(`_recorder`); residuals is None when nothing is recorded. Only
`_state_step` (step_alg1 to step_alg4) builds an `IterateState` and a
`HalfSpace`. Each trace is bitwise the same either way. A step that
overflows, or meets NaN, raises NonFiniteElementError at that step;
where it checks follows the `space` module's call convention.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .problems import ProblemInstance
from .operators import OWN_OPERATORS, bare_map
from .projections import HalfSpace, project_halfspace
from .space import (ConfigError, SpaceElement, check_field, check_finite, check_space,
                    check_type)
from .stepsize import (
    Adaptive,
    Armijo,
    Fixed,
    StepPolicy,
    adaptive_update,
    armijo_search,
)


class Outer(str, enum.Enum):
    """An outer update, which turns the corrected point into the next
    iterate: its name (its value, which the member equals) and what Table 1
    and its theorem fix for it. `operator` is the problem operator it reads
    beyond T, or None; `kinds` are the SequenceRule kinds of Table 1's
    theta_k and eta_k; `label` names what harness.validate_conditions
    checks them against. The Mann update is proved under (C4), with
    theta_k -> 0, and the modified Mann update under (C5), with theta_k -> 1;
    for these, `eta_bound(theta_k, lambda)` is the strict upper bound on
    eta_k, and zeta_k / `zeta_divisor(theta_k)`, the ratio named `ratio`,
    must decrease over the tail. The anchored, viscosity and hsd (hybrid
    steepest descent) updates rest on their cited theorems, and their
    sequences get range checks only.

    Table 1's sequences meet C4 and C5 only when lambda_T < 1/2: at 1/2
    the Mann rows' eta_k equals C4's strict bound at every k, and above it
    the modified Mann rows' eta_k reaches C5's bound from some k on.
    harness.make_config builds such a config all the same, and
    validate_conditions reports either."""

    MANN = ("mann", None, ("one_over_kp1", "half_one_minus_theta"), "C4",
            lambda th, lam: (1.0 - lam) * (1.0 - th), lambda th: th, "zeta_over_theta")
    MODIFIED_MANN = ("modified_mann", None, ("k_over_kp1", "theta_over_3"), "C5",
                     lambda th, lam: (1.0 - lam) * th / (lam + th), lambda th: 1.0 - th,
                     "zeta_over_one_minus_theta")
    ANCHORED = "anchored", None, ("one_over_kp1", "k_over_2kp1"), "range checks only"
    VISCOSITY = "viscosity", "f_visc", ("one_over_kp1", "k_over_2kp1"), "range checks only"
    HSD = "hsd", "F", ("one_over_kp1", "k_over_2kp1"), "range checks only"

    def __new__(cls, value: str, operator: Optional[str], kinds: Tuple[str, str], label: str,
                eta_bound=None, zeta_divisor=None, ratio: Optional[str] = None):
        member = str.__new__(cls, value)
        member._value_ = value
        member.operator, member.kinds, member.label = operator, kinds, label
        member.eta_bound, member.zeta_divisor, member.ratio = eta_bound, zeta_divisor, ratio
        return member


class Scheme(enum.Enum):
    """A scheme's name (its value) and what it is built from: inertial
    extrapolation or none; the subgradient-extragradient "halfspace"
    projection or Tseng's forward correction "tseng"; its `Outer` update;
    and the step-policy type."""

    IMSEGM = "imsegm", True, "halfspace", Outer.MANN, Adaptive
    IMTEGM = "imtegm", True, "tseng", Outer.MANN, Adaptive
    IMMSEGM = "immsegm", True, "halfspace", Outer.MODIFIED_MANN, Adaptive
    IMMTEGM = "immtegm", True, "tseng", Outer.MODIFIED_MANN, Adaptive
    HSEGM = "hsegm", False, "halfspace", Outer.ANCHORED, Fixed
    # the Armijo search yields y itself, so an Armijo scheme has no trial
    # point to build a halfspace from and must use the forward correction
    STEGM = "stegm", False, "tseng", Outer.HSD, Armijo
    MSEGM = "msegm", False, "halfspace", Outer.MANN, Fixed
    MMSEGM = "mmsegm", False, "halfspace", Outer.MODIFIED_MANN, Fixed
    VSEGM = "vsegm", False, "halfspace", Outer.VISCOSITY, Adaptive
    VTEGM = "vtegm", False, "tseng", Outer.VISCOSITY, Adaptive

    def __new__(cls, value: str, inertial: bool, correction: str, outer: Outer, step: type):
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


def _build_step(scheme: Scheme, problem: ProblemInstance, cfg: SolverConfig,
                starts: Tuple[np.ndarray, np.ndarray], record=None):
    """scheme's step on problem, built once: step(k, x_prev, x, gamma)
    gives (x_{k+1}, gamma_{k+1}, delta_k, kept) from the k-th iterate x,
    the one before it and gamma_k. kept is None, or with record what
    record(s, y, z, normal, gamma_k, gamma_{k+1}) returns, called once the
    step is done with its points s, y and z and the normal of its
    halfspace (None for a forward correction), whose anchor is y. Its x
    and x_prev are the starts, laid out as `starts`, or its own results.

    The step's vectors, x_{k+1} among them, are work vectors of this
    build, which the next step overwrites: x_{k+1} rotates among three,
    so that it never overwrites x_k or x_{k-1}, and the starts are only
    read.

    The inertial weight is delta_k = min(zeta_k / ||dx||, INERTIAL_DELTA),
    dx = x_k - x_{k-1}, or the cap INERTIAL_DELTA when the two iterates
    coincide, so that delta_k ||dx|| <= zeta_k. Like every norm, ||dx||
    raises NonFiniteElementError on a NaN or Inf entry, which the min could
    pass over; a zeta_k that is not positive (NaN included) raises
    ValueError."""
    # the outer update's name as a plain str, which the step compares with
    # its names faster than the member (an attribute, where .value is a call)
    inertial, outer, tseng = scheme.inertial, scheme.outer._value_, scheme.correction == "tseng"
    adaptive, armijo, policy = scheme.step is Adaptive, scheme.step is Armijo, cfg.step
    space, C, T, F, f_visc = problem.space, problem.C, problem.T, problem.F, problem.f_visc
    anchor = cfg.x0.coords if outer == "anchored" else None
    # each sequence's closed form, called with SequenceRule.__call__'s arguments
    th, th_v = _SEQUENCES[cfg.theta.kind], cfg.theta.value
    et, et_v = _SEQUENCES[cfg.eta.kind], cfg.eta.value
    ze, ze_v = (_SEQUENCES[cfg.zeta.kind], cfg.zeta.value) if inertial else (None, None)
    # the names a caller may have rebound, as they are now, C's projection,
    # and the inner product without its per-call checks where these may go
    A_op, inner, proj = problem.A, space.bare_inner(*starts), C.project
    search, update, finite = armijo_search, adaptive_update, check_finite
    # each operator as a function of (x, out): exactly one of vikit's own
    # writes its value into out (A as bare_map has it), while any other,
    # such as perfbench's wrapped ones, is called with the point alone
    own = OWN_OPERATORS
    A = bare_map(A_op, *starts) if type(A_op) in own else lambda x, out=None, op=A_op: op(x)
    T = T if type(T) in own else lambda x, out=None, op=T: op(x)
    F = F if type(F) in own else lambda x, out=None, op=F: op(x)
    f_visc = f_visc if type(f_visc) in own else lambda x, out=None, op=f_visc: op(x)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    # the solve's work vectors, one array each, as the step made its
    # temporaries: x_{k+1} is X[k % 3]; DX, S, AS, TR, Y, AY, NM, Z and TZ
    # hold the vectors so named below, Y the projected trial point, P the
    # point projected onto the halfspace, W an outer-update term, D a
    # difference whose norm is taken and Q a norm's quadrature; neg_gamma
    # is the 0-d array that holds -gamma_k
    *X, DX, S, AS, TR, Y, AY, NM, P, Z, TZ, W, D, Q = map(np.empty, [space.dim] * 16)
    search_work, update_work, neg_gamma = (AS, TR, Y, AY, D, Q), (D, Q), np.empty(())

    def step(k, x_prev, x, gamma):
        theta = th(k, None, th_v)
        eta = et(k, theta, et_v)
        s, dk, gamma_k = x, 0.0, gamma
        if inertial:
            dx = subtract(x, x_prev, DX)
            zeta_k = ze(k, None, ze_v)
            if not zeta_k > 0:
                raise ValueError(f"zeta_k must be positive, got {zeta_k}")
            sq = inner(dx, dx)  # norm(dx), as solve's err takes it
            gap = math.sqrt(sq) if sq < math.inf else space.norm(dx)
            dk = INERTIAL_DELTA if gap == 0.0 else min(zeta_k / gap, INERTIAL_DELTA)
            s = add(x, multiply(dk, dx, S), S)
        if armijo:
            gamma, y, As, Ay = search(space, policy, s, A_op, C, search_work)
        neg_gamma[()] = -gamma
        if not armijo:
            As = A(s, AS)
            trial = add(s, multiply(neg_gamma, As, TR), TR)
            y = proj(trial, Y, Q)
            Ay = A(y, AY)
        if tseng:
            z = add(y, multiply(neg_gamma, subtract(Ay, As, Z), Z), Z)
        else:
            normal = subtract(trial, y, NM)
            z = project_halfspace(inner, normal, y, add(s, multiply(neg_gamma, Ay, P), P), Z)
        if outer == "anchored":
            z = add(multiply(theta, anchor, W), multiply(1.0 - theta, z, Z), Z)
        Tz = T(z, TZ)
        x_next = X[k % 3]
        if outer == "mann":
            add(multiply(1.0 - theta - eta, z, x_next), multiply(eta, Tz, TZ), x_next)
        elif outer == "modified_mann":
            add(multiply(1.0 - eta, multiply(theta, z, x_next), x_next), multiply(eta, Tz, TZ),
                x_next)
        elif outer == "anchored":
            add(multiply(eta, x, x_next), multiply(1.0 - eta, Tz, TZ), x_next)
        else:
            t = add(multiply(1.0 - eta, z, W), multiply(eta, Tz, TZ), W)
            if outer == "viscosity":
                fx = f_visc(x, x_next)
                add(multiply(theta, fx, x_next), multiply(1.0 - theta, t, W), x_next)
            else:  # hsd
                Ft = F(t, x_next)
                add(t, multiply(-HSD_LAMBDA * theta, Ft, x_next), x_next)
        x_next = finite(x_next)
        if adaptive:
            gamma = update(space, gamma, policy.phi, s, y, As, Ay, update_work)
        return x_next, gamma, dk, None if record is None else record(
            s, y, z, None if tseng else normal, gamma_k, gamma)

    return step


def _state_step(scheme: Scheme, state: IterateState, problem: ProblemInstance,
                cfg: SolverConfig) -> IterateState:
    """One step of scheme from state, built for it alone, as an
    IterateState that holds the step's intermediate points and its
    halfspace."""
    starts = state.x_prev, state.x_curr
    step = _build_step(scheme, problem, cfg, starts, lambda *points: points[:4])
    x_next, gamma, dk, (s, y, z, normal) = step(state.k, *starts, state.gamma)
    hk = None if normal is None else HalfSpace(normal, y, problem.space)
    return IterateState(state.k + 1, state.x_curr, x_next, s, y, z, gamma, dk, state.gamma, hk)


# One function per proposed scheme, so each can be called (and profiled)
# on its own from an IterateState; solve builds its scheme's step once and
# calls it through step_baseline.
def step_alg1(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type subgradient extragradient step."""
    return _state_step(Scheme.IMSEGM, state, problem, cfg)


def step_alg2(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Inertial Mann-type step with the forward correction in place of the
    second projection."""
    return _state_step(Scheme.IMTEGM, state, problem, cfg)


def step_alg3(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type subgradient extragradient step."""
    return _state_step(Scheme.IMMSEGM, state, problem, cfg)


def step_alg4(state: IterateState, problem: ProblemInstance,
              cfg: SolverConfig) -> IterateState:
    """Modified inertial Mann-type step with the forward correction."""
    return _state_step(Scheme.IMMTEGM, state, problem, cfg)


def step_baseline(step, k: int, x_prev: np.ndarray, x: np.ndarray, gamma: float):
    """One iteration of solve: step(k, x_prev, x, gamma), the step
    _build_step built for its scheme. The vectors it returns are the
    step's work vectors: a caller that keeps one past the next step keeps
    a copy."""
    return step(k, x_prev, x, gamma)


def check_tol(tol: Optional[float]):
    """A stopping tolerance is unset or a positive finite number."""
    if tol is not None:
        check_field("tol", tol, 0.0, lo_open=True)


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
    needed = scheme.outer.operator
    if needed is not None and getattr(problem, needed) is None:
        raise ConfigError(f"{needed} must be set for {scheme.value}'s {scheme.outer.value} update")


def _square(v: float) -> float:
    """v ** 2, or inf where that overflows, on which a float's ** raises
    OverflowError."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


def _recorder(scheme: Scheme, step: StepPolicy, u: np.ndarray, dist, inner, work: np.ndarray):
    """The residuals of a recording solve: a function that a step built
    with it calls as record(s, y, z, normal, gamma_k, gamma_{k+1}), which
    gives the step's per-iteration inequality slacks, nan where one does
    not apply, with u = x*, dist the solve's dist(a, b) = ||a - b|| and
    inner its bare_inner, and `work` an n-vector of the solve that holds
    none of the points.

    res_contraction: slack of the halfspace-variant contraction bound, or of
    the phi^2-form bound for forward-correction variants (positive = violated).
    res_halfspace: membership residual <normal, z - y> of z in the step's
    halfspace, given by its normal (None for a forward correction) and its
    anchor y.
    res_tseng: slack of ||z - y|| <= phi (gamma_k/gamma_{k+1}) ||s - y||.

    A square that overflows is inf, so far from x* res_contraction is inf,
    -inf or, where two such squares meet, nan; the iterates are those of a
    solve that records nothing."""
    inertial, tseng, phi = scheme.inertial, scheme.correction == "tseng", getattr(step, "phi", None)
    nan, subtract = math.nan, np.subtract

    def residuals(s, y, z, normal, gamma_k, gamma):
        res_c = res_t = nan
        if inertial:
            ratio = gamma_k / gamma
            if tseng:
                coeff = 1.0 - _square(phi * ratio)
                d_sy = dist(s, y)
                res_c = _square(dist(z, u)) - (_square(dist(s, u)) - coeff * _square(d_sy))
                res_t = dist(z, y) - phi * ratio * d_sy
            else:
                coeff = 1.0 - phi * ratio
                res_c = _square(dist(z, u)) - (
                    _square(dist(s, u))
                    - coeff * _square(dist(y, s))
                    - coeff * _square(dist(z, y))
                )
        res_h = nan if normal is None else float(inner(normal, subtract(z, y, work)))
        return res_c, res_h, res_t

    return residuals


def solve(problem: ProblemInstance, cfg: SolverConfig) -> ConvergenceTrace:
    """Run the selected scheme for max_iter iterations, or until D_k < tol
    when tol is set, recording the error D_k (when the solution is known),
    step and inertia parameters, elapsed time, and optional inequality
    residuals. A step that raises ends the run with SolveError, which
    carries the rows recorded so far."""
    check_config(cfg, problem)
    scheme, tol, space = cfg.algorithm, cfg.tol, problem.space
    x_prev, x = cfg.x0.coords, cfg.x1.coords
    inner, work = space.bare_inner(x_prev, x), np.empty(space.dim)
    x_star = None if problem.x_star is None else problem.x_star.coords

    def dist(a: np.ndarray, b: np.ndarray) -> float:  # space.norm(a - b), as the step takes it
        d = np.subtract(a, b, work)
        sq = inner(d, d)
        return math.sqrt(sq) if sq < math.inf else space.norm(d)

    err = dist if x_star is not None else lambda x, u: math.nan
    record = None
    if cfg.record_invariants:
        record = _recorder(scheme, cfg.step, x_star, dist, inner, work)
    step = _build_step(scheme, problem, cfg, (x_prev, x), record)
    trace = ConvergenceTrace(scheme=scheme)
    rows = trace.rows
    gamma = cfg.step.gamma1
    rows.append(TraceRow(1, err(x, x_star), gamma, 0.0, 0.0))
    start = time.perf_counter()
    for k in range(1, cfg.max_iter + 1):
        try:
            out = step_baseline(step, k, x_prev, x, gamma)
        except Exception as exc:
            raise SolveError(f"{scheme.value} failed at k={k}: {exc}", trace) from exc
        x_prev, (x, gamma, dk, residuals) = x, out
        d = err(x, x_star)
        rows.append(TraceRow(k + 1, d, gamma, dk, time.perf_counter() - start, residuals))
        if tol is not None and d < tol:
            break
    return trace
