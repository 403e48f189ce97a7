"""Property tests of the mathematics the solvers rely on: the metric
projection identities, the adaptive step rule, the step-size floors, the
inertial bound, the halfspace-membership, Tseng and contraction
inequalities of each step, and the point of the solution set each scheme
converges to; and of the problem-spec grammar and the input fields."""

import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ball_problem import ball_problem
from binding_problem import binding_problem
from demi_problem import demi_problem
from membership import contains, sample_point
from segment_problem import segment_problem
from step_oracle import residuals
from test_algorithms import inertial_weight
from vikit import algorithms
from vikit.algorithms import (
    INERTIAL_DELTA,
    PROPOSED,
    ConfigError,
    IterateState,
    Outer,
    Scheme,
    SequenceRule,
    solve,
)
from vikit.harness import ExperimentPlan, make_config, parse_problem_spec, validate_conditions
from vikit.operators import (AffineMatrix, PositivePart, RankOneIntegral, Scale, bare_map,
                             estimate_lipschitz)
from vikit.problems import RandomSpec, certify, initial_points, make_example1, make_example2
from vikit.projections import Ball, Box, HalfSpace, halfspace_residual, project
from vikit.space import SpaceElement, element, euclidean, grid_l2, zeros
from vikit.stepsize import Adaptive, Armijo, Fixed, adaptive_update

coord = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def space_and_points(draw, count):
    """A Euclidean or grid-L2 space and count coordinate arrays in it."""
    n = draw(st.integers(2, 8))
    sp = draw(st.sampled_from([euclidean(n), grid_l2(n)]))
    return (sp,) + tuple(draw(hnp.arrays(np.float64, n, elements=coord))
                         for _ in range(count))


@st.composite
def set_and_points(draw, kind):
    """A feasible set of the given kind in a drawn space, two points and
    sixteen members of the set, drawn without the projector under test."""
    sp, x, y, a, b = draw(space_and_points(4))
    if kind == "box":
        lower = draw(coord)
        s = Box(lower, lower + draw(st.floats(0.0, 10.0)))
    elif kind == "ball":
        s = Ball(element(sp, a), draw(st.floats(0.1, 10.0)))
    else:
        assume(sp.norm(a) > 1e-3)
        s = HalfSpace(a, b, sp)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sp, s, x, y, [sample_point(s, sp, rng) for _ in range(16)]


KINDS = st.sampled_from(["box", "ball", "halfspace"])


@given(KINDS.flatmap(set_and_points))
def test_projection_is_idempotent(case):
    sp, s, x, _, _ = case
    p = project(s, x)
    assert contains(s, p, tol=1e-9 * (1.0 + sp.norm(x)))
    assert sp.norm(project(s, p) - p) <= 1e-9 * (1.0 + sp.norm(x))


@given(KINDS.flatmap(set_and_points))
def test_projection_is_nonexpansive(case):
    sp, s, x, y, _ = case
    assert sp.norm(project(s, x) - project(s, y)) <= sp.norm(x - y) + 1e-9


@given(KINDS.flatmap(set_and_points))
def test_projection_obtuse_angle(case):
    # <x - Px, c - Px> <= 0 for every c in the set
    sp, s, x, _, members = case
    p = project(s, x)
    for c in members:
        scale = (1.0 + sp.norm(x) + sp.norm(c)) ** 2
        assert sp.inner(x - p, c - p) <= 1e-9 * scale


@given(space_and_points(4), st.floats(1e-6, 10.0), st.floats(0.01, 0.99))
def test_adaptive_update_never_increases(case, gamma, phi):
    sp, s, y, As, Ay = case
    assert adaptive_update(sp, gamma, phi, s, y, As, Ay) <= gamma


# The floors below use L = ||G||_F, an upper bound on the Lipschitz
# constant ||G||_2 (problem.L estimates it from below). FLOOR_RTOL allows
# for the rounding of the floor itself and of the step's last multiply.
FLOOR_RTOL = 1e-12
FLOOR_ITERS = 30


@st.composite
def ex1_runs(draw, step_type):
    """(problem, step policy, trace): a drawn ex1 instance solved for
    FLOOR_ITERS iterations from a drawn start seed by a drawn scheme whose
    step is step_type."""
    p = make_example1(RandomSpec(draw(st.integers(2, 30)), draw(st.integers(0, 2**16))))
    scheme = draw(st.sampled_from([s for s in Scheme if s.step is step_type]))
    x0, x1 = initial_points(p, "random_uniform", seed=draw(st.integers(0, 2**16)))
    cfg = make_config(scheme, p, x0=x0, x1=x1, max_iter=FLOOR_ITERS)
    return p, cfg.step, solve(p, cfg)


@given(ex1_runs(Armijo))
def test_accepted_armijo_step_is_at_least_min_rho_and_l_phi_over_l(run):
    # every gamma <= phi/L passes the test, so the last rejected trial
    # exceeds phi/L and the accepted one, l times it, exceeds l phi/L
    p, step, trace = run
    floor = min(step.rho, step.l * step.phi / p.A.frobenius) * (1 - FLOOR_RTOL)
    assert all(r.gamma >= floor for r in trace.rows)


@given(ex1_runs(Adaptive))
def test_adaptive_step_stays_at_least_min_gamma1_and_phi_over_l(run):
    # each update is min(phi ||s-y|| / ||As-Ay||, gamma_k) >= min(phi/L, gamma_k)
    p, step, trace = run
    floor = min(step.gamma1, step.phi / p.A.frobenius) * (1 - FLOOR_RTOL)
    assert all(r.gamma >= floor for r in trace.rows)


@given(space_and_points(2), st.floats(1e-6, 10.0))
def test_inertial_step_stays_within_zeta(case, zeta):
    sp, x_curr, x_prev = case
    dk = inertial_weight(sp, zeta, x_curr, x_prev)
    assert 0.0 <= dk <= INERTIAL_DELTA
    assert dk * sp.norm(x_curr - x_prev) <= zeta * (1.0 + 1e-12)


# Each inequality below holds exactly for exact arithmetic; its tolerance
# bounds the rounding of the quantities it compares, (n + 4) eps times the
# norms of the vectors they are computed from (weighted norms, so the bound
# holds on the grid too). Over 300 draws the halfspace residual reached
# 0.043 of its tolerance, and at most 1.5e-12 of ||normal|| ||z - anchor||,
# which alone is no bound: z - anchor can be small where x and z are not.
EPS = float(np.finfo(float).eps)
STEP_ITERS = 100


def _with_correction(correction):
    return [s for s in Scheme if s.correction == correction]


@st.composite
def step_states(draw, schemes, families=("ex1", "ex2", "binding")):
    """(problem, config, states): from families, an ex1 problem with n =
    5-100, an ex2 problem on 3-201 nodes from any start, a binding problem
    with n = 4-24, a ball problem with n = 2-24 or a demi problem with k in
    (1, 3], and a config that records its residuals for STEP_ITERS
    iterations of a scheme drawn from schemes; states are the IterateStates
    that _state_step gives from the config's starts on, each one step of
    solve's, with its halfspace."""
    family = draw(st.sampled_from(families))
    init = "random_uniform"
    if family == "ex1":
        p = make_example1(RandomSpec(draw(st.integers(5, 100)), draw(st.integers(0, 2**16))))
    elif family == "ex2":
        p = make_example2(draw(st.integers(3, 201)))
        init = draw(st.sampled_from(["t_squared", "t_plus_half_cos_t", "random_uniform"]))
    elif family == "binding":
        n = draw(st.integers(4, 24))
        p = binding_problem(n, draw(st.integers(1, n)), draw(st.integers(0, 2**16)))
    elif family == "ball":
        p = ball_problem(draw(st.integers(2, 24)), draw(st.integers(0, 2**16)))
    else:
        p = demi_problem(draw(st.floats(1.0, 3.0, exclude_min=True)))
    x0, x1 = initial_points(p, init, seed=draw(st.integers(0, 2**16)))
    scheme = draw(st.sampled_from(schemes))
    cfg = make_config(scheme, p, x0=x0, x1=x1, max_iter=STEP_ITERS, record_invariants=True)
    state = IterateState(1, x0.coords, x1.coords, gamma=cfg.step.gamma1)
    states = []
    for _ in range(STEP_ITERS):  # each step is built anew, so its vectors are its own
        state = algorithms._state_step(scheme, state, p, cfg)
        states.append(state)
    return p, cfg, states


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in values)


@settings(max_examples=60)
@given(step_states(list(Scheme), families=("ex1", "ex2", "binding", "ball", "demi")))
def test_a_recording_step_gives_the_oracles_residuals_bit_for_bit(run):
    # solve's step computes its residuals from its own work vectors; the
    # oracle takes each distance as a new difference array and its norm
    p, cfg, states = run
    phi, u = getattr(cfg.step, "phi", None), p.x_star.coords
    rows = solve(p, cfg).rows[1:]
    assert ([_hex((r.gamma, r.delta)) for r in rows]
            == [_hex((st_.gamma, st_.delta_k)) for st_ in states])
    assert ([_hex(r.residuals) for r in rows]
            == [_hex(residuals(cfg.algorithm, st_, phi, u, p.space)) for st_ in states])


@settings(max_examples=30)
@given(step_states(_with_correction("halfspace")))
def test_z_lies_in_the_halfspace_it_was_projected_onto(run):
    # <normal, z - anchor> <= 0, where z is x = s - gamma_k A(y) projected
    # (hsegm's z then moves toward x_0, a point of C and so of the halfspace)
    p, _, states = run
    norm, n = p.space.norm, p.space.dim
    for st_ in states:
        hk, z = st_.halfspace, st_.z
        x = st_.s + (-st_.gamma_prev) * p.A(st_.y)
        size = sum(norm(v) for v in (z - hk.anchor, x - hk.anchor, x, z, hk.anchor))
        assert halfspace_residual(hk, z) <= (n + 4) * EPS * norm(hk.normal) * size


@settings(max_examples=30)
@given(step_states(_with_correction("tseng")))
def test_tseng_correction_moves_at_most_phi_gamma_ratio_times_s_minus_y(run):
    # ||z - y|| = gamma_k ||As - Ay|| <= phi (gamma_k / gamma_{k+1}) ||s - y||;
    # the Armijo search makes it hold with ratio 1, and the adaptive rule
    # keeps gamma_k when ||As - Ay|| <= 1e-14 max(1, ||As||, ||Ay||)
    p, cfg, states = run
    norm, n = p.space.norm, p.space.dim
    phi = cfg.step.phi
    for st_ in states:
        s, y, z = st_.s, st_.y, st_.z
        ratio = 1.0 if isinstance(cfg.step, Armijo) else st_.gamma_prev / st_.gamma
        kept = st_.gamma_prev * 1e-14 * max(1.0, norm(p.A(s)), norm(p.A(y)))
        rounding = (n + 4) * EPS * (norm(y) + norm(z) + phi * ratio * (norm(s) + norm(y)))
        assert norm(z - y) - phi * ratio * norm(s - y) <= kept + rounding


@settings(max_examples=30)
@given(step_states(PROPOSED))
def test_inertial_step_contracts_toward_the_solution(run):
    # with u = x*, a solution of the VI: ||z - u||^2 <= ||s - u||^2 - c (||s - y||^2
    # + ||z - y||^2), c = 1 - phi gamma_k / gamma_{k+1}, for the halfspace
    # variants, and the same with c (||s - y||^2) and c = 1 - (phi gamma_k /
    # gamma_{k+1})^2 for Tseng's; res_contraction is the left side's excess.
    # Where the adaptive rule kept gamma_k, gamma_k ||As - Ay|| <= kept adds at
    # most 2 kept ||z - y|| (halfspace) or kept^2 (Tseng) to the left side.
    # Rounding adds at most (n + 4) eps times the squared sum of the norms
    # below; over 150 draws the excess was positive at some steps and
    # reached 6.6e-4 of that bound
    p, cfg, states = run
    norm, n = p.space.norm, p.space.dim
    u = p.x_star.coords
    for st_ in states:
        s, y, z = st_.s, st_.y, st_.z
        norm_As, norm_Ay = norm(p.A(s)), norm(p.A(y))
        res_c = residuals(cfg.algorithm, st_, cfg.step.phi, u, p.space)[0]
        kept = st_.gamma_prev * 1e-14 * max(1.0, norm_As, norm_Ay)
        size = norm(s) + norm(y) + norm(z) + norm(u) + st_.gamma_prev * (norm_As + norm_Ay)
        assert res_c <= kept * (2 * norm(z - y) + kept) + (n + 4) * EPS * size ** 2


# The theorems name each scheme's limit in Omega = VI(C, A) ∩ Fix(T): the
# anchored hsegm converges to P_Omega(x_0), every other row to the
# minimum-norm point P_Omega(0). On a segment problem these differ. Over 19
# draws whose two limits were at least 1 apart, every scheme ended at least
# 3.3 times nearer its own limit than the other after 2000 iterations, and
# nearer still after 4000, the slowest (hsegm) by 3%.
LIMIT_ITERS = 2000


def _iterates_after(problem, cfg, counts):
    """The iterates of solve(problem, cfg) after each number of steps in
    counts, from a loop of the step that solve builds, as solve loops it;
    a change to solve's loop is to be made here too."""
    x_prev, x = cfg.x0.coords, cfg.x1.coords
    gamma = cfg.step.gamma1
    step, kept = algorithms._build_step(cfg.algorithm, problem, cfg, (x_prev, x)), {}
    for k in range(1, max(counts) + 1):
        x_prev, (x, gamma, _, _) = x, step(k, x_prev, x, gamma)
        if k in counts:  # a copy: x_{k+1} is overwritten three steps on
            kept[k] = x.copy()
    return [kept[count] for count in counts]


def test_iterates_after_loops_the_step_as_solve_does():
    # _iterates_after copies algorithms.solve's loop, which the theorem-point
    # test reads without the hook's cost: every scheme's iterates give, bit
    # for bit, the errors D_k that solve records (ex1's solution is 0)
    p = make_example1(RandomSpec(20, 1))
    x0, x1 = initial_points(p, "random_uniform", seed=1)
    for scheme in Scheme:
        cfg = make_config(scheme, p, x0=x0, x1=x1, max_iter=300)
        iterates = _iterates_after(p, cfg, range(1, 301))
        assert [p.space.norm(x) for x in iterates] == [row.D for row in solve(p, cfg).rows[1:]]


@st.composite
def segment_dims(draw):
    """(n, dim V, dim W) with n = 8-12, a 1- or 2-dimensional W ∩ V and 3-6
    dimensional W."""
    n, common = draw(st.integers(8, 12)), draw(st.integers(1, 2))
    dim_v = draw(st.integers(max(5, n + common - 6), min(n - 2, n + common - 3)))
    return n, dim_v, n + common - dim_v


@settings(max_examples=3)
@given(segment_dims(), st.integers(0, 2**16), st.integers(0, 2**16))
def test_each_scheme_converges_to_the_point_its_theorem_names(dims, seed, start):
    p, project_omega = segment_problem(*dims, seed)
    assert certify(p) == []
    x0, x1 = initial_points(p, "random_uniform", seed=start)
    min_norm, nearest = project_omega(np.zeros(dims[0])), project_omega(x0.coords)
    # limits that lie apart, and inside the box, where project_omega is P_Omega
    assume(p.space.norm(min_norm - nearest) >= 1.0)
    assume(max(np.abs(min_norm).max(), np.abs(nearest).max()) < 2.0)
    for scheme in Scheme:
        anchored = scheme.outer is Outer.ANCHORED
        named, other = (nearest, min_norm) if anchored else (min_norm, nearest)
        cfg = make_config(scheme, p, x0=x0, x1=x1, max_iter=2 * LIMIT_ITERS)
        x_half, x_end = _iterates_after(p, cfg, (LIMIT_ITERS, 2 * LIMIT_ITERS))
        dist = p.space.norm(x_half - named)
        assert 2.0 * dist <= p.space.norm(x_half - other), scheme
        assert p.space.norm(x_end - named) < dist, scheme


# Spec values are small integers, the three starts or fixed junk, never free
# text, where a large n would allocate n^2 floats. The junk includes "1_0" and
# an Arabic-Indic 3, which int() reads as 10 and 3 but a spec must reject.
NOT_INTEGERS = ["1_0", "\u0663"]
SPEC_VALUES = st.one_of(st.integers(-3, 8).map(str),
                        st.sampled_from(["random_uniform", "t_squared", "t_plus_half_cos_t",
                                         "", "abc", "1.5", " 4 "] + NOT_INTEGERS))


@st.composite
def problem_specs(draw):
    """A family name and 0-4 key=value items, repeats allowed."""
    items = draw(st.lists(st.tuples(st.sampled_from(["n", "seed", "grid", "init", "bogus"]),
                                    SPEC_VALUES), max_size=4))
    rest = ",".join(f"{key}={val}" for key, val in items)
    return draw(st.sampled_from(["ex1", "ex2", "ex9"])) + (":" + rest if items else "")


@given(problem_specs(), st.integers(0, 3))
def test_problem_spec_builds_or_names_itself(spec, seed):
    try:
        parse_problem_spec(spec, seed)
    except ValueError as exc:
        assert spec in str(exc)
    else:  # no key, integer or not, takes such a value
        assert not any(f"={junk}" in spec for junk in NOT_INTEGERS)


class Field(NamedTuple):
    """An input field: the name its error must start with, a build from one
    value, whether it takes integers only, the interval test a number must
    pass (None for a field that takes no number), the other values it
    accepts, and values of its own kind it rejects."""

    name: str
    build: Callable
    integer: bool = False
    interval: Optional[Callable] = None
    valid: Tuple = ()
    others: Tuple = ()


def _is_number(value, integer: bool) -> bool:
    """A real number, or an integer for a count; numpy scalars count, bools
    do not, and nor does an int past float64's largest, such as 10**400,
    which converts to no finite float64."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return (isinstance(value, kinds) and not isinstance(value, (bool, np.bool_))
            and (integer or not isinstance(value, int) or abs(value) <= sys.float_info.max))


# A 4-dimensional ex1 whose A counts its calls, so that a rejection can be
# shown to come before the first step.
_BASE = make_example1(RandomSpec(4, 1))
_A_CALLS = []
_COUNTED = dataclasses.replace(_BASE, A=lambda x: _A_CALLS.append(x) or _BASE.A(x))
_X0, _X1 = initial_points(_BASE, "random_uniform", seed=1)


def _solved(scheme=Scheme.IMSEGM, replace=None, **overrides):
    """make_config's config of scheme on the counted problem, 2 iterations
    unless overridden, with SolverConfig fields replaced, solved."""
    cfg = make_config(scheme, _COUNTED, **dict(dict(x0=_X0, x1=_X1, max_iter=2), **overrides))
    return solve(_COUNTED, dataclasses.replace(cfg, **(replace or {})))


_CFG = make_config(Scheme.IMSEGM, _BASE, x0=_X0, x1=_X1, max_iter=2)


def _validated(**changes):
    """validate_conditions over 5 terms of make_config's imsegm config, with
    SolverConfig fields replaced."""
    return validate_conditions(dataclasses.replace(_CFG, **changes), 5)


def _plan(max_iter=2, seeds=(1,), problems=("ex1:n=4",), algorithms=(Scheme.IMSEGM,),
          output_dir="out", **fields):
    return ExperimentPlan(problems, algorithms, max_iter, seeds, output_dir, **fields)


def _spec_parsed(spec):
    """parse_problem_spec at seed 1. Any str passes the type rule; one that
    is no spec, such as "", is the grammar's ValueError, tested elsewhere."""
    try:
        return parse_problem_spec(spec, 1)
    except ConfigError:
        raise
    except ValueError:
        return None


def _positive(v):
    return 0 < v < math.inf


def _finite(v):
    return -math.inf < v < math.inf


def _nonnegative(v):
    return 0 <= v < math.inf


def _unit(v):
    return 0 < v < 1


def _unit_closed_left(v):
    return 0 <= v < 1


RULES = [SequenceRule("one_over_kp1"), SequenceRule("constant", 0.25)]
# rules that read theta_k, which only eta is given
THETA_RULES = (SequenceRule("theta_over_3"), SequenceRule("half_one_minus_theta"))
# the strings every field is offered, named so that a field that takes any
# string can list these very objects as valid
STRINGS = ("1", "")
# coordinates, and a matrix, hold real numbers: integer or float dtype
REAL_PAIRS = ([0, 1], np.arange(2), np.zeros(2, np.float32), [np.int64(1), 2.5])
NOT_REAL_PAIRS = (["1", "2"], [True, False], np.array([1, 2], dtype=object), [1j, 0],
                  [1, None], [[0], [1, 2]], np.zeros(3))
FIELDS = [
    Field("gamma", Fixed, False, _positive),
    Field("gamma1", lambda v: Adaptive(v, 0.5), False, _positive),
    Field("phi", lambda v: Adaptive(0.5, v), False, _unit),
    Field("rho", lambda v: Armijo(v, 0.5, 0.4), False, _positive),
    Field("l", lambda v: Armijo(1.0, v, 0.4), False, _unit),
    Field("phi", lambda v: Armijo(1.0, 0.5, v), False, _unit),
    Field("value", lambda v: SequenceRule("constant", v), False, _finite),
    Field("value", lambda v: SequenceRule("one_over_kp1", v), valid=(None,)),
    Field("n", lambda v: RandomSpec(v, 1), True, lambda v: v >= 1),
    Field("seed", lambda v: RandomSpec(3, v), True, lambda v: v >= 0),
    Field("dim", euclidean, True, lambda v: v >= 1),
    Field("dim", grid_l2, True, lambda v: v >= 2),
    Field("grid", make_example2, True, lambda v: v >= 2),
    Field("space", zeros, valid=(euclidean(2), grid_l2(2))),
    Field("radius", lambda v: Ball(zeros(euclidean(2)), v), False, _positive),
    Field("center", lambda v: Ball(v, 1.0), valid=(zeros(grid_l2(2)),), others=(np.zeros(2),)),
    # a bound is a real number or a non-empty array of them, of one
    # dimension at most, infinite but never NaN
    Field("lower", lambda v: Box(v, math.inf), False, lambda v: not math.isnan(v),
          valid=(np.zeros(2), [0, 1], np.array([0.0, -math.inf])),
          others=(np.array(["a"]), np.array([True]), [1, "a"], np.array([0.0, math.nan]),
                  np.zeros((1, 3)), [[0, 1]], np.zeros(0))),
    Field("upper", lambda v: Box(-math.inf, v), False, lambda v: not math.isnan(v),
          valid=(np.ones(2), [0, 1]), others=(np.array(["b"]), [math.nan], np.ones((3, 1)),
                                              np.ones((1, 1, 1)), [])),
    Field("coords", lambda v: element(euclidean(2), v), valid=REAL_PAIRS, others=NOT_REAL_PAIRS),
    Field("coords", lambda v: SpaceElement(v, euclidean(2)), valid=REAL_PAIRS,
          others=NOT_REAL_PAIRS),
    Field("space", lambda v: element(v, [0, 1]), valid=(euclidean(2), grid_l2(2))),
    # a normal or an anchor with a NaN entry would make every projection NaN
    Field("normal", lambda v: HalfSpace(v, np.zeros(2), euclidean(2)),
          valid=(np.ones(2), np.arange(2), np.ones(2, np.float32)),
          others=(np.array(["a", "b"]), np.array([True, False]), np.ones(2) * 1j,
                  np.array([1, 2], dtype=object), [0.0, 1.0], np.ones(3), np.ones((1, 2)),
                  np.array([math.nan, 1.0]))),
    Field("anchor", lambda v: HalfSpace(np.ones(2), v, euclidean(2)), valid=(np.zeros(2),),
          others=(np.array(["a", "b"]), np.zeros(2, bool), (0.0, 0.0), np.zeros(3),
                  np.array([0.0, math.nan]))),
    Field("space", lambda v: HalfSpace(np.ones(2), np.zeros(2), v),
          valid=(euclidean(2), grid_l2(2))),
    Field("G", AffineMatrix, valid=(np.eye(2), [[1, 0], [0, 1]], np.eye(2, dtype=int)),
          others=([["1", "0"], ["0", "1"]], np.eye(2, dtype=bool), np.eye(2) * 1j,
                  np.eye(2, dtype=object), [[1], [1, 2]], np.ones((2, 3)))),
    Field("c", Scale, False, _finite),
    Field("f_vec", lambda v: AffineMatrix(np.eye(2), v), valid=(None, zeros(grid_l2(2))),
          others=(zeros(euclidean(3)), element(euclidean(1), [2.0]), np.zeros(2))),
    Field("op", estimate_lipschitz, valid=(_BASE.A,),
          others=(Scale(1.0), PositivePart(), RankOneIntegral(grid_l2(5)))),
    Field("space", lambda v: dataclasses.replace(_BASE, space=v), valid=(_BASE.space,)),
    Field("L", lambda v: dataclasses.replace(_BASE, L=v), False, _nonnegative, (None,)),
    Field("lambda_T", lambda v: dataclasses.replace(_BASE, lambda_T=v), False, _unit_closed_left),
    # any callable is an operator (a SequenceRule among them); A's matrix
    # and offset must fit the space
    Field("A", lambda v: dataclasses.replace(_BASE, A=v), valid=(_BASE.A, Scale(1.0), RULES[0]),
          others=(AffineMatrix(np.eye(5)), AffineMatrix(_BASE.A.G, zeros(grid_l2(4))))),
    Field("T", lambda v: dataclasses.replace(_BASE, T=v), valid=(_BASE.T, RULES[0])),
    Field("F", lambda v: dataclasses.replace(_BASE, F=v), valid=(_BASE.F, RULES[0], None)),
    Field("f_visc", lambda v: dataclasses.replace(_BASE, f_visc=v),
          valid=(_BASE.f_visc, RULES[0], None)),
    Field("C", lambda v: dataclasses.replace(_BASE, C=v),
          valid=(_BASE.C, Box(np.zeros(4), 5.0), Ball(zeros(euclidean(4)), 1.0),
                 HalfSpace(np.ones(4), np.zeros(4), euclidean(4))),
          others=(Box(np.zeros(3), 5.0), Box(-2.0, np.ones(1)), Ball(zeros(grid_l2(4)), 1.0),
                  HalfSpace(np.ones(3), np.zeros(3), euclidean(3)))),
    Field("x_star", lambda v: dataclasses.replace(_BASE, x_star=v), valid=(_BASE.x_star, None),
          others=(zeros(euclidean(3)), zeros(grid_l2(4)), _BASE.x_star.coords)),
    Field("seed", lambda v: initial_points(_BASE, "random_uniform", v), True, lambda v: v >= 0),
    Field("problem", lambda v: initial_points(v, "random_uniform"), valid=(_BASE,)),
    # the t-recipes read a grid, which _BASE's R^4 lacks
    Field("kind", lambda v: initial_points(_BASE, v), valid=("random_uniform",),
          others=("bogus", "t_squared", "t_plus_half_cos_t")),
    Field("spec", make_example1, valid=(RandomSpec(2, 1),)),
    Field("spec", _spec_parsed, valid=("ex1:n=4", "ex2:grid=3", *STRINGS)),
    # the seed is checked also where the spec pins its own
    Field("seed", lambda v: parse_problem_spec("ex1:n=4,seed=1", v), True, lambda v: v >= 0),
    Field("max_iter", lambda v: _plan(max_iter=v), True, lambda v: v >= 1),
    Field("seeds", lambda v: _plan(seeds=(v,)), True, lambda v: v >= 0),
    Field("tol", lambda v: _plan(tol=v), False, _positive, (None,)),
    Field("problems", lambda v: _plan(problems=(v,)), valid=("ex1:n=4", *STRINGS)),
    Field("algorithms", lambda v: _plan(algorithms=(v,)), valid=tuple(Scheme),
          others=("imsegm",)),
    Field("output_dir", lambda v: _plan(output_dir=v), valid=("out", Path("out"), STRINGS[0])),
    Field("record_invariants", lambda v: _plan(record_invariants=v), valid=(True, False)),
    Field("horizon", lambda v: validate_conditions(make_config(Scheme.IMSEGM, _BASE), v),
          True, lambda v: v >= 1),
    # every SolverConfig field, through make_config and a 2-iteration solve
    Field("scheme", lambda v: _solved(v), valid=tuple(Scheme)),
    # a scheme that takes imsegm's Adaptive step and zeta, that is one with
    # inertia; another fails on the step or on zeta
    Field("algorithm", lambda v: _solved(replace=dict(algorithm=v)), valid=PROPOSED),
    Field("step", lambda v: _solved(step=v), valid=(Adaptive(0.5, 0.5), Adaptive(0.1, 0.9)),
          others=(Fixed(0.5), Armijo(1.0, 0.5, 0.4))),
    Field("theta", lambda v: _solved(theta=v), valid=tuple(RULES), others=THETA_RULES),
    Field("eta", lambda v: _solved(eta=v), valid=tuple(RULES) + THETA_RULES),
    Field("zeta", lambda v: _solved(zeta=v), valid=(RULES[0], SequenceRule("one_over_kp1_sq")),
          others=THETA_RULES),
    # a scheme without inertia takes no zeta
    Field("zeta", lambda v: _solved(Scheme.MSEGM, zeta=v), valid=(None,),
          others=(SequenceRule("one_over_kp1_sq"),)),
    # the config's lambda is the problem's, 0 here
    Field("lambda_T", lambda v: _solved(replace=dict(lambda_T=v)), False,
          lambda v: v == _COUNTED.lambda_T),
    Field("max_iter", lambda v: _solved(max_iter=v), True, lambda v: 0 <= v <= 7),
    Field("x0", lambda v: _solved(x0=v), valid=(_X0,),
          others=(_X0.coords, zeros(euclidean(3)), zeros(grid_l2(4)))),
    Field("x1", lambda v: _solved(x1=v), valid=(_X1,), others=(_X1.coords, zeros(euclidean(3)))),
    Field("tol", lambda v: _solved(tol=v), False, _positive, (None,)),
    Field("record_invariants", lambda v: _solved(record_invariants=v), valid=(True, False)),
    # every SolverConfig field again, through dataclasses.replace and
    # validate_conditions, which reads a config with no problem: only the
    # space rule and the starts being set wait for solve
    Field("algorithm", lambda v: _validated(algorithm=v), valid=PROPOSED, others=("imsegm",)),
    Field("step", lambda v: _validated(step=v), valid=(Adaptive(0.5, 0.5), Adaptive(0.1, 0.9)),
          others=(Fixed(0.5), Armijo(1.0, 0.5, 0.4))),
    Field("theta", lambda v: _validated(theta=v), valid=tuple(RULES), others=THETA_RULES),
    Field("eta", lambda v: _validated(eta=v), valid=tuple(RULES) + THETA_RULES),
    Field("zeta", lambda v: _validated(zeta=v),
          valid=(RULES[0], SequenceRule("one_over_kp1_sq")), others=THETA_RULES),
    Field("zeta", lambda v: _validated(algorithm=Scheme.VSEGM, zeta=v), valid=(None,),
          others=(SequenceRule("one_over_kp1_sq"),)),
    Field("lambda_T", lambda v: _validated(lambda_T=v), False, _unit_closed_left),
    Field("max_iter", lambda v: _validated(max_iter=v), True, _nonnegative),
    Field("x0", lambda v: _validated(x0=v), valid=(_X0, zeros(euclidean(3)), None),
          others=(_X0.coords,)),
    Field("x1", lambda v: _validated(x1=v), valid=(_X1, None), others=(_X1.coords,)),
    Field("tol", lambda v: _validated(tol=v), False, _positive, (None,)),
    Field("record_invariants", lambda v: _validated(record_invariants=v), valid=(True, False)),
]

# What every field is offered: numbers in and out of each interval, their
# ends, numpy scalars, fractional counts, and values of no number kind.
# The largest integer is 7, so that a drawn count stays cheap.
NUMBERS = [0, 1, 2, 7, -1, 0.0, 0.5, 1.0, 2.5, 3.0, 1e300, math.inf, -math.inf,
           np.int64(3), np.int32(0), np.float64(0.25), np.float32(0.5), np.float64(3.0)]
NOT_NUMBERS = [True, False, np.bool_(True), *STRINGS, None, math.nan, np.float64(math.nan),
               RULES[0]]


@pytest.mark.parametrize("field", FIELDS, ids=[field.name for field in FIELDS])
def test_each_field_takes_its_values_or_names_itself_before_any_step(field):
    # every value offered to the field in turn: the set is finite and small,
    # so it is checked whole rather than sampled, and every wrong value is
    # listed; one case per field, so that a broken rule is named in the summary
    wrong = []
    # a real field is also offered 10**400; a count would take it and allocate
    huge = () if field.integer or field.interval is None else (10**400, -10**400)
    for value in field.valid + field.others + tuple(NUMBERS + NOT_NUMBERS) + huge:
        accepted = any(value is v for v in field.valid) or (
            field.interval is not None and _is_number(value, field.integer)
            and bool(field.interval(value)))
        _A_CALLS.clear()
        try:
            field.build(value)
        except Exception as exc:  # anything but a ConfigError naming the field is wrong
            if (accepted or not isinstance(exc, ConfigError)
                    or not str(exc).startswith(field.name) or _A_CALLS):
                wrong.append((value, exc))
        else:
            if not accepted:
                wrong.append((value, "accepted"))
    assert not wrong, wrong


# Each `out` form against the plain form it stands for: writing into out
# gives the plain form's bits, and returns out itself. No out is the point
# it is computed from, as the step never passes a map its own input.
def _own_operators(n):
    rng = np.random.default_rng(n)
    G = rng.uniform(-2.0, 2.0, (n, n))
    return (AffineMatrix(G), AffineMatrix(G, element(euclidean(n), rng.uniform(-1.0, 1.0, n))),
            PositivePart(), Scale(-1.5), RankOneIntegral(grid_l2(n)))


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@given(st.integers(2, 12), st.integers(1, 3), st.data())
def test_each_operator_writes_its_plain_bits_into_out(n, m, data):
    for shape in ((n,), (m, n)):  # a point and a block of rows
        x = data.draw(hnp.arrays(np.float64, shape, elements=coord))
        for op in _own_operators(n):
            out = np.full(shape, np.nan)
            assert op(x, out) is out and _same_bits(out, op(x)), (op, shape)


@given(space_and_points(2))
def test_a_bare_inner_gives_the_inner_products_bits(case):
    # on a grid it is inner bound to a work vector of its own, which each
    # call overwrites; an inner product given a work vector is the same
    sp, a, b = case
    bare, work = sp.bare_inner(a, b), np.empty(sp.dim)
    for x, y in ((a, b), (b, b), (a, a)):
        want = sp.inner(x, y).hex()
        assert float(bare(x, y)).hex() == want == sp.inner(x, y, work).hex()


@functools.lru_cache(maxsize=1)
def _affine_maps(n):
    """An AffineMatrix of size n without and with an offset."""
    ops = _own_operators(n)
    return ops[0], ops[1]


@pytest.mark.parametrize("n", [8, 100, 2000])
@settings(max_examples=10)
@given(seed=st.integers(0, 2**16))
def test_bare_map_writes_the_mat_vecs_bits_into_out(n, seed):
    # bare_map's G.dot(x, out), plus the offset, against G.dot(x) and the
    # AffineMatrix's own call
    x = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
    for op in _affine_maps(n):
        mat_vec = bare_map(op, x)
        assert mat_vec is not op  # the direct path
        out = np.full(n, np.nan)
        assert mat_vec(x, out) is out
        assert _same_bits(out, mat_vec(x)) and _same_bits(out, op(x))
