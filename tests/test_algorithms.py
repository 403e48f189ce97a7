"""The schemes, their steps and `solve`.

Each step is checked against a scalar recomputation, and every scheme
runs on a test-only problem whose VI binds (binding_problem.py: T = P_V,
A(x) = G(x - x*) with x* != 0 in V), drawn over n, dim V and seeds, where
a scheme that ignored A would stall. Runs drawn from starts up to 1e305
with steps up to 1e300, over a box, a ball or a halfspace C, are checked
bit for bit against step_oracle.py, the step that checks every vector;
`check_finite` is called exactly twice per iteration on ex1:n=100,seed=1
and once on ex2:grid=1001, for every scheme.
The paper's comparison holds too: imsegm reaches D <= 1e-4 in fewer
iterations than msegm, and immsegm in fewer than mmsegm, on ex1:n=100
seeds 1-5 and from both ex2:grid=1001 starts.
"""

import copy
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armijo_oracle import armijo_search_serial
from binding_problem import binding_problem
from call_counts import by_name, count_calls
from step_oracle import residuals, step_checked
from vikit import algorithms, space
from vikit.algorithms import (
    PROPOSED,
    ConfigError,
    IterateState,
    Outer,
    Scheme,
    SequenceRule,
    SolveError,
    SolverConfig,
    TraceRow,
    _state_step,
    solve,
    step_alg1,
    step_alg2,
    step_alg3,
    step_alg4,
)
from vikit.harness import make_config, parse_problem_spec
from vikit.operators import AffineMatrix, Scale
from vikit.problems import (
    ProblemInstance,
    RandomSpec,
    certify,
    initial_points,
    make_example1,
    make_example2,
)
from vikit.projections import Box, HalfSpace
from vikit.space import NonFiniteElementError, element, euclidean, norm, zeros
from vikit.stepsize import Adaptive, Armijo, Fixed


def _toy_problem(scale=1.0, shift=None):
    """A(x) = scale*x + shift over a box, T = 0.5 I, solution at -shift/scale
    when that point is interior (shift=None means the origin)."""
    sp = euclidean(2)
    A = AffineMatrix(scale * np.eye(2), shift)
    xs = zeros(sp) if shift is None else element(sp, -shift.coords / scale)
    return ProblemInstance(
        space=sp, A=A, C=Box(-2.0, 5.0), T=Scale(0.5),
        lambda_T=0.0,
        F=Scale(0.5), f_visc=Scale(0.5), x_star=xs, L=scale,
        problem_id="toy",
    )


def _cfg(scheme, step, theta, eta, **kw):
    return SolverConfig(algorithm=scheme, step=step,
                        theta=SequenceRule(theta),
                        eta=SequenceRule(eta), **kw)


def _ones_state(sp, gamma):
    x = element(sp, [1.0, 1.0]).coords
    return IterateState(k=1, x_prev=x, x_curr=x, gamma=gamma)


def inertial_weight(sp, zeta, x_curr, x_prev):
    """delta_k of imsegm's step from x_prev and x_curr with zeta_k = zeta,
    on a problem in sp with A = 0 and C the whole space."""
    p = ProblemInstance(space=sp, A=Scale(0.0), C=Box(-math.inf, math.inf), T=Scale(1.0),
                        lambda_T=0.0, x_star=zeros(sp), L=0.0, problem_id="inertia")
    cfg = _cfg(Scheme.IMSEGM, Adaptive(1.0, 0.5), "one_over_kp1", "half_one_minus_theta",
               zeta=SequenceRule("constant", zeta))
    return step_alg1(IterateState(1, x_prev, x_curr, gamma=1.0), p, cfg).delta_k


def test_inertial_delta_examples():
    sp = euclidean(1)
    a, b = element(sp, [1.0]).coords, element(sp, [0.0]).coords
    # coincident iterates: return the cap
    assert inertial_weight(sp, 0.25, a, a) == 0.6
    # gap 1, zeta 0.25: the ratio wins
    assert inertial_weight(sp, 0.25, a, b) == 0.25
    # large zeta: the cap wins
    assert inertial_weight(sp, 10.0, a, b) == 0.6
    with pytest.raises(ValueError, match="^zeta_k must be positive, got 0.0$"):
        inertial_weight(sp, 0.0, a, b)


def test_inertial_delta_rejects_a_gap_that_overflows():
    # x_k - x_{k-1} = inf would make zeta_k / inf = 0 win the min
    sp = euclidean(2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteElementError):
        inertial_weight(sp, 0.25, np.array([1e308, 0.0]), np.array([-1e308, 0.0]))


def test_inertial_delta_guarantee():
    sp = euclidean(3)
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = element(sp, rng.uniform(-4, 4, 3)).coords
        b = element(sp, rng.uniform(-4, 4, 3)).coords
        zeta = float(rng.uniform(0.001, 1.0))
        dk = inertial_weight(sp, zeta, a, b)
        assert dk * sp.norm(a - b) <= zeta + 1e-15


def test_sequence_rule_values():
    assert SequenceRule("one_over_kp1")(1) == 0.5
    assert SequenceRule("one_over_kp1")(3) == 0.25
    assert SequenceRule("k_over_kp1")(1) == 0.5
    assert SequenceRule("k_over_2kp1")(2) == 0.4
    assert SequenceRule("one_over_kp1_sq")(1) == 0.25
    assert SequenceRule("half_one_minus_theta")(1, theta=0.5) == 0.25
    assert SequenceRule("theta_over_3")(1, theta=0.5) == pytest.approx(0.5 / 3)
    assert SequenceRule("constant", 0.7)(99) == 0.7
    with pytest.raises(ValueError):
        SequenceRule("half_one_minus_theta")(1)


def test_scheme_table_reproduces_the_scheme_sets():
    S = Scheme
    assert PROPOSED == (S.IMSEGM, S.IMTEGM, S.IMMSEGM, S.IMMTEGM)

    def rows(**match):
        return {s for s in Scheme if all(getattr(s, k) == v for k, v in match.items())}

    assert rows(inertial=True) == set(PROPOSED)
    assert rows(correction="tseng") == {S.IMTEGM, S.IMMTEGM, S.VTEGM, S.STEGM}
    assert rows(step=Fixed) == {S.HSEGM, S.MSEGM, S.MMSEGM}
    assert rows(step=Armijo) == {S.STEGM}
    assert rows(step=Adaptive) == set(PROPOSED) | {S.VSEGM, S.VTEGM}
    assert rows(outer=Outer.MANN) == {S.IMSEGM, S.IMTEGM, S.MSEGM}
    assert rows(outer=Outer.MODIFIED_MANN) == {S.IMMSEGM, S.IMMTEGM, S.MMSEGM}
    assert rows(outer=Outer.ANCHORED) == {S.HSEGM}
    assert rows(outer=Outer.HSD) == {S.STEGM}
    assert rows(outer=Outer.VISCOSITY) == {S.VSEGM, S.VTEGM}


# each outer update's record, written out: the operator it reads beyond T,
# Table 1's theta_k and eta_k kinds, its condition set's label, and for C4
# and C5 the eta_k bound, the zeta_k ratio's name and its divisor at
# theta_k = 0.3 and lambda = 0.2
OUTER_RECORDS = [
    (Outer.MANN, None, ("one_over_kp1", "half_one_minus_theta"), "C4",
     (0.8 * 0.7, "zeta_over_theta", 0.3)),
    (Outer.MODIFIED_MANN, None, ("k_over_kp1", "theta_over_3"), "C5",
     (0.8 * 0.3 / 0.5, "zeta_over_one_minus_theta", 0.7)),
    (Outer.ANCHORED, None, ("one_over_kp1", "k_over_2kp1"), "range checks only", None),
    (Outer.VISCOSITY, "f_visc", ("one_over_kp1", "k_over_2kp1"), "range checks only", None),
    (Outer.HSD, "F", ("one_over_kp1", "k_over_2kp1"), "range checks only", None),
]


def test_every_outer_update_has_a_written_record():
    assert [record[0] for record in OUTER_RECORDS] == list(Outer)


@pytest.mark.parametrize("outer,operator,kinds,label,conditions", OUTER_RECORDS,
                         ids=[record[0].value for record in OUTER_RECORDS])
def test_each_outer_update_states_its_theorem(outer, operator, kinds, label, conditions):
    assert (outer.operator, outer.kinds, outer.label) == (operator, kinds, label)
    if conditions is None:
        assert (outer.eta_bound, outer.zeta_divisor, outer.ratio) == (None, None, None)
    else:
        bound, ratio, divisor = conditions
        assert outer.eta_bound(0.3, 0.2) == pytest.approx(bound)
        assert outer.ratio == ratio
        assert outer.zeta_divisor(0.3) == pytest.approx(divisor)


def _scalar_first_iteration(variant):
    """Independent scalar recomputation of one step from x0=x1=(1,1,...)
    for A = I over the box [-2,5], T = 0.5 I, gamma1 = 0.5, phi = 0.5.
    Every quantity is radially symmetric, so scalars suffice."""
    x = 1.0
    gamma = 0.5
    delta_k = 0.6  # coincident starting pair: cap applies
    s = x + delta_k * 0.0
    y = min(max(s - gamma * s, -2.0), 5.0)
    # s - gamma*A(s) equals y here, so the separating functional vanishes
    z_half = s - gamma * y  # degenerate halfspace leaves the point alone
    z_tseng = y - gamma * (y - s)
    assert z_half == z_tseng
    z = z_half
    theta = 1.0 / 2.0
    if variant == "alg1":
        eta = 0.5 * (1.0 - theta)
        x2 = (1.0 - theta - eta) * z + eta * (0.5 * z)
    elif variant == "alg3":
        eta = theta / 3.0
        x2 = (1.0 - eta) * (theta * z) + eta * (0.5 * z)
    else:  # vsegm
        eta = 1.0 / 3.0
        mann = (1.0 - eta) * z + eta * (0.5 * z)
        x2 = theta * (0.5 * x) + (1.0 - theta) * mann
    gamma2 = min(0.5 * abs(s - y) / abs(s - y), gamma)
    return s, y, z, x2, gamma2


def test_step_alg1_matches_scalar_recomputation():
    p = _toy_problem()
    cfg = _cfg(Scheme.IMSEGM, Adaptive(0.5, 0.5), "one_over_kp1",
               "half_one_minus_theta", zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg1(_ones_state(p.space, 0.5), p, cfg)
    s, y, z, x2, gamma2 = _scalar_first_iteration("alg1")
    assert np.allclose(st.s, s)
    assert np.allclose(st.y, y)
    assert np.allclose(st.z, z)
    assert np.allclose(st.x_curr, x2)
    assert st.gamma == gamma2
    assert st.delta_k == 0.6
    assert x2 == 0.28125  # frozen value of the scalar recomputation


def test_step_alg2_agrees_with_alg1_on_linear_radial_data():
    # with A = I the forward correction and the halfspace projection coincide
    p = _toy_problem()
    cfg = _cfg(Scheme.IMTEGM, Adaptive(0.5, 0.5), "one_over_kp1",
               "half_one_minus_theta", zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg2(_ones_state(p.space, 0.5), p, cfg)
    assert np.allclose(st.x_curr, 0.28125)
    assert st.gamma == 0.5
    assert st.halfspace is None


def test_step_alg3_matches_scalar_recomputation():
    p = _toy_problem()
    cfg = _cfg(Scheme.IMMSEGM, Adaptive(0.5, 0.5), "k_over_kp1",
               "theta_over_3", zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg3(_ones_state(p.space, 0.5), p, cfg)
    *_, x2, gamma2 = _scalar_first_iteration("alg3")
    assert np.allclose(st.x_curr, x2)
    assert st.gamma == gamma2
    assert x2 == 0.375


def test_step_vsegm_matches_scalar_recomputation():
    p = _toy_problem()
    cfg = _cfg(Scheme.VSEGM, Adaptive(0.5, 0.5), "one_over_kp1", "k_over_2kp1")
    st = _state_step(cfg.algorithm, _ones_state(p.space, 0.5), p, cfg)
    *_, x2, _ = _scalar_first_iteration("vsegm")
    assert np.allclose(st.x_curr, x2)
    assert x2 == 0.5625


def test_step_alg2_reduces_to_mann_when_a_vanishes():
    # A = 0: y = z = s, so the step is a pure averaged-map update of s
    p = _toy_problem(scale=0.0)
    p = ProblemInstance(space=p.space, A=AffineMatrix(np.zeros((2, 2))), C=p.C,
                        T=p.T, lambda_T=p.lambda_T, x_star=p.x_star, L=1.0,
                        problem_id="toy0")
    cfg = _cfg(Scheme.IMTEGM, Adaptive(0.5, 0.5), "one_over_kp1",
               "half_one_minus_theta", zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg2(_ones_state(p.space, 0.5), p, cfg)
    # (1 - 0.5 - 0.25) s + 0.25 * 0.5 s = 0.375 s
    assert np.allclose(st.x_curr, 0.375)
    assert np.allclose(st.y, 1.0)
    assert np.allclose(st.z, 1.0)


def test_step_alg3_with_identity_t_and_theta_one_returns_z():
    p = _toy_problem()
    p = ProblemInstance(space=p.space, A=p.A, C=p.C, T=Scale(1.0),
                        lambda_T=p.lambda_T, x_star=p.x_star, L=p.L,
                        problem_id="toyI")
    cfg = SolverConfig(algorithm=Scheme.IMMSEGM, step=Adaptive(0.5, 0.5),
                       theta=SequenceRule("constant", 1.0),
                       eta=SequenceRule("constant", 0.25),
                       zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg3(_ones_state(p.space, 0.5), p, cfg)
    assert np.allclose(st.x_curr, st.z)


def test_stegm_step_componentwise():
    # A = I, rho=1, l=0.5, phi=0.4: trial steps 1, 0.5 fail, 0.25 passes
    p = _toy_problem()
    cfg = _cfg(Scheme.STEGM, Armijo(rho=1.0, l=0.5, phi=0.4),
               "one_over_kp1", "k_over_2kp1")
    st = _state_step(cfg.algorithm, _ones_state(p.space, 1.0), p, cfg)
    gamma, y = 0.25, 0.75
    z = y - gamma * (y - 1.0)
    eta = 1.0 / 3.0
    t = (1.0 - eta) * z + eta * 0.5 * z
    x2 = t - 0.5 * 0.5 * (0.5 * t)  # t - HSD_LAMBDA * theta_1 * F(t)
    assert st.gamma == gamma
    assert np.allclose(st.y, y)
    assert np.allclose(st.x_curr, x2)


def test_hsegm_step_uses_the_anchor():
    p = _toy_problem()
    anchor = element(p.space, [1.0, 1.0])
    cfg = _cfg(Scheme.HSEGM, Fixed(0.5), "one_over_kp1", "k_over_2kp1",
               x0=anchor, x1=anchor)
    st = _state_step(cfg.algorithm, _ones_state(p.space, 0.5), p, cfg)
    # w = z-block value 0.75; z = 0.5*anchor + 0.5*w; x2 = eta x + (1-eta) T z
    zc = 0.5 * 1.0 + 0.5 * 0.75
    x2 = (1.0 / 3.0) * 1.0 + (2.0 / 3.0) * 0.5 * zc
    assert np.allclose(st.x_curr, x2)
    assert st.gamma == 0.5


def _solve_cfg(scheme, p, **kw):
    x = element(p.space, [1.0, 1.0])
    base = dict(zeta=SequenceRule("one_over_kp1_sq"),
                x0=x, x1=x, max_iter=50)
    base.update(kw)
    if scheme in (Scheme.IMMSEGM, Scheme.IMMTEGM):
        return _cfg(scheme, Adaptive(0.5, 0.5), "k_over_kp1", "theta_over_3",
                    **base)
    return _cfg(scheme, Adaptive(0.5, 0.5), "one_over_kp1",
                "half_one_minus_theta", **base)


def test_solve_row_count_and_initial_row():
    p = _toy_problem()
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, max_iter=5))
    assert [r.k for r in trace.rows] == [1, 2, 3, 4, 5, 6]
    assert trace.rows[0].D == norm(element(p.space, [1.0, 1.0]))
    assert trace.rows[0].gamma == 0.5


def test_solve_zero_iterations_gives_only_the_initial_row():
    p = _toy_problem()
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, max_iter=0))
    assert len(trace.rows) == 1


def test_solve_tolerance_stops_early():
    p = _toy_problem()
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, max_iter=400, tol=1e-6))
    assert len(trace.rows) < 401
    assert trace.rows[-1].D < 1e-6


@pytest.mark.parametrize("scheme,cfg_changes,problem_changes,message", [
    (Scheme.IMSEGM, dict(max_iter=-1), {}, r"max_iter must be an integer in \[0,inf\), got -1"),
    (Scheme.IMSEGM, dict(lambda_T=1.0), {}, r"lambda_T must be a real number in \[0,1\), got 1.0"),
    (Scheme.MSEGM, dict(lambda_T=-0.1), {}, r"lambda_T must be a real number in \[0,1\), got -0.1"),
    # a scheme without inertia never reads zeta, and theta_k and zeta_k are
    # evaluated without theta_k
    (Scheme.MSEGM, dict(zeta=SequenceRule("one_over_kp1_sq")), {},
     r"zeta must be of type NoneType, got SequenceRule\(kind='one_over_kp1_sq', value=None\)"),
    (Scheme.IMSEGM, dict(theta=SequenceRule("theta_over_3")), {},
     r"theta must not depend on theta_k, got SequenceRule\(kind='theta_over_3', value=None\)"),
    (Scheme.IMSEGM, dict(zeta=SequenceRule("half_one_minus_theta")), {},
     r"zeta must not depend on theta_k, got "
     r"SequenceRule\(kind='half_one_minus_theta', value=None\)"),
    # validate_conditions reads the config's lambda, so it must be the problem's
    (Scheme.IMSEGM, dict(lambda_T=0.9), {}, "lambda_T must be the problem's 0.0, got 0.9"),
    (Scheme.MMSEGM, dict(lambda_T=0.0), dict(lambda_T=0.5),
     "lambda_T must be the problem's 0.5, got 0.0"),
    # gamma = 1/L is outside (0, 1/L)
    (Scheme.MSEGM, dict(step=Fixed(0.25)), dict(L=4.0), r"fixed step 0.25 outside \(0, 1/L\) for L=4.0"),
    (Scheme.STEGM, {}, dict(F=None), "F must be set for stegm's hsd update"),
    (Scheme.VSEGM, {}, dict(f_visc=None), "f_visc must be set for vsegm's viscosity update"),
    (Scheme.VTEGM, {}, dict(f_visc=None), "f_visc must be set for vtegm's viscosity update"),
    # with no known solution every D_k is NaN, so no tolerance could stop the
    # run, and every residual is measured against x_star
    (Scheme.IMSEGM, dict(tol=1e-8), dict(x_star=None),
     "tol needs a problem with a known solution x_star"),
    (Scheme.IMSEGM, dict(record_invariants=True), dict(x_star=None),
     "record_invariants needs a problem with a known solution x_star"),
])
def test_check_config_names_each_rejected_field(scheme, cfg_changes, problem_changes,
                                                message):
    p = dataclasses.replace(_toy_problem(), **problem_changes)
    x = element(p.space, [1.0, 1.0])
    with pytest.raises(ConfigError, match=f"^{message}$"):
        solve(p, dataclasses.replace(make_config(scheme, p, x0=x, x1=x), **cfg_changes))


@pytest.mark.parametrize("scheme", Scheme, ids=lambda s: s.value)
def test_an_outer_update_reads_exactly_the_operator_its_record_names(scheme):
    # F and f_visc unset: a scheme whose outer update names neither solves,
    # and one that names an operator is rejected, then solves once it is set
    bare = dataclasses.replace(_toy_problem(), F=None, f_visc=None)
    x = element(bare.space, [1.0, 1.0])
    needed = scheme.outer.operator
    if needed is not None:
        with pytest.raises(ConfigError, match=f"^{needed} must be set for {scheme.value}'s "):
            solve(bare, make_config(scheme, bare, x0=x, x1=x, max_iter=5))
        bare = dataclasses.replace(bare, **{needed: Scale(0.5)})
    assert len(solve(bare, make_config(scheme, bare, x0=x, x1=x, max_iter=5)).rows) == 6


def test_a_checked_config_cannot_be_changed_unchecked():
    # only dataclasses.replace, which checks the new config, changes a field
    cfg = make_config(Scheme.IMSEGM, _toy_problem())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda_T = math.nan


def test_solve_checks_its_fields_once_per_run_not_per_step():
    # a checker costs ~0.4 us a call, so none may run inside the step loop
    p = _toy_problem()
    x = element(p.space, [1.0, 1.0])
    checkers = (space.check_field, space.check_type, space.check_space)
    rules = {f.__code__: by_name for f in checkers}

    def checker_calls(scheme, max_iter):
        def run():  # the config's checks count too
            return solve(p, make_config(scheme, p, x0=x, x1=x, max_iter=max_iter))

        _, calls = count_calls(rules, run)
        return {f.__name__: calls[f.__name__] for f in checkers}

    for scheme in Scheme:
        short = checker_calls(scheme, 10)
        assert all(short.values()), (scheme, short)
        assert short == checker_calls(scheme, 200), scheme


@pytest.mark.parametrize("scheme", [Scheme.HSEGM, Scheme.MSEGM, Scheme.MMSEGM])
def test_zero_lipschitz_bound_admits_any_fixed_step_but_has_no_table1_step(scheme):
    p = _toy_problem(scale=0.0)  # the zero operator, L = 0
    with pytest.raises(ConfigError, match=f"^{scheme.value} needs a Lipschitz bound "
                                          "for its fixed step$"):
        make_config(scheme, p)
    x = element(p.space, [1.0, 1.0])
    cfg = make_config(scheme, p, x0=x, x1=x, max_iter=3, step=Fixed(1e300))
    assert [r.gamma for r in solve(p, cfg).rows] == [1e300] * 4


def test_step_alg4_agrees_with_alg3_on_linear_radial_data():
    # with A = I the forward correction and the halfspace projection coincide
    p = _toy_problem()
    cfg = _cfg(Scheme.IMMTEGM, Adaptive(0.5, 0.5), "k_over_kp1",
               "theta_over_3", zeta=SequenceRule("one_over_kp1_sq"))
    st = step_alg4(_ones_state(p.space, 0.5), p, cfg)
    *_, x2, gamma2 = _scalar_first_iteration("alg3")
    assert np.allclose(st.x_curr, x2)
    assert st.gamma == gamma2
    assert st.halfspace is None


def test_stationary_at_the_solution():
    p = _toy_problem()
    z = zeros(p.space)
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, x0=z, x1=z, max_iter=20))
    assert all(r.D == 0.0 for r in trace.rows)


def test_convergence_to_an_interior_nonzero_solution():
    sp = euclidean(2)
    shift = element(sp, [-1.0, -2.0])  # A(x) = x + shift, zero at (1, 2)
    p = _toy_problem(shift=shift)
    # T must also fix x*; use the averaged map pulling toward x*
    Tmat = AffineMatrix(0.5 * np.eye(2), element(sp, 0.5 * p.x_star.coords))
    p = ProblemInstance(space=sp, A=p.A, C=p.C, T=Tmat, lambda_T=p.lambda_T,
                        x_star=p.x_star, L=1.0, problem_id="toy-shift")
    # the vanishing anchor term slows things to roughly a 1/k rate when the
    # solution sits away from the origin, hence the long horizon
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, max_iter=2000))
    assert np.allclose(p.x_star.coords, [1.0, 2.0])
    assert trace.rows[-1].D <= 1e-2 * trace.rows[0].D


# every scheme ends below this share of D_1 after BINDING_ITERS iterations;
# over 150 random draws at n = 4-16 the schemes reached at most 0.17 and an
# A-free imsegm stalled at 0.53 or more. Convergence slows as n grows: at
# n = 20, dim V = 19 (problem seed 65535, start seed 83) imsegm reached 0.32.
BINDING_SHARE = 0.3
BINDING_ITERS = 1000


@st.composite
def binding_cases(draw):
    """(n, dim V, problem seed, start seed) with n = 4-16, 1 <= dim V <= n."""
    n = draw(st.integers(4, 16))
    return n, draw(st.integers(1, n)), draw(st.integers(0, 2**16)), draw(st.integers(0, 2**16))


def _assert_binding_solved(n, dim_v, seed, start_seed):
    p = binding_problem(n, dim_v, seed)
    assert certify(p) == []
    x0, x1 = initial_points(p, "random_uniform", seed=start_seed)
    traces = {}
    for scheme in Scheme:
        traces[scheme] = solve(p, make_config(scheme, p, x0=x0, x1=x1, max_iter=BINDING_ITERS))
        rows = traces[scheme].rows
        assert rows[-1].D <= BINDING_SHARE * rows[0].D, scheme
    # A is what finds x* within V: without it imsegm stalls
    free = dataclasses.replace(p, A=Scale(0.0))
    rows = solve(free, make_config(Scheme.IMSEGM, free, x0=x0, x1=x1,
                                   max_iter=BINDING_ITERS)).rows
    assert rows[-1].D > BINDING_SHARE * rows[0].D
    # stegm's screened Armijo search on an offset A follows the serial one
    with mock.patch.object(algorithms, "armijo_search", armijo_search_serial):
        serial = solve(p, make_config(Scheme.STEGM, p, x0=x0, x1=x1, max_iter=BINDING_ITERS))
    assert ([(r.D, r.gamma) for r in serial.rows]
            == [(r.D, r.gamma) for r in traces[Scheme.STEGM].rows])


@pytest.mark.parametrize("seed", [0, 1])
def test_every_scheme_solves_a_problem_on_which_the_vi_binds(seed):
    _assert_binding_solved(20, 10, seed, 3)


@settings(max_examples=2)
@given(binding_cases())
def test_every_scheme_solves_random_problems_on_which_the_vi_binds(case):
    _assert_binding_solved(*case)


def test_residual_columns_present_when_requested():
    p = _toy_problem()
    trace = solve(p, _solve_cfg(Scheme.IMSEGM, p, max_iter=10,
                                record_invariants=True))
    hs = trace.column("res_halfspace")
    assert len(hs) == 10
    assert all(v <= 1e-12 for v in hs)
    assert all(v <= 1e-10 for v in trace.column("res_contraction"))
    assert all(math.isnan(v) for v in trace.column("res_tseng"))


def test_a_recording_solve_builds_no_halfspace():
    # the residuals read the step's normal and anchor; only a step called
    # on its own (step_alg1 and its kind) hands out a HalfSpace
    problem, init = parse_problem_spec("ex1:n=100,seed=1", 1)
    x, _ = initial_points(problem, init, seed=1)
    cfg = make_config(Scheme.IMSEGM, problem, x0=x, x1=x, max_iter=50, record_invariants=True)
    rules = {HalfSpace.__post_init__.__code__: by_name}
    trace, calls = count_calls(rules, solve, problem, cfg)
    assert len(trace.column("res_halfspace")) == 50 and calls["__post_init__"] == 0
    state, calls = count_calls(rules, step_alg1, IterateState(1, x.coords, x.coords,
                                                              gamma=cfg.step.gamma1), problem, cfg)
    assert calls["__post_init__"] == 1 and isinstance(state.halfspace, HalfSpace)


def _iterations_to(problem, x, scheme, tol):
    trace = solve(problem, make_config(scheme, problem, x0=x, x1=x, max_iter=3000, tol=tol))
    assert trace.rows[-1].D <= tol
    return trace.rows[-1].k


@pytest.mark.parametrize("spec", [f"ex1:n=100,seed={seed}" for seed in range(1, 6)]
                         + ["ex2:grid=1001", "ex2:grid=1001,init=t_plus_half_cos_t"])
def test_the_proposed_schemes_reach_1e_4_before_their_baselines(spec):
    # the paper's comparison: imsegm against msegm and immsegm against
    # mmsegm (each pair differs in inertia and in the step rule). The golden
    # traces catch any change to the floats; this says whether a change
    # reverses the ordering. ex2's starts read no seed.
    for start in range(4 if spec.startswith("ex1") else 1):
        problem, init = parse_problem_spec(spec, start)
        x, _ = initial_points(problem, init, seed=start)
        for proposed, baseline in ((Scheme.IMSEGM, Scheme.MSEGM),
                                   (Scheme.IMMSEGM, Scheme.MMSEGM)):
            assert (_iterations_to(problem, x, proposed, 1e-4)
                    < _iterations_to(problem, x, baseline, 1e-4)), (spec, start, proposed)


def _huge_start_problem():
    p = make_example1(RandomSpec(n=8, seed=1))
    x = element(p.space, np.full(8, 1e298))
    return p, x


@pytest.mark.parametrize("scheme,step", [
    (Scheme.IMSEGM, Adaptive(gamma1=1e10, phi=0.5)),
    # the first Armijo trial overflows; it must not be clipped into the box
    # and backtracked past
    (Scheme.STEGM, Armijo(rho=1e10, l=0.5, phi=0.4)),
])
def test_overflow_inside_a_step_raises_at_that_step(scheme, step):
    # the huge start already overflows check_finite's sum of squares (which
    # is then confirmed entry by entry), and the step overflows, with
    # numpy's warning, in its first multiply
    with pytest.warns(RuntimeWarning, match="overflow"):
        p, x = _huge_start_problem()
        cfg = make_config(scheme, p, x0=x, x1=x, max_iter=5, step=step)
        with pytest.raises(SolveError) as info:
            solve(p, cfg)
        assert "at k=1" in str(info.value)
        assert isinstance(info.value.__cause__, NonFiniteElementError)
        assert len(info.value.trace.rows) == 1


def test_distances_from_a_huge_start_are_finite():
    # every entry 1e160: the sum of squares of x_1 - x* overflows, the norm
    # (2.83e160) does not. So do the halfspace projection's inner products;
    # taken again on rescaled vectors, they let these schemes run on
    p = make_example1(RandomSpec(n=8, seed=1))
    x = element(p.space, np.full(8, 1e160))
    for scheme in (Scheme.IMSEGM, Scheme.IMMSEGM, Scheme.VSEGM, Scheme.MSEGM, Scheme.MMSEGM):
        with np.errstate(over="ignore"):
            rows = solve(p, make_config(scheme, p, x0=x, x1=x, max_iter=200)).rows
        assert rows[0].D == pytest.approx(math.sqrt(8) * 1e160, rel=1e-15)
        assert len(rows) == 201
        assert all(math.isfinite(row.D) for row in rows)


@pytest.mark.parametrize("scheme", PROPOSED)
def test_a_recording_solve_runs_where_a_plain_solve_does(scheme):
    # from every entry 1e160 the distances to x* are finite, their squares
    # are not (a float's ** raises OverflowError there): res_contraction is
    # recorded as inf - inf = nan, and the iterates are the plain solve's
    p = make_example1(RandomSpec(n=8, seed=1))
    x = element(p.space, np.full(8, 1e160))
    with np.errstate(over="ignore"):
        plain, recorded = (solve(p, make_config(scheme, p, x0=x, x1=x, max_iter=5,
                                                record_invariants=record)).rows
                           for record in (False, True))
    assert _bits(plain) == _bits([row._replace(residuals=None) for row in recorded])
    assert len(recorded) == 6
    assert all(math.isnan(row.residuals[0]) for row in recorded[1:])


def _reversed_stride(point):
    """A copy of point whose coordinates are held at a negative stride, as
    no constructor leaves them."""
    coords = np.empty_like(point.coords)[::-1]
    coords[:] = point.coords
    point = copy.copy(point)
    object.__setattr__(point, "coords", coords)
    return point


@st.composite
def huge_runs(draw):
    """(problem, config): a small ex1, ex2 or binding problem (whose A is
    an AffineMatrix with an offset), the last over its box or over a
    halfspace C through its solution, any scheme, 5 iterations from starts
    of up to 1e305 with gamma1 or rho up to 1e300. Some draws take the
    step's generic path: A wrapped in a plain function, as perfbench's
    tracer wraps it, or x1 held at a reversed stride."""
    family = draw(st.sampled_from(["ex1", "ex2", "binding", "binding-halfspace"]))
    if family == "ex1":
        p = make_example1(RandomSpec(draw(st.integers(2, 12)), draw(st.integers(0, 2**16))))
    elif family == "ex2":
        p = make_example2(draw(st.integers(2, 41)))
    else:
        n = draw(st.integers(2, 12))
        p = binding_problem(n, draw(st.integers(1, n)), draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if family == "binding-halfspace":
        # C = {x : <a, x - x*> <= 0}: A(x*) = 0 and x* lies in C, so x* still solves the VI
        p = dataclasses.replace(p, C=HalfSpace(rng.standard_normal(p.space.dim),
                                               p.x_star.coords, p.space))
    x0, x1 = (element(p.space, 10.0 ** draw(st.integers(-3, 305))
                      * rng.uniform(-1.0, 1.0, p.space.dim)) for _ in range(2))
    path = draw(st.sampled_from(["direct", "wrapped", "reversed"]))
    if path == "wrapped":
        p = dataclasses.replace(p, A=lambda x, A=p.A: A(x))
    elif path == "reversed":
        x1 = _reversed_stride(x1)
    scheme = draw(st.sampled_from(list(Scheme)))
    overrides = {}
    size = 10.0 ** draw(st.integers(-3, 300))
    if scheme.step is Adaptive:
        overrides["step"] = Adaptive(gamma1=size, phi=0.5)
    elif scheme.step is Armijo:
        overrides["step"] = Armijo(rho=size, l=0.5, phi=0.4)
    return p, make_config(scheme, p, x0=x0, x1=x1, max_iter=5,
                          record_invariants=draw(st.booleans()), **overrides)


def _bits(rows) -> list:
    """Each row's k and its floats as hex, elapsed time left out."""
    return [(r.k,) + tuple(float(v).hex() for v in (r.D, r.gamma, r.delta) + (r.residuals or ()))
            for r in rows]


def _solved(p, cfg):
    """(exception type, message, rows as bits) of solve(p, cfg); no rows
    when it raises anything but SolveError."""
    exc, rows = None, None
    with np.errstate(all="ignore"):
        try:
            rows = solve(p, cfg).rows
        except Exception as e:  # compared below, whatever it is
            exc = e
            rows = e.trace.rows if isinstance(e, SolveError) else None
    return type(exc), str(exc), None if rows is None else _bits(rows)


def _checked(p, cfg):
    """The same for a loop of step_checked that records its rows as solve
    does: the residuals are part of the step, so an error in them fails
    the step, and a square that overflows is recorded as inf."""
    scheme, space, u = cfg.algorithm, p.space, p.x_star.coords
    phi = getattr(cfg.step, "phi", None)
    state = IterateState(1, cfg.x0.coords, cfg.x1.coords, gamma=cfg.step.gamma1)
    exc = None
    with np.errstate(all="ignore"):
        rows = [TraceRow(1, space.norm(state.x_curr - u), state.gamma, 0.0, 0.0)]
        try:
            for _ in range(cfg.max_iter):
                k, res = state.k, None
                try:
                    state = step_checked(scheme, state, p, cfg)
                    if cfg.record_invariants:
                        res = residuals(scheme, state, phi, u, space)
                except Exception as e:
                    raise SolveError(f"{scheme.value} failed at k={k}: {e}", None) from e
                rows.append(TraceRow(state.k, space.norm(state.x_curr - u), state.gamma,
                                     state.delta_k, 0.0, res))
        except Exception as e:  # compared below, whatever it is
            exc = e
    kept = exc is None or isinstance(exc, SolveError)
    return type(exc), str(exc), _bits(rows) if kept else None


@settings(max_examples=300)
@given(huge_runs())
def test_step_checks_only_where_finiteness_can_be_lost(run):
    # solve and a loop of the fully checked step give the same rows bit for
    # bit, or fail with the same error at the same k after the same rows
    p, cfg = run
    assert _solved(p, cfg) == _checked(p, cfg)


class _OtherAffine(AffineMatrix):
    """An AffineMatrix subclass: not exactly one of vikit's own operators,
    so a solve calls it without an out."""


@pytest.mark.parametrize("wrap", [lambda A: lambda x: A(x),
                                  lambda A: _OtherAffine(A.G, A.f_vec)],
                         ids=["function", "subclass"])
@pytest.mark.parametrize("problem", [make_example1(RandomSpec(8, 1)), binding_problem(8, 4, 1)],
                         ids=["ex1", "binding-offset"])
def test_a_wrapped_operator_gives_the_affine_matrix_run_bit_for_bit(problem, wrap):
    # on C-contiguous starts the step calls the AffineMatrix's G.dot (plus
    # its offset) and ndarray.dot directly; a plain function around it, as
    # perfbench's tracer wraps A, or a subclass, which is not exactly one
    # of vikit's own operators, takes A's own call without an out
    wrapped = dataclasses.replace(problem, A=wrap(problem.A))
    x0, x1 = initial_points(problem, "random_uniform", seed=1)
    for scheme in Scheme:
        for record in (False, True):
            cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter=50,
                              record_invariants=record)
            assert _bits(solve(wrapped, cfg).rows) == _bits(solve(problem, cfg).rows), scheme


@pytest.mark.parametrize("spec,per_iter", [("ex1:n=100,seed=1", 2), ("ex2:grid=1001", 1)])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_step_checks_two_vectors_over_a_box_and_one_over_a_ball(spec, per_iter, scheme):
    # x_{k+1}, and over ex1's box the trial point it clips; operator values
    # and every other vector go unchecked
    problem, init = parse_problem_spec(spec, 1)
    x, _ = initial_points(problem, init, seed=1)
    cfg = make_config(scheme, problem, x0=x, x1=x, max_iter=200)
    _, calls = count_calls({space.check_finite.__code__: by_name}, solve, problem, cfg)
    assert calls["check_finite"] == 200 * per_iter
