"""The problem families, their starts and `certify`.

Every family, at every start it accepts, builds a problem with a known x*
that certifies. certify raises NonFiniteElementError on a caller's A or T
that returns NaN or Inf, at x* or on some samples, over a box or a ball,
with and without x*, and takes a demicontractive T at its constant
lambda_T > 0 but not below it (demi_problem.py).
"""

import dataclasses

import numpy as np
import pytest

from certify_oracle import check_demicontractive_serial, check_monotone_serial
from demi_problem import demi_problem
from vikit.harness import parse_problem_spec
from vikit.operators import (
    AffineMatrix,
    PositivePart,
    RankOneIntegral,
    Scale,
    check_demicontractive,
    spectral_norm,
)
from vikit.problems import (
    _START_RECIPES,
    FAMILIES,
    ProblemInstance,
    RandomSpec,
    certify,
    initial_points,
    make_example1,
    make_example2,
    solution_residual,
)
from vikit.projections import Ball, Box, HalfSpace
from vikit.space import (NonFiniteElementError, SpaceMismatchError, element, euclidean, grid_l2,
                         norm, zeros)


def test_same_seed_gives_bitwise_identical_matrices():
    a = make_example1(RandomSpec(n=20, seed=7))
    b = make_example1(RandomSpec(n=20, seed=7))
    assert np.array_equal(a.A.G, b.A.G)
    assert a.L == b.L


def test_different_seeds_differ():
    a = make_example1(RandomSpec(n=20, seed=7))
    b = make_example1(RandomSpec(n=20, seed=8))
    assert not np.array_equal(a.A.G, b.A.G)


# the build adds the skew part max(1, n // 8) rows at a time: one-row blocks
# up to n = 15, the first two-row blocks at n = 16 and 17 (eight, then eight
# and one row more), and at n = 35 eight four-row blocks and three rows more
@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16, 17, 35])
def test_example1_is_bitwise_its_formula_drawn_in_order(n):
    rng = np.random.default_rng(5)
    B = rng.uniform(0.0, 2.0, (n, n))
    e = rng.uniform(0.0, 2.0, n)
    M = rng.uniform(-2.0, 2.0, (n, n))
    G = B @ B.T + 0.5 * (M - M.T) + np.diag(e)
    p = make_example1(RandomSpec(n=n, seed=5))
    assert p.A.G.tobytes() == G.tobytes()
    assert p.L == spectral_norm(G)


def test_example1_structure():
    p = make_example1(RandomSpec(n=30, seed=3))
    assert isinstance(p.C, Box) and p.C.lower == -2.0 and p.C.upper == 5.0
    assert isinstance(p.T, Scale) and p.T.c == 0.5
    assert norm(p.x_star) == 0.0
    assert p.L == pytest.approx(spectral_norm(p.A.G), rel=1e-9)
    assert p.problem_id == "ex1:n=30,seed=3"
    # symmetric part is positive definite by construction
    G = p.A.G
    sym = 0.5 * (G + G.T)
    assert np.all(np.linalg.eigvalsh(sym) > 0)


def test_example1_certifies():
    p = make_example1(RandomSpec(n=15, seed=11))
    assert certify(p) == []


def test_a_problem_without_a_known_solution_is_not_certified():
    # ex1 with offset 1 has an empty Omega: Fix(T) = {0} lies inside the
    # box, and A(0) = 1 != 0. Monotonicity alone cannot show that
    p = make_example1(RandomSpec(n=20, seed=1))
    q = dataclasses.replace(p, A=AffineMatrix(p.A.G, element(p.space, np.ones(20))), x_star=None)
    with pytest.raises(ValueError):
        solution_residual(q)
    assert certify(q) == ["no known x*, so Omega nonempty and T demicontractive were not checked"]


@pytest.mark.parametrize("k,lam,below", [(1.5, 0.2, 0.19), (3.0, 0.5, 0.49)])
def test_certify_takes_a_demicontractive_t_at_its_constant_and_not_below(k, lam, below):
    # T = -k x is demicontractive with lambda = (k - 1)/(k + 1) and no less
    p = demi_problem(k)
    assert p.lambda_T == lam and certify(p) == []
    failures = certify(dataclasses.replace(p, lambda_T=below))
    assert len(failures) == 1 and failures[0].startswith(
        f"mapping failed the sampled demicontractivity check (lambda={below}) at sample 0 ")


def test_example2_structure_and_certification():
    p = make_example2(101)
    assert isinstance(p.A, PositivePart)
    assert isinstance(p.C, Ball) and p.C.radius == 1.0
    assert isinstance(p.T, RankOneIntegral)
    assert p.L == 1.0
    assert p.space.dim == 101
    assert norm(p.x_star) == 0.0
    assert certify(p) == []


def test_solution_residual_zero_at_origin():
    p = make_example1(RandomSpec(n=10, seed=5))
    assert solution_residual(p) == 0.0


def test_initial_points_random_uniform():
    p = make_example1(RandomSpec(n=10, seed=5))
    x0, x1 = initial_points(p, "random_uniform", seed=4)
    y0, _ = initial_points(p, "random_uniform", seed=4)
    assert np.array_equal(x0.coords, x1.coords)
    assert np.array_equal(x0.coords, y0.coords)
    assert np.all((x0.coords >= 0) & (x0.coords <= 1))
    z0, _ = initial_points(p, "random_uniform", seed=5)
    assert not np.array_equal(x0.coords, z0.coords)


def test_initial_points_grid_recipes():
    p = make_example2(101)
    x0, x1 = initial_points(p, "t_squared")
    assert x0.coords[0] == 0.0
    assert x0.coords[-1] == 1.0
    assert x0.coords[50] == pytest.approx(0.25, abs=1e-12)
    y0, _ = initial_points(p, "t_plus_half_cos_t")
    assert y0.coords[0] == 0.5  # 0 + 0.5*cos(0)
    assert y0.coords[-1] == pytest.approx(1.0 + 0.5 * np.cos(1.0))
    assert np.array_equal(y0.coords, p.space.grid + 0.5 * np.cos(p.space.grid))
    # all families together offer the three recipes
    starts = {kind for family in FAMILIES.values() for kind in family.starts}
    assert starts == {"random_uniform", "t_squared", "t_plus_half_cos_t"}


# every (family, accepted start) pair
STARTS = [(name, kind) for name, family in FAMILIES.items() for kind in family.starts]


@pytest.mark.parametrize("family,kind", STARTS)
def test_two_seeds_give_equal_starts_exactly_when_the_recipe_is_seed_free(family, kind):
    problem, _ = parse_problem_spec(f"{family}:init={kind}", seed=1)
    x1, _ = initial_points(problem, kind, seed=1)
    x2, _ = initial_points(problem, kind, seed=2)
    # the lookup fails on a start that is no recipe
    assert np.array_equal(x1.coords, x2.coords) == (not _START_RECIPES[kind].reads_seed)


def test_certify_reports_a_solution_that_is_not_a_fixed_point():
    base = make_example1(RandomSpec(5, 1))
    p = dataclasses.replace(base, T=AffineMatrix(np.eye(5), element(euclidean(5), np.ones(5))))
    assert certify(p) == ["fixed-point residual 2.236e+00 exceeds 1e-10"]


@pytest.mark.parametrize("xs,residual", [([3.0, 4.0], "5.000e-01"), ([0.0, 1e-6], "1.000e-07")])
def test_certify_reports_a_point_that_does_not_solve_the_vi(xs, residual):
    # with A = I and x* inside the box the natural residual is 0.1 ||x*||;
    # x* is a fixed point of T = I, so only the VI check fails
    sp = euclidean(2)
    p = ProblemInstance(space=sp, A=AffineMatrix(np.eye(2)), C=Box(-2.0, 5.0),
                        T=Scale(1.0), lambda_T=0.0, x_star=element(sp, xs))
    assert certify(p) == [f"VI solution residual {residual} exceeds 1e-8"]


def test_certify_names_the_first_failing_sample_and_its_value():
    # A = I - 1.5 u u^T fails where x - y leans towards u; T = diag(1.3, 0.5,
    # 0.5, 0.5) fails where x leans towards e_1: both part-way
    sp = euclidean(4)
    u = np.array([1.0, 2.0, -1.0, 0.5]) / np.linalg.norm([1.0, 2.0, -1.0, 0.5])
    A = AffineMatrix(np.eye(4) - 1.5 * np.outer(u, u))
    T = AffineMatrix(np.diag([1.3, 0.5, 0.5, 0.5]))
    p = ProblemInstance(space=sp, A=A, C=Box(-1.0, 1.0), T=T, lambda_T=0.0, x_star=zeros(sp))
    i_t, v_t = check_demicontractive_serial(T, 0.0, p.x_star)
    i_a, v_a = check_monotone_serial(A, sp)
    assert i_t > 0 and i_a > 0
    assert certify(p) == [
        f"mapping failed the sampled demicontractivity check (lambda=0.0) at sample {i_t} "
        f"of 200: ||Tx - x*||^2 - ||x - x*||^2 - lambda ||x - Tx||^2 = {v_t:.3e}",
        f"operator failed the sampled monotonicity check at sample {i_a} of 200: "
        f"<A(x) - A(y), x - y> = {v_a:.3e}"]


_TAME = {"A": lambda x: x, "T": lambda x: 0.5 * x}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("C", [Box(-1.0, 1.0), Ball(zeros(euclidean(3)), 1.0)],
                         ids=["box", "ball"])
@pytest.mark.parametrize("name,where,known", [
    ("A", "samples", True), ("A", "samples", False), ("A", "x_star", True),
    ("T", "samples", True), ("T", "x_star", True)])
def test_certify_raises_on_a_caller_operator_that_returns_nan_or_inf(bad, C, name,
                                                                     where, known):
    # x* = 0 solves VI(C, x -> x) and is the fixed point of x -> x / 2; the
    # bad operator returns `bad` at x* itself, or only on the samples with
    # an entry above 4. T is sampled only about a known x*
    def bad_op(x):
        if where == "x_star":
            return np.full_like(x, bad)
        return np.where(x > 4.0, bad, _TAME[name](x))

    sp = euclidean(3)
    p = ProblemInstance(space=sp, C=C, lambda_T=0.0, x_star=zeros(sp) if known else None,
                        **dict(_TAME, **{name: bad_op}))
    with pytest.raises(NonFiniteElementError):
        certify(p)


def test_demicontractivity_rejects_a_nan_at_the_fixed_point():
    sp = euclidean(3)
    with pytest.raises(NonFiniteElementError):
        check_demicontractive(lambda x: np.full_like(x, np.nan), 0.0, zeros(sp))


@pytest.mark.parametrize("C,named", [
    (Box(np.zeros(3), np.ones(3)), r"C\.lower must lie in euclidean\(2\), got a value of shape \(3,\)"),
    (Box(0.0, np.ones(1)), r"C\.upper must lie in euclidean\(2\), got a value of shape \(1,\)"),
    (Ball(zeros(euclidean(3)), 1.0), r"C must lie in euclidean\(2\), got a value in euclidean\(3\)"),
    (Ball(zeros(grid_l2(2)), 1.0), r"C must lie in euclidean\(2\), got a value in grid_l2\(2\)"),
    (HalfSpace(np.ones(3), np.zeros(3), euclidean(3)),
     r"C must lie in euclidean\(2\), got a value in euclidean\(3\)"),
])
def test_problem_rejects_a_feasible_set_that_does_not_fit_its_space(C, named):
    with pytest.raises(SpaceMismatchError, match=named):
        ProblemInstance(space=euclidean(2), A=Scale(1.0), C=C, T=Scale(0.5), lambda_T=0.0)


@pytest.mark.parametrize("family,kind", STARTS)
def test_each_family_builds_a_problem_with_a_known_solution_that_certifies(family, kind):
    # so no spec meets certify's failure for a problem without x*; the
    # integer keys with a default are set small
    keys = ",".join(f"{key}=5" for key, default in FAMILIES[family].keys.items()
                    if default is not None)
    problem, init = parse_problem_spec(f"{family}:{keys},init={kind}", seed=1)
    assert init == kind and problem.x_star is not None
    assert certify(problem) == []
    x0, _ = initial_points(problem, kind, seed=1)
    assert x0.space == problem.space
