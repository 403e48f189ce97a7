import dataclasses

import numpy as np
import pytest

from vikit.harness import parse_problem_spec
from vikit.operators import AffineMatrix, PositivePart, RankOneIntegral, Scale, spectral_norm
from vikit.problems import (
    _START_RECIPES,
    FAMILIES,
    RNG_ALGORITHM,
    RandomSpec,
    certify,
    initial_points,
    make_example1,
    make_example2,
    solution_residual,
)
from vikit.projections import Ball, Box
from vikit.space import element, euclidean, norm


def test_same_seed_gives_bitwise_identical_matrices():
    a = make_example1(RandomSpec(n=20, seed=7))
    b = make_example1(RandomSpec(n=20, seed=7))
    assert np.array_equal(a.A.G, b.A.G)
    assert a.L == b.L


def test_different_seeds_differ():
    a = make_example1(RandomSpec(n=20, seed=7))
    b = make_example1(RandomSpec(n=20, seed=8))
    assert not np.array_equal(a.A.G, b.A.G)


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


def test_example1_nonzero_offset_drops_known_solution():
    base = make_example1(RandomSpec(n=5, seed=2))
    f = element(base.space, np.ones(5))
    p = make_example1(RandomSpec(n=5, seed=2), f=f)
    assert p.x_star is None
    with pytest.raises(ValueError):
        solution_residual(p)


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


def test_grid_recipes_rejected_on_euclidean_space():
    p = make_example1(RandomSpec(n=4, seed=1))
    for kind in ("t_squared", "t_plus_half_cos_t"):
        with pytest.raises(ValueError):
            initial_points(p, kind)
    with pytest.raises(ValueError):
        initial_points(p, "nope")
    starts = {kind for family in FAMILIES.values() for kind in family.starts}
    assert starts <= set(_START_RECIPES)
    assert starts == {"random_uniform", "t_squared", "t_plus_half_cos_t"}


@pytest.mark.parametrize("family,kind", [(name, kind) for name, family in FAMILIES.items()
                                         for kind in family.starts])
def test_two_seeds_give_equal_starts_exactly_when_the_recipe_is_seed_free(family, kind):
    problem, _ = parse_problem_spec(f"{family}:init={kind}", seed=1)
    x1, _ = initial_points(problem, kind, seed=1)
    x2, _ = initial_points(problem, kind, seed=2)
    assert np.array_equal(x1.coords, x2.coords) == (not _START_RECIPES[kind].reads_seed)


def test_certify_reports_a_solution_that_is_not_a_fixed_point():
    base = make_example1(RandomSpec(5, 1))
    p = dataclasses.replace(base, T=AffineMatrix(np.eye(5), element(euclidean(5), np.ones(5))))
    assert certify(p) == ["fixed-point residual 2.236e+00 exceeds 1e-10"]


def test_spec_validation_and_rng_label():
    with pytest.raises(ValueError):
        RandomSpec(n=0, seed=1)
    assert RNG_ALGORITHM == "numpy-PCG64"
