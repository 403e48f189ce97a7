"""Property tests of the mathematics the solvers rely on: the metric
projection identities, the adaptive step rule and the inertial bound."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from membership import contains, sample_point
from vikit.algorithms import inertial_delta
from vikit.projections import Ball, Box, HalfSpace, project
from vikit.space import element, euclidean, grid_l2
from vikit.stepsize import adaptive_update

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


@given(space_and_points(2), st.floats(0.0, 5.0), st.floats(1e-6, 10.0))
def test_inertial_step_stays_within_zeta(case, delta, zeta):
    sp, x_curr, x_prev = case
    dk = inertial_delta(sp, delta, zeta, x_curr, x_prev)
    assert 0.0 <= dk <= delta
    assert dk * sp.norm(x_curr - x_prev) <= zeta * (1.0 + 1e-12)
