"""Projections onto boxes, balls and halfspaces, against the closed forms
and the brute-force oracle of projection_oracle.py, including the points
whose sums of squares overflow or underflow.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from membership import contains, sample_point
from projection_oracle import project_oracle
from vikit.projections import (
    Ball,
    Box,
    HalfSpace,
    clip_ufunc,
    halfspace_residual,
    project,
)
from vikit.space import (ConfigError, NonFiniteElementError, SpaceMismatchError, element,
                         euclidean, grid_l2, zeros)


def _random_set(variant, n, rng):
    sp = euclidean(n)
    if variant == "box":
        lo = rng.uniform(-3, 0, n)
        return Box(lo, lo + rng.uniform(0.5, 3, n)), sp
    if variant == "ball":
        return Ball(element(sp, rng.uniform(-1, 1, n)), float(rng.uniform(0.5, 2))), sp
    normal = element(sp, rng.uniform(-1, 1, n))
    anchor = element(sp, rng.uniform(-1, 1, n))
    return HalfSpace(normal.coords, anchor.coords, sp), sp


def test_box_clamp():
    sp = euclidean(3)
    x = element(sp, [0.0, 7.0, -3.0])
    p = project(Box(-2.0, 5.0), x.coords)
    assert np.array_equal(p, [0.0, 5.0, -2.0])


def test_unit_ball_radial():
    sp = euclidean(2)
    x = element(sp, [0.0, 2.0])
    p = project(Ball(zeros(sp), 1.0), x.coords)
    assert np.allclose(p, [0.0, 1.0])


def test_ball_uses_the_l2_grid_norm():
    sp = grid_l2(101)
    x = element(sp, 2.0 * np.ones(101))  # constant 2 has L2 norm 2, sup norm 2
    p = project(Ball(zeros(sp), 1.0), x.coords)
    assert sp.norm(p) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sp", [euclidean(3), grid_l2(3)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ball_rejects_a_point_with_a_nan_or_inf_entry(sp, bad):
    # a member test on a NaN distance would fail, and an infinite one
    # would scale the entry to NaN; the norm raises on either first
    x = np.array([0.5, bad, 0.0])
    with pytest.raises(NonFiniteElementError):
        project(Ball(zeros(sp), 1.0), x)


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("sp", [euclidean(2), grid_l2(2)])
def test_ball_projects_a_finite_point_whose_offset_overflows(sp, warn):
    # x - center overflows to Inf on finite points more than ~1.8e308
    # apart: numpy's RuntimeWarning raises under "error", as in this suite,
    # and the norm raises under "ignore"; the ball then takes the distance
    # on both points scaled down
    c = np.array([-1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        # so far out, a unit ball's nearest point is its centre to the last bit
        assert np.array_equal(project(Ball(element(sp, c), 1.0), np.array([1e308, 0.0])), c)
        # grid_l2(2)'s weights are 0.5: [1e308, 0] lies 1.41e308 from c
        # there, inside a ball of radius 1.5e308, and 2e308 from it in R^2;
        # [1.7e308, 0] is outside both, and its nearest point in grid_l2(2)
        # lies 2.1e308 from c along the first axis
        for radius, x in [(1e308, [1e308, 1e308]), (1.5e308, [1e308, 0.0]),
                          (1.5e308, [1.7e308, 0.0])]:
            x = np.array(x)
            p = project(Ball(element(sp, c), radius), x)
            # the same projection scaled down by 1e300, where nothing overflows
            xs = x * 1e-300
            small = project(Ball(element(sp, c * 1e-300), radius * 1e-300), xs)
            if small is xs:
                assert p is x
            else:
                assert np.all(np.isfinite(p)) and np.allclose(p, small * 1e300, rtol=1e-14, atol=0)
        x = np.array([1e308, 0.0])  # kept in grid_l2(2) only
        inside = sp.norm(np.array([2.0, 0.0])) < 1.5
        assert (project(Ball(element(sp, c), 1.5e308), x) is x) == inside
        with pytest.raises(NonFiniteElementError):
            project(Ball(element(sp, c), 1.0), np.array([np.inf, 0.0]))


def test_halfspace_orthogonal_drop():
    sp = euclidean(2)
    hs = HalfSpace(element(sp, [1, 0]).coords, zeros(sp).coords, sp)
    p = project(hs, element(sp, [2, 3]).coords)
    assert np.allclose(p, [0.0, 3.0])


@pytest.mark.parametrize("sp", [euclidean(2), grid_l2(2)])
def test_halfspace_whose_normal_squared_underflows_is_not_the_whole_space(sp):
    # <normal, normal> is 0 for both normals below; only the zero one is degenerate
    for tiny in (1e-170, 5e-324):
        hs = HalfSpace(np.array([tiny, 0.0]), zeros(sp).coords, sp)
        assert sp.inner(hs.normal, hs.normal) == 0.0
        assert np.array_equal(project(hs, np.array([1.0, 0.0])), [0.0, 0.0])
        big = HalfSpace(np.array([1.0, 0.0]), zeros(sp).coords, sp)
        for x in ([1.0, 0.0], [2.0, 3.0], [1e-170, 0.0]):
            x = np.array(x)
            assert np.array_equal(project(hs, x), project(big, x))
        x = np.array([-1.0, 4.0])  # a member, and the anchor: both kept
        assert project(hs, x) is x
        assert project(hs, hs.anchor) is hs.anchor


def test_degenerate_halfspace_is_identity():
    sp = euclidean(2)
    hs = HalfSpace(zeros(sp).coords, zeros(sp).coords, sp)
    x = element(sp, [4, -9])
    assert np.array_equal(project(hs, x.coords), x.coords)


def test_halfspace_residual_values():
    sp = euclidean(2)
    hs = HalfSpace(element(sp, [1, 0]).coords, zeros(sp).coords, sp)
    assert halfspace_residual(hs, zeros(sp).coords) == 0.0
    assert halfspace_residual(hs, element(sp, [-1, 7]).coords) == -1.0
    assert halfspace_residual(hs, element(sp, [2, 0]).coords) == 2.0


def test_space_mismatch():
    sp = euclidean(2)
    hs = HalfSpace(element(sp, [1, 0]).coords, zeros(sp).coords, sp)
    with pytest.raises(SpaceMismatchError):
        project(hs, element(euclidean(3), [1, 2, 3]).coords)
    with pytest.raises(SpaceMismatchError):
        project(Ball(zeros(sp), 1.0), element(euclidean(3), [1, 2, 3]).coords)
    with pytest.raises(SpaceMismatchError):
        HalfSpace(element(sp, [1, 0]).coords, zeros(euclidean(3)).coords, sp)


def test_halfspace_with_a_list_normal_or_anchor_names_it():
    sp = euclidean(2)
    with pytest.raises(ConfigError, match=r"^normal must be of type ndarray, got \[1.0, 0.0\]$"):
        HalfSpace([1.0, 0.0], np.zeros(2), sp)
    with pytest.raises(ConfigError, match=r"^anchor must be of type ndarray, got \[0.0, 0.0\]$"):
        HalfSpace(np.array([1.0, 0.0]), [0.0, 0.0], sp)


def test_box_projection_keeps_the_points_shape_or_names_it():
    # clipping would broadcast a 1-vector against 3-vector bounds
    box = Box(np.zeros(3), np.ones(3))
    with pytest.raises(SpaceMismatchError,
                       match=r"^x must lie in euclidean\(3\), got a value of shape \(1,\)$"):
        project(box, np.array([0.5]))
    assert project(box, np.array([0.5, 2.0, -1.0])).tolist() == [0.5, 1.0, 0.0]
    assert project(Box(0.0, 1.0), np.array([2.0])).tolist() == [1.0]


def test_bad_sets_rejected():
    for lower, upper in ((1.0, 0.0), (np.nan, 1.0), (0.0, np.nan),
                         (np.array([0.0, np.nan]), 1.0)):
        with pytest.raises(ValueError):
            Box(lower, upper)
    for radius in (0.0, np.nan):
        with pytest.raises(ValueError):
            Ball(zeros(euclidean(2)), radius)
    # infinite bounds are legal: a half-bounded or unbounded box
    Box(-np.inf, 0.0)
    Box(np.array([0.0, -np.inf]), np.inf)


@pytest.mark.parametrize("variant", ["box", "ball", "half"])
def test_variational_characterization_and_firm_nonexpansiveness(variant):
    rng = np.random.default_rng(21)
    for _ in range(50):
        s, sp = _random_set(variant, int(rng.integers(2, 7)), rng)
        x = element(sp, rng.uniform(-4, 4, sp.dim)).coords
        x2 = element(sp, rng.uniform(-4, 4, sp.dim)).coords
        px, px2 = project(s, x), project(s, x2)
        y = sample_point(s, sp, rng)
        assert contains(s, y, tol=1e-9)
        # <x - Px, y - Px> <= 0 for all members y
        assert sp.inner(x - px, y - px) <= 1e-10
        # ||Px - Px'||^2 <= <Px - Px', x - x'>
        assert sp.norm(px - px2) ** 2 <= sp.inner(px - px2, x - x2) + 1e-10


@pytest.mark.parametrize("variant", ["box", "ball", "half"])
def test_idempotence(variant):
    rng = np.random.default_rng(33)
    for _ in range(50):
        s, sp = _random_set(variant, int(rng.integers(2, 7)), rng)
        x = element(sp, rng.uniform(-4, 4, sp.dim)).coords
        p = project(s, x)
        assert sp.norm(project(s, p) - p) <= 1e-12


def test_oracle_fixed_point_of_members():
    rng = np.random.default_rng(4)
    for variant in ("box", "ball", "half"):
        s, sp = _random_set(variant, 4, rng)
        y = sample_point(s, sp, rng)
        assert sp.norm(project_oracle(s, y) - y) <= 1e-8


@pytest.mark.parametrize("variant", ["box", "ball", "half"])
def test_oracle_agrees_with_closed_form(variant):
    rng = np.random.default_rng(77)
    for i in range(100):
        s, sp = _random_set(variant, int(rng.integers(2, 7)), rng)
        x = element(sp, rng.uniform(-4, 4, sp.dim)).coords
        gap = sp.norm(project(s, x) - project_oracle(s, x, n_restarts=3, seed=i))
        assert gap <= 1e-8


# entries and bounds the clip must keep bit for bit: signed zeros, both
# infinities, subnormals and the extremes
_EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308, 1.0, -1.0]
_FINITE = st.one_of(st.sampled_from([v for v in _EDGES if np.isfinite(v)]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _box_bounds(draw, n):
    """Scalar or per-coordinate bounds, lower <= upper, some of them infinite."""
    bound = st.one_of(_FINITE, st.sampled_from([np.inf, -np.inf]))
    if draw(st.booleans()):
        lo, hi = sorted([draw(bound), draw(bound)])
        return lo, hi
    pairs = [sorted([draw(bound), draw(bound)]) for _ in range(n)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@settings(max_examples=300)
@given(st.data(), st.integers(1, 12))
def test_the_clip_ufunc_is_np_clip_bit_for_bit(data, n):
    lo, hi = data.draw(_box_bounds(n))
    # a point, as project(Box) clips it
    x = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    assert project(Box(lo, hi), x).tobytes() == np.clip(x, lo, hi).tobytes()
    # a block of screen rows, which may hold inf or NaN, clipped in place
    rows = data.draw(st.integers(1, 5))
    entries = st.one_of(_FINITE, st.sampled_from([np.inf, -np.inf, np.nan]))
    D = np.array(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=rows, max_size=rows)))
    expected = D.copy()
    with np.errstate(all="ignore"):
        np.clip(expected, lo, hi, out=expected)
        clip_ufunc(D, lo, hi, out=D)
    assert D.tobytes() == expected.tobytes()
