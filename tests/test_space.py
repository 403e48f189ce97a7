"""The spaces' inner products and norms (bitwise the `@` forms, as
`SpaceDescriptor.inner` says, and finite until the norm itself
overflows), check_finite, and the space rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vikit.space import (
    NonFiniteElementError,
    SpaceKind,
    SpaceMismatchError,
    check_finite,
    element,
    euclidean,
    grid_l2,
    inner,
    norm,
)


def test_euclidean_inner_is_dot_product():
    sp = euclidean(2)
    assert inner(element(sp, [1, 2]), element(sp, [3, 4])) == 11.0


def test_grid_inner_exact_for_linear_integrand():
    sp = grid_l2(101)
    one = element(sp, np.ones(101))
    t = element(sp, sp.grid)
    assert inner(one, t) == pytest.approx(0.5, abs=1e-14)


def test_grid_inner_t_times_t_near_one_third():
    # trapezoid error for f=t^2 is h^2/6, well under 1e-4 at h=0.01
    sp = grid_l2(101)
    t = element(sp, sp.grid)
    assert inner(t, t) == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_norms():
    sp = euclidean(2)
    assert norm(element(sp, [3, 4])) == 5.0
    g = grid_l2(101)
    assert norm(element(g, np.ones(101))) == pytest.approx(1.0, abs=1e-14)
    assert norm(element(g, g.grid)) == pytest.approx(1 / np.sqrt(3), abs=1e-4)


@pytest.mark.parametrize("sp", [euclidean(8), grid_l2(8)])
def test_norm_of_a_finite_array_does_not_overflow_before_the_norm_does(sp):
    # the sum of squares overflows past ~1.3e154 (with numpy's warning)
    rng = np.random.default_rng(2)
    a = rng.uniform(-1.0, 1.0, 8)
    with np.errstate(over="ignore"):
        for scale in (1e160, 1e300):
            assert sp.norm(scale * a) == pytest.approx(scale * sp.norm(a), rel=1e-14)
        # in R^8 the norm itself overflows; the grid's weights sum to 1
        top = np.inf if sp.kind is SpaceKind.EUCLIDEAN else 1e308
        assert sp.norm(np.full(8, 1e308)) == top
    for bad in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[3] = bad
        with pytest.raises(NonFiniteElementError):
            sp.norm(b)


def test_space_mismatch_raises():
    a = element(euclidean(2), [1, 2])
    b = element(euclidean(3), [1, 2, 3])
    with pytest.raises(SpaceMismatchError):
        inner(a, b)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteElementError):
        element(euclidean(2), [1.0, np.nan])
    with pytest.raises(NonFiniteElementError):
        element(euclidean(2), [np.inf, 0.0])


def test_check_finite_on_coordinate_arrays():
    v = np.array([1.0, -2.0])
    assert check_finite(v) is v
    big = np.array([1e200, -1e200])  # finite, though its sum of squares overflows
    with np.errstate(over="ignore"):
        assert check_finite(big) is big
        for bad in ([1.0, np.nan], [np.inf, 0.0], [1e200, -np.inf]):
            with pytest.raises(NonFiniteElementError):
                check_finite(np.array(bad))


def test_check_finite_on_blocks_of_rows():
    block = np.arange(6.0).reshape(3, 2)  # not square, so block @ block fails
    assert check_finite(block) is block
    with np.errstate(over="ignore"):
        big = block * 1e200  # finite, though the sum of squares overflows
        assert check_finite(big) is big
        for bad in (np.nan, np.inf, -np.inf):
            b = block.copy()
            b[2, 1] = bad
            with pytest.raises(NonFiniteElementError):
                check_finite(b)


@pytest.mark.parametrize("sp", [euclidean(7), grid_l2(7)])
def test_row_inner_is_inner_of_each_pair_of_rows(sp):
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-5, 5, (2, 9, sp.dim))
    rows = sp.row_inner(a, b)
    assert rows.shape == (9,)
    expected = [sp.inner(x, y) for x, y in zip(a, b)]
    # the same weighted sum in another order: within n eps of the sum of |terms|
    bound = sp.dim * np.finfo(float).eps * (np.abs(a * b) @ sp.quad_weights)
    assert np.all(np.abs(rows - expected) <= bound)


@pytest.mark.parametrize("sp", [euclidean(4), grid_l2(11)])
def test_cached_geometry_is_shared_and_read_only(sp):
    arrays = [sp.quad_weights]
    if sp.kind is SpaceKind.GRID_L2:
        arrays.append(sp.grid)
        assert sp.grid is sp.grid
    assert sp.quad_weights is sp.quad_weights
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("sp", [euclidean(7), grid_l2(33)])
def test_cauchy_schwarz(sp):
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(-5, 5, sp.dim)
        b = rng.uniform(-5, 5, sp.dim)
        assert abs(sp.inner(a, b)) <= sp.norm(a) * sp.norm(b) * (1 + 1e-12) + 1e-12


def test_parallelogram_identity():
    sp = euclidean(6)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(-1, 1, sp.dim)
        b = rng.uniform(-1, 1, sp.dim)
        lhs = sp.norm(a + b) ** 2 + sp.norm(a - b) ** 2
        rhs = 2 * sp.norm(a) ** 2 + 2 * sp.norm(b) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("sp", [euclidean(5), grid_l2(41)])
def test_convex_combination_identity(sp):
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(-3, 3, sp.dim)
        y = rng.uniform(-3, 3, sp.dim)
        th = rng.uniform()
        lhs = sp.norm(th * x + (1 - th) * y) ** 2
        rhs = (th * sp.norm(x) ** 2 + (1 - th) * sp.norm(y) ** 2
               - th * (1 - th) * sp.norm(x - y) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _matmul_norm(a):
    """SpaceDescriptor.norm as it was when every Euclidean inner product
    was float(a @ b)."""
    sq = float(a @ a)
    if not math.isfinite(sq) and np.isfinite(a).all():
        big = float(np.abs(a).max())
        b = a / big
        return big * math.sqrt(float(b @ b))
    return math.sqrt(max(sq, 0.0))


# entries that a uniform draw never gives: signed zeros, subnormals, and
# magnitudes whose squares overflow
SPECIAL_ENTRIES = [0.0, -0.0, 5e-324, -2.5e-320, 1e-310, 3e154, -1e160, 1e200, 1.7e308]


@st.composite
def vector_pairs(draw):
    """Two float64 vectors of length 0-2000 with some special entries, laid
    out contiguously, reversed or strided."""
    n = draw(st.one_of(st.integers(0, 3), st.integers(0, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e150]))
    layout = draw(st.sampled_from(["contiguous", "reversed", "strided", "reversed_strided"]))
    step = {"contiguous": 1, "reversed": -1, "strided": 2, "reversed_strided": -3}[layout]
    pair = []
    for _ in range(2):
        v = rng.standard_normal(n * abs(step)) * scale
        specials = draw(st.lists(st.sampled_from(SPECIAL_ENTRIES), max_size=4))
        if v.size:
            v[rng.integers(0, v.size, len(specials))] = specials
        pair.append(v[::step])
    return pair


@settings(max_examples=300)
@given(vector_pairs())
def test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms(pair):
    # inner is @; norm takes ndarray.dot on a C-contiguous vector, the same
    # BLAS ddot as @ from two entries on and for one entry a square, which
    # has no -0.0 to keep; a reversed or strided vector keeps @
    a, b = pair
    sp = euclidean(max(a.size, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v in ((a, b), (a, a), (b, a)):
            assert np.float64(sp.inner(u, v)).tobytes() == np.float64(u @ v).tobytes()
        for u in pair:
            assert np.float64(sp.norm(u)).tobytes() == np.float64(_matmul_norm(u)).tobytes()
