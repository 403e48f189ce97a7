"""The operators, the Lipschitz estimate and the sampled certification
checks.

The block checks are drawn over operators (ex1 and ex2 instances, Scale
of either sign, a non-monotone AffineMatrix, each also wrapped in a plain
function) and block sizes, and must find the first failing sample that
certify_oracle.py's one-at-a-time loop finds, or none. Tie cases drawn at
+-CERTIFY_TOL check that the two disagree only within rounding of the
threshold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from call_counts import count_calls
from certify_oracle import check_demicontractive_serial, check_monotone_serial
from vikit import operators as ops
from vikit.operators import (
    AFFINE_BLOCK_DIVISOR,
    CERTIFY_BLOCK_BYTES,
    CERTIFY_SAMPLES,
    CERTIFY_TOL,
    AffineMatrix,
    PositivePart,
    PowerIterationError,
    RankOneIntegral,
    Scale,
    check_demicontractive,
    check_monotone,
    spectral_norm,
)
from vikit.problems import RandomSpec, make_example1, make_example2
from vikit.space import element, euclidean, grid_l2, zeros


def mann_combination(op, lam: float, x: np.ndarray) -> np.ndarray:
    """lam * op(x) + (1 - lam) * x, the relaxed (averaged) map."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"relaxation parameter must be in (0,1), got {lam}")
    return lam * op(x) + (1.0 - lam) * x


def test_positive_part_clips_negative_grid_function():
    sp = grid_l2(51)
    x = element(sp, -sp.grid)
    assert np.array_equal(PositivePart()(x.coords), np.zeros(51))


@pytest.mark.parametrize("shape", [(9,), (4, 9), (3, 10001)])
def test_positive_part_is_bitwise_max_with_the_scalar_zero(shape):
    # the operator compares against a zero row, numpy's fast loop; the bits
    # must be those of np.maximum(x, 0.0), signed zeros and NaN included
    x = np.random.default_rng(5).standard_normal(shape)
    flat = x.reshape(-1)
    flat[:6] = [-0.0, 0.0, np.nan, -np.inf, np.inf, -1e-320]
    out = PositivePart()(x)
    assert out.tobytes() == np.maximum(x, 0.0).tobytes()
    assert not np.signbit(out.reshape(-1)[0])


def test_rank_one_integral_of_constant_is_identity_function():
    sp = grid_l2(101)
    one = element(sp, np.ones(101))
    out = RankOneIntegral(sp)(one.coords)
    assert np.allclose(out, sp.grid, atol=1e-14)


def test_scale_half():
    sp = euclidean(2)
    assert np.array_equal(Scale(0.5)(element(sp, [2, -4]).coords), [1.0, -2.0])


@pytest.mark.parametrize("c", [3, -2.5, 0.0, -0.0, 1e308, 2 ** 70])
def test_scale_is_np_multiply_by_its_factor_bit_for_bit(c):
    # Scale multiplies by c as a 0-d float64 array, made once; an integer c,
    # a negative one, both zeros and a c whose products overflow keep the
    # bits np.multiply(c, x) gives, for a point and a block of rows
    row = [1.5, -2.0, 0.0, -0.0, 5e-324, -1.7976931348623157e308, 3.0, 0.1]
    op = Scale(c)
    with np.errstate(over="ignore"):
        for x in (np.array(row), np.array([row, row[::-1]])):
            expected = np.multiply(c, x).tobytes()
            out = np.empty_like(x)
            assert op(x).tobytes() == expected
            assert op(x, out) is out and out.tobytes() == expected
    assert op.factor.shape == () and not op.factor.flags.writeable


def test_affine_matrix():
    sp = euclidean(2)
    op = AffineMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), element(sp, [1, 1]))
    assert np.array_equal(op(element(sp, [1, 1]).coords), [4.0, 2.0])


@settings(max_examples=200)
@given(st.one_of(st.integers(1, 3), st.integers(1, 300)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["C", "F", "reversed_rows"]),
       st.sampled_from(["contiguous", "reversed", "strided"]), st.booleans(),
       st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e160, 1e200]), max_size=3))
def test_affine_matrix_is_bitwise_the_matmul_form(n, seed, order, layout, offset, specials):
    # G.dot(x) on C-contiguous operands is the same BLAS dgemv as G @ x;
    # every other layout, and a 1x1 G, must keep @, whose sum differs on a
    # reversed x and drops the sign of a zero product
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    G = {"C": G, "F": np.asfortranarray(G), "reversed_rows": G[::-1]}[order]
    x = rng.standard_normal(2 * n)
    x[rng.integers(0, 2 * n, len(specials))] = specials
    x = {"contiguous": x[:n], "reversed": x[n - 1::-1], "strided": x[::2]}[layout]
    f = element(euclidean(n), rng.standard_normal(n)) if offset else None
    with np.errstate(over="ignore", invalid="ignore"):
        want = G @ x if f is None else G @ x + f.coords
        assert AffineMatrix(G, f)(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("offset", [False, True])
@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (9, 37), (5, 300)])
def test_affine_matrix_maps_a_block_bitwise_as_x_times_g_transposed(m, n, offset):
    # certify's blocks of rows; a row-by-row product sums in another order
    rng = np.random.default_rng(m * n)
    G, X = rng.standard_normal((n, n)), rng.standard_normal((m, n))
    f = element(euclidean(n), rng.standard_normal(n)) if offset else None
    want = X @ G.T if f is None else X @ G.T + f.coords
    assert AffineMatrix(G, f)(X).tobytes() == want.tobytes()


def test_spectral_norm_diagonal_and_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-9)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 4)])
def test_spectral_norm_of_a_zero_matrix_is_zero(shape):
    assert spectral_norm(np.zeros(shape)) == 0.0


def test_spectral_norm_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(20):
        G = rng.standard_normal((12, 12))
        assert spectral_norm(G) == pytest.approx(np.linalg.norm(G, 2), rel=1e-8)


def test_power_iteration_error_carries_estimate():
    err = PowerIterationError("no", best_estimate=4.2)
    assert err.best_estimate == 4.2


def test_check_monotone():
    sp = grid_l2(31)
    assert check_monotone(PositivePart(), sp)
    assert not check_monotone(Scale(-1.0), euclidean(4))


def test_check_demicontractive_scale_cases():
    sp = euclidean(3)
    z = zeros(sp)
    assert check_demicontractive(Scale(0.5), 0.0, z)
    assert check_demicontractive(Scale(1.0), 0.0, z)
    assert not check_demicontractive(Scale(-3.0), 0.0, z)


def test_check_demicontractive_precondition():
    sp = euclidean(2)
    not_fixed = element(sp, [1.0, 0.0])
    with pytest.raises(ValueError):
        check_demicontractive(Scale(0.5), 0.0, not_fixed)


def test_rank_one_integral_is_zero_demicontractive():
    sp = grid_l2(101)
    assert check_demicontractive(RankOneIntegral(sp), 0.0, zeros(sp))


def test_mann_combination():
    sp = euclidean(2)
    x = element(sp, [2.0, 0.0]).coords
    out = mann_combination(Scale(0.5), 0.5, x)
    assert np.array_equal(out, [1.5, 0.0])
    # identity operator leaves x unchanged for any relaxation
    assert np.allclose(mann_combination(Scale(1.0), 0.3, x), x)
    with pytest.raises(ValueError):
        mann_combination(Scale(0.5), 1.0, x)


def test_mann_combination_preserves_fixed_points():
    sp = grid_l2(61)
    p = zeros(sp).coords  # common fixed point of the concrete maps here
    for op in (Scale(0.5), RankOneIntegral(sp), PositivePart()):
        assert sp.norm(mann_combination(op, 0.7, p) - p) <= 1e-14


def test_relaxed_map_contraction_inequality():
    # ||T_l x - u||^2 <= ||x - u||^2 - (1/l)(1 - eta - l)||x - T_l x||^2
    # for T = 0.5 I (eta = 0), u = 0, l in (0,1)
    sp = euclidean(5)
    rng = np.random.default_rng(8)
    T = Scale(0.5)
    for _ in range(200):
        x = rng.uniform(-5, 5, sp.dim)
        lam = float(rng.uniform(0.05, 0.95))
        tx = mann_combination(T, lam, x)
        lhs = sp.norm(tx) ** 2
        rhs = sp.norm(x) ** 2 - (1.0 / lam) * (1.0 - lam) * sp.norm(x - tx) ** 2
        assert lhs <= rhs + 1e-10


def _demi_forms(op, sp, x, z, eta):
    norm, inner = sp.norm, sp.inner
    tx = op(x)
    f1 = norm(tx - z) ** 2 - (norm(x - z) ** 2 + eta * norm(x - tx) ** 2)
    f2 = inner(tx - x, x - z) - 0.5 * (eta - 1.0) * norm(x - tx) ** 2
    f3 = inner(tx - z, x - z) - (norm(x - z) ** 2 + 0.5 * (eta - 1.0) * norm(x - tx) ** 2)
    return f1, f2, f3


@pytest.mark.parametrize("op,sp", [
    (Scale(0.5), euclidean(4)),
    (RankOneIntegral(grid_l2(41)), grid_l2(41)),
])
def test_three_demicontractive_forms_agree(op, sp):
    rng = np.random.default_rng(15)
    z = zeros(sp).coords
    for _ in range(300):
        x = rng.uniform(-4, 4, sp.dim)
        f1, f2, f3 = _demi_forms(op, sp, x, z, eta=0.0)
        # all three characterizations hold together for these maps
        assert f1 <= 1e-10 and f2 <= 1e-10 and f3 <= 1e-10


def test_three_forms_fail_together_for_expansion():
    sp = euclidean(3)
    rng = np.random.default_rng(16)
    z = zeros(sp).coords
    violated = 0
    for _ in range(100):
        x = rng.uniform(-4, 4, sp.dim)
        f1, f2, f3 = _demi_forms(Scale(-3.0), sp, x, z, eta=0.0)
        if f1 > 1e-10:
            violated += 1
            assert f2 > 1e-10 and f3 > 1e-10
    assert violated > 0


def _block_operators():
    rng = np.random.default_rng(21)
    sp = grid_l2(37)
    G = rng.standard_normal((37, 37))
    return [(PositivePart(), sp), (Scale(-0.7), sp), (RankOneIntegral(sp), sp),
            (AffineMatrix(G), sp), (AffineMatrix(G, element(sp, rng.standard_normal(37))), sp)]


@pytest.mark.parametrize("op,sp", _block_operators())
def test_vikit_operators_map_a_block_row_by_row(op, sp):
    X = np.random.default_rng(22).uniform(-5, 5, (9, sp.dim))
    expected = np.stack([op(x) for x in X])
    block = op(X)
    if not isinstance(op, AffineMatrix):
        assert np.array_equal(block, expected)
        return
    # X @ G.T sums each row in another order than G @ x: by the bound in
    # AffineMatrix, two evaluations lie within 2 g_{n+1} (|G||x| + |f|)
    f = 0.0 if op.f_vec is None else np.abs(op.f_vec.coords)
    n1 = sp.dim + 1
    g = n1 * 2.0 ** -53 / (1 - n1 * 2.0 ** -53)
    assert np.all(np.abs(block - expected) <= 2 * g * (np.abs(X) @ np.abs(op.G).T + f))


# n, pairs per block, blocks: the byte cap's blocks at n = 400, and n // 32
# pairs once that is more, as from n ~ 700
@pytest.mark.parametrize("n,pairs,blocks", [(400, 38, 6), (1024, 32, 7)])
def test_certification_evaluates_an_affine_operator_once_per_block(n, pairs, blocks):
    p = make_example1(RandomSpec(n=n, seed=1))
    shapes = []
    rules = {AffineMatrix.__call__.__code__:
             lambda frame, arg: shapes.append(frame.f_locals["x"].shape)}
    check, _ = count_calls(rules, check_monotone, p.A, p.space)
    assert check
    assert pairs == max(CERTIFY_BLOCK_BYTES // (8 * n), n // AFFINE_BLOCK_DIVISOR)
    assert shapes == [(2 * pairs, n)] * (blocks - 1) + [(2 * (CERTIFY_SAMPLES % pairs), n)]


def _pointwise(op, seen):
    """op as a plain function, recording the ndim of every argument."""
    def f(x):
        seen.add(x.ndim)
        return op(x)
    return f


@st.composite
def certify_cases(draw):
    """An operator, its space and a demicontractive constant: ex1's A or T
    (n in [1, 60]), ex2's A or T on a drawn grid, Scale(c) with c < 0 or
    c > 0, or a non-monotone AffineMatrix I - c u u^T, which fails on the
    samples x - y close enough to the unit vector u, so often part-way.
    A "wide" one has n in [64, 200], where an AffineMatrix's blocks of
    n // AFFINE_BLOCK_DIVISOR pairs outgrow those of a small block_bytes."""
    kind = draw(st.sampled_from(["ex1", "ex2", "scale", "nonmonotone", "wide"]))
    if kind == "ex1":
        p = make_example1(RandomSpec(draw(st.integers(1, 60)), draw(st.integers(0, 2**32 - 1))))
        op, sp = draw(st.sampled_from([p.A, p.T])), p.space
    elif kind == "ex2":
        p = make_example2(draw(st.integers(2, 300)))
        op, sp = draw(st.sampled_from([p.A, p.T])), p.space
    else:
        n = draw(st.integers(64, 200) if kind == "wide" else st.integers(1, 60))
        sp = draw(st.sampled_from([euclidean(n)] + ([grid_l2(n)] if n > 1 else [])))
        if kind == "scale":
            c = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 0.5))
            op = Scale(c)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            op = AffineMatrix(np.eye(n) - 10.0 ** draw(st.floats(0.0, 2.0)) * np.outer(u, u))
    return op, sp, draw(st.floats(0.0, 0.99)), draw(st.booleans())


@settings(max_examples=150)
@given(certify_cases(), st.one_of(st.just(CERTIFY_BLOCK_BYTES), st.integers(1, 20_000)))
def test_block_certification_equals_the_serial_checks(case, block_bytes):
    """Also with smaller blocks (down to one sample each), so that a first
    failure lies past the first block."""
    op, sp, lam, plain = case
    seen = set()
    if plain:
        op = _pointwise(op, seen)
    z = zeros(sp)
    ops.CERTIFY_BLOCK_BYTES = block_bytes
    try:
        checks = ((check_monotone(op, sp), check_monotone_serial(op, sp)),
                  (check_demicontractive(op, lam, z), check_demicontractive_serial(op, lam, z)))
    finally:
        ops.CERTIFY_BLOCK_BYTES = CERTIFY_BLOCK_BYTES
    for block, serial in checks:
        if serial is None:
            assert block and block.failed_at is None
        else:
            assert not block and block.failed_at == serial[0]
            # the same sample, summed in another order: rel 1e-9 is far above
            # the n eps of a reordered sum at n <= 300
            assert block.value == pytest.approx(serial[1], rel=1e-9, abs=1e-9)
    assert seen == ({1} if plain else set())


_NUDGES = st.one_of(st.integers(-16, 16).map(lambda k: k * 2.0 ** -52),
                   st.builds(lambda sign, e: sign * 2.0 ** e, st.sampled_from([-1, 1]),
                             st.integers(-47, -10)))


@settings(max_examples=120)
@given(st.integers(1, 60), st.booleans(), _NUDGES)
def test_block_and_serial_verdicts_differ_only_within_rounding_of_the_tolerance(n, grid, nudge):
    """Tie cases: Scale(c) with c ||x - y||^2 = -CERTIFY_TOL on the widest
    sampled pair, and Scale(-2) with lam putting the largest sampled point
    at +CERTIFY_TOL, each scaled by 1 + nudge: within 16 ulps of the
    threshold, or 2^-47 to 2^-10 away, where rounding cannot reach. The
    block and serial checks sum in other orders, so their verdicts may
    differ (on a few percent of the cases within 16 ulps), but only at a
    sample whose value lies within rounding of the threshold: the first
    sample where they disagree is checked."""
    sp = grid_l2(n) if grid and n > 1 else euclidean(n)
    w, u = sp.quad_weights, 2.0 ** -53
    XY = np.random.default_rng(0).uniform(-5.0, 5.0, (CERTIFY_SAMPLES, 2, n))
    X = np.random.default_rng(0).uniform(-5.0, 5.0, (CERTIFY_SAMPLES, n))
    D = XY[:, 0] - XY[:, 1]
    c = -CERTIFY_TOL / np.max(D * D @ w) * (1 + nudge)
    lam = (3 - CERTIFY_TOL / np.max(X * X @ w)) / 9 * (1 + nudge)

    def disagreement(block, serial):
        first = min(i for i in (block.failed_at, serial and serial[0], CERTIFY_SAMPLES)
                    if i is not None)
        return None if block.failed_at == (serial and serial[0]) else first

    op = Scale(c)
    i = disagreement(check_monotone(op, sp), check_monotone_serial(op, sp))
    if i is not None:
        x, y = XY[i]
        value = sp.inner(op(x) - op(y), x - y)
        size = np.abs(c) * (np.abs(x) + np.abs(y)) * np.abs(x - y) @ w
        assert abs(value + CERTIFY_TOL) <= 4 * (n + 2) * u * size
    op, z = Scale(-2.0), zeros(sp)
    i = disagreement(check_demicontractive(op, lam, z), check_demicontractive_serial(op, lam, z))
    if i is not None:
        x = X[i]
        value = sp.inner(op(x), op(x)) - sp.inner(x, x) - lam * sp.inner(x - op(x), x - op(x))
        size = (4 + 1 + 9 * lam) * (x * x @ w)
        assert abs(value - CERTIFY_TOL) <= 4 * (n + 2) * u * size
