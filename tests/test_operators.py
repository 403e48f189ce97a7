import numpy as np
import pytest

from vikit.operators import (
    AffineMatrix,
    PositivePart,
    PowerIterationError,
    RankOneIntegral,
    Scale,
    check_demicontractive,
    check_monotone,
    estimate_lipschitz,
    spectral_norm,
)
from vikit.problems import ProblemInstance
from vikit.projections import Box
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


def test_rank_one_integral_of_constant_is_identity_function():
    sp = grid_l2(101)
    one = element(sp, np.ones(101))
    out = RankOneIntegral(sp)(one.coords)
    assert np.allclose(out, sp.grid, atol=1e-14)
    with pytest.raises(ValueError):
        RankOneIntegral(euclidean(3))


def test_scale_half():
    sp = euclidean(2)
    assert np.array_equal(Scale(0.5)(element(sp, [2, -4]).coords), [1.0, -2.0])


def test_affine_matrix():
    sp = euclidean(2)
    op = AffineMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), element(sp, [1, 1]))
    assert np.array_equal(op(element(sp, [1, 1]).coords), [4.0, 2.0])
    with pytest.raises(ValueError):
        AffineMatrix(np.ones((2, 3)))


def test_affine_matrix_rejects_an_offset_of_another_dimension():
    # broadcasting would turn a 1-vector offset into a constant 3-vector
    with pytest.raises(ValueError, match="offset dimension 1"):
        AffineMatrix(np.eye(3), element(euclidean(1), [2.0]))


def test_spectral_norm_diagonal_and_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-9)
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)


def test_spectral_norm_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(2)
    for _ in range(20):
        G = rng.standard_normal((12, 12))
        assert spectral_norm(G) == pytest.approx(np.linalg.norm(G, 2), rel=1e-8)


def test_power_iteration_error_carries_estimate():
    err = PowerIterationError("no", best_estimate=4.2)
    assert err.best_estimate == 4.2


def test_estimate_lipschitz_rejects_non_affine_maps():
    for op in (PositivePart(), Scale(2.0), RankOneIntegral(grid_l2(5))):
        with pytest.raises(ValueError, match="pass L"):
            estimate_lipschitz(op)


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


def test_mapping_info_validates_lambda():
    # T's demicontractive constant is a problem field, checked on construction
    for lam in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="lambda_T must lie in"):
            ProblemInstance(space=euclidean(2), A=Scale(1.0), C=Box(-1.0, 1.0),
                            T=Scale(0.5), lambda_T=lam)


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
