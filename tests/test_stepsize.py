import math

import numpy as np
import pytest

from vikit.operators import AffineMatrix
from vikit.projections import Box
from vikit.space import element, euclidean, zeros
from vikit.stepsize import (
    ARMIJO_MAX_TRIALS,
    Adaptive,
    Armijo,
    ArmijoSearchError,
    Fixed,
    adaptive_update,
    armijo_search,
    validate_fixed,
)


def test_policy_validation():
    with pytest.raises(ValueError):
        Fixed(0.0)
    with pytest.raises(ValueError):
        Adaptive(gamma1=0.5, phi=1.0)
    with pytest.raises(ValueError):
        Adaptive(gamma1=0.0, phi=0.5)
    with pytest.raises(ValueError):
        Armijo(rho=1.0, l=1.0, phi=0.4)
    Armijo(rho=1.0, l=0.5, phi=0.4)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("make", [
    lambda v: Fixed(v),
    lambda v: Adaptive(gamma1=v, phi=0.5),
    lambda v: Armijo(rho=v, l=0.5, phi=0.4),
], ids=["fixed", "adaptive", "armijo"])
def test_policies_reject_non_finite_steps(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_adaptive_update_examples():
    sp = euclidean(2)
    s = element(sp, [1.0, 0.0]).coords
    y = zeros(sp).coords
    # ||s - y|| = 1, ||As - Ay|| = 2: candidate phi/2 = 0.25 < gamma_k
    As, Ay = element(sp, [2.0, 0.0]).coords, zeros(sp).coords
    assert adaptive_update(sp, 0.5, 0.5, s, y, As, Ay) == 0.25
    # candidate 5.0 exceeds gamma_k: keep gamma_k
    As2 = element(sp, [0.1, 0.0]).coords
    assert adaptive_update(sp, 0.5, 0.5, s, y, As2, Ay) == 0.5
    # vanishing operator displacement: keep gamma_k
    assert adaptive_update(sp, 0.5, 0.5, s, y, zeros(sp).coords, zeros(sp).coords) == 0.5


def test_adaptive_update_never_increases():
    sp = euclidean(3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        s = element(sp, rng.uniform(-2, 2, 3)).coords
        y = element(sp, rng.uniform(-2, 2, 3)).coords
        As = element(sp, rng.uniform(-2, 2, 3)).coords
        Ay = element(sp, rng.uniform(-2, 2, 3)).coords
        g = float(rng.uniform(0.01, 1.0))
        assert adaptive_update(sp, g, 0.5, s, y, As, Ay) <= g


def test_validate_fixed():
    L = 4.0
    assert validate_fixed(0.99 / L, L)
    assert not validate_fixed(1.0 / L, L)
    assert not validate_fixed(0.0, L)
    with pytest.raises(ValueError):
        validate_fixed(0.1, 0.0)


def _setup(scale=2.0):
    sp = euclidean(2)
    A = AffineMatrix(scale * np.eye(2))
    C = Box(-100.0, 100.0)
    return sp, A, C


def test_armijo_accepts_rho_at_a_solution():
    sp, A, C = _setup()
    gamma, y, _, _ = armijo_search(sp, Armijo(rho=1.0, l=0.5, phi=0.4), zeros(sp).coords, A, C)
    assert gamma == 1.0
    assert sp.norm(y) == 0.0


def test_armijo_accepts_first_trial_when_rho_small():
    # L = 2 here, so any rho <= phi / L passes immediately
    sp, A, C = _setup(scale=2.0)
    x = element(sp, [1.0, -1.0]).coords
    policy = Armijo(rho=0.19, l=0.5, phi=0.4)
    gamma, y, _, _ = armijo_search(sp, policy, x, A, C)
    assert gamma == 0.19
    assert np.allclose(y, x - 0.19 * 2.0 * x)


def test_armijo_backtracks_and_satisfies_inequality():
    sp, A, C = _setup(scale=2.0)
    x = element(sp, [3.0, 4.0]).coords
    policy = Armijo(rho=8.0, l=0.5, phi=0.4)
    gamma, y, _, _ = armijo_search(sp, policy, x, A, C)
    assert gamma < 8.0
    assert gamma in [8.0 * 0.5 ** m for m in range(1, 20)]
    assert gamma * sp.norm(A(x) - A(y)) <= policy.phi * sp.norm(x - y) + 1e-14
    # the previous (rejected) trial really fails the inequality
    prev = gamma / policy.l
    y_prev = element(sp, np.clip(x - prev * A(x), -100, 100)).coords
    assert prev * sp.norm(A(x) - A(y_prev)) > policy.phi * sp.norm(x - y_prev)


def test_armijo_exhaustion_raises_with_last_gamma():
    # a stiff operator accepts only gamma <= phi / L = 4e-21, far below the
    # last trial rho * l^(ARMIJO_MAX_TRIALS - 1)
    sp, A, C = _setup(scale=1e20)
    x = element(sp, [1.0, 1.0]).coords
    with pytest.raises(ArmijoSearchError) as info:
        armijo_search(sp, Armijo(rho=1.0, l=0.5, phi=0.4), x, A, C)
    assert info.value.last_gamma == 0.5 ** ARMIJO_MAX_TRIALS
