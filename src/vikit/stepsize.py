"""Step-size policies: fixed, adaptive ratio rule, Armijo backtracking.

Points are coordinate arrays of the given space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .operators import AffineMatrix
from .projections import Box, FeasibleSet, project
from .space import SpaceDescriptor, check_finite


class ArmijoSearchError(RuntimeError):
    """Backtracking exhausted; carries the last trial step."""

    def __init__(self, message: str, last_gamma: float):
        super().__init__(message)
        self.last_gamma = last_gamma


@dataclass(frozen=True)
class Fixed:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"fixed step must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class Adaptive:
    gamma1: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.gamma1 < math.inf:
            raise ValueError(f"initial step must be positive and finite, got {self.gamma1}")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (0,1)")


@dataclass(frozen=True)
class Armijo:
    rho: float
    l: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not 0.0 < self.l < 1.0:
            raise ValueError("backtracking factor l must lie in (0,1)")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must lie in (0,1)")


StepPolicy = Union[Fixed, Adaptive, Armijo]


def adaptive_update(space: SpaceDescriptor, gamma_k: float, phi: float,
                    s: np.ndarray, y: np.ndarray, As: np.ndarray,
                    Ay: np.ndarray) -> float:
    """Next step: min(phi * ||s-y|| / ||As-Ay||, gamma_k), or gamma_k when
    the operator displacement vanishes. Never increases."""
    norm = space.norm
    denom = norm(check_finite(As - Ay))
    # floating-point reading of the "As != Ay" branch
    if denom <= 1e-14 * max(1.0, norm(As), norm(Ay)):
        return gamma_k
    return min(phi * norm(check_finite(s - y)) / denom, gamma_k)


def validate_fixed(gamma: float, L: float) -> bool:
    """True iff gamma lies in the open interval (0, 1/L)."""
    if L <= 0:
        raise ValueError("Lipschitz constant must be positive")
    return 0.0 < gamma < 1.0 / L


ARMIJO_MAX_TRIALS = 60

# The screen's margin in armijo_search: underflow moves a computed norm by
# at most _TAU and a product by far less than _SIGMA, and no trial whose
# block norms exceed _HUGE counts as proven, so nothing the serial trial
# computes can overflow. _EPS is twice the unit roundoff u = 2^-53.
_TAU = 2.0 ** -500
_SIGMA = 2.0 ** -1000
_HUGE = 2.0 ** 500
_EPS = float(np.finfo(float).eps)


def armijo_search(space: SpaceDescriptor, policy: Armijo, x: np.ndarray, A,
                  C: FeasibleSet) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Largest gamma among the first ARMIJO_MAX_TRIALS of {rho, rho*l,
    rho*l^2, ...} with gamma * ||A(x) - A(y)|| <= phi * ||x - y||,
    y = P_C(x - gamma A(x)).

    Returns (gamma, y, A(x), A(y)) for the accepted step.

    The trials run in order, each exactly as stated, except those that
    `_proven_rejections` proves the test rejects: these are skipped (gamma
    is still multiplied by l), as the serial search could only have
    rejected them. So the result, or the exception and its `last_gamma`,
    is bitwise the serial search's.

    The screen applies when A is an `AffineMatrix` and C a `Box` with
    scalar or per-coordinate bounds; any other A (a `PositivePart`, a
    wrapped operator) or set runs the serial loop alone. The trials
    j = 0, 1, ... with gamma_j ||G||_F > phi (at most ARMIJO_MAX_TRIALS;
    later ones pass the exact test, as ||G||_F >= L) are formed as rows of
    one array, with the same repeated gamma *= l and an elementwise clip,
    so row j is bitwise the serial y_j; one Y @ G.T (+ f) gives their A
    values. In the space's weights w, let n1 and n2 be the block's norms of
    A(x) - A_block(y_j) and x - y_j, and

        dA = 2 (n + 2) eps sqrt(max w) ((||G||_F + tau)(||y_j||_2 + tau) + ||f||_2 + tau),
        eta = (n + 16) eps,  eps = 2u,  tau = 2^-500,  sigma = 2^-1000.

    Trial j is proven rejected when its unclipped point is finite,
    n1, n2 <= 2^500, and

        gamma_j n1 (1 - 4 eta) > (phi (n2 + 2 tau) + gamma_j (dA + 2 tau)) (1 + 4 eta) + sigma.

    Derivation. A computed norm N of an n-vector v (a weighted sum of n
    squares in any order, then a square root) has |N - ||v||| <=
    g ||v|| + tau with g ~ (n + 3) u / 2 <= eta / 4: the terms are
    nonnegative, so the sum's relative error is at most g_{n+1}, and
    underflow of the squares costs at most sqrt(n) 2^-537 <= tau. By the
    bound in `AffineMatrix`, the serial and block A(y_j) differ by at most
    2 g_{n+1} (||G||_F ||y_j||_2 + ||f||_2) in the Euclidean norm, hence
    by sqrt(max w) times that in the space's; dA bounds this with a factor
    2 to spare for the rounding of ||G||_F, ||y_j|| and ||f|| (tau covers
    their underflow). The serial difference fl(A(x) - A(y_j)) is within a
    relative u of the exact one. Chaining these, the serial test's sides
    satisfy

        fl(gamma_j N1) >= gamma_j n1 (1 - u)(1 - eta)^2 - gamma_j (dA + 2 tau) - 2^-1075,
        fl(phi N2) <= phi (n2 + 2 tau)(1 + u)(1 + eta) + 2^-1075.

    The screen's inequality adds and multiplies nonnegative terms only, so
    its own rounding is a few u relative; 4 eta >= 128 u and sigma cover
    that and the factors above, and it makes the first line exceed the
    second: the serial test is false. The guards keep the serial trial
    from raising: its unclipped point is bitwise the checked row; n1 > dA
    (implied) bounds ||G||_F ||y_j|| + ||f|| below 2^560, so no partial
    sum of G y_j + f overflows; and n1, n2 <= 2^500 keep A(x) - A(y_j),
    x - y_j and their sums of squares finite."""
    norm = space.norm
    Ax = A(x)
    skip = _proven_rejections(space, policy, x, Ax, A, C)
    gamma = policy.rho
    for j in range(ARMIJO_MAX_TRIALS):
        if j < len(skip) and skip[j]:
            gamma *= policy.l
            continue
        y = project(C, check_finite(x + (-gamma) * Ax))
        Ay = A(y)
        if gamma * norm(check_finite(Ax - Ay)) <= policy.phi * norm(check_finite(x - y)):
            return gamma, y, Ax, Ay
        gamma *= policy.l
    raise ArmijoSearchError(
        f"no acceptable step within {ARMIJO_MAX_TRIALS} trials", last_gamma=gamma
    )


def _proven_rejections(space: SpaceDescriptor, policy: Armijo, x: np.ndarray,
                       Ax: np.ndarray, A, C: FeasibleSet) -> list:
    """For the first trials of armijo_search, True where the serial test
    is proven to reject the trial (see its docstring for the margin);
    empty unless A is an AffineMatrix and C a Box with scalar or
    per-coordinate bounds."""
    if not (isinstance(A, AffineMatrix) and isinstance(C, Box)
            and {np.shape(C.lower), np.shape(C.upper)} <= {(), x.shape}):
        return []
    gammas = []
    gamma = policy.rho
    while gamma * A.frobenius > policy.phi and len(gammas) < ARMIJO_MAX_TRIALS:
        gammas.append(gamma)
        gamma *= policy.l
    if not gammas:
        return []
    g = np.array(gammas)
    n = x.shape[0]
    w = space.quad_weights
    eta = (n + 16) * _EPS
    # the screen's arithmetic may overflow or meet inf where the serial
    # trials it screens never would; such a row is simply not proven
    with np.errstate(all="ignore"):
        unclipped = x + (-g)[:, None] * Ax
        Y = np.clip(unclipped, C.lower, C.upper)
        AY = Y @ A.G.T
        size = (A.frobenius + _TAU) * (np.sqrt(np.einsum("ij,ij->i", Y, Y)) + _TAU) + _TAU
        if A.f_vec is not None:
            AY += A.f_vec.coords
            size += np.linalg.norm(A.f_vec.coords)
        dA = (2 * (n + 2) * _EPS * math.sqrt(w.max())) * size
        d = Ax - AY
        n1 = np.sqrt(space.row_inner(d, d))
        d = x - Y
        n2 = np.sqrt(space.row_inner(d, d))
        proven = (g * n1 * (1 - 4 * eta)
                  > (policy.phi * (n2 + 2 * _TAU) + g * (dA + 2 * _TAU)) * (1 + 4 * eta) + _SIGMA)
        proven &= (np.maximum(n1, n2) <= _HUGE) & np.isfinite(unclipped).all(axis=1)
    return proven.tolist()
