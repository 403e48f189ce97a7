"""Evaluable operators and empirical class-membership checks.

Concrete maps: affine Gx + f, coordinatewise positive part, scalar
scaling, and the rank-one integral map t -> t * integral(x). Each maps a coordinate array to a new coordinate array; a
result with a NaN or Inf entry raises NonFiniteElementError. Monotonicity
and demicontractivity are certified by seeded sampling; demiclosedness is
a declared property and is not checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .space import SpaceDescriptor, SpaceElement, SpaceKind, check_finite


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class AffineMatrix:
    """x -> G x + f.

    `frobenius` is ||G||_F, computed once here. It bounds the Lipschitz
    constant ||G||_2 from above, and it bounds how far two evaluations of
    A(y) that sum in different orders (one G @ y, or one row of a block
    Y @ G.T) can lie apart: each computes every entry of Gy + f as a sum
    of n + 1 terms, so in any order |fl(Gy + f) - (Gy + f)| <=
    g_{n+1} (|G||y| + |f|) entrywise, g_m = m u / (1 - m u) with u = 2^-53.
    Two evaluations therefore differ by at most
    2 g_{n+1} (||G||_F ||y|| + ||f||) in the Euclidean norm, because
    || |G||y| || <= || |G| ||_F ||y|| = ||G||_F ||y||. The screened Armijo
    search (`stepsize.armijo_search`) rests on this bound."""

    G: np.ndarray
    f_vec: Optional[SpaceElement] = None
    frobenius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"G must be square, got shape {G.shape}")
        if self.f_vec is not None and self.f_vec.space.dim != G.shape[0]:
            raise ValueError(f"offset dimension {self.f_vec.space.dim} does not "
                             f"match G's {G.shape[0]}")
        object.__setattr__(self, "G", G)
        with np.errstate(over="ignore"):  # entries past ~1e154 give inf
            object.__setattr__(self, "frobenius", float(np.linalg.norm(G)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.G.shape[0] != x.shape[0]:
            raise ValueError("matrix dimension does not match the space")
        y = self.G @ x
        if self.f_vec is not None:
            y = y + self.f_vec.coords
        return check_finite(y)


@dataclass(frozen=True)
class PositivePart:
    """x -> max(x, 0) coordinatewise."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)  # finite whenever x is


@dataclass(frozen=True)
class Scale:
    """x -> c x."""

    c: float

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("scale factor must be finite")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return check_finite(self.c * x)


@dataclass(frozen=True)
class RankOneIntegral:
    """x -> (t -> t * integral of x over [0,1]) on a GRID_L2 space."""

    space: SpaceDescriptor

    def __post_init__(self):
        if self.space.kind is not SpaceKind.GRID_L2:
            raise ValueError("RankOneIntegral is defined on GRID_L2 spaces")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        integral = float(np.sum(self.space.quad_weights * x))
        return check_finite(integral * self.space.grid)


def spectral_norm(G: np.ndarray) -> float:
    """||G|| via power iteration on G^T G, to a relative change of 1e-10
    within 10000 iterations."""
    G = np.asarray(G, dtype=float)
    GtG = G.T @ G
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(G.shape[0])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(10_000):
        w = GtG @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = nw  # Rayleigh-quotient-style estimate of the top eigenvalue
        v = w / nw
        if abs(new_est - est) <= 1e-10 * max(new_est, 1e-300):
            return float(np.sqrt(new_est))
        est = new_est
    raise PowerIterationError("power iteration did not converge in 10000 iterations",
                              best_estimate=float(np.sqrt(est)))


def estimate_lipschitz(op) -> float:
    """Lipschitz constant of an affine map x -> Gx + f: the spectral norm of G.

    Other maps raise ValueError; a sampled ratio would only bound L from
    below, so their problems must state L themselves."""
    if not isinstance(op, AffineMatrix):
        raise ValueError(f"no Lipschitz constant for {type(op).__name__}; "
                         "pass L with the problem")
    return spectral_norm(op.G)


# Every certification check draws CERTIFY_SAMPLES points uniform on
# [-5, 5]^n from a generator seeded with 0 and allows CERTIFY_TOL of slack.
CERTIFY_SAMPLES = 200
CERTIFY_TOL = 1e-10


def check_monotone(op, space: SpaceDescriptor) -> bool:
    """True iff <op(x)-op(y), x-y> >= -CERTIFY_TOL on all sampled pairs."""
    rng = np.random.default_rng(0)
    for _ in range(CERTIFY_SAMPLES):
        x = rng.uniform(-5.0, 5.0, space.dim)
        y = rng.uniform(-5.0, 5.0, space.dim)
        if space.inner(op(x) - op(y), x - y) < -CERTIFY_TOL:
            return False
    return True


def check_demicontractive(op, lam: float, fixed_point: SpaceElement) -> bool:
    """Sampled check of ||Tx - z||^2 <= ||x - z||^2 + lam ||x - Tx||^2."""
    space, z = fixed_point.space, fixed_point.coords
    norm = space.norm
    if norm(op(z) - z) > 1e-10:
        raise ValueError("provided point is not a fixed point of the operator")
    rng = np.random.default_rng(0)
    for _ in range(CERTIFY_SAMPLES):
        x = rng.uniform(-5.0, 5.0, space.dim)
        tx = op(x)
        lhs = norm(tx - z) ** 2
        rhs = norm(x - z) ** 2 + lam * norm(x - tx) ** 2
        if lhs > rhs + CERTIFY_TOL:
            return False
    return True
