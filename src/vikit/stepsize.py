"""Step-size policies: fixed, adaptive ratio rule, Armijo backtracking.

Points are coordinate arrays of the given space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .projections import FeasibleSet, project
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


def armijo_search(space: SpaceDescriptor, policy: Armijo, x: np.ndarray, A,
                  C: FeasibleSet) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Largest gamma among the first ARMIJO_MAX_TRIALS of {rho, rho*l,
    rho*l^2, ...} with gamma * ||A(x) - A(y)|| <= phi * ||x - y||,
    y = P_C(x - gamma A(x)).

    Returns (gamma, y, A(x), A(y)) for the accepted step."""
    norm = space.norm
    Ax = A(x)
    gamma = policy.rho
    for _ in range(ARMIJO_MAX_TRIALS):
        y = project(C, check_finite(x + (-gamma) * Ax))
        Ay = A(y)
        if gamma * norm(check_finite(Ax - Ay)) <= policy.phi * norm(check_finite(x - y)):
            return gamma, y, Ax, Ay
        gamma *= policy.l
    raise ArmijoSearchError(
        f"no acceptable step within {ARMIJO_MAX_TRIALS} trials", last_gamma=gamma
    )
