"""Seeded generators for the two benchmark problem families.

Example family 1: a random linear monotone operator over a box in R^n.
Example family 2: the positive-part operator over the unit ball of
L2([0,1]), discretized on a uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import operators as ops
from .projections import Ball, Box, FeasibleSet, project
from .space import (
    SpaceDescriptor,
    SpaceElement,
    element,
    euclidean,
    grid_l2,
    zeros,
)

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class ProblemInstance:
    space: SpaceDescriptor
    A: object
    C: FeasibleSet
    T: object
    T_info: ops.MappingInfo
    F: Optional[object] = None
    f_visc: Optional[object] = None
    x_star: Optional[SpaceElement] = None
    L: Optional[float] = None
    problem_id: str = ""


@dataclass(frozen=True)
class RandomSpec:
    """Seeded draw for the random linear problem. B, E entries are uniform
    on [0,2] (E diagonal); the skew part is (M - M^T)/2 with M uniform
    on [-2,2]."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")


def make_example1(spec: RandomSpec, f: Optional[SpaceElement] = None) -> ProblemInstance:
    """Box-constrained VI with A(x) = Gx + f, G = BB^T + S + E."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    B = rng.uniform(0.0, 2.0, (n, n))
    E = np.diag(rng.uniform(0.0, 2.0, n))
    M = rng.uniform(-2.0, 2.0, (n, n))
    S = 0.5 * (M - M.T)
    G = B @ B.T + S + E

    space = euclidean(n)
    A = ops.AffineMatrix(G, f)
    # a nonzero offset moves the solution off the origin; no closed form then
    x_star = zeros(space) if f is None else None
    return ProblemInstance(
        space=space,
        A=A,
        C=Box(-2.0, 5.0),
        T=ops.Scale(0.5),
        T_info=ops.MappingInfo(demicontractive_lambda=0.0),
        F=ops.Scale(0.5),
        f_visc=ops.Scale(0.5),
        x_star=x_star,
        L=ops.estimate_lipschitz(A),
        problem_id=f"ex1:n={n},seed={spec.seed}",
    )


def make_example2(n_grid: int = 101) -> ProblemInstance:
    """Positive-part operator over the unit ball of discretized L2([0,1]),
    with the rank-one integral map as the fixed-point constraint."""
    space = grid_l2(n_grid)
    return ProblemInstance(
        space=space,
        A=ops.PositivePart(),
        C=Ball(center=zeros(space), radius=1.0),
        T=ops.RankOneIntegral(space),
        T_info=ops.MappingInfo(demicontractive_lambda=0.0),
        F=ops.Scale(0.5),
        f_visc=ops.Scale(0.5),
        x_star=zeros(space),
        L=1.0,
        problem_id=f"ex2:grid={n_grid}",
    )


# starting coordinates by initial-point kind, from the space and the seed;
# space.grid rejects a non-grid space for the two t-recipes
_START_RECIPES = {
    "random_uniform": lambda space, seed:
        np.random.default_rng(seed).uniform(0.0, 1.0, space.dim),
    "t_squared": lambda space, seed: space.grid ** 2,
    "t_plus_half_cos_t": lambda space, seed: space.grid + 0.5 * np.cos(space.grid),
}


class Family(NamedTuple):
    """Integer spec keys with defaults (None means the plan seed), accepted
    starting recipes (default first), and the builder of the resolved keys."""

    keys: Dict[str, Optional[int]]
    starts: Tuple[str, ...]
    build: Callable[..., ProblemInstance]


# the builders look make_example1/2 up by name at each call, so a wrapper
# installed on this module (perfbench's tracer) sees every build
FAMILIES = {
    "ex1": Family({"n": 100, "seed": None}, ("random_uniform",),
                  lambda n, seed: make_example1(RandomSpec(n, seed))),
    "ex2": Family({"grid": 101}, ("t_squared", "t_plus_half_cos_t", "random_uniform"),
                  lambda grid: make_example2(grid)),
}


def initial_points(problem: ProblemInstance, kind: str,
                   seed: int = 0) -> Tuple[SpaceElement, SpaceElement]:
    """Paired starting points x^0 = x^1 per the named recipe."""
    if kind not in _START_RECIPES:
        raise ValueError(f"unknown initial-point kind {kind!r}")
    x = element(problem.space, _START_RECIPES[kind](problem.space, seed))
    return x, x


def solution_residual(problem: ProblemInstance, gamma: float = 0.1) -> float:
    """||x* - P_C(x* - gamma A x*)||; near zero iff x* solves the VI."""
    if problem.x_star is None:
        raise ValueError("problem has no known solution")
    xs = problem.x_star.coords
    return problem.space.norm(xs - project(problem.C, xs + (-gamma) * problem.A(xs)))


def certify(problem: ProblemInstance) -> list:
    """Machine checks gating a problem before any solver run.

    Returns a list of human-readable failure strings; empty means certified.
    """
    failures = []
    lam = problem.T_info.demicontractive_lambda
    if problem.x_star is not None:
        r = solution_residual(problem)
        if r > 1e-8:
            failures.append(f"VI solution residual {r:.3e} exceeds 1e-8")
        xs = problem.x_star.coords
        fp = problem.space.norm(problem.T(xs) - xs)
        if fp > 1e-10:
            failures.append(f"fixed-point residual {fp:.3e} exceeds 1e-10")
        # demicontractivity is sampled about x*, so only when x* is a fixed point
        elif lam is not None and not ops.check_demicontractive(problem.T, lam,
                                                               problem.x_star):
            failures.append(
                f"mapping failed the sampled demicontractivity check (lambda={lam})"
            )
    if not ops.check_monotone(problem.A, problem.space):
        failures.append("operator failed the sampled monotonicity check")
    return failures
