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
from .projections import Ball, Box, FeasibleSet, HalfSpace, project
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
    """VI(C, A) over Fix(T) in `space`.

    `A` and `T` map a coordinate array of the space to one. `certify`
    samples them in blocks: vikit's own operators (`AffineMatrix`,
    `PositivePart`, `Scale`, `RankOneIntegral`) are evaluated once per
    block, any other callable once per point, so a callable written for
    one point is never handed a block. `C` must fit the space: each `Box`
    bound is a scalar or of shape (dim,), and a `Ball`'s centre or a
    `HalfSpace` lies in the space; otherwise ValueError."""

    space: SpaceDescriptor
    A: object
    C: FeasibleSet
    T: object
    lambda_T: float  # T's demicontractive constant
    F: Optional[object] = None
    f_visc: Optional[object] = None
    x_star: Optional[SpaceElement] = None
    L: Optional[float] = None
    problem_id: str = ""

    def __post_init__(self):
        if not 0.0 <= self.lambda_T < 1.0:
            raise ValueError(f"lambda_T must lie in [0,1), got {self.lambda_T}")
        sp, C = self.space, self.C
        where = f"the problem's {sp.dim}-dimensional {sp.kind.value} space"
        if isinstance(C, Box):
            shapes = {np.shape(C.lower), np.shape(C.upper)}
            if not shapes <= {(), (sp.dim,)}:
                raise ValueError(f"box bounds of shapes {sorted(shapes)} do not fit {where}: "
                                 f"each must be a scalar or of shape ({sp.dim},)")
        elif isinstance(C, (Ball, HalfSpace)):
            noun, own = (("ball centre", C.center.space) if isinstance(C, Ball)
                         else ("halfspace", C.space))
            if own != sp:
                raise ValueError(f"{noun} lies in the {own.dim}-dimensional {own.kind.value} "
                                 f"space, not in {where}")


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def make_example1(spec: RandomSpec, f: Optional[SpaceElement] = None) -> ProblemInstance:
    """Box-constrained VI with A(x) = Gx + f, G = BB^T + S + E."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    B = rng.uniform(0.0, 2.0, (n, n))
    e = rng.uniform(0.0, 2.0, n)
    M = rng.uniform(-2.0, 2.0, (n, n))
    # the bits of B @ B.T + 0.5 * (M - M.T) + diag(e), built in place with
    # each part freed once added, so at most three n x n arrays are alive
    G = B @ B.T
    del B
    S = M - M.T
    del M
    S *= 0.5
    G += S
    del S
    G[np.diag_indices(n)] += e

    space = euclidean(n)
    A = ops.AffineMatrix(G, f)
    # a nonzero offset moves the solution off the origin; no closed form then
    x_star = zeros(space) if f is None else None
    return ProblemInstance(
        space=space,
        A=A,
        C=Box(-2.0, 5.0),
        T=ops.Scale(0.5),
        lambda_T=0.0,
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
        lambda_T=0.0,
        F=ops.Scale(0.5),
        f_visc=ops.Scale(0.5),
        x_star=zeros(space),
        L=1.0,
        problem_id=f"ex2:grid={n_grid}",
    )


class StartRecipe(NamedTuple):
    """Whether two seeds can give different starts, and the starting
    coordinates from the space and the seed."""

    reads_seed: bool
    coords: Callable[[SpaceDescriptor, int], np.ndarray]


# by initial-point kind; space.grid rejects a non-grid space for the two
# t-recipes
_START_RECIPES = {
    "random_uniform": StartRecipe(True, lambda space, seed:
                                  np.random.default_rng(seed).uniform(0.0, 1.0, space.dim)),
    "t_squared": StartRecipe(False, lambda space, seed: space.grid ** 2),
    "t_plus_half_cos_t": StartRecipe(False, lambda space, seed:
                                     space.grid + 0.5 * np.cos(space.grid)),
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
    x = element(problem.space, _START_RECIPES[kind].coords(problem.space, seed))
    return x, x


# the step of the natural-map residual; any positive step has the same zeros
RESIDUAL_GAMMA = 0.1


def solution_residual(problem: ProblemInstance) -> float:
    """||x* - P_C(x* - RESIDUAL_GAMMA A x*)||; near zero iff x* solves the VI."""
    if problem.x_star is None:
        raise ValueError("problem has no known solution")
    xs = problem.x_star.coords
    return problem.space.norm(xs - project(problem.C, xs - RESIDUAL_GAMMA * problem.A(xs)))


def certify(problem: ProblemInstance) -> list:
    """Machine checks gating a problem before any solver run.

    Returns a list of human-readable failure strings; empty means certified.
    """
    failures = []
    if problem.x_star is not None:
        r = solution_residual(problem)
        if r > 1e-8:
            failures.append(f"VI solution residual {r:.3e} exceeds 1e-8")
        xs = problem.x_star.coords
        fp = problem.space.norm(problem.T(xs) - xs)
        if fp > 1e-10:
            failures.append(f"fixed-point residual {fp:.3e} exceeds 1e-10")
        # demicontractivity is sampled about x*, so only when x* is a fixed point
        else:
            check = ops.check_demicontractive(problem.T, problem.lambda_T, problem.x_star)
            if not check:
                failures.append(
                    "mapping failed the sampled demicontractivity check "
                    f"(lambda={problem.lambda_T}) at sample {check.failed_at} of "
                    f"{ops.CERTIFY_SAMPLES}: ||Tx - x*||^2 - ||x - x*||^2 "
                    f"- lambda ||x - Tx||^2 = {check.value:.3e}")
    check = ops.check_monotone(problem.A, problem.space)
    if not check:
        failures.append("operator failed the sampled monotonicity check at sample "
                        f"{check.failed_at} of {ops.CERTIFY_SAMPLES}: "
                        f"<A(x) - A(y), x - y> = {check.value:.3e}")
    return failures
