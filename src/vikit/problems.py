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
    ConfigError,
    SpaceDescriptor,
    SpaceElement,
    SpaceKind,
    check_field,
    check_finite,
    check_space,
    check_type,
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
    one point is never handed a block. Construction checks the type and
    space rules (`space.check_type`, `space.check_space`) on every field:
    `space` is a `SpaceDescriptor`, `A`, `T` and (when set) `F` and
    `f_visc` are callable, `C` is a `Box`, `Ball` or `HalfSpace` that fits
    the space, `x_star` (when known) lies in the space, and an
    `AffineMatrix` `A` is dim x dim with its offset in the space;
    `lambda_T` lies in [0, 1) and `L` in [0, inf), where `L` = 0 bounds
    the zero operator. `L` is the Lipschitz constant the fixed steps read;
    `operators.estimate_lipschitz` computes it for an `AffineMatrix` only,
    so a problem with any other `A` states it."""

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
        check_type("space", self.space, SpaceDescriptor)
        check_field("lambda_T", self.lambda_T, 0.0, 1.0)
        if self.L is not None:
            check_field("L", self.L, 0.0)
        for name in ("A", "T", "F", "f_visc"):
            unset = (type(None),) if name in ("F", "f_visc") else ()  # these may be unset
            check_type(name, getattr(self, name), (Callable, *unset))
        sp, C = self.space, check_type("C", self.C, (Box, Ball, HalfSpace))
        if isinstance(C, Box):  # a scalar bound fits every space
            for name in ("lower", "upper"):
                if np.ndim(getattr(C, name)):
                    check_space(f"C.{name}", getattr(C, name), sp)
        else:  # a ball lies where its centre does
            check_space("C", getattr(C, "center", C), sp)
        if self.x_star is not None:
            check_space("x_star", check_type("x_star", self.x_star, SpaceElement), sp)
        if isinstance(self.A, ops.AffineMatrix):
            # G is square, so its diagonal is as long as its rows
            check_space("A.G rows", self.A.G.diagonal(), sp)
            if self.A.f_vec is not None:
                check_space("A.f_vec", self.A.f_vec, sp)


@dataclass(frozen=True)
class RandomSpec:
    """Seeded draw for the random linear problem. B, E entries are uniform
    on [0,2] (E diagonal); the skew part is (M - M^T)/2 with M uniform
    on [-2,2]."""

    n: int
    seed: int

    def __post_init__(self):
        check_field("n", self.n, 1, integer=True)
        check_field("seed", self.seed, 0, integer=True)


def make_example1(spec: RandomSpec) -> ProblemInstance:
    """Box-constrained VI with A(x) = Gx, G = BB^T + S + E, and T = x/2.
    G's symmetric part is positive definite and Fix(T) = {0} lies inside
    the box, so x* = 0 is the one solution. At most two n x n arrays are
    alive at a time, in the build and in its Lipschitz estimate."""
    rng = np.random.default_rng(check_type("spec", spec, RandomSpec).seed)
    n = spec.n
    B = rng.uniform(0.0, 2.0, (n, n))
    e = rng.uniform(0.0, 2.0, n)
    # the bits of B @ B.T + 0.5 * (M - M.T) + diag(e), drawn in the order
    # B, e, M: B is freed before M is drawn, and the skew part is added
    # n // 8 rows at a time through one buffer, so at most two n x n arrays
    # (G and B, then G and M) and n^2/8 floats more are alive
    G = B @ B.T
    del B
    M = rng.uniform(-2.0, 2.0, (n, n))
    rows = max(1, n // 8)
    S = np.empty((rows, n))
    for i in range(0, n, rows):
        s = S[:min(rows, n - i)]
        np.subtract(M[i:i + rows], M[:, i:i + rows].T, out=s)
        s *= 0.5
        G[i:i + rows] += s
    del M, S, s  # s is a view of S
    G[np.diag_indices(n)] += e

    space = euclidean(n)
    A = ops.AffineMatrix(G)
    return ProblemInstance(
        space=space,
        A=A,
        C=Box(-2.0, 5.0),
        T=ops.Scale(0.5),
        lambda_T=0.0,
        F=ops.Scale(0.5),
        f_visc=ops.Scale(0.5),
        x_star=zeros(space),
        L=ops.estimate_lipschitz(A),
        problem_id=f"ex1:n={n},seed={spec.seed}",
    )


def make_example2(grid: int) -> ProblemInstance:
    """Positive-part operator over the unit ball of discretized L2([0,1]) on
    grid nodes, with the rank-one integral map as the fixed-point
    constraint. A grid that is not an integer of at least 2 raises
    ConfigError naming grid, the spec key."""
    space = grid_l2(check_field("grid", grid, 2, integer=True))
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
        problem_id=f"ex2:grid={grid}",
    )


class StartRecipe(NamedTuple):
    """Whether two seeds can give different starts, whether the recipe
    reads the nodes of a grid_l2 space (and so needs one), and the starting
    coordinates from the space and the seed."""

    reads_seed: bool
    reads_grid: bool
    coords: Callable[[SpaceDescriptor, int], np.ndarray]


# by initial-point kind
_START_RECIPES = {
    "random_uniform": StartRecipe(True, False, lambda space, seed:
                                  np.random.default_rng(seed).uniform(0.0, 1.0, space.dim)),
    "t_squared": StartRecipe(False, True, lambda space, seed: space.grid ** 2),
    "t_plus_half_cos_t": StartRecipe(False, True, lambda space, seed:
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
    """Paired starting points x^0 = x^1 per the named recipe. A problem that
    is not a ProblemInstance, a kind that names no recipe for the problem's
    space (the t-recipes need a grid_l2 space), or a seed that is not an
    integer in [0, inf), raises ConfigError naming it."""
    check_type("problem", problem, ProblemInstance)
    check_field("seed", seed, 0, integer=True)
    grid = problem.space.kind is SpaceKind.GRID_L2
    kinds = [name for name, recipe in _START_RECIPES.items() if grid or not recipe.reads_grid]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"kind must be one of {', '.join(kinds)} on {problem.space}, "
                          f"got {kind!r}")
    x = element(problem.space, _START_RECIPES[kind].coords(problem.space, seed))
    return x, x


# the step of the natural-map residual; any positive step has the same zeros
RESIDUAL_GAMMA = 0.1


def solution_residual(problem: ProblemInstance) -> float:
    """||x* - P_C(x* - RESIDUAL_GAMMA A x*)||; near zero iff x* solves the VI."""
    if problem.x_star is None:
        raise ValueError("problem has no known solution")
    xs = problem.x_star.coords
    Ax = check_finite(check_space("A(x*)", problem.A(xs), problem.space))
    return problem.space.norm(xs - project(problem.C, xs - RESIDUAL_GAMMA * Ax))


def certify(problem: ProblemInstance) -> list:
    """Machine checks gating a problem before any solver run.

    Returns a list of human-readable failure strings; empty means certified,
    that is every hypothesis checked. Without a known x_star, nonempty Omega
    and T's demicontractivity cannot be checked, and the first failure says
    so; A's monotonicity is still sampled. An A or T value it reads that
    does not lie in the problem's space raises SpaceMismatchError naming it
    (A(x*), T(x*) or A(x)), and one with a NaN or Inf entry raises
    NonFiniteElementError (the `space` module's call convention). A problem
    that is not a ProblemInstance raises ConfigError naming it.
    """
    failures = []
    if check_type("problem", problem, ProblemInstance).x_star is None:
        failures.append("no known x*, so Omega nonempty and T demicontractive were not checked")
    else:
        r = solution_residual(problem)
        if r > 1e-8:
            failures.append(f"VI solution residual {r:.3e} exceeds 1e-8")
        xs = problem.x_star.coords
        fp = problem.space.norm(check_space("T(x*)", problem.T(xs), problem.space) - xs)
        if fp > ops.FIXED_POINT_TOL:
            failures.append(f"fixed-point residual {fp:.3e} exceeds {ops.FIXED_POINT_TOL:g}")
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
