"""Set membership and random members of the feasible sets, for the tests.

`contains` checks a point against a set's definition with a tolerance;
`sample_point` draws a point inside a set.
"""

import numpy as np

from vikit.projections import Ball, Box, FeasibleSet, halfspace_residual, project
from vikit.space import SpaceDescriptor


def contains(s: FeasibleSet, x: np.ndarray, tol: float = 1e-10) -> bool:
    if isinstance(s, Box):
        return bool(
            np.all(x >= np.asarray(s.lower) - tol)
            and np.all(x <= np.asarray(s.upper) + tol)
        )
    if isinstance(s, Ball):
        return s.center.space.norm(x - s.center.coords) <= s.radius + tol
    return halfspace_residual(s, x) <= tol


def sample_point(s: FeasibleSet, space: SpaceDescriptor,
                 rng: np.random.Generator) -> np.ndarray:
    """A random member of the set (used by the membership-style tests)."""
    if isinstance(s, Box):
        lo = np.broadcast_to(np.asarray(s.lower, dtype=float), (space.dim,))
        hi = np.broadcast_to(np.asarray(s.upper, dtype=float), (space.dim,))
        return rng.uniform(lo, hi)
    if isinstance(s, Ball):
        d = rng.standard_normal(space.dim)
        nd = space.norm(d)
        if nd == 0.0:
            return s.center.coords
        r = s.radius * rng.uniform() ** (1.0 / space.dim)
        return s.center.coords + (r / nd) * d
    # halfspace: project a random point, then pull strictly inside
    x = rng.uniform(-2.0, 2.0, space.dim)
    p = project(s, x)
    nn = space.inner(s.normal, s.normal)
    if nn == 0.0:
        return p
    return p - (rng.uniform(0.0, 1.0) / np.sqrt(nn)) * s.normal
