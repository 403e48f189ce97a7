"""Brute-force projection oracle for the tests.

Multi-start SLSQP over explicit membership constraints, followed by a
Newton polish of the optimality system. It shares no code with
`vikit.projections.project`, which the tests check it against. Needs
scipy, a test-only dependency.
"""

import numpy as np
from scipy.optimize import minimize

from membership import contains
from vikit.projections import Ball, Box, FeasibleSet, HalfSpace
from vikit.space import SpaceKind


def _kkt_polish(s: FeasibleSet, x0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton refinement of the nearest-point optimality system for the
    smooth-constraint variants; boxes are handled exactly by the solver's
    native bounds and need no polish."""
    if isinstance(s, Ball):
        c, r = s.center.coords, s.radius

        def g(v):
            return float(np.sum((v - c) ** 2) - r ** 2)

        def dg(v):
            return 2.0 * (v - c)

        hess = 2.0 * np.eye(len(x0))
    elif isinstance(s, HalfSpace):
        a, b = s.normal, s.anchor

        def g(v):
            return float(a @ (v - b))

        def dg(v):
            return a

        hess = np.zeros((len(x0), len(x0)))
    else:
        return y

    if g(y) < -1e-9:  # constraint inactive: the projection is x itself
        return x0 if g(x0) <= 0.0 else y
    n = len(x0)
    grad = dg(y)
    gg = float(grad @ grad)
    if gg == 0.0:
        return y
    mu = max(-(float((y - x0) @ grad)) / gg, 0.0) or 1e-12
    for _ in range(10):
        grad = dg(y)
        F = np.concatenate([y - x0 + mu * grad, [g(y)]])
        if np.linalg.norm(F) < 1e-14:
            break
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = np.eye(n) + mu * hess
        J[:n, n] = grad
        J[n, :n] = grad
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        y = y + step[:n]
        mu = mu + step[n]
    return y


def project_oracle(s: FeasibleSet, x: np.ndarray, n_restarts: int = 3,
                   seed: int = 0) -> np.ndarray:
    """Brute-force nearest point of the set to the coordinate array x.
    Euclidean small-dimension use only."""
    sp = s.center.space if isinstance(s, Ball) else getattr(s, "space", None)
    if sp is not None and sp.kind is not SpaceKind.EUCLIDEAN:
        raise ValueError("oracle projector supports Euclidean spaces only")
    n = len(x)
    x0 = x

    constraints = []
    bounds = None
    if isinstance(s, Box):
        lo = np.broadcast_to(np.asarray(s.lower, dtype=float), (n,))
        hi = np.broadcast_to(np.asarray(s.upper, dtype=float), (n,))
        bounds = list(zip(lo, hi))
    elif isinstance(s, Ball):
        c, r = s.center.coords, s.radius
        constraints.append({
            "type": "ineq",
            "fun": lambda y: r ** 2 - np.sum((y - c) ** 2),
            "jac": lambda y: -2.0 * (y - c),
        })
    else:
        a, b = s.normal, s.anchor
        constraints.append({
            "type": "ineq",
            "fun": lambda y: -(a @ (y - b)),
            "jac": lambda y: -a,
        })

    def objective(y):
        return 0.5 * np.sum((y - x0) ** 2)

    def gradient(y):
        return y - x0

    rng = np.random.default_rng(seed)
    best, best_val = None, np.inf
    starts = [x0] + [x0 + rng.standard_normal(n) for _ in range(max(n_restarts - 1, 0))]
    for y0 in starts:
        res = minimize(objective, y0, jac=gradient, method="SLSQP",
                       bounds=bounds, constraints=constraints,
                       options={"maxiter": 1000, "ftol": 1e-18})
        y = _kkt_polish(s, x0, np.asarray(res.x, dtype=float))
        val = objective(y)
        if contains(s, y, tol=1e-8) and val < best_val:
            best, best_val = y, val
    if best is None:
        # all starts failed feasibility; fall back to the last polished point
        best = y
    return best
