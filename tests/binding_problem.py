"""A test-only problem on which the VI binds.

In both benchmark families Omega = Fix(T) = {0}, so a scheme that never
evaluates A converges there too. Here only A can find the solution."""

import numpy as np

from vikit.operators import AffineMatrix, Scale, estimate_lipschitz
from vikit.problems import ProblemInstance
from vikit.projections import Box
from vikit.space import element, euclidean


def binding_problem(n, dim_v, seed):
    """A problem whose VI binds: T = P_V for a random subspace V (so
    Fix(T) = V and lambda_T = 0) and A(x) = G(x - x*) with G = BB^T + S + I
    positive definite, built as AffineMatrix(G, f_vec=-Gx*). x* lies in V
    and inside the box, so Omega = VI(C, A) ∩ Fix(T) = {x*} with x* != 0,
    and only A can find x* within V."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, dim_v)))
    B = rng.uniform(0.0, 2.0, (n, n))
    M = rng.uniform(-2.0, 2.0, (n, n))
    G = B @ B.T + 0.5 * (M - M.T) + np.eye(n)
    xs = Q @ rng.standard_normal(dim_v)
    xs *= 1.5 / np.abs(xs).max()
    sp = euclidean(n)
    A = AffineMatrix(G, element(sp, -(G @ xs)))
    return ProblemInstance(space=sp, A=A, C=Box(-2.0, 5.0), T=lambda x: Q @ (Q.T @ x),
                           lambda_T=0.0, F=Scale(0.5), f_visc=Scale(0.5),
                           x_star=element(sp, xs), L=estimate_lipschitz(A),
                           problem_id=f"binding:n={n},dim_v={dim_v},seed={seed}")
