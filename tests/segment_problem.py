"""A test-only problem whose solution set is a segment of a plane, not a
point.

In both benchmark families, and in binding_problem, Omega is a single
point, so no test can tell which point of Omega a scheme converges to.
Here Omega = x* + (W ∩ V) has dimension dim V + dim W - n, and the
minimum-norm point P_Omega(0) differs from P_Omega(x_0)."""

import numpy as np

from vikit.operators import AffineMatrix, Scale, estimate_lipschitz
from vikit.problems import ProblemInstance
from vikit.projections import Box
from vikit.space import element, euclidean


def segment_problem(n, dim_v, dim_w, seed):
    """(problem, projector onto Omega) for T = P_V and A(x) = G(x - x*),
    G = P(BB^T + S + I)P, where V and W are random subspaces of R^n of
    dimensions dim_v and dim_w, P projects onto the orthogonal complement
    of W, and x* = P_V u for u uniform on [-0.5, 0.5]^n. A is monotone and
    vanishes exactly on x* + W, so VI(C, A) = (x* + W) ∩ C, and Omega =
    x* + (W ∩ V) within the box C. The returned projector onto x* + (W ∩
    V) is P_Omega only where its result lies inside the box."""
    rng = np.random.default_rng(seed)
    Qv, _ = np.linalg.qr(rng.standard_normal((n, dim_v)))
    Qw, _ = np.linalg.qr(rng.standard_normal((n, dim_w)))
    P = np.eye(n) - Qw @ Qw.T
    B = rng.uniform(0.0, 2.0, (n, n))
    M = rng.uniform(-2.0, 2.0, (n, n))
    G = P @ (B @ B.T + 0.5 * (M - M.T) + np.eye(n)) @ P
    xs = Qv @ (Qv.T @ rng.uniform(-0.5, 0.5, n))
    # Qv a = Qw b exactly when (a, b) is in the null space of [Qv, -Qw], the
    # last dim_v + dim_w - n right singular vectors for subspaces in general
    # position; W ∩ V is the span of those Qv a
    _, _, vt = np.linalg.svd(np.hstack([Qv, -Qw]))
    K, _ = np.linalg.qr(Qv @ vt[n:, :dim_v].T)
    sp = euclidean(n)
    A = AffineMatrix(G, element(sp, -(G @ xs)))
    problem = ProblemInstance(space=sp, A=A, C=Box(-2.0, 5.0), T=lambda x: Qv @ (Qv.T @ x),
                              lambda_T=0.0, F=Scale(0.5), f_visc=Scale(0.5),
                              x_star=element(sp, xs), L=estimate_lipschitz(A),
                              problem_id=f"segment:n={n},dim_v={dim_v},dim_w={dim_w},"
                                         f"seed={seed}")
    return problem, lambda y: xs + K @ (K.T @ (y - xs))
