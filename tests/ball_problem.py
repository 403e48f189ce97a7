"""A test-only problem whose VI binds on the sphere of a ball.

ex2's iterates never leave its unit ball, so no benchmark cell projects a
point from outside a ball. Here the solution lies on the sphere and A
pushes every step past it."""

import numpy as np

from vikit.operators import AffineMatrix, Scale, estimate_lipschitz
from vikit.problems import ProblemInstance
from vikit.projections import Ball
from vikit.space import element, euclidean, zeros


def ball_problem(n, seed):
    """C = Ball(0, 1) in R^n, A(x) = x - c with c = 2u for a random unit
    vector u, built as AffineMatrix(I, f_vec=-c), and T = P_span(u) (so
    lambda_T = 0). VI(C, A) is {P_C(c)} = {u}, which lies in Fix(T), so
    Omega = {u} on the sphere, and every point of the segment from an
    iterate towards c beyond the sphere is projected back onto it."""
    u = np.random.default_rng(seed).standard_normal(n)
    u /= np.linalg.norm(u)
    sp = euclidean(n)
    A = AffineMatrix(np.eye(n), element(sp, -2.0 * u))
    return ProblemInstance(space=sp, A=A, C=Ball(zeros(sp), 1.0), T=lambda x: u * (u @ x),
                           lambda_T=0.0, F=Scale(0.5), f_visc=Scale(0.5),
                           x_star=element(sp, u), L=estimate_lipschitz(A),
                           problem_id=f"ball:n={n},seed={seed}")
