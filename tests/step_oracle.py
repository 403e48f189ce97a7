"""The fully checked scheme step, the reference for the tests.

This is `vikit.algorithms._step` as it was when every vector a step forms
went through `check_finite`, with the inertial weight, the adaptive
update and the ball and halfspace projections it called then; the
halfspace projection also has the library's rescale for inner products
that overflow on finite vectors. The library step checks only the points
where a NaN or Inf could be lost; from the same state it must give the
same iterate bit for bit, or raise the same exception at the same step.
"""

import numpy as np

from vikit.algorithms import IterateState, Parts
from vikit.projections import Ball, Box, HalfSpace
from vikit.space import check_finite
from vikit.stepsize import Adaptive, Armijo, armijo_search


def _project(s, x):
    if isinstance(s, Box):
        return np.clip(x, s.lower, s.upper)
    sp = s.center.space if isinstance(s, Ball) else s.space
    if isinstance(s, Ball):
        c = s.center.coords
        d = check_finite(x - c)
        dist = sp.norm(d)
        if dist <= s.radius:
            return x
        return check_finite(c + (s.radius / dist) * d)
    nn = sp.inner(s.normal, s.normal)
    if nn == 0.0:
        return x
    d = check_finite(x - s.anchor)
    viol = sp.inner(s.normal, d)
    if viol <= 0.0:
        return x
    if np.isfinite(nn) and np.isfinite(viol):
        return check_finite(x - (viol / nn) * s.normal)
    # inner products that overflow on finite vectors, taken again on the
    # vectors divided by their largest |entry|
    a = check_finite(s.normal) / np.abs(s.normal).max()
    scale = np.abs(d).max()
    viol = sp.inner(a, d / scale)
    if viol <= 0.0:
        return x
    return check_finite(x - (scale * (viol / sp.inner(a, a))) * a)


def _inertial_delta(space, delta, zeta_k, x_curr, x_prev):
    gap = space.norm(check_finite(x_curr - x_prev))
    if gap == 0.0:
        return delta
    return min(zeta_k / gap, delta)


def _adaptive_update(space, gamma_k, phi, s, y, As, Ay):
    norm = space.norm
    denom = norm(check_finite(As - Ay))
    if denom <= 1e-14 * max(1.0, norm(As), norm(Ay)):
        return gamma_k
    return min(phi * norm(check_finite(s - y)) / denom, gamma_k)


def step_checked(parts: Parts, state: IterateState, problem, cfg) -> IterateState:
    k = state.k
    theta = cfg.theta_seq(k)
    eta = cfg.eta_seq(k, theta)
    space, A, T = problem.space, problem.A, problem.T
    x = state.x_curr
    s, dk = x, 0.0
    if parts.inertial:
        dk = _inertial_delta(space, cfg.delta, cfg.zeta_seq(k), x, state.x_prev)
        s = check_finite(x + dk * (x - state.x_prev))

    if parts.step is Armijo:
        gamma, y, As, Ay = armijo_search(space, cfg.step, s, A, problem.C)
    else:
        gamma = state.gamma
        As = A(s)
        trial = check_finite(s + (-gamma) * As)
        y = _project(problem.C, trial)
        Ay = A(y)

    hk = None
    if parts.correction == "tseng":
        z = check_finite(y + (-gamma) * (Ay - As))
    else:
        hk = HalfSpace(normal=check_finite(trial - y), anchor=y, space=space)
        z = _project(hk, check_finite(s + (-gamma) * Ay))

    t = None
    if parts.outer == "mann":
        x_next = check_finite((1.0 - theta - eta) * z + eta * T(z))
    elif parts.outer == "modified_mann":
        x_next = check_finite((1.0 - eta) * (theta * z) + eta * T(z))
    elif parts.outer == "anchored":
        z = check_finite(theta * cfg.x0.coords + (1.0 - theta) * z)
        x_next = check_finite(eta * x + (1.0 - eta) * T(z))
    else:
        t = check_finite((1.0 - eta) * z + eta * T(z))
        if parts.outer == "viscosity":
            x_next = check_finite(theta * problem.f_visc(x) + (1.0 - theta) * t)
        else:  # hsd
            x_next = check_finite(t + (-cfg.hsd_lambda * theta) * problem.F(t))

    gamma_next = gamma
    if parts.step is Adaptive:
        gamma_next = _adaptive_update(space, gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=x, x_curr=x_next, s=s, y=y, z=z, t=t,
                        gamma=gamma_next, delta_k=dk, gamma_prev=state.gamma,
                        halfspace=hk)
