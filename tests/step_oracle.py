"""The fully checked scheme step, the reference for the tests.

This is the scheme step `vikit.algorithms` builds, as it was when every
vector a step forms went through `check_finite`, with the inertial weight, the adaptive
update and the ball and halfspace projections it called then; the
halfspace projection also has the library's rescale for a normal whose
square underflows, and for x - anchor or an inner product that overflows
on finite vectors, where it rejects a NaN or Inf x as the library does.
Every operator value (A, T, F and the viscosity map) is checked too, as
the affine, scaling and integral maps once checked their own results.
The library step checks only the points where a NaN or Inf could be lost;
from the same state it must give the same iterate bit for bit, or raise
the same exception at the same step.

`residuals` is the reference for a recording step's residuals: each
distance a new difference array and its `space.norm`, as `solve` took them
from an IterateState before the step recorded them itself.
"""

import math

import numpy as np

from vikit.algorithms import HSD_LAMBDA, INERTIAL_DELTA, IterateState, Scheme
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
    if nn == 0.0 and not s.normal.any():
        return x
    viol = sp.inner(s.normal, x - s.anchor)
    if -math.inf < viol <= 0.0 and nn != 0.0:
        return x
    if 0.0 < nn < math.inf and math.isfinite(viol):
        return check_finite(x - (viol / nn) * s.normal)
    # x with a NaN or Inf entry, a normal whose square underflows, or x -
    # anchor or an inner product that overflows on finite vectors: x is
    # checked, the normal divided by its largest |entry|, x and the anchor
    # by the power of two at or below theirs
    check_finite(x)
    a = s.normal / np.abs(s.normal).max()
    scale = math.ldexp(0.5, math.frexp(max(np.abs(s.anchor).max(), np.abs(x).max()))[1])
    xs = x / scale
    viol = sp.inner(a, xs - s.anchor / scale)
    return x if viol <= 0.0 else check_finite(scale * (xs - (viol / sp.inner(a, a)) * a))


def _inertial_delta(space, zeta_k, x_curr, x_prev):
    gap = space.norm(check_finite(x_curr - x_prev))
    if gap == 0.0:
        return INERTIAL_DELTA
    return min(zeta_k / gap, INERTIAL_DELTA)


def _adaptive_update(space, gamma_k, phi, s, y, As, Ay):
    norm = space.norm
    denom = norm(check_finite(As - Ay))
    if denom <= 1e-14 * max(1.0, norm(As), norm(Ay)):
        return gamma_k
    return min(phi * norm(check_finite(s - y)) / denom, gamma_k)


def step_checked(parts: Scheme, state: IterateState, problem, cfg) -> IterateState:
    k = state.k
    theta = cfg.theta(k)
    eta = cfg.eta(k, theta)
    space, A, T = problem.space, problem.A, problem.T
    x = state.x_curr
    s, dk = x, 0.0
    if parts.inertial:
        dk = _inertial_delta(space, cfg.zeta(k), x, state.x_prev)
        s = check_finite(x + dk * (x - state.x_prev))

    if parts.step is Armijo:
        gamma, y, As, Ay = armijo_search(space, cfg.step, s, A, problem.C)
    else:
        gamma = state.gamma
        As = check_finite(A(s))
        trial = check_finite(s + (-gamma) * As)
        y = _project(problem.C, trial)
        Ay = check_finite(A(y))

    hk = None
    if parts.correction == "tseng":
        z = check_finite(y + (-gamma) * (Ay - As))
    else:
        hk = HalfSpace(normal=check_finite(trial - y), anchor=y, space=space)
        z = _project(hk, check_finite(s + (-gamma) * Ay))

    if parts.outer == "mann":
        x_next = check_finite((1.0 - theta - eta) * z + eta * check_finite(T(z)))
    elif parts.outer == "modified_mann":
        x_next = check_finite((1.0 - eta) * (theta * z) + eta * check_finite(T(z)))
    elif parts.outer == "anchored":
        z = check_finite(theta * cfg.x0.coords + (1.0 - theta) * z)
        x_next = check_finite(eta * x + (1.0 - eta) * check_finite(T(z)))
    else:
        t = check_finite((1.0 - eta) * z + eta * check_finite(T(z)))
        if parts.outer == "viscosity":
            x_next = check_finite(theta * check_finite(problem.f_visc(x)) + (1.0 - theta) * t)
        else:  # hsd
            x_next = check_finite(t + (-HSD_LAMBDA * theta) * check_finite(problem.F(t)))

    gamma_next = gamma
    if parts.step is Adaptive:
        gamma_next = _adaptive_update(space, gamma, cfg.step.phi, s, y, As, Ay)
    return IterateState(k=k + 1, x_prev=x, x_curr=x_next, s=s, y=y, z=z,
                        gamma=gamma_next, delta_k=dk, gamma_prev=state.gamma,
                        halfspace=hk)


def _square(v):
    try:
        return v ** 2
    except OverflowError:  # a square past the largest float is inf
        return math.inf


def residuals(parts: Scheme, state: IterateState, phi, u, space):
    """(res_contraction, res_halfspace, res_tseng) of the step that formed
    state, which holds its halfspace as step_checked's and step_alg1's do,
    with u = x*; nan where one does not apply. A square that overflows is
    inf."""
    res_c = res_h = res_t = math.nan
    s, y, z = state.s, state.y, state.z

    def dist(a, b):
        return space.norm(a - b)

    if parts.inertial:
        ratio = state.gamma_prev / state.gamma
        if parts.correction == "tseng":
            coeff = 1.0 - _square(phi * ratio)
            d_sy = dist(s, y)
            res_c = _square(dist(z, u)) - (_square(dist(s, u)) - coeff * _square(d_sy))
            res_t = dist(z, y) - phi * ratio * d_sy
        else:
            coeff = 1.0 - phi * ratio
            res_c = _square(dist(z, u)) - (
                _square(dist(s, u))
                - coeff * _square(dist(y, s))
                - coeff * _square(dist(z, y))
            )
    hk = state.halfspace
    if hk is not None:
        res_h = space.inner(hk.normal, z - hk.anchor)
    return res_c, res_h, res_t
