"""Step-size policies: fixed, adaptive ratio rule, Armijo backtracking.

Points are coordinate arrays of the given space."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .operators import OWN_OPERATORS, AffineMatrix
from .projections import Box, FeasibleSet, clip_ufunc
from .space import SpaceDescriptor, _read_only, _vdot, check_field


class ArmijoSearchError(RuntimeError):
    """Backtracking exhausted; carries the last trial step."""

    def __init__(self, message: str, last_gamma: float):
        super().__init__(message)
        self.last_gamma = last_gamma


@dataclass(frozen=True)
class Fixed:
    gamma: float

    def __post_init__(self):
        check_field("gamma", self.gamma, 0.0, lo_open=True)

    # the first step gamma_1, read once per solve, as Adaptive.gamma1 is; an
    # attrgetter runs no Python frame, so a solve makes no call more for it
    gamma1 = property(operator.attrgetter("gamma"), doc="The first step gamma_1: gamma.")


@dataclass(frozen=True)
class Adaptive:
    gamma1: float
    phi: float

    def __post_init__(self):
        check_field("gamma1", self.gamma1, 0.0, lo_open=True)
        check_field("phi", self.phi, 0.0, 1.0, lo_open=True)


@dataclass(frozen=True)
class Armijo:
    rho: float
    l: float
    phi: float

    def __post_init__(self):
        check_field("rho", self.rho, 0.0, lo_open=True)
        check_field("l", self.l, 0.0, 1.0, lo_open=True)
        check_field("phi", self.phi, 0.0, 1.0, lo_open=True)

    # the first step gamma_1 is the search's first trial; read as Fixed.gamma1 is
    gamma1 = property(operator.attrgetter("rho"), doc="The first step gamma_1: rho.")


StepPolicy = Union[Fixed, Adaptive, Armijo]


def adaptive_update(space: SpaceDescriptor, gamma_k: float, phi: float,
                    s: np.ndarray, y: np.ndarray, As: np.ndarray,
                    Ay: np.ndarray, work: tuple = (None, None)) -> float:
    """Next step: min(phi * ||s-y|| / ||As-Ay||, gamma_k), or gamma_k when
    the operator displacement vanishes. Never increases. Like every norm,
    ||As - Ay|| and ||s - y|| raise NonFiniteElementError on a NaN or Inf
    entry, which the comparison or the min could otherwise pass over.
    `work` is a pair of n-vectors, none of the four points: the first
    holds As - Ay and then s - y, and the second is passed to each norm
    (see `SpaceDescriptor.inner`); with None a new array is made instead.

    "As != Ay" is read in floating point as the test

        denom > 1e-14 max(1, ||As||, ||Ay||),  denom = ||As - Ay||,

    with every quantity as computed (a finite denom means As and Ay are
    finite too). ||Ay|| is taken only where it can decide the test:
    - denom <= 1e-14 max(1, ||As||) passes the test's "<=" already;
    - denom > 2e-14 max(1, ||As|| + denom) fails it. A computed norm N of
      v has |N - ||v||| <= g ||v|| + tau, g ~ (n + 3) u / 2, tau = 2^-500
      (see armijo_search), and fl(As - Ay) is within a relative u of the
      exact difference. So the triangle inequality for the exact norms
      gives the computed ||Ay|| <= (1 + g)(||As|| + denom + 2 tau) /
      ((1 - g)(1 - u)^2) + tau, which is at most 2 max(1, fl(||As|| +
      denom)) for every n below ~2^50 (the 1 absorbs the tau terms). As
      fl(2e-14) = 2 fl(1e-14) and rounding is monotone, fl(1e-14 m) <=
      fl(2e-14 max(1, fl(||As|| + denom))) < denom for each m of the
      max: 1, ||As|| and ||Ay||.
    Only in the band between the two is ||Ay|| computed and the test
    applied as stated. An ||As|| + denom that overflows lands in the band.
    So the step is bitwise the four-norm rule's."""
    d, q = work
    denom = space.norm(np.subtract(As, Ay, d), q)
    norm_As = space.norm(As, q)
    if denom <= 1e-14 * max(1.0, norm_As) or (
            denom <= 2e-14 * max(1.0, norm_As + denom)
            and denom <= 1e-14 * max(1.0, norm_As, space.norm(Ay, q))):
        return gamma_k
    return min(phi * space.norm(np.subtract(s, y, d), q) / denom, gamma_k)


ARMIJO_MAX_TRIALS = 60

# The screen's margin in armijo_search: underflow moves a computed norm by
# at most _TAU and a product by far less than _SIGMA, and no trial whose
# sizes exceed _HUGE counts as proven, so nothing the serial trial
# computes can overflow. _EPS is twice the unit roundoff u = 2^-53.
_TAU = 2.0 ** -500
_SIGMA = 2.0 ** -1000
_HUGE = 2.0 ** 500
_EPS = float(np.finfo(float).eps)


def armijo_search(space: SpaceDescriptor, policy: Armijo, x: np.ndarray, A,
                  C: FeasibleSet, work: Optional[tuple] = None
                  ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Largest gamma among the first ARMIJO_MAX_TRIALS of {rho, rho*l,
    rho*l^2, ...} with gamma * ||A(x) - A(y)|| <= phi * ||x - y||,
    y = P_C(x - gamma A(x)).

    Returns (gamma, y, A(x), A(y)) for the accepted step. `work`, six
    n-vectors none of which is x, holds the serial loop's vectors: A(x),
    the unprojected trial point, y as C's `project` writes it, A(y),
    x - y and A(x) - A(y), and each norm's quadrature (see
    `SpaceDescriptor.inner`). C's `project` is bound once per search, and
    so is A: itself when it is exactly one of vikit's own operators
    (`operators.OWN_OPERATORS`), which write A(x) and A(y) there, and
    otherwise a function that calls it with the point alone. With no
    work, new arrays are made instead. Either way y, A(x) and A(y) may be
    work vectors, which the next call overwrites.

    The trials run in order, each exactly as stated, except those that
    `_proven_rejections` proves the test rejects: these are skipped (gamma
    is still multiplied by l), as the serial search could only have
    rejected them. So the result, or the exception and its `last_gamma`,
    is bitwise the serial search's.

    The screen applies when A is exactly an `AffineMatrix` with a `probe`
    and C exactly a `Box` with scalar or per-coordinate bounds; any other
    A (a `PositivePart`, a wrapped operator, a subclass, which may override
    `__call__`) or set (a subclass among them, which may override
    `project`) runs the serial loop alone.
    The trials j = 0, 1, ... with gamma_j ||G||_F > phi (at most
    ARMIJO_MAX_TRIALS; later ones pass the exact test, as ||G||_F >= L)
    are formed as rows of one array, with the same repeated gamma *= l and
    an elementwise clip, so row j of D = x - Y is bitwise the serial
    d_j = x - y_j. A trial is judged from d_j alone, with no evaluation of
    A: let n2 be the block's norm of d_j in the space's weights w, p_j the
    computed <probe, d_j>, s = sqrt(min w), F = ||G||_F, xn and fn the
    computed Euclidean norms of x and f (fn = 0 without f), and

        n1 = s |p_j|,
        size = (2 (F + tau) / s)(n2 + tau) + (F + tau)(xn + tau) + fn + tau,
        dA = 2 (n + 3) eps s size,
        eta = (n + 16) eps,  eps = 2u,  tau = 2^-500,  sigma = 2^-1000.

    Trial j is proven rejected when xn + gamma_j ||A(x)||_2 <= 2^500 (the
    norm as computed), n2 <= 2^500, size <= 2^500 and

        gamma_j n1 (1 - 4 eta) > (phi (n2 + 2 tau) + gamma_j (dA + 2 tau)) (1 + 4 eta) + sigma.

    Derivation. A computed norm N of an n-vector v (a weighted sum of n
    squares in any order, then a square root) has |N - ||v||| <=
    g ||v|| + tau with g ~ (n + 3) u / 2 <= eta / 4: the terms are
    nonnegative, so the sum's relative error is at most g_{n+1}, and
    underflow of the squares costs at most sqrt(n) 2^-537 <= tau. Let d be
    the exact x - y_j; it lies within a relative u of d_j. In the
    Euclidean norm:
    - by `AffineMatrix`, the serial A(x) and A(y_j) lie within
      g_{n+1} (F ||x|| + ||f||) and g_{n+1} (F ||y_j|| + ||f||) of Gx + f
      and G y_j + f, and ||y_j|| <= ||x|| + ||d||;
    - ||G d|| >= |<G^T u, d>| / ||u|| for the computed u = G 1. The
      computed w lies within g_n F ||u|| of G^T u, the probe within a
      relative u of w / ||u|| as computed, and p_j within g_n ||probe||
      ||d_j|| of <probe, d_j>; with ||w|| <= (1 + g_n) F ||u|| these add
      at most g_n (||w|| + F ||u||) ||d_j|| / ||u|| <= 2 g_{n+3} F ||d_j||,
      and the computed ||u|| >= 2^-400 is within g of the exact one.
    So ||A(x) - A(y_j)|| >= (1 - g) |p_j| - 2 g_{n+3} (F ||x|| + 2 F ||d_j||
    + ||f||), where ||d_j|| <= (n2 + tau)(1 + eta) / s; dA / s bounds the
    subtracted term with a factor 2 to spare for the rounding of F, xn, fn
    and s (tau covers their underflow). The weighted norm is at least s
    times the Euclidean one, and the serial difference fl(A(x) - A(y_j))
    is within a relative u of the exact one. Chaining these, the serial
    test's sides satisfy

        fl(gamma_j N1) >= gamma_j n1 (1 - u)^2 (1 - eta)^2 - gamma_j (dA + 2 tau) - 2^-1075,
        fl(phi N2) <= phi (n2 + 2 tau)(1 + u)(1 + eta) + 2^-1075.

    The screen's inequality adds and multiplies nonnegative terms only, so
    its own rounding is a few u relative; 4 eta >= 128 u and sigma cover
    that and the factors above, and it makes the first line exceed the
    second: the serial test is false. The guards keep the serial trial
    from raising: |x_i| + gamma_j |A(x)_i| < 2^501 keeps its unclipped
    point finite (the row's is bitwise the same); size bounds F ||y_j|| +
    ||f|| and F ||x|| + ||f|| below 2^500, so no partial sum of G y_j + f
    overflows and A(y_j) and A(x) - A(y_j) are finite; and n2 <= 2^500
    keeps x - y_j finite. Each trial checks finiteness as the `space`
    module's call convention says, and none of these checks rejects a
    finite vector."""
    ax, trial, yb, ay, d, q = (None,) * 6 if work is None else work
    op = A if type(A) in OWN_OPERATORS else lambda x, out=None: A(x)
    proj = C.project
    Ax = op(x, ax)
    skip = _proven_rejections(space, policy, x, Ax, A, C)
    gamma = policy.rho
    for j in range(ARMIJO_MAX_TRIALS):
        if j < len(skip) and skip[j]:
            gamma *= policy.l
            continue
        t = np.add(x, np.multiply(-gamma, Ax, trial), trial)
        y = proj(t, yb, q)
        Ay = op(y, ay)
        if (gamma * space.norm(np.subtract(Ax, Ay, d), q)
                <= policy.phi * space.norm(np.subtract(x, y, d), q)):
            return gamma, y, Ax, Ay
        gamma *= policy.l
    raise ArmijoSearchError(
        f"no acceptable step within {ARMIJO_MAX_TRIALS} trials", last_gamma=gamma
    )


@functools.lru_cache(maxsize=64)
def _screened_steps(rho: float, l: float, phi: float, frobenius: float) -> Optional[np.ndarray]:
    """The steps gamma_j of the trials armijo_search screens: rho, rho*l,
    ... as its serial loop forms them, while gamma_j ||G||_F > phi and at
    most ARMIJO_MAX_TRIALS of them; None when there are none. Built once
    per policy and ||G||_F."""
    gammas = []
    gamma = rho
    while gamma * frobenius > phi and len(gammas) < ARMIJO_MAX_TRIALS:
        gammas.append(gamma)
        gamma *= l
    return _read_only(np.array(gammas, dtype=float)) if gammas else None


def _proven_rejections(space: SpaceDescriptor, policy: Armijo, x: np.ndarray,
                       Ax: np.ndarray, A, C: FeasibleSet) -> list:
    """For the first trials of armijo_search, True where the serial test
    is proven to reject the trial (see its docstring for the margin);
    empty unless A is exactly an AffineMatrix with a probe and C exactly a
    Box with scalar or per-coordinate bounds, as a subclass may map or
    project otherwise."""
    if not (type(A) is AffineMatrix and A.probe is not None and type(C) is Box
            and C.shape in ((), x.shape)):
        return []
    g = _screened_steps(policy.rho, policy.l, policy.phi, A.frobenius)
    if g is None:
        return []
    n, s = space.dim, space.sqrt_min_weight
    eta = (n + 16) * _EPS
    # the screen's arithmetic may overflow or meet inf where the serial
    # trials it screens never would; such a row is simply not proven
    with np.errstate(all="ignore"):
        xn = math.sqrt(_vdot(x, x))
        # row j: the serial x + (-gamma_j) A(x), its clip, then x - y_j
        D = np.multiply.outer(-g, Ax)
        D += x
        clip_ufunc(D, C.lo, C.hi, out=D)
        np.subtract(x, D, out=D)
        n2 = np.sqrt(space.row_inner(D, D))
        n1 = s * np.abs(D @ A.probe)
        F = A.frobenius + _TAU
        size = (2 * F / s) * (n2 + _TAU) + (F * (xn + _TAU) + A.f_norm + _TAU)
        dA = 2 * (n + 3) * _EPS * s * size
        proven = (g * n1 * (1 - 4 * eta)
                  > (policy.phi * (n2 + 2 * _TAU) + g * (dA + 2 * _TAU)) * (1 + 4 * eta) + _SIGMA)
        proven &= ((n2 <= _HUGE) & (size <= _HUGE)
                   & (xn + g * math.sqrt(_vdot(Ax, Ax)) <= _HUGE))
    return proven.tolist()
