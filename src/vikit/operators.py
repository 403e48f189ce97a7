"""Evaluable operators and empirical class-membership checks.

Concrete maps: affine Gx + f, coordinatewise positive part, scalar
scaling, and the rank-one integral map t -> t * integral(x). Each maps a
coordinate array to a new coordinate array, and an (m, n) block of rows
to the block of its values row by row; given an `out` of the value's
shape, which must not be x, it writes the value there, bit for bit the
same, and returns out. They are pure maps: where a NaN or Inf value is
checked follows the `space` module's call convention.
Monotonicity and demicontractivity are certified by seeded sampling,
which evaluates these four maps once per block of samples and any other
callable one point at a time; demiclosedness is a declared property and
is not checked here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from .space import (ConfigError, SpaceDescriptor, SpaceElement, SpaceKind, _read_only,
                    Reals, check_field, check_finite, check_space, check_type, dot_agrees,
                    euclidean)


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


_PROBE_MIN_NORM = 2.0 ** -400


@dataclass(frozen=True)
class AffineMatrix:
    """x -> G x + f. G is a real square matrix and f, when set, a
    SpaceElement of G's size (ConfigError naming the field otherwise).

    `frobenius` is ||G||_F, computed once here. It bounds the Lipschitz
    constant ||G||_2 from above, and it bounds how far a computed A(y)
    lies from the exact Gy + f: every entry is a sum of n + 1 terms, so in
    any order |fl(Gy + f) - (Gy + f)| <= g_{n+1} (|G||y| + |f|) entrywise,
    g_m = m u / (1 - m u) with u = 2^-53, and in the Euclidean norm
    ||fl(Gy + f) - (Gy + f)|| <= g_{n+1} (||G||_F ||y|| + ||f||), because
    || |G||y| || <= || |G| ||_F ||y|| = ||G||_F ||y||.

    `probe` is w / ||u|| with u = G 1 and w = G^T u, both computed once
    here: an n-vector with ||G d|| >= |<G^T u, d>| / ||u|| for every d
    (Cauchy-Schwarz on <u, G d>), so one dot product bounds ||G d|| from
    below. Any u serves; G 1 leans towards G's dominant direction when G's
    entries are mostly positive, as ex1's are. For the computed u, the
    computed w lies within g_n ||G||_F ||u|| of G^T u, so
    ||w|| <= (1 + g_n) ||G||_F ||u||. `probe` is None when ||G||_F or ||u||
    is not finite, ||u|| < 2^-400 (its sum of squares may have lost
    digits to underflow) or the probe is zero or not finite. `f_norm` is
    the computed Euclidean norm of f (0 without f), also taken once here.
    The screened Armijo search (`stepsize.armijo_search`) rests on these
    bounds and reads all three."""

    G: np.ndarray
    f_vec: Optional[SpaceElement] = None
    frobenius: float = field(init=False, repr=False, compare=False)
    f_norm: float = field(init=False, repr=False, compare=False)
    probe: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G = np.asarray(check_type("G", self.G, Reals), dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ConfigError(f"G must be a square matrix, got shape {G.shape}")
        f = self.f_vec
        if f is not None:
            check_space("f_vec", check_type("f_vec", f, SpaceElement).coords, euclidean(len(G)))
        object.__setattr__(self, "G", G)
        # entries past ~1e154 overflow these sums to inf, and a zero u
        # divides 0 by 0; either leaves the probe out
        with np.errstate(all="ignore"):
            frobenius = float(np.linalg.norm(G))
            f_norm = 0.0 if f is None else math.sqrt(np.vdot(f.coords, f.coords))
            u = G.sum(axis=1)
            u_norm = float(np.linalg.norm(u))
            probe = (G.T @ u) / u_norm
        usable = (frobenius < math.inf and _PROBE_MIN_NORM <= u_norm < math.inf
                  and np.isfinite(probe).all() and probe.any())
        object.__setattr__(self, "frobenius", frobenius)
        object.__setattr__(self, "f_norm", f_norm)
        object.__setattr__(self, "probe", _read_only(probe) if usable else None)

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        G = self.G
        if G.shape[0] != x.shape[-1]:
            check_space("x", x, euclidean(G.shape[0]))
        if x.ndim != 1:
            # a block as X @ G.T: (G @ X.T).T, the same map without a
            # branch, made certify at n = 2000 1.8x slower
            y = np.matmul(x, G.T, out)
        elif x.size > 1 and x.flags.c_contiguous and G.flags.c_contiguous:  # dot_agrees(G, x)
            # G.dot(x) spares matmul's ufunc dispatch (~1 us at n = 100)
            y = G.dot(x, out)
        else:
            y = np.matmul(G, x, out)
        if self.f_vec is None:
            return y
        return np.add(y, self.f_vec.coords, out)


def bare_map(op, *points):
    """op, for a caller that passes it only C-contiguous points of its
    space, as `points` are. When op is exactly an AffineMatrix (a subclass
    may override __call__) and dot_agrees(G, *points), this is G.dot, plus
    f where set as __call__ adds it: op's bits without its checks, chosen
    once, taking __call__'s `out` as its second argument. Any other op is
    itself."""
    if type(op) is not AffineMatrix or not dot_agrees(op.G, *points):
        return op
    dot, f = op.G.dot, op.f_vec
    return dot if f is None else lambda x, out=None, f=f.coords: np.add(dot(x, out), f, out)


@dataclass(frozen=True)
class PositivePart:
    """x -> max(x, 0) coordinatewise; NaN stays NaN, -Inf gives 0."""

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # against a zero row numpy takes its contiguous loop; against the
        # scalar 0.0 it took 3x as long at 10001 nodes, with the same bits
        return np.maximum(x, _zero_row(x.shape[-1]), out=out)


@functools.lru_cache(maxsize=16)
def _zero_row(n: int) -> np.ndarray:
    return _read_only(np.zeros(n))


@dataclass(frozen=True)
class Scale:
    """x -> c x. `factor` is c as a read-only 0-d float64 array, made once
    here, which every evaluation multiplies by: numpy gives a float vector
    the same bits either way, but in 0.35 us against 0.53 us for a Python
    float (n = 100, 2-core Xeon, numpy 2.4)."""

    c: float
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_field("c", self.c, -math.inf)
        object.__setattr__(self, "factor", _read_only(np.array(self.c, dtype=float)))

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.multiply(self.factor, x, out)


@dataclass(frozen=True)
class RankOneIntegral:
    """x -> (t -> t * integral of x over [0,1]) on a GRID_L2 space; any
    other space is a ConfigError."""

    space: SpaceDescriptor

    def __post_init__(self):
        if check_type("space", self.space, SpaceDescriptor).kind is not SpaceKind.GRID_L2:
            raise ConfigError(f"space must be a grid_l2 space, got {self.space}")
        # the grid is built here, with the problem: built first inside
        # certify's blocks, it left ex2-g10001 solving ~3.5% slower (median
        # of 6 perfbench runs on a 2-core Xeon), from where it sat in the heap
        self.space.grid

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # out holds the weighted x until the integral is taken
        weighted = np.multiply(self.space.quad_weights, x, out)
        return np.multiply(np.add.reduce(weighted, axis=-1, keepdims=True), self.space.grid, out)


def spectral_norm(G: np.ndarray) -> float:
    """||G|| via power iteration on G^T G, to a relative change of 1e-10
    within 10000 iterations."""
    G = np.asarray(G, dtype=float)
    GtG = G.T @ G
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(G.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(10_000):
        w = GtG @ v
        nw = np.linalg.norm(w)  # Rayleigh-quotient-style estimate of the top eigenvalue
        if nw == 0.0:
            return 0.0
        v = w / nw
        if abs(nw - est) <= 1e-10 * max(nw, 1e-300):
            return float(np.sqrt(nw))
        est = nw
    raise PowerIterationError("power iteration did not converge in 10000 iterations",
                              best_estimate=float(np.sqrt(est)))


def estimate_lipschitz(op) -> float:
    """Lipschitz constant of an affine map x -> Gx + f: the spectral norm of G.

    Other maps raise ConfigError; a sampled ratio would only bound L from
    below, so their problems must state L themselves."""
    return spectral_norm(check_type("op", op, AffineMatrix).G)


# Every certification check draws CERTIFY_SAMPLES samples, each a point
# (or a pair of points) uniform on [-5, 5]^n, from a generator seeded with
# 0, and allows CERTIFY_TOL of slack. It draws and evaluates them m at a
# time, with m * n floats taking at most CERTIFY_BLOCK_BYTES, so that one
# product serves many samples; a block of pairs holds two such arrays.
# The cap was measured, not derived: at 120 KiB per kind of point (m = 1
# on a 10001-node grid, m = 7 at n = 2000) perfbench's ex2-g10001 certify
# did not page-fault, while with 256 KiB counted over both points of a
# pair its demicontractivity check page-faulted ~9500 times per call and
# ran slower than one sample at a time.
# For exactly an AffineMatrix, check_monotone takes blocks of at least
# n // AFFINE_BLOCK_DIVISOR pairs, as each block reads all of G: 62 pairs
# at n = 2000, so G is read 4 times instead of 29, and the check took
# 0.054 s instead of 0.116 s (median of 7, one BLAS thread, 2-core Xeon).
# Below n ~ 700 the blocks are the cap's (38 pairs at n = 400, 153 at 100).
CERTIFY_SAMPLES = 200
CERTIFY_TOL = 1e-10
CERTIFY_BLOCK_BYTES = 120 << 10
AFFINE_BLOCK_DIVISOR = 32
# how far T may move the point that certify and check_demicontractive
# take as its fixed point
FIXED_POINT_TOL = 1e-10

# vikit's own operators, whose __call__ maps a block of rows and takes an
# optional out; a subclass may override __call__ for one point, so the type
# must match exactly
OWN_OPERATORS = (AffineMatrix, PositivePart, Scale, RankOneIntegral)


@dataclass(frozen=True)
class SampleCheck:
    """Outcome of a sampled check, true iff every sample passed.

    `failed_at` is the index of the first failing sample (where a check
    that evaluates one sample at a time stops) and `value` the quantity
    tested there; both are None when every sample passed."""

    failed_at: Optional[int] = None
    value: Optional[float] = None

    def __bool__(self) -> bool:
        return self.failed_at is None


def _rows(op, X: np.ndarray, name: str, space: SpaceDescriptor) -> np.ndarray:
    """op at each row of the (m, n) block X: one call for vikit's own
    operators, one call per row for any other callable, which is never
    handed more than one point. A value that does not lie in space raises
    SpaceMismatchError naming it name(x), before any arithmetic on it; the
    values are checked for NaN and Inf, as the `space` module's call
    convention says."""
    values = op(X) if type(op) in OWN_OPERATORS else np.stack([op(x) for x in X])
    if values.shape != X.shape:  # every row has the first one's shape
        check_space(f"{name}(x)", values[0], space)
    return check_finite(values)


def _sample_blocks(dim: int, points: int, least: int = 1) -> Iterator[Tuple[int, np.ndarray]]:
    """(index of the block's first sample, block) over the CERTIFY_SAMPLES
    samples of `points` points each. A block has shape (m, points, dim),
    where m is the largest count whose m * dim floats take at most
    CERTIFY_BLOCK_BYTES, or `least` where that is more, and holds the
    draws a sample-by-sample loop makes, in its order."""
    rng = np.random.default_rng(0)
    m = max(1, least, CERTIFY_BLOCK_BYTES // (8 * dim))
    for start in range(0, CERTIFY_SAMPLES, m):
        yield start, rng.uniform(-5.0, 5.0, (min(m, CERTIFY_SAMPLES - start), points, dim))


def _first_failure(start: int, failed: np.ndarray, value: np.ndarray) -> SampleCheck:
    bad = np.flatnonzero(failed)
    if bad.size == 0:
        return SampleCheck()
    return SampleCheck(start + int(bad[0]), float(value[bad[0]]))


# Each check loops over its blocks in its own body. With a block's work
# moved into a function called once per block, the same arithmetic freed
# its arrays in another order, and in perfbench's ex2-g10001 process glibc
# then returned and re-faulted ~9000 pages per certify (setup_s 1.18x the
# parent's, against 0.92x as written here).


def check_monotone(op, space: SpaceDescriptor) -> SampleCheck:
    """Sampled check of <op(x) - op(y), x - y> >= -CERTIFY_TOL; a failing
    sample's value is that inner product. An op value that does not lie in
    space raises SpaceMismatchError naming it A(x), as the operator of the
    VI is named.

    Each block of pairs is evaluated with one call of `op` (see `_rows`),
    so an `op` that raises on some sample raises here even when an earlier
    sample of its block fails; a block of exactly an AffineMatrix holds at
    least n // AFFINE_BLOCK_DIVISOR pairs. The block sums in another order
    than a one-sample-at-a-time loop (`row_inner` against `inner`), so the
    two can disagree on a sample whose value lies within rounding of
    -CERTIFY_TOL, and only there."""
    least = space.dim // AFFINE_BLOCK_DIVISOR if type(op) is AffineMatrix else 1
    for start, XY in _sample_blocks(space.dim, 2, least):
        AXY = _rows(op, XY.reshape(-1, space.dim), "A", space).reshape(XY.shape)
        value = space.row_inner(AXY[:, 0] - AXY[:, 1], XY[:, 0] - XY[:, 1])
        check = _first_failure(start, value < -CERTIFY_TOL, value)
        if not check:
            return check
    return SampleCheck()


def check_demicontractive(op, lam: float, fixed_point: SpaceElement) -> SampleCheck:
    """Sampled check of ||Tx - z||^2 <= ||x - z||^2 + lam ||x - Tx||^2
    (+ CERTIFY_TOL) about the fixed point z; a failing sample's value is
    ||Tx - z||^2 - ||x - z||^2 - lam ||x - Tx||^2. Blocks are evaluated as
    in `check_monotone`, and the squared norms are `row_inner`s where a
    one-at-a-time loop squares `norm`s, so the two can disagree on a sample
    whose value lies within rounding of +CERTIFY_TOL, and only there. An op
    value that does not lie in z's space raises SpaceMismatchError naming
    it T(z) or T(x)."""
    space, z = fixed_point.space, fixed_point.coords
    if space.norm(check_space("T(z)", op(z), space) - z) > FIXED_POINT_TOL:
        raise ValueError("provided point is not a fixed point of the operator")

    def sq(d):
        return space.row_inner(d, d)

    for start, X in _sample_blocks(space.dim, 1):
        X = X[:, 0]
        TX = _rows(op, X, "T", space)
        lhs = sq(TX - z)
        rhs = sq(X - z) + lam * sq(X - TX)
        check = _first_failure(start, lhs > rhs + CERTIFY_TOL, lhs - rhs)
        if not check:
            return check
    return SampleCheck()
