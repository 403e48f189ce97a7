"""Metric projections onto the feasible sets used by the solvers.

Closed-form projectors for boxes, balls and halfspaces. Points are
coordinate arrays; a ball or halfspace carries the space whose norm the
projection is taken in. `project` makes a new array for a point it
moves; `project_ball` and `project_halfspace`, which a scheme's step
calls directly, write it into a caller's work vector instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .space import (ConfigError, NonFiniteElementError, RealArray, SpaceDescriptor,
                    SpaceElement, check_field, check_finite, check_space, check_type, euclidean)

# numpy's clip ufunc. For float arrays with both bounds set, as a Box's
# always are, np.clip is a Python wrapper that calls it: 5.3 us per call
# against 1.0 us for the ufunc at n = 100 (2-core Xeon, numpy 2.4). The
# ufunc's module is private, so a numpy that moves it gets np.clip back.
try:
    from numpy._core.umath import clip as clip_ufunc
except ImportError:
    try:  # numpy < 2
        from numpy.core.umath import clip as clip_ufunc
    except ImportError:
        clip_ufunc = np.clip


@dataclass(frozen=True)
class Box:
    """{x : lower <= x_i <= upper} coordinatewise. Each bound is a real
    number or a non-empty array of them, and may be infinite but not NaN;
    an upper bound below its lower one is also a ConfigError. `shape` is the shape
    the bounds broadcast to: () for scalar bounds, (n,) otherwise."""

    lower: Union[float, np.ndarray]
    upper: Union[float, np.ndarray]
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_type("lower", self.lower, RealArray)
        check_type("upper", self.upper, RealArray)
        try:
            shape = np.broadcast_shapes(np.shape(self.lower), np.shape(self.upper))
        except ValueError:
            raise ConfigError(f"upper must broadcast with lower's shape {np.shape(self.lower)}, "
                              f"got shape {np.shape(self.upper)}") from None
        if not np.all(np.asarray(self.lower) <= np.asarray(self.upper)):
            raise ConfigError(f"upper must be at least lower coordinatewise, got lower="
                              f"{self.lower!r}, upper={self.upper!r}")
        object.__setattr__(self, "shape", shape)


@dataclass(frozen=True)
class Ball:
    center: SpaceElement
    radius: float

    def __post_init__(self):
        check_type("center", self.center, SpaceElement)
        check_field("radius", self.radius, 0.0, lo_open=True)


@dataclass
class HalfSpace:
    """{x : <normal, x - anchor> <= 0} in the given space. The space is a
    SpaceDescriptor, and the normal and the anchor are real arrays of its
    shape with no NaN entry (ConfigError naming the field otherwise).

    A zero normal is the degenerate case and denotes the whole space.
    A scheme's step projects with `project_halfspace` directly and builds
    none: only a step called on its own (`algorithms.step_alg1` and its
    kind) hands out the halfspace it formed.
    """

    normal: np.ndarray
    anchor: np.ndarray
    space: SpaceDescriptor

    def __post_init__(self):
        check_type("space", self.space, SpaceDescriptor)
        for name in ("normal", "anchor"):
            value = check_space(name, check_type(name, getattr(self, name), np.ndarray), self.space)
            check_type(name, value, RealArray)


FeasibleSet = Union[Box, Ball, HalfSpace]


def project(s: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """Nearest point of the set in the space's norm. Returns x itself when
    it already lies in a ball or halfspace.

    Every set rejects a point with a NaN or Inf entry
    (NonFiniteElementError), except a halfspace with a zero normal, which
    is the whole space: clipping would map it to a bound, the ball checks
    x when its norm of x - center raises, as every norm does on such an
    entry, and the halfspace when its residual is not finite. A finite x
    whose x - center or x - anchor overflows is kept when it lies in the
    set and projected otherwise.
    A point that does not fit the set's space, or a box's shape, raises
    SpaceMismatchError."""
    if isinstance(s, Box):  # a box has no space of its own
        if s.shape not in ((), x.shape):  # clipping would broadcast x and the bounds
            check_space("x", x, euclidean(s.shape[0]))
        return clip_ufunc(check_finite(x), s.lower, s.upper)
    if isinstance(s, Ball):
        return project_ball(s, x)
    if x.shape != s.normal.shape:  # the normal has the space's shape
        check_space("x", x, s.space)
    return project_halfspace(s.space.inner, s.normal, s.anchor, x)


def project_ball(s: Ball, x: np.ndarray, out: Optional[np.ndarray] = None,
                 work: Optional[np.ndarray] = None) -> np.ndarray:
    """project's ball branch; a scheme's step and the Armijo search call it
    directly. `out`, an n-vector, holds x - center and then the nearest
    point when one is given, and `work` is passed to the norm (see
    `SpaceDescriptor.inner`); neither may be x, and x itself is returned
    when it lies in the ball, as by project."""
    sp = s.center.space
    if x.shape != (sp.dim,):
        check_space("x", x, sp)
    c = s.center.coords
    try:
        d = np.subtract(x, c, out)
        dist = sp.norm(d, work)
    except (NonFiniteElementError, RuntimeWarning):
        # x has a NaN or Inf entry, on which check_finite raises, or
        # x - c overflowed on finite points (a RuntimeWarning where
        # warnings are errors). A grid space's weights can still put
        # such an x in the ball, so take the distance on x and c divided
        # by their largest |entry|, as norm rescales, and the nearest
        # point as the convex combination of c and x, which cannot overflow
        scale = max(np.abs(check_finite(x)).max(), np.abs(c).max())
        t = s.radius / scale / sp.norm(x / scale - c / scale)
        return x if t >= 1.0 else (1.0 - t) * c + t * x
    if dist <= s.radius:
        return x
    return np.add(c, np.multiply(s.radius / dist, d, out), out)


def project_halfspace(inner, normal: np.ndarray, anchor: np.ndarray,
                      x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """project's halfspace branch, on the halfspace's parts: inner is its
    space's `inner`, or that space's `bare_inner` for C-contiguous arrays,
    and x lies in the space. A scheme's step calls it directly. `out`, an
    n-vector that is none of x, the normal and the anchor, holds x - anchor
    and then the projection when one is given; the slow path allocates.

    One-step orthogonal correction. A residual that is not finite, from a
    NaN or Inf entry of x or from an overflow on finite vectors, takes the
    slow path below, which checks x."""
    try:
        nn = float(inner(normal, normal))
        if nn == 0.0 and not normal.any():
            return x
        viol = float(inner(normal, np.subtract(x, anchor, out)))  # halfspace_residual
    except RuntimeWarning:  # numpy's overflow or invalid warning, where warnings are errors
        nn = viol = math.nan
    if -math.inf < viol <= 0.0 and nn != 0.0:
        return x
    if 0.0 < nn < math.inf and math.isfinite(viol):
        return np.subtract(x, np.multiply(viol / nn, normal, out), out)
    # x has a NaN or Inf entry, which check_finite rejects, or <normal,
    # normal> underflowed (entries below ~1e-162), or it, x - anchor or
    # <normal, x - anchor> overflowed on finite vectors (past ~1e154): take
    # them again on the normal divided by its largest |entry|, and on x and
    # the anchor divided by the power of two at or below their largest
    # |entry|, which rounds nothing, and scale the nearest point back only
    # at the end, so that nothing overflows before the result does.
    check_finite(x)
    a = normal / np.abs(normal).max()
    scale = math.ldexp(0.5, math.frexp(max(np.abs(anchor).max(), np.abs(x).max()))[1])
    xs = x / scale
    viol = float(inner(a, xs - anchor / scale))
    return x if viol <= 0.0 else scale * (xs - (viol / float(inner(a, a))) * a)


def halfspace_residual(s: HalfSpace, x: np.ndarray) -> float:
    """<normal, x - anchor>; nonpositive iff x belongs to the halfspace."""
    return s.space.inner(s.normal, x - s.anchor)
