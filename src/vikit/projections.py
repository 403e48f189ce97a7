"""Metric projections onto the feasible sets used by the solvers.

Closed-form projectors for boxes, balls and halfspaces. Points are
coordinate arrays; a ball or halfspace carries the space whose norm the
projection is taken in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .space import (ConfigError, NonFiniteElementError, RealArray, Reals, SpaceDescriptor,
                    SpaceElement, check_field, check_finite, check_space, check_type, euclidean)

# numpy keeps one dtype object per built-in type, so every float64 array's
# dtype is this object
_F64 = np.dtype(float)

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
    number or an array of them, and may be infinite but not NaN; an upper
    bound below its lower one is also a ConfigError."""

    lower: Union[float, np.ndarray]
    upper: Union[float, np.ndarray]

    def __post_init__(self):
        check_type("lower", self.lower, RealArray)
        check_type("upper", self.upper, RealArray)
        if not np.all(np.asarray(self.lower) <= np.asarray(self.upper)):
            raise ConfigError(f"upper must be at least lower coordinatewise, got lower="
                              f"{self.lower!r}, upper={self.upper!r}")


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
    shape (ConfigError naming the field otherwise).

    A zero normal is the degenerate case and denotes the whole space.
    Not frozen: a halfspace scheme builds one every step, and a frozen
    dataclass takes twice as long to build (0.9 against 0.46 us).
    """

    normal: np.ndarray
    anchor: np.ndarray
    space: SpaceDescriptor

    def __post_init__(self):
        # the inline dtype and shape test is the per-step guard; anything
        # else, a non-array or a non-space among them, takes the checks'
        # path, where check_type or check_space names it
        try:
            if (self.normal.dtype is _F64 is self.anchor.dtype
                    and self.normal.shape == (self.space.dim,) == self.anchor.shape):
                return
        except AttributeError:
            pass
        check_type("space", self.space, SpaceDescriptor)
        for name in ("normal", "anchor"):
            value = check_type(name, check_type(name, getattr(self, name), np.ndarray), Reals)
            check_space(name, value, self.space)


FeasibleSet = Union[Box, Ball, HalfSpace]


def project(s: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """Nearest point of the set in the space's norm. Returns x itself when
    it already lies in a ball or halfspace.

    A box or ball rejects a point with a NaN or Inf entry
    (NonFiniteElementError): clipping would map it to a bound, and the
    ball checks x when its norm of x - center raises, as every norm does
    on such an entry; a finite x whose x - center overflows is kept when
    it lies within the radius and projected otherwise.
    A halfspace passes such an entry of x on to its result, as NaN or Inf.
    A point that does not fit the set's space, or a box's bounds, raises
    SpaceMismatchError."""
    if isinstance(s, Box):  # a box has no space of its own
        y = clip_ufunc(check_finite(x), s.lower, s.upper)
        if y.shape != x.shape:  # bounds of another shape broadcast x to theirs
            check_space("x", x, euclidean(y.size))
        return y
    if isinstance(s, Ball):
        sp = s.center.space
        if x.shape != (sp.dim,):
            check_space("x", x, sp)
        c = s.center.coords
        try:
            d = x - c
            dist = sp.norm(d)
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
        return c + (s.radius / dist) * d
    # halfspace: one-step orthogonal correction. A NaN or Inf entry of x is
    # returned or turned into NaN; only a non-finite normal could pass a
    # finite x as a member (viol = -Inf), and a step's normal is finite when
    # its trial point is, as the box check and the ball's norm ensure
    sp, normal = s.space, s.normal
    if x.shape != normal.shape:  # the normal has the space's shape
        check_space("x", x, sp)
    nn = sp.inner(normal, normal)
    if nn == 0.0:
        if not normal.any():
            return x
        # <normal, normal> underflowed (entries below ~1e-162): the same
        # halfspace with the normal divided by its largest |entry|
        return project(HalfSpace(normal / np.abs(normal).max(), s.anchor, sp), x)
    d = x - s.anchor
    viol = sp.inner(normal, d)  # halfspace_residual(s, x)
    if viol <= 0.0:
        return x
    if not (math.isfinite(nn) and math.isfinite(viol)):
        # past ~1e154 the inner products overflow on finite vectors; take
        # them again on the vectors divided by their largest |entry|, as
        # SpaceDescriptor.norm does. A non-finite vector keeps the NaN.
        if np.isfinite(normal).all() and np.isfinite(d).all():
            a = normal / np.abs(normal).max()
            scale = float(np.abs(d).max())
            viol = sp.inner(a, d / scale)
            if viol <= 0.0:
                return x
            return x - (scale * (viol / sp.inner(a, a))) * a
    return x - (viol / nn) * normal


def halfspace_residual(s: HalfSpace, x: np.ndarray) -> float:
    """<normal, x - anchor>; nonpositive iff x belongs to the halfspace."""
    return s.space.inner(s.normal, x - s.anchor)
