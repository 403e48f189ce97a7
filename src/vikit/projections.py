"""Metric projections onto the feasible sets used by the solvers.

Closed-form projectors for boxes, balls and halfspaces. Points are
coordinate arrays; a ball or halfspace carries the space whose norm the
projection is taken in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .space import SpaceDescriptor, SpaceElement, SpaceMismatchError, check_finite


@dataclass(frozen=True)
class Box:
    """{x : lower <= x_i <= upper} coordinatewise. Bounds may be scalars
    or infinite, but not NaN."""

    lower: Union[float, np.ndarray]
    upper: Union[float, np.ndarray]

    def __post_init__(self):
        # a NaN bound compares False too, so it is rejected here as well
        if not np.all(np.asarray(self.lower) <= np.asarray(self.upper)):
            raise ValueError("box requires lower <= upper coordinatewise, "
                             "with no NaN bound")


@dataclass(frozen=True)
class Ball:
    center: SpaceElement
    radius: float

    def __post_init__(self):
        if not self.radius > 0:  # also rejects NaN
            raise ValueError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class HalfSpace:
    """{x : <normal, x - anchor> <= 0} in the given space.

    A zero normal is the degenerate case and denotes the whole space.
    """

    normal: np.ndarray
    anchor: np.ndarray
    space: SpaceDescriptor

    def __post_init__(self):
        shape = (self.space.dim,)
        if self.normal.shape != shape or self.anchor.shape != shape:
            raise SpaceMismatchError("halfspace normal and anchor must have the "
                                     f"space's shape {shape}")


FeasibleSet = Union[Box, Ball, HalfSpace]


def project(s: FeasibleSet, x: np.ndarray) -> np.ndarray:
    """Nearest point of the set in the space's norm. Returns x itself when
    it already lies in a ball or halfspace."""
    if isinstance(s, Box):  # a box has no space of its own
        return np.clip(x, s.lower, s.upper)
    sp = s.center.space if isinstance(s, Ball) else s.space
    if x.shape != (sp.dim,):
        raise SpaceMismatchError("point and set live in different spaces")
    if isinstance(s, Ball):
        c = s.center.coords
        d = check_finite(x - c)
        dist = sp.norm(d)
        if dist <= s.radius:
            return x
        return check_finite(c + (s.radius / dist) * d)
    # halfspace: one-step orthogonal correction
    nn = sp.inner(s.normal, s.normal)
    if nn == 0.0:
        return x
    viol = halfspace_residual(s, x)
    if viol <= 0.0:
        return x
    return check_finite(x - (viol / nn) * s.normal)


def halfspace_residual(s: HalfSpace, x: np.ndarray) -> float:
    """<normal, x - anchor>; nonpositive iff x belongs to the halfspace."""
    return s.space.inner(s.normal, check_finite(x - s.anchor))
