"""Subclasses of vikit's own operator and set that override their call.

A subclass of one of vikit's own types is a caller's operator or set:
vikit may call it, but must not read its map from its parts (G, the
probe, the bounds), which the override need not follow.
"""

import numpy as np

from vikit.operators import AffineMatrix
from vikit.projections import Box


class Damped(AffineMatrix):
    """x -> 1e-3 (Gx + f): G and the probe are not this map's."""

    def __call__(self, x, out=None):
        return 1e-3 * super().__call__(x)


class HalvedBox(Box):
    """Projects x to half its clip to the box: the bounds are not this
    projection's."""

    def project(self, x, out=None, work=None):
        return np.multiply(0.5, super().project(x), out)
