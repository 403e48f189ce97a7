"""Inner-product space shared by the solvers, the input checks and the
call convention.

Two concrete spaces are supported: R^n with the usual dot product, and
functions on [0,1] sampled on a uniform grid with the L2 inner product
approximated by composite trapezoid quadrature.

Call convention. `SpaceElement` is the checked point type at the library
boundary: `element`, `zeros`, `problems.initial_points`, a problem's
`x_star` and a config's `x0` and `x1` are SpaceElements. Construction
rejects coordinates that are not real, of another shape than the space's,
or with a NaN or Inf entry. A SpaceElement has no arithmetic. `solve`
checks once that x0 and x1 are set and lie in the problem's space, and
then runs on their float64 `.coords`. Everything below that boundary takes
and returns coordinate arrays: the operators, `projections.project`, the
step-size rules, the scheme steps and the `IterateState` a recording step
returns. Code that needs the geometry takes the SpaceDescriptor (or reads
it from a Ball's centre, a HalfSpace or a RankOneIntegral) and calls its
`inner`/`norm`, or the `bare_inner` it chose once for arrays laid out
alike.

Operators are pure maps: vikit's own check nothing, and a caller's need
not either. vikit's own (`operators.OWN_OPERATORS`) also take an `out`,
into which they write their value, and `inner`, `norm`, the ball and
halfspace projections and the step-size rules take work vectors; a
caller's operator is only ever called with the point. Work vectors
belong to one solve: `algorithms.solve` makes them once, before its
loop, and its step writes every vector it forms into them, so that a
step over a ball allocates nothing (`project` makes a new array for a
box or a halfspace C). None lives on a space, an operator or a
problem, which the plan runner's threads share.

A NaN or Inf raises NonFiniteElementError, and `check_finite`
checks a vector entry by entry in four kinds of place only:
- where a NaN or Inf would otherwise be lost: the point a Box clips
  (clipping maps +-Inf to a bound), the point a HalfSpace projects when
  its residual is not finite (a residual of -Inf would keep it as a
  member) and each new iterate x_{k+1};
- every operator value `problems.certify` reads: each block of sampled A
  or T values (`operators._rows`, for vikit's operators and a caller's
  alike) and A(x*) in the VI residual;
- the SpaceElement boundary;
- every norm. `SpaceDescriptor.norm` raises on such an entry, so a norm
  that feeds a comparison or a min (the inertial weight, the adaptive
  step, the Armijo test, D_k, the fixed-point residual of T(x*)) cannot
  pass a NaN over.
So every set rejects a point with such an entry: a Box checks it before
clipping, a Ball when its norm of x - center raises, and a HalfSpace when
its residual is not finite; only a halfspace with a zero normal, the
whole space, returns it as it is. Every other vector, operator values
included, goes unchecked: a NaN or Inf in it reaches x_{k+1} or a norm
and raises there, at the same k (as SolveError, from `solve`). In the
Armijo search a non-finite trial point raises in the projection, or makes
y non-finite, and the trial's ||x - y|| raises. A failing step may thus
emit numpy RuntimeWarnings before it raises. tests/step_oracle.py keeps a
step that checks every vector and operator value, and
tests/armijo_oracle.py a search that does; property tests check that the
library gives the same rows bit for bit, or the same error at the same k.

`check_finite` sums squares with np.vdot, not with `@` or `dot`: all three
overflow on finite entries past ~1e154, but vdot does so silently, while
the others warn, and a warnings filter set to "error" (as the test
suite's is) would turn that warning into an exception on a finite vector.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

# np.vdot without its __array_function__ dispatch, which is 0.4 us of its
# 1.4 us at n = 100. The attribute is private, so a numpy without it gets
# np.vdot itself.
_vdot = getattr(np.vdot, "_implementation", np.vdot)


class SpaceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    GRID_L2 = "grid_l2"


class ConfigError(ValueError):
    """Input rejected: a field of the wrong type, outside its interval or
    in another space."""


class SpaceMismatchError(ConfigError):
    """Raised when a value does not lie in the space it is meant for."""


class NonFiniteElementError(ValueError):
    """Raised when an element would contain NaN or Inf entries."""


_REALS = (int, float, np.integer, np.floating)
_INTEGERS = (int, np.integer)
# the reals that may lie past float64's largest, which a Python float compares
# with exactly; every other real below inf is a finite float64
_WIDE, _FLOAT_MAX = (int, np.longdouble), float(np.finfo(np.float64).max)


def check_field(name: str, value, lo: float, hi: float = math.inf, *,
                lo_open: bool = False, integer: bool = False):
    """value itself, when it is a real number (with `integer`, an integer)
    between lo and hi. numpy scalars count; bools, strings, None and NaN do
    not, and a real number is one that converts to a finite float64, so
    10**400 or a longdouble past 1.8e308 is none, while an integer keeps
    its exact value. The upper end is open; the lower end is open when
    `lo_open` is set or it is infinite. Anything else raises ConfigError
    naming the field, the interval and the value, and a real number past
    float64's range as not a finite float64.

    This is the one statement of every numeric input rule of the library.
    It runs where a value enters, never per iteration: a call takes ~0.4 us
    on a 2-core Xeon, an inline comparison ~0.04 us."""
    lo_open = lo_open or lo == -math.inf
    wide = not integer and isinstance(value, _WIDE) and not -_FLOAT_MAX <= value <= _FLOAT_MAX
    if (isinstance(value, _INTEGERS if integer else _REALS) and not isinstance(value, bool)
            and (lo < value if lo_open else lo <= value) and value < hi and not wide):
        return value
    interval = f"{'(' if lo_open else '['}{lo:g},{hi:g})"
    kind = "an integer" if integer else "a finite float64" if wide else "a real number"
    raise ConfigError(f"{name} must be {kind} in {interval}, got {value!r}")


def check_type(name: str, value, kind):
    """value itself, when it is an instance of kind (a type or a tuple of
    types); anything else raises ConfigError naming the field, the kind and
    the value. This is the one statement of every type rule of the library."""
    if isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise ConfigError(f"{name} must be of type {names}, got {value!r}")


def check_space(name: str, value, space: SpaceDescriptor):
    """value itself, when it lies in space: an object whose `.space` is
    space (a SpaceElement, a HalfSpace) or an array of shape (space.dim,).
    Anything else raises SpaceMismatchError naming the field, where the
    value lies and the space. This is the one statement of the space rule.

    Like check_field it runs where a value enters. A guard that runs every
    step compares the shape inline and calls this only to raise."""
    own = getattr(value, "space", None)
    if own == space if own is not None else np.shape(value) == (space.dim,):
        return value
    where = f"in {own}" if own is not None else f"of shape {np.shape(value)}"
    raise SpaceMismatchError(f"{name} must lie in {space}, got a value {where}")


class _RealKind(type):
    def __instancecheck__(cls, value) -> bool:
        try:
            arr = np.asarray(value)
        except ValueError:  # a ragged list
            return False
        if arr.dtype.kind not in "iuf":
            return False
        # the sum of squares is NaN exactly when an entry is (its terms
        # cannot cancel), and costs a quarter of np.isnan(arr).any()
        return cls is Reals or (arr.ndim <= 1 and arr.size > 0 and not math.isnan(_vdot(arr, arr)))


class Reals(metaclass=_RealKind):
    """The kind, for check_type, of a real number or an array or nested
    list of them, of any shape: integer or float dtype, NaN and Inf
    included. Bools, strings, complex numbers, objects and ragged lists
    are not real. This is the one statement of what a real array is."""


class RealArray(metaclass=_RealKind):
    """The kind of a Reals value of one dimension at most, not empty, with
    no NaN entry, such as a Box bound."""


@dataclass(frozen=True)
class SpaceDescriptor:
    """Identifies a space and its dimension.

    For GRID_L2 the dimension is the number of grid nodes t_i = i/(dim-1)
    on [0,1]; at least two nodes are required.
    """

    kind: SpaceKind
    dim: int

    def __repr__(self) -> str:
        return f"{self.kind.value}({self.dim})"

    def __post_init__(self):
        check_field("dim", self.dim, 2 if self.kind is SpaceKind.GRID_L2 else 1, integer=True)

    @cached_property
    def grid(self) -> np.ndarray:
        """Grid nodes; built once per descriptor and read-only."""
        if self.kind is not SpaceKind.GRID_L2:
            raise ValueError("grid nodes only exist for GRID_L2 spaces")
        return _read_only(np.linspace(0.0, 1.0, self.dim))

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Inner-product weights: all ones for Euclidean, trapezoid for L2.
        Built once per descriptor and read-only."""
        if self.kind is SpaceKind.EUCLIDEAN:
            return _read_only(np.ones(self.dim))
        h = 1.0 / (self.dim - 1)
        w = np.full(self.dim, h)
        w[0] = w[-1] = 0.5 * h
        return _read_only(w)

    @cached_property
    def sqrt_min_weight(self) -> float:
        """sqrt(min quad_weights), the Armijo screen's s; built once per
        descriptor."""
        return math.sqrt(self.quad_weights.min())

    def inner(self, a: np.ndarray, b: np.ndarray, work: Optional[np.ndarray] = None) -> float:
        """Inner product of two coordinate arrays; trapezoid quadrature of
        a*b in the GRID_L2 case. In R^n it is a @ b, whose bits a.dot(b)
        gives wherever dot_agrees(a, b): a solve takes dot through
        `bare_inner`. On a grid the weighted product w*a*b is formed in
        `work`, an n-vector that is neither a nor b, when one is given, and
        in a new array otherwise; R^n needs none and ignores it."""
        if self.kind is SpaceKind.EUCLIDEAN:
            return float(a @ b)
        # np.sum's pairwise sum without its Python wrapper
        return float(np.add.reduce(np.multiply(np.multiply(self.quad_weights, a, work), b, work)))

    def norm(self, a: np.ndarray, work: Optional[np.ndarray] = None) -> float:
        """sqrt(inner(a, a)); raises NonFiniteElementError when a has a NaN
        or Inf entry. The weights are positive, so such an entry always
        makes the sum of squares non-finite, and only then is a checked
        entry by entry. A sum that overflows on finite entries (past
        ~1.3e154) is taken again on a / max|a|, so a finite array has a
        finite norm unless the norm itself exceeds the largest float. A
        C-contiguous array in R^n takes a.dot(a), which gives inner's bits
        (a square has no -0.0 to keep, so one entry needs no @).

        So wherever inner(a, a) is finite the norm is math.sqrt of it, bit
        for bit, as a caller that holds inner may compute it itself. `work`
        is passed to inner."""
        if self.kind is SpaceKind.EUCLIDEAN and a.flags.c_contiguous:
            sq = float(a.dot(a))
        else:
            sq = self.inner(a, a, work)
        if not math.isfinite(sq):
            check_finite(a)
            big = float(np.abs(a).max())
            b = a / big
            return big * math.sqrt(self.inner(b, b))
        return math.sqrt(sq)

    def bare_inner(self, *arrays):
        """inner, for a caller that passes it only C-contiguous arrays of
        this space, as `arrays` are: in R^n, when dot_agrees(*arrays),
        np.ndarray.dot itself, whose numpy float has inner's bits (a numpy
        float warns on an overflow where a float does not, so convert it
        before dividing), and inner otherwise; on a grid, inner bound to a
        work vector of its own, made here, so that a call allocates
        nothing. Chosen once, it spares each call the tests of inner; made
        once per solve, its work vector is never shared between threads."""
        if self.kind is not SpaceKind.EUCLIDEAN:
            return functools.partial(self.inner, work=np.empty(self.dim))
        return np.ndarray.dot if dot_agrees(*arrays) else self.inner

    def row_inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Inner products of the matching rows of two (m, n) blocks, as an
        (m,) array: each row of a*b weighted by quad_weights and summed.
        Each agrees with `inner` on that pair of rows up to rounding."""
        return (a * b) @ self.quad_weights


def dot_agrees(*arrays) -> bool:
    """Whether dot gives @'s bits on these arrays, and on any others laid
    out alike: each is C-contiguous with more than one entry. On such
    operands a.dot(b) and a @ b (a vector's ddot, a matrix's dgemv) reach
    the same BLAS call, and dot costs about half as much. On a negative
    stride @ does not call BLAS and sums in another order, and dot
    multiplies one-element arrays directly, keeping a -0.0 that the sum
    from +0.0 drops; those keep @. This is the one statement of the rule;
    `operators.AffineMatrix.__call__` tests it inline, where a call would
    cost more than the test."""
    return all(a.size > 1 and a.flags.c_contiguous for a in arrays)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_finite(v: np.ndarray) -> np.ndarray:
    """v itself, once it is known to hold no NaN or Inf entry; raises
    NonFiniteElementError otherwise."""
    # np.vdot(v, v), the sum of squares over every entry of v (a point or a
    # block of rows), is non-finite whenever v has a non-finite entry (its
    # terms are squares, so nothing cancels) and is the cheapest reduction
    # with that property. It also overflows (silently, unlike v @ v and
    # v.dot(v), whose overflow warning a warnings filter can turn into an
    # exception) on finite entries above ~1e154, so a non-finite result is
    # confirmed entry by entry.
    if not math.isfinite(_vdot(v, v)) and not np.isfinite(v).all():
        raise NonFiniteElementError("element contains non-finite entries")
    return v


def euclidean(n: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.EUCLIDEAN, n)


def grid_l2(n_grid: int) -> SpaceDescriptor:
    return SpaceDescriptor(SpaceKind.GRID_L2, n_grid)


@dataclass(frozen=True)
class SpaceElement:
    """A point of a space: a coordinate vector plus its descriptor. A space
    that is not a SpaceDescriptor, or coordinates that are not Reals, raise
    ConfigError naming it.

    Immutable; the underlying array is never mutated after construction.
    """

    coords: np.ndarray = field(repr=False)
    space: SpaceDescriptor

    def __post_init__(self):
        space = check_type("space", self.space, SpaceDescriptor)
        coords = np.asarray(check_type("coords", self.coords, Reals), dtype=float)
        arr = check_space("coords", coords, space)
        object.__setattr__(self, "coords", _read_only(check_finite(arr).copy()))


def element(space: SpaceDescriptor, coords) -> SpaceElement:
    return SpaceElement(coords, space)


def zeros(space: SpaceDescriptor) -> SpaceElement:
    """The origin of space; a space that is not a SpaceDescriptor raises
    ConfigError naming space."""
    return SpaceElement(np.zeros(check_type("space", space, SpaceDescriptor).dim), space)


def inner(a: SpaceElement, b: SpaceElement) -> float:
    """Inner product; trapezoid quadrature of a*b in the GRID_L2 case."""
    return a.space.inner(a.coords, check_space("b", b, a.space).coords)


def norm(a: SpaceElement) -> float:
    return a.space.norm(a.coords)
