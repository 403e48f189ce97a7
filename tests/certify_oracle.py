"""The plain sample-by-sample certification checks, the reference for the tests.

These are `vikit.operators.check_monotone` and `check_demicontractive`
with their samples drawn and evaluated one at a time, stopping at the
first that fails. The block checks must report the same first failing
sample (its index, and its value up to rounding), or none.
"""

import numpy as np

from vikit.operators import CERTIFY_SAMPLES, CERTIFY_TOL


def check_monotone_serial(op, space):
    """(index, <op(x)-op(y), x-y>) of the first failing pair, or None."""
    rng = np.random.default_rng(0)
    for i in range(CERTIFY_SAMPLES):
        x = rng.uniform(-5.0, 5.0, space.dim)
        y = rng.uniform(-5.0, 5.0, space.dim)
        value = space.inner(op(x) - op(y), x - y)
        if value < -CERTIFY_TOL:
            return i, value
    return None


def check_demicontractive_serial(op, lam, fixed_point):
    """(index, ||Tx-z||^2 - ||x-z||^2 - lam ||x-Tx||^2) of the first
    failing point, or None."""
    space, z = fixed_point.space, fixed_point.coords
    norm = space.norm
    if norm(op(z) - z) > 1e-10:
        raise ValueError("provided point is not a fixed point of the operator")
    rng = np.random.default_rng(0)
    for i in range(CERTIFY_SAMPLES):
        x = rng.uniform(-5.0, 5.0, space.dim)
        tx = op(x)
        lhs = norm(tx - z) ** 2
        rhs = norm(x - z) ** 2 + lam * norm(x - tx) ** 2
        if lhs > rhs + CERTIFY_TOL:
            return i, lhs - rhs
    return None
