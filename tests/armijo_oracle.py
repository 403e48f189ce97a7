"""The plain serial Armijo search, the reference for the tests.

This is `vikit.stepsize.armijo_search` without its screen: every trial
is evaluated in order. It checks every vector it forms, A(x) and A(y)
included, as the search and `AffineMatrix` once did; the trial point is
checked before any projection, not only before a box clips it. The
screened search must return the same (gamma, y, A(x), A(y)) bit for bit,
or raise the same exception.
"""

import numpy as np

from vikit.projections import FeasibleSet, project
from vikit.space import SpaceDescriptor, check_finite
from vikit.stepsize import ARMIJO_MAX_TRIALS, Armijo, ArmijoSearchError


def armijo_search_serial(space: SpaceDescriptor, policy: Armijo, x: np.ndarray, A,
                         C: FeasibleSet):
    norm = space.norm
    Ax = check_finite(A(x))
    gamma = policy.rho
    for _ in range(ARMIJO_MAX_TRIALS):
        y = project(C, check_finite(x + (-gamma) * Ax))
        Ay = check_finite(A(y))
        if gamma * norm(check_finite(Ax - Ay)) <= policy.phi * norm(check_finite(x - y)):
            return gamma, y, Ax, Ay
        gamma *= policy.l
    raise ArmijoSearchError(
        f"no acceptable step within {ARMIJO_MAX_TRIALS} trials", last_gamma=gamma
    )
