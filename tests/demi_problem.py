"""A test-only problem whose T is demicontractive with lambda_T > 0.

Every benchmark family's T is quasi-nonexpansive (lambda_T = 0), so no
solve there reads lambda, though the paper's T class is demicontractive
and the eta bounds of (C4) and (C5) depend on lambda."""

import dataclasses

from vikit.operators import Scale
from vikit.problems import RandomSpec, make_example1


def demi_problem(k=1.5):
    """ex1's problem at n = 8, seed 1, with T = -k x for k > 1 in place of
    x/2. Such a T is demicontractive with lambda = (k - 1)/(k + 1), and with
    no smaller constant: ||Tx||^2 = ||x||^2 + lambda ||x - Tx||^2 for every
    x. It is not quasi-nonexpansive, and Fix(T) = {0} lies inside the box,
    so Omega = {0} as for ex1."""
    return dataclasses.replace(make_example1(RandomSpec(8, 1)), T=Scale(-k),
                               lambda_T=(k - 1) / (k + 1), problem_id=f"demi:k={k}")
