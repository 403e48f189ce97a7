"""Rejections of bad input that no other test reaches, each checked for its
exception type and message."""

import dataclasses
import math
import os

import numpy as np
import pytest

from vikit.algorithms import ConvergenceTrace, Scheme, SequenceRule, solve
from vikit.harness import (
    ExperimentPlan,
    TraceFileHeader,
    emit_csv,
    make_config,
    parse_problem_spec,
    run_plan,
    validate_conditions,
)
from vikit.operators import (AffineMatrix, RankOneIntegral, Scale, check_demicontractive,
                             check_monotone)
from vikit.problems import RandomSpec, certify, initial_points, make_example1, make_example2
from vikit.projections import Box, HalfSpace
from vikit.space import ConfigError, SpaceMismatchError, element, euclidean, zeros
from vikit.stepsize import Armijo

_EX1 = make_example1(RandomSpec(4, 1))
_CFG = make_config(Scheme.IMSEGM, _EX1)


@pytest.mark.parametrize("make,error,message", [
    (lambda: AffineMatrix(np.eye(2))(np.ones(3)), SpaceMismatchError,
     r"x must lie in euclidean\(2\), got a value of shape \(3,\)"),
    (lambda: Scale(math.inf), ValueError, r"c must be a real number in \(-inf,inf\), got inf"),
    # past float64's largest: an int or a longdouble holds it, a float64 factor could not
    (lambda: Scale(10**400), ConfigError,
     r"c must be a finite float64 in \(-inf,inf\), got 10{400}$"),
    (lambda: Scale(np.longdouble("1e4000")), ConfigError,
     r"c must be a finite float64 in \(-inf,inf\), got np.longdouble\('1e\+4000'\)"),
    (lambda: element(euclidean(2), [1.0, 2.0, 3.0]), SpaceMismatchError,
     r"coords must lie in euclidean\(2\), got a value of shape \(3,\)"),
    (lambda: Armijo(rho=1.0, l=0.5, phi=0.0), ValueError,
     r"phi must be a real number in \(0,1\), got 0.0"),
    (lambda: Armijo(rho=1.0, l=0.5, phi=1.0), ValueError,
     r"phi must be a real number in \(0,1\), got 1.0"),
    (lambda: dataclasses.replace(make_example2(5), L=-1.0), ValueError,
     r"L must be a real number in \[0,inf\), got -1.0"),
    (lambda: dataclasses.replace(make_example2(5), L=math.nan), ValueError,
     r"L must be a real number in \[0,inf\), got nan"),
    (lambda: dataclasses.replace(make_example2(5), L=math.inf), ValueError,
     r"L must be a real number in \[0,inf\), got inf"),
    (lambda: SequenceRule("bogus"), ConfigError,
     "kind must be one of one_over_kp1, k_over_kp1, k_over_2kp1, half_one_minus_theta, "
     "theta_over_3, one_over_kp1_sq, constant, got 'bogus'"),
    (lambda: Box(1.0, 0.0), ConfigError,
     "upper must be at least lower coordinatewise, got lower=1.0, upper=0.0"),
    (lambda: Box(np.zeros(2), np.ones(3)), ConfigError,
     r"upper must broadcast with lower's shape \(2,\), got shape \(3,\)"),
    (lambda: AffineMatrix(np.ones((2, 3))), ConfigError,
     r"G must be a square matrix, got shape \(2, 3\)"),
    (lambda: RankOneIntegral(euclidean(3)), ConfigError,
     r"space must be a grid_l2 space, got euclidean\(3\)"),
    (lambda: RankOneIntegral(5), ConfigError, "space must be of type SpaceDescriptor, got 5"),
    (lambda: initial_points(make_example1(RandomSpec(4, 1)), "t_squared"), ConfigError,
     r"kind must be one of random_uniform on euclidean\(4\), got 't_squared'"),
    (lambda: HalfSpace(np.array(["a", "b"]), np.zeros(2), euclidean(2)), ConfigError,
     r"normal must be of type RealArray, got array\(\['a', 'b'\], dtype='<U1'\)"),
    (lambda: parse_problem_spec("ex2:grid=1", 1), ValueError,
     r"'ex2:grid=1': grid must be an integer in \[2,inf\), got 1"),
    (lambda: make_example2(1.5), ConfigError, r"grid must be an integer in \[2,inf\), got 1.5"),
    (lambda: zeros(5), ConfigError, "space must be of type SpaceDescriptor, got 5"),
    (lambda: solve(None, _CFG), ConfigError, "problem must be of type ProblemInstance, got None"),
    (lambda: solve(_EX1, None), ConfigError, "cfg must be of type SolverConfig, got None"),
    (lambda: make_config(Scheme.IMSEGM, None), ConfigError,
     "problem must be of type ProblemInstance, got None"),
    (lambda: validate_conditions(None, 5), ConfigError,
     "cfg must be of type SolverConfig, got None"),
    (lambda: certify(None), ConfigError, "problem must be of type ProblemInstance, got None"),
    (lambda: certify(dataclasses.replace(_EX1, A=lambda x: x[..., :3])), SpaceMismatchError,
     r"A\(x\*\) must lie in euclidean\(4\), got a value of shape \(3,\)"),
    (lambda: certify(dataclasses.replace(_EX1, A=lambda x: x[..., :3], x_star=None)),
     SpaceMismatchError, r"A\(x\) must lie in euclidean\(4\), got a value of shape \(3,\)"),
    (lambda: certify(dataclasses.replace(_EX1, T=lambda x: x[..., :3])), SpaceMismatchError,
     r"T\(x\*\) must lie in euclidean\(4\), got a value of shape \(3,\)"),
    (lambda: check_monotone(lambda x: float(x.sum()), euclidean(3)), SpaceMismatchError,
     r"A\(x\) must lie in euclidean\(3\), got a value of shape \(\)"),
    (lambda: check_demicontractive(lambda x: x[:2], 0.0, zeros(euclidean(3))),
     SpaceMismatchError, r"T\(z\) must lie in euclidean\(3\), got a value of shape \(2,\)"),
    # a T that keeps z but maps the samples elsewhere
    (lambda: check_demicontractive(lambda x: x if not x.any() else x[:2], 0.0,
                                   zeros(euclidean(3))),
     SpaceMismatchError, r"T\(x\) must lie in euclidean\(3\), got a value of shape \(2,\)"),
    (lambda: run_plan(None), ConfigError, "plan must be of type ExperimentPlan, got None"),
    (lambda: ExperimentPlan([], [Scheme.IMSEGM], 10, [1], "x"), ConfigError,
     "problems must not be empty"),
    (lambda: ExperimentPlan(["ex1:n=5"], [], 10, [1], "x"), ConfigError,
     "algorithms must not be empty"),
    (lambda: ExperimentPlan(["ex1:n=5"], [Scheme.IMSEGM], 10, [], "x"), ConfigError,
     "seeds must not be empty"),
    (lambda: emit_csv(ConvergenceTrace(scheme=Scheme.IMSEGM), None, os.devnull), ConfigError,
     "header must be of type TraceFileHeader, got None"),
    (lambda: TraceFileHeader.create("imsegm", "table1", "ex1:n=4,seed=1", 1, 4), ConfigError,
     "scheme must be of type Scheme, got 'imsegm'"),
], ids=["affine-dimension", "scale-non-finite", "scale-int-past-float64",
        "scale-longdouble-past-float64", "element-shape", "armijo-phi-0", "armijo-phi-1",
        "lipschitz-negative", "lipschitz-nan", "lipschitz-inf",
        "sequence-kind", "box-upper-below-lower", "box-bound-shapes",
        "affine-not-square", "rank-one-not-grid",
        "rank-one-not-a-space", "grid-start-on-euclidean", "halfspace-string-normal",
        "spec-grid-below-two", "grid-not-an-integer", "zeros-not-a-space",
        "solve-problem", "solve-cfg", "make-config-problem", "validate-cfg", "certify-problem",
        "certify-a-shape", "certify-a-shape-no-solution", "certify-t-shape",
        "monotone-scalar-value", "demicontractive-fixed-point-shape",
        "demicontractive-sample-shape",
        "run-plan-plan", "plan-no-problems", "plan-no-algorithms", "plan-no-seeds",
        "emit-csv-header", "header-scheme"])
def test_bad_input_raises_a_typed_error_naming_it(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
