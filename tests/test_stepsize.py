"""The step-size policies.

Armijo searches are drawn over boxes, balls and halfspaces, for an
AffineMatrix or the positive part, with tie cases within 4 ulps of the
acceptance test, and the screened search is checked bit for bit against
the serial loop kept in armijo_oracle.py, with its A calls counted. The
adaptive update is checked bit for bit against the four-norm rule.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armijo_oracle import armijo_search_serial
from call_counts import count_calls, work_rules
from step_oracle import _adaptive_update
from vikit.algorithms import Scheme, solve
from vikit.harness import make_config, parse_problem_spec
from vikit.operators import AffineMatrix, PositivePart
from vikit.problems import RandomSpec, initial_points, make_example1
from vikit.projections import Ball, Box, HalfSpace, project
from vikit.space import (
    NonFiniteElementError,
    SpaceDescriptor,
    SpaceMismatchError,
    check_finite,
    element,
    euclidean,
    grid_l2,
    zeros,
)
from vikit.stepsize import (
    ARMIJO_MAX_TRIALS,
    Adaptive,
    Armijo,
    ArmijoSearchError,
    Fixed,
    _proven_rejections,
    _screened_steps,
    adaptive_update,
    armijo_search,
)


@pytest.mark.parametrize("policy,first", [(Fixed(0.3), 0.3), (Adaptive(gamma1=0.7, phi=0.5), 0.7),
                                          (Armijo(rho=2.0, l=0.5, phi=0.4), 2.0)],
                         ids=["fixed", "adaptive", "armijo"])
def test_each_policy_gives_its_first_step_as_a_read_only_gamma1(policy, first):
    assert policy.gamma1 == first
    with pytest.raises(AttributeError):
        policy.gamma1 = 1.0


def test_adaptive_update_examples():
    sp = euclidean(2)
    s = element(sp, [1.0, 0.0]).coords
    y = zeros(sp).coords
    # ||s - y|| = 1, ||As - Ay|| = 2: candidate phi/2 = 0.25 < gamma_k
    As, Ay = element(sp, [2.0, 0.0]).coords, zeros(sp).coords
    assert adaptive_update(sp, 0.5, 0.5, s, y, As, Ay) == 0.25
    # candidate 5.0 exceeds gamma_k: keep gamma_k
    As2 = element(sp, [0.1, 0.0]).coords
    assert adaptive_update(sp, 0.5, 0.5, s, y, As2, Ay) == 0.5
    # vanishing operator displacement: keep gamma_k
    assert adaptive_update(sp, 0.5, 0.5, s, y, zeros(sp).coords, zeros(sp).coords) == 0.5


def test_adaptive_update_rejects_a_difference_that_overflows():
    # As - Ay = inf would make the candidate step phi ||s - y|| / inf = 0
    sp = euclidean(2)
    s, y = np.array([1.0, 0.0]), np.zeros(2)
    As, Ay = np.array([1e308, 0.0]), np.array([-1e308, 0.0])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteElementError):
        adaptive_update(sp, 0.5, 0.5, s, y, As, Ay)
    with pytest.raises(NonFiniteElementError):
        adaptive_update(sp, 0.5, 0.5, np.array([np.nan, 0.0]), y, np.ones(2), y)


@st.composite
def threshold_cases(draw):
    """adaptive_update inputs with denom = ||As - Ay|| = 1e-14 r max(1,
    ||As||) as computed, for r in [0.5, 4] or within a few 1e-14 of 1,
    around and inside the band where ||Ay|| decides the step. |As| has
    entries in [1.1, 1.4] 2^e, and As - Ay is exact: its entries are
    integer multiples of 2^(e-52), below 2^(e-2). Then ||As|| is tuned
    (scaling As by ~1) to put denom where r says. At e = 600 and 1000 the
    squares overflow and the norms rescale; at e = -40 the band is set by
    the 1 of the max, and at e = -600 denom sits far below it."""
    sp = draw(st.sampled_from([euclidean, grid_l2]))(draw(st.integers(2, 40)))
    n = sp.dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e = draw(st.sampled_from([-600, -40, 0, 40, 600, 1000]))
    r = draw(st.one_of(st.floats(0.5, 4.0), st.floats(-2.0, 3.0).map(lambda t: 1.0 + t * 1e-14)))
    As = np.ldexp(rng.uniform(1.1, 1.4, n) * rng.choice([-1.0, 1.0], n), e)
    with np.errstate(over="ignore"):
        target = 1e-14 * r * max(1.0, sp.norm(As))
        k = rng.standard_normal(n)
        k = np.round(k * min(target / (np.ldexp(1.0, e - 52) * sp.norm(k)), 2.0 ** 49 / np.abs(k).max()))
        D = np.ldexp(k, e - 52)
        if sp.norm(As) >= 1.0:
            As = As * (sp.norm(D) / (1e-14 * r) / sp.norm(As))
    Ay = As - D
    assert np.array_equal(As - Ay, D)
    s = rng.standard_normal(n)
    y = s + draw(st.sampled_from([0.0, 1e-3, 1.0])) * rng.standard_normal(n)
    return sp, draw(st.floats(1e-3, 10.0)), draw(st.floats(0.05, 0.95)), s, y, As, Ay


@settings(max_examples=400)
@given(threshold_cases())
def test_adaptive_update_is_bitwise_the_four_norm_rule(case):
    # ||Ay|| is skipped outside the band 1e-14 max(1, ||As||) < denom <=
    # 2e-14 max(1, ||As|| + denom); the checked four-norm rule must agree
    with np.errstate(over="ignore"):
        got, want = adaptive_update(*case), _adaptive_update(*case)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_each_adaptive_update_makes_three_norm_calls():
    # ||As - Ay||, ||As|| and ||s - y||: on this run ||Ay|| is never needed
    problem, init = parse_problem_spec("ex1:n=100,seed=1", 1)
    x, _ = initial_points(problem, init, seed=1)
    cfg = make_config(Scheme.IMSEGM, problem, x0=x, x1=x, tol=1e-8)

    per_call = {}  # each adaptive update's frame: the norms taken while it runs

    def update(frame, arg):
        per_call[frame] = 0

    def norm(frame, arg):  # through a helper too: the nearest adaptive update up the stack
        while frame is not None and frame.f_code is not adaptive_update.__code__:
            frame = frame.f_back
        if frame is not None:
            per_call[frame] += 1

    rules = {adaptive_update.__code__: update, SpaceDescriptor.norm.__code__: norm}
    trace, _ = count_calls(rules, solve, problem, cfg)
    assert len(per_call) == len(trace.rows) - 1 > 10
    assert set(per_call.values()) == {3}


def _setup(scale=2.0):
    sp = euclidean(2)
    A = AffineMatrix(scale * np.eye(2))
    C = Box(-100.0, 100.0)
    return sp, A, C


def test_armijo_accepts_rho_at_a_solution():
    sp, A, C = _setup()
    gamma, y, _, _ = armijo_search(sp, Armijo(rho=1.0, l=0.5, phi=0.4), zeros(sp).coords, A, C)
    assert gamma == 1.0
    assert sp.norm(y) == 0.0


def test_armijo_accepts_first_trial_when_rho_small():
    # L = 2 here, so any rho <= phi / L passes immediately
    sp, A, C = _setup(scale=2.0)
    x = element(sp, [1.0, -1.0]).coords
    policy = Armijo(rho=0.19, l=0.5, phi=0.4)
    gamma, y, _, _ = armijo_search(sp, policy, x, A, C)
    assert gamma == 0.19
    assert np.allclose(y, x - 0.19 * 2.0 * x)


def test_armijo_backtracks_and_satisfies_inequality():
    sp, A, C = _setup(scale=2.0)
    x = element(sp, [3.0, 4.0]).coords
    policy = Armijo(rho=8.0, l=0.5, phi=0.4)
    gamma, y, _, _ = armijo_search(sp, policy, x, A, C)
    assert gamma < 8.0
    assert gamma in [8.0 * 0.5 ** m for m in range(1, 20)]
    assert gamma * sp.norm(A(x) - A(y)) <= policy.phi * sp.norm(x - y) + 1e-14
    # the previous (rejected) trial really fails the inequality
    prev = gamma / policy.l
    y_prev = element(sp, np.clip(x - prev * A(x), -100, 100)).coords
    assert prev * sp.norm(A(x) - A(y_prev)) > policy.phi * sp.norm(x - y_prev)


def test_armijo_exhaustion_raises_with_last_gamma():
    # a stiff operator accepts only gamma <= phi / L = 4e-21, far below the
    # last trial rho * l^(ARMIJO_MAX_TRIALS - 1)
    sp, A, C = _setup(scale=1e20)
    x = element(sp, [1.0, 1.0]).coords
    with pytest.raises(ArmijoSearchError) as info:
        armijo_search(sp, Armijo(rho=1.0, l=0.5, phi=0.4), x, A, C)
    assert info.value.last_gamma == 0.5 ** ARMIJO_MAX_TRIALS


def test_screened_search_fails_like_the_serial_one_on_misshapen_bounds():
    # a Box has no space; the screen leaves bounds of another shape than x
    # to the serial loop, whose projection names x
    sp, A, _ = _setup()
    case = (sp, Armijo(rho=8.0, l=0.5, phi=0.4), np.array([3.0, 4.0]), A,
            Box(np.zeros(3), np.ones(3)))
    with pytest.raises(SpaceMismatchError) as screened:
        armijo_search(*case)
    with pytest.raises(SpaceMismatchError) as serial:
        armijo_search_serial(*case)
    assert str(screened.value) == str(serial.value)


def _bounds(draw, rng, n):
    """Box bounds: scalar, per-coordinate (some entries infinite) or infinite."""
    kind = draw(st.sampled_from(["scalar", "vector", "infinite"]))
    if kind == "scalar":
        lower = -float(rng.uniform(0.0, 5.0))
        return lower, lower + float(rng.uniform(0.0, 10.0))
    if kind == "vector":
        lower = rng.uniform(-5.0, 5.0, n)
        upper = lower + rng.uniform(0.0, 10.0, n)
        lower[rng.random(n) < 0.3] = -math.inf
        upper[rng.random(n) < 0.3] = math.inf
        return lower, upper
    return -math.inf, draw(st.sampled_from([math.inf, float(rng.uniform(0.0, 5.0))]))


def _feasible_set(draw, rng, sp):
    """A box (see _bounds), a ball, or a halfspace whose normal may be
    tiny enough for its square to underflow or large enough to overflow."""
    n = sp.dim
    kind = draw(st.sampled_from(["box", "ball", "halfspace"]))
    if kind == "box":
        return Box(*_bounds(draw, rng, n))
    if kind == "ball":
        center = rng.uniform(-5.0, 5.0, n) * 10.0 ** draw(st.sampled_from([0, 3, 150]))
        return Ball(element(sp, center), 10.0 ** draw(st.floats(-3.0, 3.0)))
    normal = rng.standard_normal(n) * 10.0 ** draw(st.sampled_from([-170, -3, 0, 3, 155]))
    return HalfSpace(normal, rng.uniform(-5.0, 5.0, n), sp)


def _serial_ratios(sp, A, C, x, rho, l):
    """gamma_j ||A(x) - A(y_j)|| / ||x - y_j|| for the serial trials, up to
    the first that overflows or divides by zero."""
    ratios, gamma = [], rho
    try:
        Ax = A(x)
        for _ in range(ARMIJO_MAX_TRIALS):
            y = project(C, check_finite(x + (-gamma) * Ax))
            lhs = gamma * sp.norm(check_finite(Ax - A(y)))
            rhs = sp.norm(check_finite(x - y))
            if not 0.0 < rhs < math.inf:
                break
            ratios.append(lhs / rhs)
            gamma *= l
    except NonFiniteElementError:
        pass
    return ratios


def _nudged(phi, ulps):
    for _ in range(abs(ulps)):
        phi = float(np.nextafter(phi, math.copysign(math.inf, ulps)))
    return phi


MATRIX_KINDS = ("ex1", "random", "rank_one", "zero_row_sums", "huge")


def _matrix(kind, rng, n, e):
    """An n x n G of the given kind, scaled by about 10^e."""
    if kind == "ex1":
        B = rng.uniform(0.0, 2.0, (n, n))
        M = rng.uniform(-2.0, 2.0, (n, n))
        G = B @ B.T + 0.5 * (M - M.T) + np.diag(rng.uniform(0.0, 2.0, n))
    elif kind == "random":
        G = rng.standard_normal((n, n))
    elif kind == "rank_one":
        G = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    elif kind == "zero_row_sums":
        # small integers sum exactly in any order, and a power of two
        # scales them exactly, so G 1 is exactly zero
        G = rng.integers(-4, 5, (n, n)).astype(float)
        G[:, 0] -= G.sum(axis=1)
        return G * 2.0 ** (3 * e)
    else:  # "huge": G 1 or G^T G 1 overflows
        return rng.standard_normal((n, n)) * 10.0 ** (300 + e)
    return G * 10.0 ** e


@st.composite
def armijo_cases(draw):
    """(space, policy, x, A, C): G from ex1's recipe, non-symmetric
    random, exactly rank-one (where the screen's bound on ||G d|| is
    tight), with zero row sums (no probe) or with entries near overflow
    (no probe either); no offset, a random one, or one that nearly cancels
    Gx; or the positive part, which maps -Inf to 0, so that only the
    x - y norm notices a -Inf that a halfspace passes on to y; a box, where
    the screen applies, or a ball or halfspace, where only the serial loop
    runs and a non-finite trial point goes unchecked into the projection;
    x and rho up to overflow scale; and in tie cases phi within 4 ulps of
    the serial ratio at some trial."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sp = draw(st.sampled_from([euclidean(n)] + ([grid_l2(n)] if n > 1 else [])))
    kind = draw(st.sampled_from(MATRIX_KINDS + ("positive_part",)))
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** draw(st.sampled_from(
        [-8, -1, 0, 1, 3, 140, 145, 150, 155, 300, 305]))
    A = PositivePart() if kind == "positive_part" else _affine(draw, rng, sp, kind, x)
    C = _feasible_set(draw, rng, sp)
    # a huge rho overflows the first trials while A(x) stays finite
    rho = 10.0 ** draw(st.one_of(st.floats(-3.0, 10.0), st.floats(150.0, 300.0)))
    l = draw(st.floats(0.05, 0.95))
    phi = draw(st.floats(0.01, 0.99))
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            ratios = [r for r in _serial_ratios(sp, A, C, x, rho, l) if 0.0 < r < 1.0]
        if ratios:
            phi = _nudged(ratios[draw(st.integers(0, len(ratios) - 1))],
                          draw(st.integers(-4, 4)))
            phi = min(max(phi, 5e-324), float(np.nextafter(1.0, 0.0)))
    return sp, Armijo(rho=rho, l=l, phi=phi), x, A, C


def _affine(draw, rng, sp, kind, x):
    """An AffineMatrix with G of the given kind and a drawn offset."""
    n = sp.dim
    G = _matrix(kind, rng, n, draw(st.integers(-3, 3)))
    f = None
    offset = draw(st.sampled_from(["none", "random", "near_root"]))
    if offset == "random":
        f = element(sp, rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3)))
    elif offset == "near_root":
        # A(x) = Gx + f nearly cancels, so the serial A(x) - A(y) carries
        # rounding errors of order u ||G|| ||x||, far above ||G (x - y)||:
        # the part of the screen's margin that grows with ||x||
        with np.errstate(all="ignore"):
            f = -(G @ x) + rng.standard_normal(n) * (
                10.0 ** draw(st.integers(-14, -4)) * float(np.abs(G @ x).max(initial=0.0)))
        f = element(sp, f) if np.isfinite(f).all() else None
    return AffineMatrix(G, f)


def _outcome(search, case):
    """The returned (gamma, y, A(x), A(y)) as bytes, or the exception's
    type, message and last_gamma. Numpy's overflow warnings are silenced:
    the serial loop warns on the trials the screen skips."""
    with np.errstate(all="ignore"):
        try:
            gamma, *arrays = search(*case)
        except (ArmijoSearchError, NonFiniteElementError) as exc:
            return type(exc), str(exc), getattr(exc, "last_gamma", None)
    return (gamma.hex(),) + tuple(a.tobytes() for a in arrays)


@settings(max_examples=1200)
@given(armijo_cases())
def test_screened_armijo_search_equals_the_serial_search(case):
    assert _outcome(armijo_search, case) == _outcome(armijo_search_serial, case)


@pytest.mark.parametrize("offset", ["none", "near_root"])
def test_rank_one_ties_are_left_to_the_serial_test(offset):
    # for a rank-one G the screen's bound on ||G d|| is tight, so with phi
    # within 4 ulps of a trial's serial ratio only the margin keeps the
    # screen from skipping a trial the serial test accepts; a near root
    # adds rounding of order u ||G|| ||x|| to the serial A(x) - A(y)
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 8
        sp = euclidean(n)
        G = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        x = rng.uniform(-1.0, 1.0, n)
        f = None
        if offset == "near_root":
            f = element(sp, -(G @ x) + 1e-9 * rng.standard_normal(n))
        A, C = AffineMatrix(G, f), Box(-math.inf, math.inf)
        ratios = [r for r in _serial_ratios(sp, A, C, x, 1e3, 0.5) if r < 1.0]
        for ratio in ratios[:4]:
            for ulps in range(-4, 5):
                phi = _nudged(ratio, ulps)
                if 0.0 < phi < 1.0:
                    case = (sp, Armijo(rho=1e3, l=0.5, phi=phi), x, A, C)
                    assert _outcome(armijo_search, case) == _outcome(armijo_search_serial, case)


@pytest.mark.parametrize("kind", ["zero_row_sums", "huge"])
@pytest.mark.parametrize("n", [1, 2, 12])
def test_the_screen_is_empty_without_a_probe(kind, n):
    # G 1 = 0 divides 0 by 0 and huge entries overflow G 1 or G^T G 1;
    # building the operator must not warn (warnings are errors here)
    A = AffineMatrix(_matrix(kind, np.random.default_rng(n), n, 0))
    assert A.probe is None
    x = np.ones(n)
    assert _proven_rejections(euclidean(n), Armijo(rho=1e3, l=0.5, phi=0.4),
                              x, x, A, Box(-1.0, 1.0)) == []


@pytest.mark.parametrize("n,seed", [(100, 1), (400, 7)])
def test_the_screen_leaves_one_serial_trial_per_stegm_iteration(n, seed):
    # A(x) and the accepted trial: the screen proves every rejected trial
    # rejected, so a margin that grew too conservative shows here. Each is
    # a call of the AffineMatrix, whose G.dot inside it counts once
    p = make_example1(RandomSpec(n=n, seed=seed))
    x0, x1 = initial_points(p, "random_uniform", seed=0)
    trace, calls = count_calls(work_rules(p), solve, p,
                               make_config(Scheme.STEGM, p, x0=x0, x1=x1, max_iter=400))
    assert len(trace.rows) == 401
    assert calls["A"] / 400 == 2.0


def test_the_screens_constants_are_built_once_per_policy_and_problem():
    # one build of the trial steps, then one cache hit per stegm
    # iteration; another policy builds its own steps
    p = make_example1(RandomSpec(n=20, seed=3))
    x0, x1 = initial_points(p, "random_uniform", seed=0)
    _screened_steps.cache_clear()
    solve(p, make_config(Scheme.STEGM, p, x0=x0, x1=x1, max_iter=60))
    assert _screened_steps.cache_info()[:2] == (59, 1)  # (hits, misses)
    solve(p, make_config(Scheme.STEGM, p, x0=x0, x1=x1, max_iter=60,
                         step=Armijo(rho=2.0, l=0.5, phi=0.4)))
    assert _screened_steps.cache_info()[:2] == (118, 2)
    g = _screened_steps(2.0, 0.5, 0.4, p.A.frobenius)
    assert g.tolist() == [2.0 * 0.5 ** j for j in range(len(g))]
    assert g[-1] * p.A.frobenius > 0.4 >= g[-1] * 0.5 * p.A.frobenius
