"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
verdict line. The criteria pin down: projector correctness against a
brute-force oracle, step-size floor and monotonicity, per-iteration
inequality invariants, convergence ratios on both benchmark families,
baseline health, halfspace separation, bitwise reproducibility, preset
validation, and exact stationarity at the solution.
"""

import math
import time

import numpy as np
import pytest

from vikit import harness
from vikit.algorithms import (
    PROPOSED,
    IterateState,
    Scheme,
    SequenceRule,
    solve,
    step_alg1,
)
from vikit.problems import (
    RandomSpec,
    initial_points,
    make_example1,
    make_example2,
)
from projection_oracle import project_oracle
from vikit.projections import Ball, Box, HalfSpace, halfspace_residual, project
from vikit.space import element, euclidean, zeros

BASELINES = tuple(s for s in Scheme if s not in PROPOSED)


def _verdict(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def bench1():
    problem = make_example1(RandomSpec(n=100, seed=7))
    x0, x1 = initial_points(problem, "random_uniform", seed=3)
    return problem, x0, x1


def _run(problem, x0, x1, scheme, max_iter, **kw):
    cfg = harness.make_config(scheme, problem, x0=x0, x1=x1,
                              max_iter=max_iter, **kw)
    return cfg, solve(problem, cfg)


def test_criterion_01_projections_match_oracle():
    """Closed-form box/ball/halfspace projections agree with the
    multi-start oracle to 1e-6 on 100 random instances each, in under 10s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for variant in ("box", "ball", "half"):
        for i in range(100):
            n = int(rng.integers(2, 7))
            sp = euclidean(n)
            if variant == "box":
                lo = rng.uniform(-3, 0, n)
                s = Box(lo, lo + rng.uniform(0.5, 3, n))
            elif variant == "ball":
                s = Ball(element(sp, rng.uniform(-1, 1, n)),
                         float(rng.uniform(0.5, 2)))
            else:
                s = HalfSpace(element(sp, rng.uniform(-1, 1, n)).coords,
                              element(sp, rng.uniform(-1, 1, n)).coords, sp)
            x = element(sp, rng.uniform(-4, 4, n)).coords
            gap = sp.norm(project(s, x) - project_oracle(s, x, seed=i))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict("criterion 1: projections match the brute-force oracle", ok,
             f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_adaptive_step_floor_and_monotonicity(bench1):
    """Adaptive step sizes never increase and never drop below
    min(gamma_1, phi/L) over 400 iterations; each run under 5s."""
    problem, x0, x1 = bench1
    adaptive = PROPOSED + (Scheme.VSEGM, Scheme.VTEGM)
    ok = True
    details = []
    for scheme in adaptive:
        t0 = time.perf_counter()
        cfg, trace = _run(problem, x0, x1, scheme, max_iter=400)
        dt = time.perf_counter() - t0
        gammas = trace.column("gamma")
        floor = min(cfg.step.gamma1, cfg.step.phi / problem.L)
        nonincreasing = all(b <= a + 1e-15 for a, b in zip(gammas, gammas[1:]))
        above_floor = min(gammas) >= floor - 1e-12
        if not (nonincreasing and above_floor and dt < 5.0):
            ok = False
            details.append(f"{scheme.value}: min {min(gammas):.3e} vs floor "
                           f"{floor:.3e}, {dt:.1f}s")
    _verdict("criterion 2: adaptive step floor and monotonicity", ok,
             "; ".join(details) if details else f"{len(adaptive)} runs clean")


def test_criterion_03_per_iteration_invariants(bench1):
    """Contraction-bound slack stays below 1e-8 at every iteration of all
    four inertial schemes; forward-correction displacement bound below
    1e-10; constructed halfspaces contain their own second projection."""
    problem, x0, x1 = bench1
    worst_c = worst_t = worst_h = -math.inf
    for scheme in PROPOSED:
        _, trace = _run(problem, x0, x1, scheme, max_iter=400,
                        record_invariants=True)
        worst_c = max(worst_c, max(trace.column("res_contraction")))
        rt = [v for v in trace.column("res_tseng") if not math.isnan(v)]
        rh = [v for v in trace.column("res_halfspace") if not math.isnan(v)]
        if rt:
            worst_t = max(worst_t, max(rt))
        if rh:
            worst_h = max(worst_h, max(rh))
    ok = worst_c <= 1e-8 and worst_t <= 1e-10 and worst_h <= 1e-10
    _verdict("criterion 3: per-iteration inequality invariants", ok,
             f"contraction {worst_c:.2e}, displacement {worst_t:.2e}, "
             f"halfspace {worst_h:.2e}")


def test_criterion_04_convergence_on_random_linear_family():
    """All four inertial schemes reduce the error by 100x within 400
    iterations on the random linear family at n=100 and n=200, under 30s."""
    start = time.perf_counter()
    ok = True
    details = []
    for n in (100, 200):
        problem = make_example1(RandomSpec(n=n, seed=7))
        x0, x1 = initial_points(problem, "random_uniform", seed=3)
        for scheme in PROPOSED:
            _, trace = _run(problem, x0, x1, scheme, max_iter=400)
            ratio = trace.rows[-1].D / trace.rows[0].D
            if not ratio <= 1e-2:
                ok = False
                details.append(f"{scheme.value} n={n}: ratio {ratio:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict("criterion 4: convergence on the random linear family", ok,
             "; ".join(details) if details else f"8 runs, {elapsed:.1f}s")


def test_criterion_05_convergence_on_grid_family():
    """All four inertial schemes reduce the error by 10x within 50
    iterations on the discretized function-space family, from both
    deterministic starting recipes."""
    problem = make_example2(101)
    ok = True
    details = []
    for init in ("t_squared", "t_plus_half_cos_t"):
        x0, x1 = initial_points(problem, init)
        for scheme in PROPOSED:
            _, trace = _run(problem, x0, x1, scheme, max_iter=50)
            ratio = trace.rows[-1].D / trace.rows[0].D
            if not ratio <= 1e-1:
                ok = False
                details.append(f"{scheme.value} {init}: ratio {ratio:.2e}")
    _verdict("criterion 5: convergence on the grid family", ok,
             "; ".join(details) if details else "8 runs clean")


def test_criterion_06_baselines_are_healthy(bench1):
    """All six baseline schemes run 400 iterations with finite errors and
    end strictly below their starting error; backtracking never exhausts
    its budget."""
    problem, x0, x1 = bench1
    ok = True
    details = []
    for scheme in BASELINES:
        try:
            _, trace = _run(problem, x0, x1, scheme, max_iter=400)
        except Exception as exc:
            ok = False
            details.append(f"{scheme.value}: {exc}")
            continue
        ds = trace.column("D")
        if not (all(math.isfinite(d) for d in ds) and ds[-1] < ds[0]):
            ok = False
            details.append(f"{scheme.value}: D_1={ds[0]:.3e} D_end={ds[-1]:.3e}")
    _verdict("criterion 6: baseline schemes are healthy", ok,
             "; ".join(details) if details else "6 runs clean")


def test_criterion_07_halfspace_separates_the_feasible_set(bench1):
    """Every halfspace built by the inertial subgradient scheme contains
    the whole box: 100 random feasible points per iteration, 400
    iterations, membership residual below 1e-10."""
    problem, x0, x1 = bench1
    cfg = harness.make_config(Scheme.IMSEGM, problem, x0=x0, x1=x1,
                              max_iter=400)
    rng = np.random.default_rng(55)
    n = problem.space.dim
    state = IterateState(k=1, x_prev=x0.coords, x_curr=x1.coords,
                         gamma=cfg.step.gamma1)
    worst = -math.inf
    for _ in range(cfg.max_iter):
        state = step_alg1(state, problem, cfg)
        pts = rng.uniform(-2.0, 5.0, (100, n))
        for row in pts:
            worst = max(worst, halfspace_residual(state.halfspace, row))
    ok = worst <= 1e-10
    _verdict("criterion 7: constructed halfspaces contain the feasible set",
             ok, f"worst residual {worst:.2e}")


def test_criterion_08_plan_reruns_are_bitwise_identical(tmp_path):
    """Running the same experiment plan twice yields byte-identical trace
    bodies (timestamps and wall-clock columns excluded)."""
    def plan(out):
        return harness.ExperimentPlan(
            problems=["ex1:n=20,seed=5", "ex2:grid=41"],
            algorithms=list(Scheme),
            max_iter=50,
            seeds=[1, 2],
            output_dir=str(out),
        )

    r1 = harness.run_plan(plan(tmp_path / "a"))
    r2 = harness.run_plan(plan(tmp_path / "b"))
    ok = r1.errors == [] and r2.errors == [] and len(r1.paths) == 40
    mismatches = 0
    for p1, p2 in zip(sorted(r1.paths), sorted(r2.paths)):
        if harness.trace_fingerprint(p1) != harness.trace_fingerprint(p2):
            mismatches += 1
    ok = ok and mismatches == 0
    _verdict("criterion 8: plan reruns are bitwise identical", ok,
             f"{len(r1.paths)} trace pairs, {mismatches} mismatches")


def test_criterion_09_preset_validation(bench1):
    """Shipped presets pass the sequence-condition checks over a 400-term
    horizon for all ten schemes, and three deliberately corrupted presets
    are rejected with the expected condition labels."""
    problem, _, _ = bench1
    ok = True
    details = []
    for scheme in Scheme:
        cfg = harness.make_config(scheme, problem)
        v = harness.validate_conditions(cfg, horizon=400)
        if v:
            ok = False
            details.append(f"{scheme.value}: {v[0]}")

    corruptions = [
        (Scheme.IMSEGM, dict(eta=SequenceRule("constant", 2.0)),
         "C4.eta_range"),
        (Scheme.IMSEGM, dict(zeta=SequenceRule("constant", 1.0)),
         "C4.zeta_over_theta"),
        (Scheme.IMMSEGM, dict(eta=SequenceRule("constant", 1.5)),
         "C5.eta_range"),
    ]
    for scheme, override, expected in corruptions:
        cfg = harness.make_config(scheme, problem, **override)
        names = {v.condition for v in harness.validate_conditions(cfg, 400)}
        if expected not in names:
            ok = False
            details.append(f"{scheme.value} corrupt: expected {expected}, "
                           f"got {names or '{}'}")
    _verdict("criterion 9: preset sequence validation", ok,
             "; ".join(details) if details else
             "10 presets clean, 3 corruptions flagged")


def test_criterion_10_exact_stationarity_at_the_solution():
    """Started exactly at the known solution, every scheme stays there to
    the last bit: the error column is at most 1e-12 for all iterations."""
    ok = True
    details = []
    for problem in (make_example1(RandomSpec(n=100, seed=7)),
                    make_example2(101)):
        z = zeros(problem.space)
        for scheme in Scheme:
            _, trace = _run(problem, z, z, scheme, max_iter=50)
            peak = max(trace.column("D"))
            if peak > 1e-12:
                ok = False
                details.append(f"{scheme.value} on {problem.problem_id}: "
                               f"peak {peak:.2e}")
    _verdict("criterion 10: exact stationarity at the solution", ok,
             "; ".join(details) if details else "20 runs pinned at zero")
