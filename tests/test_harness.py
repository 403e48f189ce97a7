import math
import sys
import weakref

import pytest

from vikit import harness
from vikit.algorithms import (
    ConfigError,
    ConvergenceTrace,
    Scheme,
    SequenceRule,
    TraceRow,
)
from vikit.problems import RandomSpec, make_example1, make_example2
from vikit.stepsize import Adaptive, Armijo, Fixed


@pytest.fixture(scope="module")
def small_problem():
    return make_example1(RandomSpec(n=10, seed=1))


def test_make_config_adaptive_schemes(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem, max_iter=100)
    assert cfg.step == Adaptive(gamma1=0.5, phi=0.5)
    assert cfg.delta == 0.6
    assert cfg.zeta_seq == SequenceRule("one_over_kp1_sq")
    assert cfg.lambda_T == 0.0
    assert cfg.max_iter == 100


def test_make_config_fixed_step_depends_on_l(small_problem):
    cfg = harness.make_config(Scheme.MSEGM, small_problem)
    assert isinstance(cfg.step, Fixed)
    assert cfg.step.gamma == pytest.approx(0.99 / small_problem.L, rel=1e-15)


def test_make_config_stegm_and_overrides(small_problem):
    cfg = harness.make_config(Scheme.STEGM, small_problem)
    assert cfg.step == Armijo(rho=1.0, l=0.5, phi=0.4)
    assert cfg.hsd_lambda == 0.5
    over = harness.make_config(Scheme.IMSEGM, small_problem, delta=0.3)
    assert over.delta == 0.3


def test_table1_rows_follow_each_schemes_parts(small_problem):
    one, kp1, k2 = (SequenceRule(k) for k in ("one_over_kp1", "k_over_kp1", "k_over_2kp1"))
    half, third = SequenceRule("half_one_minus_theta"), SequenceRule("theta_over_3")
    inertial = dict(zeta=SequenceRule("one_over_kp1_sq"), delta=0.6)
    adaptive = Adaptive(gamma1=0.5, phi=0.5)
    assert harness.TABLE1 == {
        Scheme.HSEGM: dict(theta=one, eta=k2),
        Scheme.MSEGM: dict(theta=one, eta=half),
        Scheme.MMSEGM: dict(theta=kp1, eta=third),
        Scheme.IMSEGM: dict(theta=one, eta=half, **inertial, step=adaptive),
        Scheme.IMTEGM: dict(theta=one, eta=half, **inertial, step=adaptive),
        Scheme.IMMSEGM: dict(theta=kp1, eta=third, **inertial, step=adaptive),
        Scheme.IMMTEGM: dict(theta=kp1, eta=third, **inertial, step=adaptive),
        Scheme.VSEGM: dict(theta=one, eta=k2, step=adaptive),
        Scheme.VTEGM: dict(theta=one, eta=k2, step=adaptive),
        Scheme.STEGM: dict(theta=one, eta=k2, step=Armijo(rho=1.0, l=0.5, phi=0.4)),
    }
    # STEGM's hybrid-steepest-descent weight is SolverConfig's default
    assert harness.make_config(Scheme.STEGM, small_problem).hsd_lambda == 0.5


@pytest.mark.parametrize("scheme", list(Scheme))
def test_presets_validate_cleanly(scheme, small_problem):
    cfg = harness.make_config(scheme, small_problem)
    assert harness.validate_conditions(cfg, horizon=400) == []


@pytest.mark.parametrize("key", ["zeta_seq", "etaa"])
def test_make_config_rejects_unknown_override_keys(small_problem, key):
    with pytest.raises(ConfigError, match=f"{key}; make_config takes theta, eta, "
                                          "zeta, delta, step, hsd_lambda"):
        harness.make_config(Scheme.IMSEGM, small_problem,
                            **{key: SequenceRule("constant", 1.0)})


@pytest.mark.parametrize("horizon", [0, -5])
def test_horizon_below_one_rejected(small_problem, horizon):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem)
    with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
        harness.validate_conditions(cfg, horizon)


def test_eta_out_of_range_flagged_for_vanishing_theta(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem,
                              eta=SequenceRule("constant", 2.0))
    violations = harness.validate_conditions(cfg, horizon=50)
    assert violations
    assert all(v.condition == "C4.eta_range" for v in violations)


def test_nondecreasing_ratio_flagged_for_vanishing_theta(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem,
                              zeta=SequenceRule("constant", 1.0))
    violations = harness.validate_conditions(cfg, horizon=50)
    names = {v.condition for v in violations}
    assert "C4.zeta_over_theta" in names


def test_eta_out_of_range_flagged_for_theta_to_one(small_problem):
    # the bound (1 - lambda) theta / (lambda + theta) equals 1 when lambda
    # is zero, so only a value of at least 1 can violate it here
    cfg = harness.make_config(Scheme.IMMSEGM, small_problem,
                              eta=SequenceRule("constant", 1.5))
    violations = harness.validate_conditions(cfg, horizon=50)
    assert violations
    assert all(v.condition == "C5.eta_range" for v in violations)


def test_theta_out_of_range_flagged(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem,
                              theta=SequenceRule("constant", 1.5))
    violations = harness.validate_conditions(cfg, horizon=5)
    assert {v.condition for v in violations} == {"theta_range"}
    assert "k=1" in str(violations[0])


def _toy_trace(with_res):
    rows = [
        TraceRow(k=1, D=1.0, gamma=0.5, delta=0.0, elapsed=0.0,
                 residuals=None),
        TraceRow(k=2, D=0.123456789012345678, gamma=0.25, delta=0.6,
                 elapsed=0.031,
                 residuals=(-1e-12, 0.0, math.nan) if with_res else None),
    ]
    return ConvergenceTrace(scheme=Scheme.IMSEGM, rows=rows)


def _header():
    return harness.TraceFileHeader.create(Scheme.IMSEGM, "table1",
                                          "ex1:n=10,seed=1", seed=3, dim=10)


def test_csv_roundtrip_is_bitwise(tmp_path):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(with_res=True), _header(), path)
    meta, rows = harness.parse_csv(path)
    assert meta["scheme"] == "imsegm"
    assert meta["rng"] == "numpy-PCG64"
    assert meta["dim"] == "10"
    assert len(rows) == 2
    assert rows[1].D == 0.123456789012345678  # bitwise round-trip
    assert rows[1].gamma == 0.25
    assert rows[1].residuals[0] == -1e-12
    assert math.isnan(rows[1].residuals[2])
    # the row without recorded residuals reads back as nan placeholders
    assert all(math.isnan(v) for v in rows[0].residuals)


def test_csv_without_residual_columns(tmp_path):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(with_res=False), _header(), path)
    _, rows = harness.parse_csv(path)
    assert rows[0].residuals is None and rows[1].residuals is None


def test_empty_trace_writes_header_only(tmp_path):
    path = tmp_path / "t.csv"
    harness.emit_csv(ConvergenceTrace(scheme=Scheme.IMSEGM), _header(), path)
    text = path.read_text()
    assert all(line.startswith("#") for line in text.splitlines())
    meta, rows = harness.parse_csv(path)
    assert rows == [] and meta["preset"] == "table1"


def test_fingerprint_ignores_header_and_elapsed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    harness.emit_csv(_toy_trace(True), _header(), a)
    tr = _toy_trace(True)
    tr.rows[1] = TraceRow(k=2, D=tr.rows[1].D, gamma=0.25, delta=0.6,
                          elapsed=9.9, residuals=tr.rows[1].residuals)
    harness.emit_csv(tr, _header(), b)
    assert harness.trace_fingerprint(a) == harness.trace_fingerprint(b)


def test_plan_validation():
    with pytest.raises(ValueError):
        harness.ExperimentPlan(problems=[], algorithms=[Scheme.IMSEGM],
                               max_iter=10, seeds=[1], output_dir="x")
    with pytest.raises(ValueError):
        harness.ExperimentPlan(problems=["ex1:n=5"], algorithms=[],
                               max_iter=10, seeds=[1], output_dir="x")
    with pytest.raises(ValueError):
        harness.ExperimentPlan(problems=["ex1:n=5"], algorithms=[Scheme.IMSEGM],
                               max_iter=10, seeds=[], output_dir="x")
    with pytest.raises(ValueError):
        harness.ExperimentPlan(problems=["ex1:n=5"], algorithms=[Scheme.IMSEGM],
                               max_iter=0, seeds=[1], output_dir="x")


def test_parse_problem_spec():
    p, init = harness.parse_problem_spec("ex1:n=12,seed=9", seed=1)
    assert p.problem_id == "ex1:n=12,seed=9" and init == "random_uniform"
    p2, init2 = harness.parse_problem_spec("ex1:n=12", seed=4)
    assert p2.problem_id == "ex1:n=12,seed=4"
    p3, init3 = harness.parse_problem_spec("ex2:grid=51,init=t_plus_half_cos_t",
                                           seed=1)
    assert p3.space.dim == 51 and init3 == "t_plus_half_cos_t"
    p4, init4 = harness.parse_problem_spec("ex2", seed=1)
    assert p4.space.dim == 101 and init4 == "t_squared"
    with pytest.raises(ValueError):
        harness.parse_problem_spec("ex9:n=3", seed=1)


def test_run_plan_all_schemes(tmp_path):
    plan = harness.ExperimentPlan(
        problems=["ex1:n=10,seed=1"],
        algorithms=list(Scheme),
        max_iter=30,
        seeds=[3],
        output_dir=str(tmp_path),
    )
    result = harness.run_plan(plan)
    assert result.errors == []
    assert len(result.paths) == 10
    for path in result.paths:
        _, rows = harness.parse_csv(path)
        assert len(rows) == 31
        assert rows[-1].D < rows[0].D


def test_run_plan_grid_problem_row_count(tmp_path):
    plan = harness.ExperimentPlan(
        problems=["ex2:grid=51"],
        algorithms=[Scheme.IMSEGM],
        max_iter=50,
        seeds=[1],
        output_dir=str(tmp_path),
    )
    result = harness.run_plan(plan)
    assert result.errors == []
    meta, rows = harness.parse_csv(result.paths[0])
    assert len(rows) == 51
    assert meta["problem"] == "ex2:grid=51"
    assert result.paths[0].endswith("ex2_grid=51__imsegm__seed1.csv")


def test_run_plan_records_cell_errors(tmp_path):
    plan = harness.ExperimentPlan(
        problems=["ex1:n=5,seed=1"],
        algorithms=[Scheme.IMSEGM],
        max_iter=10,
        seeds=[1],
        output_dir=str(tmp_path),
    )
    # corrupt the preset through an override-free path: use a bad problem
    bad = harness.ExperimentPlan(
        problems=["ex9:n=5"],
        algorithms=[Scheme.IMSEGM],
        max_iter=10,
        seeds=[1],
        output_dir=str(tmp_path),
    )
    ok = harness.run_plan(plan)
    assert ok.errors == [] and len(ok.paths) == 1
    res = harness.run_plan(bad)
    assert res.paths == [] and len(res.errors) == 1
    assert "ex9" in res.errors[0][0]


def _one_cell_plan(out, spec="ex1:n=5,seed=1"):
    return harness.ExperimentPlan(problems=[spec], algorithms=[Scheme.IMSEGM],
                                  max_iter=10, seeds=[1], output_dir=str(out))


def test_run_plan_types_cell_errors(tmp_path, monkeypatch):
    assert harness.run_plan(_one_cell_plan(tmp_path / "a", spec="ex9:n=5")).errors[0][1] \
        == "config"

    bad = dict(harness.TABLE1[Scheme.IMSEGM], theta=SequenceRule("constant", 1.5))
    with monkeypatch.context() as m:
        m.setitem(harness.TABLE1, Scheme.IMSEGM, bad)
        assert harness.run_plan(_one_cell_plan(tmp_path / "b")).errors[0][1] \
            == "conditions"

    # a directory where the trace file should go makes the write fail
    out = tmp_path / "c"
    (out / "ex1_n=5_seed=1__imsegm__seed1.csv").mkdir(parents=True)
    assert harness.run_plan(_one_cell_plan(out)).errors[0][1] == "runtime"

    monkeypatch.setattr(harness.prob, "certify", lambda problem: ["forced"])
    assert harness.run_plan(_one_cell_plan(tmp_path / "d")).errors[0][1:] \
        == ("certification", "certification failed: forced")


@pytest.mark.parametrize("spec", ["ex1:dim=7", "ex2:n=5", "ex1:n=5,grid=3", "ex2:grid=5,"])
def test_parse_problem_spec_rejects_unknown_keys(spec):
    with pytest.raises(ValueError, match="unknown key"):
        harness.parse_problem_spec(spec, seed=1)


@pytest.mark.parametrize("spec,key", [("ex1:n=5,n=6", "n"), ("ex1:seed=2,n=5,seed=3", "seed"),
                                      ("ex2:init=t_squared,init=t_squared", "init")])
def test_parse_problem_spec_rejects_repeated_keys(spec, key):
    with pytest.raises(ValueError, match=f"repeated key '{key}'"):
        harness.parse_problem_spec(spec, seed=1)


@pytest.mark.parametrize("spec,starts", [
    ("ex1:n=5,init=bogus", "random_uniform"),
    ("ex1:n=5,init=t_squared", "random_uniform"),
    ("ex2:grid=5,init=bogus", "t_squared, t_plus_half_cos_t, random_uniform"),
])
def test_parse_problem_spec_rejects_starts_the_family_lacks(spec, starts):
    with pytest.raises(ValueError, match="unsupported init") as err:
        harness.parse_problem_spec(spec, seed=1)
    assert repr(spec) in str(err.value) and str(err.value).endswith(starts)


@pytest.mark.parametrize("spec,key", [("ex1:n=abc", "n"), ("ex1:n=5,seed=", "seed"),
                                      ("ex2:grid=1.5", "grid"), ("ex1:n", "n")])
def test_parse_problem_spec_rejects_non_integer_values(spec, key):
    with pytest.raises(ValueError, match=f"key '{key}' in '{spec}' must be an integer"):
        harness.parse_problem_spec(spec, seed=1)


def test_run_plan_rejects_bad_init_before_build_and_certify(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(harness.prob, "make_example1", unreachable)
    monkeypatch.setattr(harness.prob, "certify", unreachable)
    result = harness.run_plan(_one_cell_plan(tmp_path, spec="ex1:n=5,seed=1,init=t_squared"))
    assert result.paths == []
    [(cell, category, message)] = result.errors
    assert category == "config" and "ex1 accepts random_uniform" in message


def test_run_plan_ex2_from_a_random_start(tmp_path):
    result = harness.run_plan(_one_cell_plan(tmp_path, spec="ex2:grid=31,init=random_uniform"))
    assert result.errors == []
    assert [p.name for p in tmp_path.glob("*.csv")] == [
        "ex2_grid=31_init=random_uniform__imsegm__seed1.csv"]


def test_run_plan_keeps_cells_that_differ_only_in_init(tmp_path):
    plan = harness.ExperimentPlan(
        problems=["ex2:grid=21", "ex2:grid=21,init=t_plus_half_cos_t"],
        algorithms=[Scheme.IMSEGM],
        max_iter=5,
        seeds=[1],
        output_dir=str(tmp_path),
    )
    result = harness.run_plan(plan)
    assert result.errors == []
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "ex2_grid=21__imsegm__seed1.csv",
        "ex2_grid=21_init=t_plus_half_cos_t__imsegm__seed1.csv",
    ]
    a, b = result.paths
    assert harness.trace_fingerprint(a) != harness.trace_fingerprint(b)


@pytest.mark.parametrize("problems,algorithms,seeds", [
    (["ex2:grid=21", "ex2:grid=21,init=t_squared"], [Scheme.IMSEGM], [1]),
    (["ex1:n=8,seed=2", "ex1:n=8"], [Scheme.IMSEGM], [2]),
    (["ex2:grid=21"], [Scheme.IMSEGM, Scheme.IMSEGM], [1]),
    (["ex2:grid=21"], [Scheme.IMSEGM], [1, 1]),
])
def test_plan_with_duplicate_cells_rejected(problems, algorithms, seeds):
    with pytest.raises(ValueError, match="duplicate plan cells"):
        harness.ExperimentPlan(problems=problems, algorithms=algorithms,
                               max_iter=5, seeds=seeds, output_dir="x")


def _count_calls(monkeypatch, *names):
    """Wrap the named problems functions; each call appends to its list."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(*args, _orig=getattr(harness.prob, name), _log=calls[name]):
            _log.append(args)
            return _orig(*args)
        monkeypatch.setattr(harness.prob, name, counted)
    return calls


@pytest.mark.parametrize("problems,algorithms,seeds,builds", [
    (["ex1:n=6,seed=1"], [Scheme.IMSEGM, Scheme.STEGM, Scheme.MSEGM], [1, 2],
     dict(make_example1=1, make_example2=0, certify=1)),
    (["ex1:n=6"], [Scheme.IMSEGM], [1, 2], dict(make_example1=2, make_example2=0, certify=2)),
    (["ex2:grid=21", "ex2:grid=21,init=t_plus_half_cos_t"], [Scheme.IMSEGM], [1],
     dict(make_example1=0, make_example2=1, certify=1)),
])
def test_run_plan_builds_and_certifies_each_problem_once(tmp_path, monkeypatch, problems,
                                                         algorithms, seeds, builds):
    # more workers than cores, switching threads often: a build done twice shows
    monkeypatch.setenv("VIKIT_THREADS", "8")
    calls = _count_calls(monkeypatch, *builds)
    plan = harness.ExperimentPlan(problems=problems, algorithms=algorithms, max_iter=5,
                                  seeds=seeds, output_dir=str(tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = harness.run_plan(plan)
    finally:
        sys.setswitchinterval(interval)
    assert result.errors == [] and len(result.paths) == len(plan.cells())
    assert {name: len(log) for name, log in calls.items()} == builds


def _group_plan(out, spec):
    return harness.ExperimentPlan(problems=[spec], algorithms=[Scheme.IMSEGM, Scheme.STEGM],
                                  max_iter=5, seeds=[1, 2], output_dir=str(out))


def test_failed_certification_fails_every_cell_of_its_problem(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(harness.prob, "certify",
                        lambda problem: calls.append(problem) or ["forced"])
    result = harness.run_plan(_group_plan(tmp_path, "ex1:n=6,seed=1"))
    assert result.paths == [] and len(calls) == 1
    assert [error[1:] for error in result.errors] == \
        [("certification", "certification failed: forced")] * 4


def test_builder_crash_fails_every_cell_of_its_problem(tmp_path, monkeypatch):
    calls = []

    def crash(spec):
        calls.append(spec)
        raise RuntimeError("builder crashed")

    monkeypatch.setattr(harness.prob, "make_example1", crash)
    result = harness.run_plan(_group_plan(tmp_path, "ex1:n=6,seed=1"))
    assert result.paths == [] and len(calls) == 1
    assert [error[1:] for error in result.errors] == [("runtime", "builder crashed")] * 4


@pytest.mark.parametrize("spec", ["ex1:n=0", "ex1:n=abc", "ex9:n=5"])
def test_rejected_spec_fails_every_cell_with_config(tmp_path, spec):
    plan = _group_plan(tmp_path, spec)
    result = harness.run_plan(plan)
    assert result.paths == []
    assert [(cell, category) for cell, category, _ in result.errors] == \
        [(harness._cell_id(*cell), "config") for cell in plan.cells()]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_shared_problems_keep_cell_order_and_traces(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("VIKIT_THREADS", threads)
    plan = harness.ExperimentPlan(
        problems=["ex1:n=6,seed=4", "ex1:n=6", "ex2:grid=21",
                  "ex2:grid=21,init=t_plus_half_cos_t"],
        algorithms=[Scheme.IMSEGM, Scheme.STEGM], max_iter=5, seeds=[1, 2],
        output_dir=str(tmp_path / "plan"))
    result = harness.run_plan(plan)
    assert result.errors == []
    assert result.paths == [str(tmp_path / "plan" / harness._trace_file_name(*cell))
                            for cell in plan.cells()]
    for i, (spec, scheme, seed) in enumerate(plan.cells()):
        alone = harness.ExperimentPlan(problems=[spec], algorithms=[scheme], max_iter=5,
                                       seeds=[seed], output_dir=str(tmp_path / str(i)))
        [path] = harness.run_plan(alone).paths
        assert harness.trace_fingerprint(path) == harness.trace_fingerprint(result.paths[i])


def test_run_plan_frees_each_problem_after_its_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("VIKIT_THREADS", "1")
    built, alive_at_build = [], []
    parse = harness.parse_problem_spec

    def tracked(spec, seed):
        alive_at_build.append(sum(ref() is not None for ref in built))
        problem, init = parse(spec, seed)
        built.append(weakref.ref(problem))
        return problem, init

    monkeypatch.setattr(harness, "parse_problem_spec", tracked)
    plan = harness.ExperimentPlan(problems=["ex1:n=6"], algorithms=[Scheme.IMSEGM],
                                  max_iter=5, seeds=[1, 2, 3], output_dir=str(tmp_path))
    assert harness.run_plan(plan).errors == []
    assert alive_at_build == [0, 0, 0]
