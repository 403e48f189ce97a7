import math

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
