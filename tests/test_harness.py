"""The harness: make_config and Table 1, validate_conditions (C4 and
C5 read the problem's lambda_T, see demi_problem.py), the trace CSV, and
run_plan.

A plan built from lists stores tuples, so it cannot gain cells after
they were resolved, and a str or a non-iterable in place of a list is a
TypeError naming the field. run_plan builds and certifies each problem
once, frees it after its cells, runs each distinct computation once and
keeps the cells' order at every thread count. Its calls are counted with
tools/call_counts.count_calls, which follows the plan's worker threads;
a test rebinds a vikit name only to substitute its behaviour.
"""

import dataclasses
import math
import re
import weakref
from pathlib import Path

import pytest

from call_counts import by_name, count_calls
from demi_problem import demi_problem
from vikit import harness
from vikit.algorithms import (
    HSD_LAMBDA,
    INERTIAL_DELTA,
    ConfigError,
    ConvergenceTrace,
    Outer,
    Scheme,
    SequenceRule,
    TraceRow,
    solve,
)
from vikit.problems import ProblemInstance, RandomSpec, certify, make_example1, make_example2
from vikit.stepsize import Adaptive, Armijo, Fixed


@pytest.fixture(scope="module")
def small_problem():
    return make_example1(RandomSpec(n=10, seed=1))


def test_make_config_adaptive_schemes(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem, max_iter=100)
    assert cfg.step == Adaptive(gamma1=0.5, phi=0.5)
    assert cfg.zeta == SequenceRule("one_over_kp1_sq")
    assert cfg.lambda_T == 0.0
    assert cfg.max_iter == 100


def test_make_config_fixed_step_depends_on_l(small_problem):
    cfg = harness.make_config(Scheme.MSEGM, small_problem)
    assert isinstance(cfg.step, Fixed)
    assert cfg.step.gamma == pytest.approx(0.99 / small_problem.L, rel=1e-15)


def test_make_config_stegm_and_overrides(small_problem):
    cfg = harness.make_config(Scheme.STEGM, small_problem)
    assert cfg.step == Armijo(rho=1.0, l=0.5, phi=0.4)
    over = harness.make_config(Scheme.IMSEGM, small_problem, eta=SequenceRule("k_over_2kp1"))
    assert over.eta == SequenceRule("k_over_2kp1")


def test_table1_rows_follow_each_schemes_parts(small_problem):
    one, kp1, k2 = (SequenceRule(k) for k in ("one_over_kp1", "k_over_kp1", "k_over_2kp1"))
    half, third = SequenceRule("half_one_minus_theta"), SequenceRule("theta_over_3")
    inertial = dict(zeta=SequenceRule("one_over_kp1_sq"))
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
    # the inertial cap and STEGM's hybrid-steepest-descent weight, the two
    # Table 1 values outside TABLE1
    assert (INERTIAL_DELTA, HSD_LAMBDA) == (0.6, 0.5)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_presets_validate_cleanly(scheme, small_problem):
    # lambda_T = 0, 0.2 and 0.4987: Table 1 meets C4 and C5 below 1/2
    for problem in (small_problem, demi_problem(1.5), demi_problem(2.99)):
        cfg = harness.make_config(scheme, problem)
        assert harness.validate_conditions(cfg, horizon=400) == []


# delta is the constant INERTIAL_DELTA, not a field; make_config sets
# algorithm and lambda_T itself
@pytest.mark.parametrize("key", ["zeta_seq", "etaa", "hsd_lambda", "delta", "algorithm",
                                 "lambda_T"])
def test_make_config_rejects_unknown_override_keys(small_problem, key):
    with pytest.raises(ConfigError, match=f"^{key} not among the fields make_config takes: "
                                          "step, theta, eta, zeta, max_iter, x0, x1, tol, "
                                          "record_invariants$"):
        harness.make_config(Scheme.IMSEGM, small_problem,
                            **{key: SequenceRule("constant", 1.0)})


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


@pytest.mark.parametrize("scheme", [Scheme.IMSEGM, Scheme.IMTEGM, Scheme.MSEGM])
def test_c4_bound_reads_lambda(scheme):
    # Table 1's Mann eta_k = (1 - theta_k)/2 lies below C4's bound
    # (1 - lambda)(1 - theta_k) at lambda = 0.2 (test_presets_validate_cleanly)
    # and equals it at 0.5, where the strict inequality fails at every k
    cfg = harness.make_config(scheme, demi_problem(3.0))
    assert [(v.condition, v.k) for v in harness.validate_conditions(cfg, 400)] == \
        [("C4.eta_range", k) for k in range(1, 401)]


@pytest.mark.parametrize("eta,clean_k,flagged_k,first", [
    # C5's bound (1 - lambda) theta / (lambda + theta) is 1 at lambda = 0
    # and below 1/3 at lambda = 0.5, so eta_k = 0.4 passes the one and
    # fails the other at every k
    (0.4, None, 3.0, 1),
    # Table 1's eta_k = theta_k / 3 lies below it while theta_k < 3 - 4 lambda:
    # at every k for lambda = 0.5 (T = -3x), and for k < 20 only at
    # lambda = 0.512 (T = -3.1x)
    (None, 3.0, 3.1, 20),
], ids=["constant-eta", "table1-eta"])
def test_c5_bound_reads_lambda(small_problem, eta, clean_k, flagged_k, first):
    fields = {} if eta is None else {"eta": SequenceRule("constant", eta)}
    clean = small_problem if clean_k is None else demi_problem(clean_k)
    for scheme in (s for s in Scheme if s.outer is Outer.MODIFIED_MANN):  # the C5 rows
        cfg = harness.make_config(scheme, clean, **fields)
        assert harness.validate_conditions(cfg, 400) == []
        cfg = harness.make_config(scheme, demi_problem(flagged_k), **fields)
        assert [(v.condition, v.k) for v in harness.validate_conditions(cfg, 400)] == \
            [("C5.eta_range", k) for k in range(first, 401)]


@pytest.mark.parametrize("overrides,conditions", [
    (dict(eta=SequenceRule("constant", 2.0), zeta=SequenceRule("constant", 0.0)),
     [("C4.eta_range", k) for k in range(1, 6)] + [("zeta_positive", k) for k in range(1, 6)]),
    (dict(theta=SequenceRule("constant", 1.5), zeta=SequenceRule("constant", -1.0)),
     [("theta_range", k) for k in range(1, 6)] + [("zeta_positive", k) for k in range(1, 6)]),
    # zeta_k / theta_k = k + 1 grows over the tail k = 3..5
    (dict(eta=SequenceRule("constant", 2.0), zeta=SequenceRule("constant", 1.0)),
     [("C4.eta_range", k) for k in range(1, 6)] + [("C4.zeta_over_theta", 4)]),
])
def test_theta_and_eta_violations_come_before_zeta_violations(small_problem, overrides,
                                                             conditions):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem, **overrides)
    assert [(v.condition, v.k) for v in harness.validate_conditions(cfg, horizon=5)] == \
        conditions


def test_theta_out_of_range_flagged(small_problem):
    cfg = harness.make_config(Scheme.IMSEGM, small_problem,
                              theta=SequenceRule("constant", 1.5))
    violations = harness.validate_conditions(cfg, horizon=5)
    assert {v.condition for v in violations} == {"theta_range"}
    assert "k=1" in str(violations[0])


@pytest.mark.parametrize("scheme,problem_changes,overrides,named", [
    (Scheme.MSEGM, dict(L=None), {},
     "ConfigError: msegm needs a Lipschitz bound for its fixed step"),
    (Scheme.HSEGM, {}, dict(eta=SequenceRule("constant", 1.0)),
     "eta_range at k=1: eta_k=1.0 outside (0,1)"),
    (Scheme.IMSEGM, {}, dict(zeta=SequenceRule("constant", 0.0)),
     "zeta_positive at k=1: zeta_k=0.0 not positive"),
    # an explicit None is no step, not a request for the fixed 0.99/L
    (Scheme.IMSEGM, {}, dict(step=None), "ConfigError: step must be of type Adaptive, got None"),
])
def test_bad_parameters_are_named_by_make_config_or_the_conditions(
        small_problem, scheme, problem_changes, overrides, named):
    # make_config raises; validate_conditions returns its first violation
    problem = dataclasses.replace(small_problem, **problem_changes)
    try:
        cfg = harness.make_config(scheme, problem, **overrides)
    except ConfigError as exc:
        found = f"ConfigError: {exc}"
    else:
        found = str(harness.validate_conditions(cfg, horizon=5)[0])
    assert found == named


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


@pytest.mark.parametrize("with_res", [False, True])
def test_csv_skips_blank_lines(tmp_path, with_res):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(with_res), _header(), path)
    lines = path.read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join(["", *lines[:-1], "  ", lines[-1], ""]) + "\n")
    assert repr(harness.parse_csv(spaced)) == repr(harness.parse_csv(path))


@pytest.mark.parametrize("with_res,row,error", [
    (False, "1,0.5,0.5", "3 fields, but the '# columns:' line names 5"),
    (False, "1,0.5,0.5,0,0,7", "6 fields, but the '# columns:' line names 5"),
    (True, "1,0.5,0.5,0,0,7", "6 fields, but the '# columns:' line names 8"),
    (True, "1,0.5,0.5,0,0,7,7,7,7,7", "10 fields, but the '# columns:' line names 8"),
    (False, "1,abc,0.5,0,0", "could not convert string to float: 'abc'"),
    (True, "1,0.5,0.5,0,0,0,x,0", "could not convert string to float: 'x'"),
    (False, "1.0,0.1,0.5,0,0", "invalid literal for int() with base 10: '1.0'"),
    # with_res None: the header lines before '# columns:' only; this row
    # was once reported as "5 fields, but the '# columns:' line names 0"
    (None, "1,0.5,0.5,0,0", "a data row before any '# columns:' line"),
], ids=["3-of-5", "6-of-5", "6-of-8", "10-of-8", "float-field", "residual-field", "float-k",
        "no-columns"])
def test_csv_data_row_that_does_not_parse_is_named(tmp_path, with_res, row, error):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(bool(with_res)), _header(), path)
    lines = path.read_text().splitlines()
    if with_res is None:
        lines = lines[:next(i for i, line in enumerate(lines) if line.startswith("# columns:"))]
    path.write_text("\n".join(lines + [row]) + "\n")
    named = f"{path} line {len(lines) + 1}: {error}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        harness.parse_csv(path)


@pytest.mark.parametrize("with_res,columns", [
    # a sixth column once read as residuals=(7.0,)
    (False, "k,D_k,gamma_k,delta_k,elapsed_s,extra"),
    (False, "k,D_k,gamma_k,delta_k"),
    (True, "k,D_k,gamma_k,delta_k,elapsed_s,res_contraction,res_tseng,res_halfspace"),
    (True, "D_k,k,gamma_k,delta_k,elapsed_s"),
])
def test_csv_columns_line_other_than_the_two_emitted_is_named(tmp_path, with_res, columns):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(with_res), _header(), path)
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1) if line.startswith("# columns:"))
    lines[number - 1] = f"# columns: {columns}"
    fields = len(columns.split(","))
    lines.append(",".join(["1"] + ["0.5"] * (fields - 1)))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line {number}: "
                                         f"'# columns:' line names '{columns}', not "):
        harness.parse_csv(path)


@pytest.mark.parametrize("with_res,line", [
    # a second columns line once replaced the first: a wider one after the
    # rows made trace_fingerprint fail on a bare IndexError, a narrower one
    # dropped the residuals
    (False, "# columns: k,D_k,gamma_k,delta_k,elapsed_s,res_contraction,res_halfspace,res_tseng"),
    (True, "# columns: k,D_k,gamma_k,delta_k,elapsed_s"),
    (False, "# scheme: stegm"),
], ids=["columns-5-then-8", "columns-8-then-5", "scheme"])
def test_csv_header_key_given_twice_is_named(tmp_path, with_res, line):
    path = tmp_path / "t.csv"
    harness.emit_csv(_toy_trace(with_res), _header(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [line]) + "\n")
    key = line[2:].partition(":")[0]
    named = f"{path} line {len(lines) + 1}: a second '# {key}:' line"
    for read in (harness.parse_csv, harness.trace_fingerprint):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            read(path)


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


@pytest.mark.parametrize("name,value", [
    ("problems", "ex2"), ("algorithms", Scheme.IMSEGM), ("seeds", 1)])
def test_plan_field_that_is_a_str_or_not_iterable_is_a_type_error(name, value, monkeypatch):
    # raised before any cell is resolved
    monkeypatch.setattr(harness, "_resolve", None)
    fields = dict(problems=["ex2:grid=5"], algorithms=[Scheme.IMSEGM], seeds=[1])
    with pytest.raises(TypeError, match=f"^plan {name} must be a list, got {value!r}$"):
        harness.ExperimentPlan(**dict(fields, **{name: value}), max_iter=5, output_dir="x")


def test_a_plan_built_from_lists_stores_tuples_and_runs_them(tmp_path):
    problems, algorithms, seeds = ["ex1:n=6,seed=1"], [Scheme.IMSEGM], [1]
    plan = harness.ExperimentPlan(problems=problems, algorithms=algorithms, max_iter=5,
                                  seeds=seeds, output_dir=str(tmp_path))
    # changing the caller's lists, or the plan's fields, cannot add cells
    # that resolution never saw
    problems.append("ex2:grid=11")
    seeds.append(2)
    assert (plan.problems, plan.algorithms, plan.seeds) == \
        (("ex1:n=6,seed=1",), (Scheme.IMSEGM,), (1,))
    with pytest.raises(AttributeError):
        plan.seeds.append(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.seeds = [1, 2]
    assert plan.cells() == [("ex1:n=6,seed=1", Scheme.IMSEGM, 1)]
    result = harness.run_plan(plan)
    assert result.errors == [] and len(result.paths) == 1


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
                                      ("ex2:grid=1.5", "grid"), ("ex1:n", "n"),
                                      # int() reads both, as 10 and 3
                                      ("ex1:n=1_0", "n"), ("ex1:n=5,seed=\u0663", "seed")])
def test_parse_problem_spec_rejects_non_integer_values(spec, key):
    with pytest.raises(ValueError, match=f"key '{key}' in '{spec}' must be an integer"):
        harness.parse_problem_spec(spec, seed=1)


def test_run_plan_rejects_bad_init_before_build_and_certify(tmp_path):
    result, calls = count_calls(_named(make_example1, certify), lambda: harness.run_plan(
        _one_cell_plan(tmp_path, spec="ex1:n=5,seed=1,init=t_squared")))
    assert calls["make_example1"] == calls["certify"] == 0 and result.paths == []
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


def _named(*functions) -> dict:
    """count_calls rules that count each function's calls, on any thread,
    under its name."""
    return dict.fromkeys((function.__code__ for function in functions), by_name)


# a plan validates each distinct scheme and lambda_T once, however many
# computations and problems share them
@pytest.mark.parametrize("problems,algorithms,seeds,builds", [
    (["ex1:n=6,seed=1"], [Scheme.IMSEGM, Scheme.STEGM, Scheme.MSEGM], [1, 2],
     dict(make_example1=1, make_example2=0, certify=1, validate_conditions=3)),
    (["ex1:n=6"], [Scheme.IMSEGM], [1, 2],
     dict(make_example1=2, make_example2=0, certify=2, validate_conditions=1)),
    (["ex2:grid=21", "ex2:grid=21,init=t_plus_half_cos_t"], [Scheme.IMSEGM], [1],
     dict(make_example1=0, make_example2=1, certify=1, validate_conditions=1)),
])
def test_run_plan_builds_and_certifies_each_problem_once(tmp_path, monkeypatch, switching_often,
                                                         problems, algorithms, seeds, builds):
    # more workers than cores, switching threads often: a build done twice shows
    monkeypatch.setenv("VIKIT_THREADS", "8")
    plan = harness.ExperimentPlan(problems=problems, algorithms=algorithms, max_iter=5,
                                  seeds=seeds, output_dir=str(tmp_path))
    result, calls = count_calls(_named(make_example1, make_example2, certify,
                                       harness.validate_conditions), harness.run_plan, plan)
    assert result.errors == [] and len(result.paths) == len(plan.cells())
    assert {name: calls[name] for name in builds} == builds


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


def test_a_non_finite_certification_value_fails_as_certification(tmp_path, monkeypatch):
    ex2 = harness.prob.FAMILIES["ex2"]
    monkeypatch.setitem(harness.prob.FAMILIES, "ex2", ex2._replace(
        build=lambda grid: dataclasses.replace(make_example2(grid), T=lambda x: x * math.nan)))
    assert harness.run_plan(_one_cell_plan(tmp_path, spec="ex2:grid=5")).errors == [
        ("ex2:grid=5|imsegm|seed=1", "certification",
         "certification failed: element contains non-finite entries")]


def test_builder_crash_fails_every_cell_of_its_problem(tmp_path, monkeypatch):
    calls = []

    def crash(n, seed):
        calls.append((n, seed))
        raise RuntimeError("builder crashed")

    monkeypatch.setitem(harness.prob.FAMILIES, "ex1",
                        harness.prob.FAMILIES["ex1"]._replace(build=crash))
    result = harness.run_plan(_group_plan(tmp_path, "ex1:n=6,seed=1"))
    assert result.paths == [] and len(calls) == 1
    assert [error[1:] for error in result.errors] == [("runtime", "builder crashed")] * 4


@pytest.mark.parametrize("spec", ["ex1:n=0", "ex1:n=abc", "ex9:n=5"])
def test_rejected_spec_fails_every_cell_with_config(tmp_path, spec):
    plan = _group_plan(tmp_path, spec)
    result = harness.run_plan(plan)
    assert result.paths == []
    assert [(cell, category) for cell, category, _ in result.errors] == \
        [(harness._resolve(*cell).id, "config") for cell in plan.cells()]


def test_run_plan_resolves_each_cell_once(tmp_path):
    # 12 cells on two buildable problems and one unknown family: one parse
    # per cell, as the plan is built, and one per problem build
    result, calls = count_calls(_named(harness._spec_fields), lambda: harness.run_plan(
        harness.ExperimentPlan(problems=["ex1:n=6,seed=1", "ex2:grid=21", "ex9"],
                               algorithms=[Scheme.IMSEGM, Scheme.STEGM], max_iter=5,
                               seeds=[1, 2], output_dir=str(tmp_path))))
    assert len(result.paths) == 8
    assert [error[1:] for error in result.errors] == \
        [("config", "unknown problem family 'ex9' in 'ex9'")] * 4
    assert calls["_spec_fields"] == 14


@pytest.mark.parametrize("spec,solves", [
    ("ex2:grid=21", 2),  # both seeds share each scheme's run
    ("ex2:grid=21,init=random_uniform", 4),  # the start draws from the seed
    ("ex1:n=6", 4),  # so do ex1's start and, unpinned, its problem
    ("ex1:n=6,seed=3", 4),
])
def test_run_plan_runs_each_distinct_computation_once(tmp_path, monkeypatch, switching_often,
                                                      spec, solves):
    monkeypatch.setenv("VIKIT_THREADS", "8")
    plan = _group_plan(tmp_path, spec)
    result, calls = count_calls(_named(solve), harness.run_plan, plan)
    assert result.errors == [] and len(result.paths) == len(plan.cells()) == 4
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == \
        sorted(harness._resolve(*cell).file for cell in plan.cells())
    assert calls["solve"] == solves


def _body(path):
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


def test_copied_traces_name_their_computed_source(tmp_path):
    plan = harness.ExperimentPlan(problems=["ex2:grid=21"],
                                  algorithms=[Scheme.IMSEGM, Scheme.STEGM],
                                  max_iter=5, seeds=[1, 2, 3], output_dir=str(tmp_path))
    result = harness.run_plan(plan)
    assert result.errors == []
    # cells() order: each scheme at seeds 1, 2 and 3
    for source, *copies in (result.paths[0:3], result.paths[3:6]):
        source_meta, _ = harness.parse_csv(source)
        assert "same_as" not in source_meta and source_meta["seed"] == "1"
        for seed, copy in enumerate(copies, start=2):
            copy_meta, _ = harness.parse_csv(copy)
            assert copy_meta["same_as"] == Path(source).name
            assert copy_meta["seed"] == str(seed)
            assert harness.trace_fingerprint(copy) == harness.trace_fingerprint(source)
            assert _body(copy) == _body(source)


def test_one_validation_fails_every_computation_of_its_scheme_with_its_message(
        tmp_path, monkeypatch, switching_often):
    bad = dict(harness.TABLE1[Scheme.IMSEGM], theta=SequenceRule("constant", 1.5))
    monkeypatch.setitem(harness.TABLE1, Scheme.IMSEGM, bad)
    # two problems, and two computations of each scheme on each
    plan = harness.ExperimentPlan(problems=["ex1:n=6,seed=1", "ex1:n=6,seed=2"],
                                  algorithms=[Scheme.IMSEGM, Scheme.STEGM], max_iter=5,
                                  seeds=[1, 2], output_dir=str(tmp_path))
    # each validation counts under its config's scheme
    rules = {harness.validate_conditions.__code__:
             lambda frame, arg: frame.f_locals["cfg"].algorithm}
    result, calls = count_calls(rules, harness.run_plan, plan)
    assert {key: n for key, n in calls.items() if isinstance(key, Scheme)} == \
        {Scheme.IMSEGM: 1, Scheme.STEGM: 1}
    problem, _ = harness.parse_problem_spec("ex1:n=6,seed=1", 1)
    violations = harness.validate_conditions(harness.make_config(Scheme.IMSEGM, problem), 5)
    message = "; ".join(str(v) for v in violations)
    assert message.startswith("theta_range at k=1: theta_k=1.5 outside (0,1)")
    assert result.errors == [(harness._resolve(*cell).id, "conditions", message)
                             for cell in plan.cells() if cell[1] is Scheme.IMSEGM]
    assert len(result.paths) == 4


def test_failed_computation_fails_each_cell_it_stands_for(tmp_path, monkeypatch):
    plan = _group_plan(tmp_path / "a", "ex2:grid=21")
    bad = dict(harness.TABLE1[Scheme.IMSEGM], theta=SequenceRule("constant", 1.5))
    with monkeypatch.context() as m:
        m.setitem(harness.TABLE1, Scheme.IMSEGM, bad)
        result = harness.run_plan(plan)
    assert [cell for cell, _, _ in result.errors] == \
        [harness._resolve(*cell).id for cell in plan.cells() if cell[1] is Scheme.IMSEGM]
    [(category, _)] = {error[1:] for error in result.errors}
    assert category == "conditions" and len(result.paths) == 2

    calls = []

    def crash(problem, cfg):
        calls.append(cfg.algorithm)
        raise RuntimeError("solve crashed")

    monkeypatch.setattr(harness, "solve", crash)
    result = harness.run_plan(_group_plan(tmp_path / "b", "ex2:grid=21"))
    assert result.paths == [] and len(calls) == 2
    assert [error[1:] for error in result.errors] == [("runtime", "solve crashed")] * 4


def test_copy_of_a_trace_that_failed_to_write_becomes_the_source(tmp_path):
    plan = _group_plan(tmp_path, "ex2:grid=21")
    first = plan.cells()[0]
    (tmp_path / harness._resolve(*first).file).mkdir()
    result = harness.run_plan(plan)
    assert [error[:2] for error in result.errors] == [(harness._resolve(*first).id, "runtime")]
    meta, _ = harness.parse_csv(result.paths[0])
    assert meta["seed"] == "2" and "same_as" not in meta


def test_run_plan_refuses_to_overwrite_a_trace(tmp_path):
    assert harness.run_plan(_one_cell_plan(tmp_path)).errors == []
    [written] = tmp_path.iterdir()
    before = written.read_bytes()
    plan = harness.ExperimentPlan(problems=["ex1:n=5,seed=1"], algorithms=[Scheme.IMSEGM],
                                  max_iter=10, seeds=[2, 1], output_dir=str(tmp_path))

    def refused():
        with pytest.raises(ValueError,
                           match=r"already exists; cell ex1:n=5,seed=1\|imsegm\|seed=1 "):
            harness.run_plan(plan)

    assert count_calls(_named(solve), refused)[1]["solve"] == 0
    assert list(tmp_path.iterdir()) == [written]
    assert written.read_bytes() == before


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
    assert result.paths == [str(tmp_path / "plan" / harness._resolve(*cell).file)
                            for cell in plan.cells()]
    for i, (spec, scheme, seed) in enumerate(plan.cells()):
        alone = harness.ExperimentPlan(problems=[spec], algorithms=[scheme], max_iter=5,
                                       seeds=[seed], output_dir=str(tmp_path / str(i)))
        [path] = harness.run_plan(alone).paths
        assert harness.trace_fingerprint(path) == harness.trace_fingerprint(result.paths[i])
        # an ex2 start ignores the seed: seed 2 copies seed 1's run
        copied = spec.startswith("ex2") and seed == 2
        assert harness.parse_csv(result.paths[i])[0].get("same_as") == \
            (harness._resolve(spec, scheme, 1).file if copied else None)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_mixed_outcomes_follow_cell_order_once_each(tmp_path, monkeypatch, threads):
    # an unresolvable spec between two good problems, a third problem that
    # fails certification, and ex2 cells whose seeds share a run
    monkeypatch.setenv("VIKIT_THREADS", threads)
    certify = harness.prob.certify
    monkeypatch.setattr(harness.prob, "certify", lambda problem: (
        ["forced"] if problem.space.dim == 6 else certify(problem)))
    plan = harness.ExperimentPlan(
        problems=["ex2:grid=21", "ex9:n=5", "ex1:n=6,seed=1", "ex2:grid=31"],
        algorithms=[Scheme.IMSEGM, Scheme.STEGM], max_iter=5, seeds=[1, 2],
        output_dir=str(tmp_path))
    result = harness.run_plan(plan)
    cells = [harness._resolve(*cell) for cell in plan.cells()]
    errors = {"ex9:n=5": ("config", "unknown problem family 'ex9' in 'ex9:n=5'"),
              "ex1:n=6,seed=1": ("certification", "certification failed: forced")}
    assert result.errors == [(cell.id, *errors[cell.spec]) for cell in cells
                             if cell.spec in errors]
    assert result.paths == [str(tmp_path / cell.file) for cell in cells
                            if cell.spec not in errors]
    # each scheme's seed-2 trace copies its seed-1 run
    assert [harness.parse_csv(path)[0].get("same_as") for path in result.paths] == [
        None if cell.seed == 1 else harness._resolve(cell.spec, cell.scheme, 1).file
        for cell in cells if cell.spec not in errors]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_run_plan_frees_each_problem_after_its_cells(tmp_path, monkeypatch, threads):
    # each problem's runs end before the next problem is built, with any
    # number of workers
    monkeypatch.setenv("VIKIT_THREADS", threads)
    built, alive_at_build = [], []
    rules = {ProblemInstance.__post_init__.__code__:
             lambda frame, arg: built.append(weakref.ref(frame.f_locals["self"])),
             harness.parse_problem_spec.__code__:
             lambda frame, arg: alive_at_build.append(sum(ref() is not None for ref in built))}
    plan = harness.ExperimentPlan(problems=["ex1:n=6"], algorithms=[Scheme.IMSEGM],
                                  max_iter=5, seeds=[1, 2, 3], output_dir=str(tmp_path))
    result, _ = count_calls(rules, harness.run_plan, plan)
    assert result.errors == [] and alive_at_build == [0, 0, 0]
