import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_properties import NOT_INTEGERS, problem_specs
from vikit import harness, problems
from vikit.algorithms import Scheme, SequenceRule
from vikit.cli import main
from vikit.space import element


def test_run_writes_traces_and_prints_paths(tmp_path, capsys):
    code = main([
        "run",
        "--problem", "ex1:n=8,seed=2",
        "--alg", "imsegm",
        "--alg", "msegm",
        "--max-iter", "20",
        "--out", str(tmp_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 2
    for line in printed:
        meta, rows = harness.parse_csv(line)
        assert len(rows) == 21
        assert meta["seed"] == "1"  # default seed


def test_run_alg_all_expands_to_ten(tmp_path, capsys):
    code = main([
        "run",
        "--problem", "ex2:grid=21",
        "--alg", "all",
        "--max-iter", "5",
        "--seed", "2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 10


def test_run_is_reproducible(tmp_path):
    args = ["run", "--problem", "ex1:n=8,seed=2", "--alg", "imtegm",
            "--max-iter", "15", "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    fa = harness.trace_fingerprint(tmp_path / "a" / "ex1_n=8_seed=2__imtegm__seed4.csv")
    fb = harness.trace_fingerprint(tmp_path / "b" / "ex1_n=8_seed=2__imtegm__seed4.csv")
    assert fa == fb


def test_rerun_into_the_same_directory_exits_two_and_keeps_the_traces(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--problem", "ex2:grid=21", "--alg", "imsegm", "--max-iter", "5",
            "--out", str(out)]
    assert main(args + ["--seed", "1"]) == 0
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(args + ["--seed", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "already exists; cell ex2:grid=21|imsegm|seed=1 would overwrite it" in captured.err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first


def test_run_unknown_algorithm_exits_nonzero(tmp_path, capsys):
    assert main(["run", "--problem", "ex1:n=5", "--alg", "bogus",
                 "--out", str(tmp_path)]) == 2
    assert main(["validate", "--alg", "bogus"]) == 2
    assert capsys.readouterr().err.count("unknown algorithm 'bogus'") == 2


def test_validate_clean_presets(capsys):
    code = main(["validate", "--alg", "all", "--horizon", "100",
                 "--problem", "ex1:n=5,seed=1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 10


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_validate_horizon_below_one_exits_two(capsys, horizon):
    assert main(["validate", "--alg", "imsegm", "--horizon", horizon]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"horizon must be an integer in [1,inf), got {horizon}" in out.err


def test_validate_bad_problem_spec_exits_two(capsys):
    assert main(["validate", "--alg", "imsegm", "--problem", "ex9:n=5"]) == 2


def test_check_certifies_instances(capsys):
    assert main(["check", "--problem", "ex1:n=6,seed=3"]) == 0
    assert "certified" in capsys.readouterr().out
    assert main(["check", "--problem", "ex2:grid=31"]) == 0


def test_record_invariants_adds_columns(tmp_path):
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--max-iter", "10", "--record-invariants",
                 "--out", str(tmp_path)])
    assert code == 0
    path = next(tmp_path.glob("*.csv"))
    _, rows = harness.parse_csv(path)
    assert rows[1].residuals is not None
    assert rows[1].residuals[1] <= 1e-12  # halfspace membership
    assert np.isfinite(rows[1].residuals[0])


def test_run_rejects_duplicate_cells_before_running(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--alg", "all", "--out", str(out)])
    assert code == 2
    assert "duplicate plan cells" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol,named", [
    ("nan", "argument --tol: invalid decimal value: 'nan'"),
    ("inf", "argument --tol: invalid decimal value: 'inf'"),
    ("0", "tol must be a real number in (0,inf), got 0.0"),
    ("-1", "tol must be a real number in (0,inf), got -1.0"),
    ("1e400", "tol must be a real number in (0,inf), got inf"),
], ids=["nan", "inf", "0", "-1", "1e400"])
def test_bad_tolerance_rejected_before_running(tmp_path, capsys, tol, named):
    # nan and inf are no decimal numbers; the others are, but out of range
    out = tmp_path / "out"
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--tol", tol, "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_empty_out_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--problem", "ex2:grid=5", "--alg", "imsegm", "--max-iter", "3",
                 "--out", ""])
    assert code == 2
    assert "output_dir must name a directory, got ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_rejects_unknown_spec_key(capsys):
    assert main(["check", "--problem", "ex1:dim=7"]) == 2
    assert "unknown key 'dim'" in capsys.readouterr().err


@pytest.mark.parametrize("spec,named", [
    ("ex1:n=5,init=bogus", "ex1 accepts random_uniform"),
    ("ex1:n=5,init=t_squared", "ex1 accepts random_uniform"),
    ("ex1:n=abc", "key 'n'"),
    ("ex1:n=5,seed=", "key 'seed'"),
    ("ex2:grid=1.5", "key 'grid'"),
])
def test_check_rejects_bad_start_or_value(capsys, spec, named):
    assert main(["check", "--problem", spec]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert repr(spec) in out.err and named in out.err


@pytest.mark.parametrize("spec,named", [
    ("ex1:n=0", "n must be an integer in [1,inf), got 0"),
    ("ex1:n=5,seed=-1", "seed must be an integer in [0,inf), got -1"),
    ("ex2:grid=1", "grid must be an integer in [2,inf), got 1"),
    ("ex2:grid=-3", "grid must be an integer in [2,inf), got -3"),
])
def test_check_rejects_out_of_range_values_naming_the_spec(capsys, spec, named):
    assert main(["check", "--problem", spec]) == 2
    err = capsys.readouterr().err
    assert repr(spec) in err and named in err


def test_run_rejects_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    for spec in ("ex1:n=4", "ex2:grid=11"):
        assert main(["run", "--problem", spec, "--alg", "imsegm", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "seeds[0] must be an integer in [0,inf), got -1" in capsys.readouterr().err
    assert not out.exists()


def test_check_accepts_every_ex2_start(capsys):
    for init in ("t_plus_half_cos_t", "random_uniform"):
        assert main(["check", "--problem", f"ex2:grid=31,init={init}"]) == 0
    assert capsys.readouterr().out.count("ex2:grid=31: certified") == 2


def test_cli_import_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; import vikit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_trace_write_failure_exits_one_whatever_the_path(tmp_path, capsys):
    # the output path reads "violation", which once counted as bad input
    out = tmp_path / "violation_out"
    (out / "ex1_n=8_seed=2__imsegm__seed1.csv").mkdir(parents=True)
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--max-iter", "5", "--out", str(out)])
    assert code == 1
    assert "failed to write trace" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1_0", "\u0663"])
def test_bad_thread_count_rejected_before_running(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("VIKIT_THREADS", value)
    out = tmp_path / "out"
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--max-iter", "5", "--out", str(out)])
    assert code == 2
    assert "VIKIT_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_run_into_a_path_that_is_not_a_directory_exits_two(tmp_path, capsys):
    # the output directory is the file itself or would lie under it
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    for out in (afile, afile / "sub", afile / "sub" / "deeper"):
        code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                     "--max-iter", "5", "--out", str(out)])
        assert code == 2
        assert f"{afile} exists and is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"


def _ex2_with_a_wrong_solution(grid):
    problem = problems.make_example2(grid)
    return dataclasses.replace(problem, x_star=element(problem.space, np.full(grid, 0.5)))


@pytest.mark.parametrize("argv", [
    ["validate", "--alg", "imsegm", "--alg", "msegm", "--horizon", "3"],
    ["check", "--problem", "ex2:grid=5"],
])
def test_failed_validation_or_certification_prints_each_failure_and_exits_two(
        argv, monkeypatch, capsys):
    bad = dict(harness.TABLE1[Scheme.IMSEGM], theta=SequenceRule("constant", 1.5))
    monkeypatch.setitem(harness.TABLE1, Scheme.IMSEGM, bad)
    monkeypatch.setitem(problems.FAMILIES, "ex2", problems.FAMILIES["ex2"]._replace(
        build=_ex2_with_a_wrong_solution))
    assert main(argv) == 2
    if argv[0] == "validate":
        expected = [f"imsegm: theta_range at k={k}: theta_k=1.5 outside (0,1)"
                    for k in (1, 2, 3)] + ["msegm: ok (3 terms)"]
    else:
        failures = problems.certify(_ex2_with_a_wrong_solution(5))
        assert failures[0].startswith("VI solution residual")
        expected = [f"ex2:grid=5: {failure}" for failure in failures]
    assert capsys.readouterr().out.splitlines() == expected


# (arguments before the flag, an integer flag, its least accepted value);
# the problems are tiny and --max-iter is at most 5. A seed is checked also
# where the problem (ex2) does not read it
INTEGER_FLAGS = [
    (["run", "--problem", "ex2:grid=5", "--alg", "imsegm"], "--max-iter", 1),
    (["run", "--problem", "ex2:grid=5", "--alg", "imsegm", "--max-iter", "2"], "--seed", 0),
    (["validate", "--alg", "imsegm", "--problem", "ex2:grid=5"], "--horizon", 1),
    (["validate", "--alg", "imsegm", "--problem", "ex2:grid=5"], "--seed", 0),
    (["check", "--problem", "ex2:grid=5"], "--seed", 0),
]


@settings(max_examples=40)
@given(st.sampled_from(INTEGER_FLAGS),
       st.one_of(st.integers(-3, 5).map(str), st.sampled_from(NOT_INTEGERS)))
def test_integer_flags_take_ascii_decimals_only(case, value):
    before, flag, least = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        out = ["--out", os.path.join(tmp, "out")] if before[0] == "run" else []
        code = main(before + [flag, value] + out)
    if value in NOT_INTEGERS:
        assert code == 2
        assert f"argument {flag}: invalid integer value: {value!r}" in err.getvalue()
    else:
        assert code == (2 if int(value) < least else 0), err.getvalue()


# (a command's argv, a scalar flag of it, an accepted value); run's scalar
# flags are drawn by test_run_argv_succeeds_or_names_what_it_rejects
SCALAR_FLAGS = [
    (["validate", "--alg", "imsegm"], "--horizon", "5"),
    (["validate", "--alg", "imsegm"], "--problem", "ex2:grid=5"),
    (["validate", "--alg", "imsegm"], "--seed", "1"),
    (["check"], "--problem", "ex2:grid=5"),
    (["check", "--problem", "ex2:grid=5"], "--seed", "1"),
]


@pytest.mark.parametrize("before,flag,value", SCALAR_FLAGS)
def test_a_scalar_flag_given_twice_exits_two_and_names_it(capsys, before, flag, value):
    assert main(before + [flag, value]) == 0, capsys.readouterr().err
    capsys.readouterr()
    assert main(before + [flag, value, f"{flag}={value}"]) == 2
    assert f"argument {flag}: given more than once" in capsys.readouterr().err


# --tol values: accepted, decimal but not a positive finite number (argparse
# reads the two negative ones as values), and no decimal number at all
TOLS = ["1e-3", "0.5", ".5", "2.", "+1E-2", "7"]
OUT_OF_RANGE_TOLS = ["0", "-1", "-.5", "0e0", "1e400"]
NOT_DECIMALS = ["1_0", "\u0661", "nan", "inf", " 1e-3", "1e", ".", "0x1", ""]
SCHEME_NAMES = [s.value for s in Scheme] + ["all"]

# (accepted, possibly rejected) values of each part of a run's argv
RUN_PARTS = {
    "spec": (st.sampled_from(["ex1:n=4", "ex1:n=3,seed=2", "ex2:grid=5",
                              "ex2:grid=7,init=random_uniform"]), problem_specs()),
    "alg": (st.sampled_from(SCHEME_NAMES), st.sampled_from(["bogus", "", "IMSEGM"])),
    "tol": (st.one_of(st.none(), st.sampled_from(TOLS)),
            st.sampled_from(OUT_OF_RANGE_TOLS + NOT_DECIMALS)),
    "out": (st.just("dir"), st.sampled_from(["empty", "under_file"])),
    "flag": (st.none(), st.sampled_from(["--bogus", "-z", "--tol=1", "--problem"])),
    # a scalar flag given a second time, with an accepted value
    "repeat": (st.none(), st.sampled_from(["--max-iter", "--tol", "--out"])),
}


@st.composite
def run_argv_parts(draw):
    """One value per part of a run's argv, of which at most two may be bad."""
    bad = draw(st.sets(st.sampled_from(sorted(RUN_PARTS)), max_size=2))
    return {part: draw(RUN_PARTS[part][part in bad]) for part in RUN_PARTS}


@settings(max_examples=60, deadline=None)
@given(run_argv_parts())
def test_run_argv_succeeds_or_names_what_it_rejects(parts):
    spec, alg, tol, out_kind, flag, repeat = (
        parts[k] for k in ("spec", "alg", "tol", "out", "flag", "repeat"))
    with tempfile.TemporaryDirectory() as tmp:
        afile = os.path.join(tmp, "afile")
        Path(afile).write_text("")
        out = {"dir": os.path.join(tmp, "out"), "empty": "",
               "under_file": os.path.join(afile, "sub")}[out_kind]
        argv = ["run", "--problem", spec, "--alg", alg, "--max-iter", "2", "--out", out]
        argv += [] if tol is None else ["--tol", tol]
        argv += [] if flag is None else [flag]
        if repeat is not None:
            argv += [repeat, {"--max-iter": "3", "--tol": "1e-3",
                              "--out": os.path.join(tmp, "out2")}[repeat]]
        # what stderr says of each bad part; one of them must be said
        named = []
        if flag in ("--bogus", "-z"):
            named.append(f"unrecognized arguments: {flag}")
        if flag == "--problem":
            named.append("argument --problem: expected one argument")
        if tol in NOT_DECIMALS:
            named.append(f"argument --tol: invalid decimal value: {tol!r}")
        tols = [v for v in (tol, "1" if flag == "--tol=1" else None,
                            "1e-3" if repeat == "--tol" else None) if v is not None]
        if len(tols) > 1:
            named.append("argument --tol: given more than once")
        elif tols and tols[0] in OUT_OF_RANGE_TOLS:
            named.append("tol must be a real number in (0,inf)")
        if repeat in ("--max-iter", "--out"):
            named.append(f"argument {repeat}: given more than once")
        if alg not in SCHEME_NAMES:
            named.append(f"unknown algorithm {alg!r}")
        if out_kind == "empty":
            named.append("output_dir must name a directory, got ''")
        if out_kind == "under_file":
            named.append(f"output path {afile} exists and is not a directory")
        try:
            harness.parse_problem_spec(spec, 1)
        except ValueError:
            named.append(f"FAILED {spec}|")
        err, printed = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(printed), \
                contextlib.chdir(tmp):
            code = main(argv)
        if not named:
            assert code == 0, err.getvalue()
            assert len(printed.getvalue().splitlines()) == (10 if alg == "all" else 1)
        else:
            assert code == 2, err.getvalue()
            assert any(part in err.getvalue() for part in named), (named, err.getvalue())
