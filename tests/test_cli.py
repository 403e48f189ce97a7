import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vikit import harness
from vikit.cli import main


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
    assert f"horizon must be >= 1, got {horizon}" in out.err


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


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_rejected_before_running(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--tol", tol, "--out", str(out)])
    assert code == 2
    assert "tol must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_thread_count_rejected_before_running(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("VIKIT_THREADS", value)
    out = tmp_path / "out"
    code = main(["run", "--problem", "ex1:n=8,seed=2", "--alg", "imsegm",
                 "--max-iter", "5", "--out", str(out)])
    assert code == 2
    assert "VIKIT_THREADS" in capsys.readouterr().err
    assert not out.exists()
