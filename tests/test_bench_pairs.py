"""tools/bench_pairs.py: alternating runs of two revisions, summarised per
metric."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# a stand-in for perfbench/run.py: it logs its side and seed, and reports
# the value in its tree's VALUE file as its one metric
FAKE_RUN = """
import json, os, sys
from pathlib import Path
seed = sys.argv[sys.argv.index("--seed") + 1]
value = float(Path("VALUE").read_text())
with open(os.environ["BENCH_PAIRS_LOG"], "a") as log:
    log.write(f"{value} {seed}\\n")
print("machine " + json.dumps({"nproc": 2, "seed": int(seed)}))
print("cells attempted 4  failed 0  fail_frac 0.0000  bitwise-equal to reference 4")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"cells_per_s": {"value": value + int(seed) % 2, "unit": "1/s"}}}))
"""


def test_seeds_are_a_range_or_a_list():
    assert bench_pairs.seed_list("3601-3603") == [3601, 3602, 3603]
    assert bench_pairs.seed_list("3,5,9") == [3, 5, 9]


def test_a_summary_counts_the_pairs_the_change_won_in_the_metrics_direction():
    pairs = [(1.0, 2.0), (2.0, 1.0), (3.0, 0.5), (4.0, 4.0)]
    lower = bench_pairs.summarize(pairs, "lower")
    assert lower["change_better_in_pairs"] == "2/4"
    assert bench_pairs.summarize(pairs, "higher")["change_better_in_pairs"] == "1/4"
    assert lower["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert lower["change"]["median"] == 1.5
    assert (lower["change_over_parent"], lower["median_difference"], lower["parent_iqr"]) == (
        0.6, -1.0, 1.5)
    assert lower["per_pair"] == [list(pair) for pair in pairs]


def test_two_revisions_run_alternately_from_their_archives(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    shutil.copy(TOOL, repo / "tools")
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "plan"}], "run_seconds": 0,
        "end_to_end": [{"name": "cells_per_s", "unit": "1/s", "better": "higher"}]}))

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    for value in ("10", "12"):
        (repo / "VALUE").write_text(value)
        git("add", ".")
        git("commit", "-q", "-m", value)
    (repo / "VALUE").write_text("99")  # uncommitted: neither side reads it
    log = tmp_path / "log"
    env = dict(os.environ, BENCH_PAIRS_LOG=str(log))
    subprocess.run([sys.executable, "tools/bench_pairs.py", "HEAD~1", "HEAD", "--pr", "7",
                    "--seeds", "1-4"],
                   cwd=repo, env=env, check=True, capture_output=True)
    assert log.read_text().split("\n")[:-1] == [
        "10.0 1", "12.0 1", "12.0 2", "10.0 2", "10.0 3", "12.0 3", "12.0 4", "10.0 4"]
    report = json.loads((repo / "BENCH_7.json").read_text())
    assert report["machine"] == {"nproc": 2}
    plan = report["workloads"]["plan"]
    assert plan["bitwise_equal_to_reference"] == {"parent": 16, "change": 16}
    assert plan["metrics"]["cells_per_s"]["change_better_in_pairs"] == "4/4"
    assert plan["metrics"]["cells_per_s"]["per_pair"] == [[11.0, 13.0], [10.0, 12.0]] * 2
    assert report["outcome"]["plan"].startswith("cells_per_s 10.5 -> 12.5 (1.1905x, 4/4 pairs")
