"""Compare the end-to-end benchmark metrics of two git revisions in
alternating pairs, and write them to BENCH_<pr>.json.

    python tools/bench_pairs.py PARENT CHANGE --pr N --seeds 3601-3610
        [--claim TEXT] [--change-note TEXT]

PARENT and CHANGE are anything `git archive` reads, such as a commit, or
the staged tree that `git write-tree` names. Each is unpacked from the
repository that holds this script into its own fresh temporary directory,
so that both runs read committed files only. For every workload of
BENCHMARK.json and every seed, `python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`, with BENCHMARK.json's run_seconds as T,
runs once in each tree, one run after the other: the parent first on odd
seeds and second on even ones.

For each end-to-end metric that BENCHMARK.json names, the file gives the
parent's and the change's quartiles over the seeds (numpy's linear
percentiles), the ratio and the difference of the medians, the parent's
interquartile range, the pairs the change won and every pair. With these
go the machine record perfbench printed, the cells each side attempted,
failed and found bitwise-equal to its reference, and one line per metric
in "outcome". The script writes nothing but BENCH_<pr>.json, at the root
of the repository, and its temporary trees, which it removes.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_CELLS = re.compile(r"cells attempted (\d+)\s+failed (\d+)\s.*bitwise-equal to reference (\d+)")


def seed_list(text: str) -> list:
    """'3601-3610' or '3,5,9' as a list of seeds."""
    first, dash, last = text.partition("-")
    if dash:
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def unpack(rev: str, dest: Path) -> Path:
    """The files of rev, from `git archive`, unpacked into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its result line, machine record and cell
    counts."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    result["machine"] = next(json.loads(line[len("machine "):]) for line in lines
                             if line.startswith("machine "))
    attempted, failed, bitwise = map(int, _CELLS.search(out).groups())
    result.update(attempted=attempted, failed=failed, bitwise=bitwise)
    return result


def summarize(pairs: list, better: str) -> dict:
    """The quartiles, ratio and wins of [(parent value, change value)] per
    seed, for a metric whose `better` is "lower" or "higher"."""
    parent, change = (np.array(side, dtype=float) for side in zip(*pairs))
    quartiles = {name: dict(zip(("q1", "median", "q3"), (round(float(q), 4) for q in
                                                         np.percentile(v, [25, 50, 75]))))
                 for name, v in (("parent", parent), ("change", change))}
    won = change < parent if better == "lower" else change > parent
    p_median, c_median = quartiles["parent"]["median"], quartiles["change"]["median"]
    return dict(quartiles, change_better_in_pairs=f"{int(won.sum())}/{len(pairs)}",
                change_over_parent=round(c_median / p_median, 4) if p_median else None,
                median_difference=round(c_median - p_median, 4),
                parent_iqr=round(quartiles["parent"]["q3"] - quartiles["parent"]["q1"], 4),
                per_pair=[[round(p, 4), round(c, 4)] for p, c in pairs])


def compare(trees: dict, workloads: list, seeds: list, seconds: float, metrics: list) -> tuple:
    """(machine record, {workload: summary}) of alternating runs in trees."""
    machine, out = None, {}
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for seed in seeds:
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                runs[side].append(run_once(trees[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", flush=True)
        machine = machine or dict(runs["parent"][0]["machine"])
        summary = {"seeds": seeds, "pairs": len(seeds),
                   "correct": all(r["correct"] for side in SIDES for r in runs[side])}
        for key, field in (("failed", "failed"), ("attempted", "attempted"),
                           ("bitwise_equal_to_reference", "bitwise")):
            summary[key] = {side: sum(r[field] for r in runs[side]) for side in SIDES}
        summary["metrics"] = {}
        for metric in metrics:
            name = metric["name"]
            if name not in runs["parent"][0]["metrics"]:
                continue
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in zip(runs["parent"], runs["change"])]
            summary["metrics"][name] = dict(unit=metric["unit"], better=metric["better"],
                                            **summarize(pairs, metric["better"]))
        out[workload] = summary
    machine.pop("seed", None)
    return machine, out


def outcome(workloads: dict) -> dict:
    """One line per workload: each metric's parent and change medians, ratio,
    pairs won and parent IQR."""
    return {workload: "; ".join(
        f"{name} {m['parent']['median']} -> {m['change']['median']} "
        f"({m['change_over_parent']}x, {m['change_better_in_pairs']} pairs, "
        f"parent IQR {m['parent_iqr']})" for name, m in summary["metrics"].items())
        for workload, summary in workloads.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent revision or tree")
    parser.add_argument("change", help="the changed revision or tree")
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="seeds, as FIRST-LAST or a comma-separated list")
    parser.add_argument("--claim", default="", help="the claim the runs test")
    parser.add_argument("--change-note", default="", help="what the change does")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        trees = {side: unpack(rev, Path(work) / side)
                 for side, rev in zip(SIDES, (args.parent, args.change))}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        machine, results = compare(trees, workloads, args.seeds, seconds, bench["end_to_end"])
    command = (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
               f"--seconds {seconds:g} --trace 0")
    method = (f"tools/bench_pairs.py: one parent run and one change run per seed, each in a "
              f"git archive of its side (parent {args.parent}, change {args.change}); the "
              "parent runs first on odd seeds and second on even seeds, one run at a time, "
              f"workload by workload ({', '.join(workloads)}); quartiles are numpy linear "
              "percentiles over the seeds")
    report = {"change": args.change_note, "claim": args.claim, "command": command,
              "seconds": seconds, "method": method, "machine": machine,
              "outcome": outcome(results), "workloads": results}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
