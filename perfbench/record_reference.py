"""Record perfbench/reference.json: the expected output of every cell any
seed can draw.

    python3 perfbench/record_reference.py

For each cell it stores the iteration count, the final D_k and the sha256
of ``harness.trace_fingerprint``. Library cells run through the same
``run.run_cell`` the benchmark times; plan cells through
``harness.run_plan`` one spec at a time, so no two cells share a file.
Re-record only in a change that edits the benchmark, never in one that
claims a gain.
"""

import json
import shutil
import sys
import time

import run


def record_library(workload: str) -> dict:
    w = run.LIBRARY[workload]
    if "specs" in w:
        specs, init_seeds = list(w["specs"]), [0]
    else:
        specs = [f"ex1:n={w['n']},seed={p}" for p in w["problem_pool"]]
        init_seeds = list(w["init_pool"])
    out = run.WORK / "record"
    out.mkdir(parents=True, exist_ok=True)
    ref = {}
    for spec in specs:
        instance = run.build([spec])[spec]
        for init_seed in init_seeds:
            t0 = time.perf_counter()
            for scheme in run.SCHEMES:
                path = out / "cell.csv"
                run.run_cell(instance, init_seed, scheme, path)
                ref[run.library_key(spec, init_seed, scheme)] = list(run.fingerprint(path))
            print(f"{workload} {spec} init {init_seed}: {time.perf_counter() - t0:.2f} s",
                  file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return ref


def record_plan() -> dict:
    from vikit import harness
    from vikit.algorithms import Scheme

    ref = {}
    for spec in run.PLAN_SPECS:
        out = run.WORK / "record" / "plan"
        shutil.rmtree(out, ignore_errors=True)
        plan = harness.ExperimentPlan(problems=[spec], algorithms=list(Scheme),
                                      max_iter=run.PLAN_MAX_ITER,
                                      seeds=list(run.PLAN_SEED_POOL), output_dir=str(out),
                                      record_invariants=True)
        result = harness.run_plan(plan)
        if result.errors:
            raise RuntimeError(f"{spec}: {result.errors}")
        for path in result.paths:
            meta, _ = harness.parse_csv(path)
            key = run.plan_key(spec, int(meta["seed"]), meta["scheme"])
            ref[key] = [meta["problem"], *run.fingerprint(path)]
        print(f"plan {spec}: {len(result.paths)} cells", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
    return ref


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ref = {"library": {w: record_library(w) for w in run.LIBRARY}, "plan": record_plan()}
    run.REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
