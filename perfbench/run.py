"""vikit benchmark: time to D_k <= 1e-8, iteration and plan throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ex1-n100 --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched; the
times of the interpreter-bound measurements are scaled to a nominal machine
speed with the yardstick in yardstick.py.
``--trace 1`` is the separate traced run: it repeats one batch untraced,
then once more with every vikit entry point wrapped (see tracer.py), and
reports the per-layer metrics. Every run checks each cell's trace against
perfbench/reference.json and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, and why each exists, are described in perfbench/RATIONALE.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

SCHEMES = tracer.SCHEMES

# Library workloads: every cell runs in-process until D_k <= TOL or MAX_ITER.
LIB_TOL = 1e-8
LIB_MAX_ITER = 400
# The seed draws the instances from these pools; every pool member has a
# recorded reference. `scaled`: times are scaled to the nominal machine
# speed with the interpreter yardstick (yardstick.py). ex1-n2000 is not:
# its time is mat-vec on a 32 MB matrix, which the host's slow stretches
# barely touch, and scaling it by interpreter speed only adds their noise.
LIBRARY = {
    "ex1-n100": dict(n=100, problem_pool=range(8), init_pool=range(8),
                     problems=2, inits=2, setup_reps=15, scaled=True),
    "ex1-n2000": dict(n=2000, problem_pool=range(4), init_pool=range(4),
                      problems=1, inits=1, setup_reps=3, scaled=False),
    "ex2-g10001": dict(specs=("ex2:grid=10001,init=t_squared",
                              "ex2:grid=10001,init=t_plus_half_cos_t"),
                       setup_reps=9, scaled=True),
}
# A yardstick probe runs between cells once this much time has passed
# since the last one, and always between batches and set-up repeats.
PROBE_EVERY_S = 0.5

# The plan workload: one `vikit run` subprocess per batch.
PLAN_SPECS = ("ex1:n=400,seed=7", "ex2:grid=1001", "ex2:grid=1001,init=t_plus_half_cos_t")
PLAN_SEED_POOL = range(1, 9)
PLAN_SEEDS = 2
PLAN_MAX_ITER = 200
PLAN_SETUP_REPS = 5

WORKLOADS = tuple(LIBRARY) + ("plan",)

# A cell fails when its final D_k differs from the reference by more than
# this share. Relative only: at x* = 0 the plan's D_k reaches 1e-44.
D_RTOL = 1e-6

IMPORT_REPS = 3
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["VIKIT_THREADS"] = str(nproc())
    return env


# ---------------------------------------------------------------------------
# inputs


def library_inputs(workload: str, seed: int):
    """Specs and cells (spec, init seed, scheme) drawn from the seed."""
    w = LIBRARY[workload]
    rng = random.Random(seed)
    if "specs" in w:
        specs = list(w["specs"])
        init_seeds = [0]  # ex2 starting points are fixed functions of t
    else:
        specs = [f"ex1:n={w['n']},seed={p}"
                 for p in sorted(rng.sample(list(w["problem_pool"]), w["problems"]))]
        init_seeds = sorted(rng.sample(list(w["init_pool"]), w["inits"]))
    cells = [(spec, s, scheme) for spec in specs for s in init_seeds for scheme in SCHEMES]
    rng.shuffle(cells)
    return specs, cells


def plan_seeds(seed: int) -> list:
    return sorted(random.Random(seed).sample(list(PLAN_SEED_POOL), PLAN_SEEDS))


def plan_argv(seeds, out: Path) -> list:
    argv = ["run"]
    for spec in PLAN_SPECS:
        argv += ["--problem", spec]
    argv += ["--alg", "all"]
    for s in seeds:
        argv += ["--seed", str(s)]
    return argv + ["--max-iter", str(PLAN_MAX_ITER), "--record-invariants", "--out", str(out)]


def library_key(spec, init_seed, scheme) -> str:
    return f"{spec}|{init_seed}|{scheme}"


def plan_key(spec, seed, scheme) -> str:
    return f"{spec}|{seed}|{scheme}"


# ---------------------------------------------------------------------------
# output check


def fingerprint(path: Path):
    """(iterations, final D_k, sha256 of harness.trace_fingerprint) of a CSV."""
    from vikit import harness

    lines = harness.trace_fingerprint(path)
    last = lines[-1].split(",")
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return int(last[0]) - 1, float(last[1]), sha


def d_close(d: float, ref: float) -> bool:
    return abs(d - ref) <= D_RTOL * abs(ref)


class Tally:
    """Cells attempted and failed, and whether every output that exists is right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.bitwise = 0
        self.notes: list = []

    @classmethod
    def total(cls, tallies) -> "Tally":
        out = cls()
        for t in tallies:
            out.attempted += t.attempted
            out.failed += t.failed
            out.correct &= t.correct
            out.bitwise += t.bitwise
            out.notes += t.notes
        return out


# ---------------------------------------------------------------------------
# library workloads


def build(specs):
    """Build and certify each spec once; returns {spec: (problem, init)}."""
    from vikit import harness, problems

    out = {}
    for spec in specs:
        problem, init = harness.parse_problem_spec(spec, 0)
        failures = problems.certify(problem)
        if failures:
            raise RuntimeError(f"{spec} failed certification: {failures}")
        out[spec] = (problem, init)
    return out


def run_cell(instance, init_seed: int, scheme: str, path: Path):
    """One library cell, as the plan runs it, on a prebuilt instance.
    Returns (solve start, solve wall seconds, trace)."""
    from vikit import algorithms, harness, problems
    from vikit.algorithms import Scheme

    problem, init = instance
    x0, x1 = problems.initial_points(problem, init, seed=init_seed)
    cfg = harness.make_config(Scheme(scheme), problem, x0=x0, x1=x1,
                              max_iter=LIB_MAX_ITER, tol=LIB_TOL)
    violations = harness.validate_conditions(cfg, horizon=LIB_MAX_ITER)
    if violations:
        raise RuntimeError("; ".join(str(v) for v in violations))
    t0 = time.perf_counter()
    trace = algorithms.solve(problem, cfg)
    wall = time.perf_counter() - t0
    header = harness.TraceFileHeader.create(Scheme(scheme), "table1", problem.problem_id,
                                            init_seed, problem.space.dim)
    harness.emit_csv(trace, header, path)
    return t0, wall, trace


def run_batch(instances, cells, out: Path, ref: dict, rec=None, probes=None) -> dict:
    """Every cell once; checks each trace on disk against the reference.
    With `probes`, the yardstick runs between cells and `solve_s` is also
    given scaled to the nominal speed, as `scaled_solve_s`."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    solve_s = 0.0
    spans = []
    iters = 0
    diffs = []
    t0 = time.perf_counter()
    for i, (spec, init_seed, scheme) in enumerate(cells):
        if probes:
            probes.maybe()
        tally.attempted += 1
        path = out / f"cell{i}.csv"
        args = (instances[spec], init_seed, scheme, path)
        try:
            start, wall, trace = rec.in_cell(run_cell, *args) if rec else run_cell(*args)
        except Exception as exc:  # a cell that raises is a failed cell
            tally.failed += 1
            tally.notes.append(f"{spec} {scheme}: {exc!r}")
            continue
        solve_s += wall
        spans.append((start, wall))
        iters += len(trace.rows) - 1
        el = [r.elapsed for r in trace.rows]
        diffs += [b - a for a, b in zip(el, el[1:])]
        _, r_d, r_sha = ref[library_key(spec, init_seed, scheme)]
        if not path.exists():
            tally.failed += 1
            tally.notes.append(f"{spec} {scheme}: trace missing")
            continue
        _, d, sha = fingerprint(path)
        if not d_close(d, r_d):
            tally.failed += 1
            tally.correct = False
            tally.notes.append(f"{spec} {scheme}: final D {d!r} vs reference {r_d!r}")
        tally.bitwise += sha == r_sha
    wall = time.perf_counter() - t0
    batch = dict(tally=tally, solve_s=solve_s, iters=iters, cells=len(cells),
                 diffs=diffs, wall=wall)
    if probes:
        probes.take()
        batch["scaled_solve_s"] = sum(w * probes.scale(s, s + w) for s, w in spans)
    return batch


def timed_setups(build_once, reps: int, probes) -> tuple:
    """Raw and scaled seconds of `reps` calls of build_once(), with a
    yardstick probe after each (no probes: scaled is raw); the last call's
    result."""
    raw, scaled = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = build_once()
        t = time.perf_counter() - t0
        raw.append(t)
        if probes:
            probes.take()
            t *= probes.scale(t0, t0 + raw[-1])
        scaled.append(t)
    return raw, scaled, result


def library_timed(workload: str, seed: int, seconds: float, ref: dict):
    specs, cells = library_inputs(workload, seed)
    scaled = LIBRARY[workload]["scaled"]
    probes = yardstick.Probes(PROBE_EVERY_S) if scaled else None
    raw_setups, setups, instances = timed_setups(
        lambda: build(specs), LIBRARY[workload]["setup_reps"], probes)
    out = WORK / workload / "cells"
    batches = repeat(lambda: run_batch(instances, cells, out, ref, probes=probes), seconds)
    shutil.rmtree(out, ignore_errors=True)
    tally = Tally.total(b["tally"] for b in batches)
    raw = [b["solve_s"] for b in batches]
    solve = [b["scaled_solve_s"] for b in batches] if scaled else raw
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(solve), "s"),
        "iters_per_s": (statistics.median(b["iters"] / s for b, s in zip(batches, solve)), "1/s"),
        "cells_per_s": (statistics.median(b["cells"] / s for b, s in zip(batches, solve)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setups), "solve_s": len(batches)}
    inputs = {"specs": specs, "init_seeds": sorted({c[1] for c in cells}),
              "cells_per_batch": len(cells), "scaled": scaled,
              "batch_solve_s": solve, "raw_batch_solve_s": raw,
              "raw_setup_s": raw_setups, "yardstick": probes.summary() if probes else None}
    return metrics, samples, tally, inputs


def library_traced(workload: str, seed: int, ref: dict):
    specs, cells = library_inputs(workload, seed)
    out = WORK / workload / "cells"
    base = run_batch(build(specs), cells, out, ref)
    rec = tracer.Recorder()
    with tracer.installed(rec):
        traced = run_batch(build(specs), cells, out, ref, rec=rec)
    shutil.rmtree(out, ignore_errors=True)
    data = rec.arrays()
    np.savez(WORK / f"spans-{workload}.npz", **data)
    metrics, samples, tally = layer_report(data, len(cells), base, traced,
                                           traced["solve_s"] / base["solve_s"], "import vikit")
    return metrics, samples, tally, {"specs": specs, "cells_per_batch": len(cells)}


# ---------------------------------------------------------------------------
# plan workload


def plan_reference(ref: dict, seeds) -> list:
    """(problem id, scheme, iterations, final D, sha) of every cell the plan attempts."""
    cells = []
    for spec in PLAN_SPECS:
        for scheme in SCHEMES:
            for s in seeds:
                pid, it, d, sha = ref[plan_key(spec, s, scheme)]
                cells.append((pid, scheme, it, d, sha))
    return cells


def check_plan(out: Path, expected: list, stdout: str, stderr: str):
    """Match the traces on disk to the attempted cells by content, as a
    multiset: first by fingerprint, then by final D_k within tolerance.
    Returns the tally and the per-iteration times of the traces found."""
    from vikit import harness

    tally = Tally()
    tally.attempted = len(expected)
    unmatched = list(expected)
    leftovers = []
    diffs = []
    for path in sorted(out.glob("*.csv")):
        meta, rows = harness.parse_csv(path)
        el = [r.elapsed for r in rows]
        diffs += [b - a for a, b in zip(el, el[1:])]
        found = (meta.get("problem"), meta.get("scheme"), *fingerprint(path))
        for i, cell in enumerate(unmatched):
            if cell[:2] == found[:2] and cell[4] == found[4]:
                del unmatched[i]
                tally.bitwise += 1
                break
        else:
            leftovers.append(found)
    for found in leftovers:
        for i, cell in enumerate(unmatched):
            if cell[:3] == found[:3] and d_close(found[3], cell[3]):
                del unmatched[i]
                break
        else:
            tally.correct = False
            tally.notes.append(f"trace matches no attempted cell: {found[:4]}")
    tally.failed = len(unmatched)
    printed = [line for line in stdout.splitlines() if line.strip()]
    if len(set(printed)) < len(printed):
        tally.notes.append(f"{len(printed) - len(set(printed))} printed trace paths "
                           "repeat another cell's path")
    errors = [line for line in stderr.splitlines() if line.startswith("FAILED")]
    if errors:
        tally.notes.append(f"{len(errors)} cells reported FAILED, e.g. {errors[0]}")
    return tally, diffs, len(expected) - len(errors)


def run_plan(argv_prefix: list, seeds, out: Path, ref: dict) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.run(argv_prefix + plan_argv(seeds, out), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1, 2):
        raise RuntimeError(f"vikit run exited {proc.returncode}: {proc.stderr[-2000:]}")
    tally, diffs, completed = check_plan(out, plan_reference(ref, seeds),
                                         proc.stdout, proc.stderr)
    shutil.rmtree(out, ignore_errors=True)
    return dict(tally=tally, diffs=diffs, wall=wall, cells=tally.attempted,
                iters=completed * PLAN_MAX_ITER)


VIKIT_RUN = [sys.executable, "-m", "vikit.cli"]


def cold_import_s() -> float:
    code = "import time; t = time.perf_counter(); import vikit.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip())


def plan_timed(seed: int, seconds: float, ref: dict):
    """Set-up is a single-threaded cold import and is scaled like the
    interpreter-bound library workloads. The plan's wall time is not: it runs
    VIKIT_THREADS threads on every core, the yardstick before and after a
    ~13 s run does not follow it, and its raw time spreads least."""
    seeds = plan_seeds(seed)
    probes = yardstick.Probes(PROBE_EVERY_S)
    raw_setups, setups = [], []
    for _ in range(PLAN_SETUP_REPS):
        t0 = time.perf_counter()
        t = cold_import_s()
        t1 = time.perf_counter()
        probes.take()
        raw_setups.append(t)
        setups.append(t * probes.scale(t0, t1))
    out = WORK / "plan" / "out"
    batches = repeat(lambda: run_plan(VIKIT_RUN, seeds, out, ref), seconds)
    tally = Tally.total(b["tally"] for b in batches)
    wall = [b["wall"] for b in batches]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(wall), "s"),
        "iters_per_s": (statistics.median(b["iters"] / w for b, w in zip(batches, wall)), "1/s"),
        "cells_per_s": (statistics.median(b["cells"] / w for b, w in zip(batches, wall)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setups), "solve_s": len(batches)}
    return metrics, samples, tally, {"plan_argv": plan_argv(seeds, Path("<out>")),
                                     "batch_wall_s": wall, "raw_setup_s": raw_setups,
                                     "yardstick": probes.summary()}


def plan_traced(seed: int, ref: dict):
    seeds = plan_seeds(seed)
    out = WORK / "plan" / "out"
    base = run_plan(VIKIT_RUN, seeds, out, ref)
    spans = WORK / "spans-plan.npz"
    spans.unlink(missing_ok=True)
    traced = run_plan([sys.executable, str(BENCH / "traced_cli.py"), str(spans)],
                      seeds, out, ref)
    with np.load(spans) as f:
        data = {k: f[k] for k in f.files}
    metrics, samples, tally = layer_report(data, len(data["cells"]), base, traced,
                                           traced["wall"] / base["wall"], "import vikit.cli")
    return metrics, samples, tally, {"plan_argv": plan_argv(seeds, Path("<out>"))}


# ---------------------------------------------------------------------------
# shared measurements


def layer_report(data: dict, n_cells: int, base: dict, traced: dict, overhead: float,
                 import_statement: str):
    """Per-layer metrics, their sample counts and the tally of a traced run."""
    metrics = tracer.layer_metrics(data, n_cells)
    metrics.update(iteration_latency(base["diffs"]))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics.update(import_metrics(import_statement))
    samples = dict.fromkeys(("algorithms.iter_us_p50", "algorithms.iter_us_p90"),
                            len(base["diffs"]))
    return metrics, samples, Tally.total((base["tally"], traced["tally"]))


def repeat(batch, seconds: float) -> list:
    """Run batch() at least once, and again while one more batch (as long as
    the last) would end nearer to `seconds` than stopping now."""
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(batch())
        if time.perf_counter() - start + 0.5 * batches[-1]["wall"] >= seconds:
            return batches


def iteration_latency(diffs: list) -> dict:
    """Per-iteration wall time of an untraced batch, from the trace's elapsed
    column. Not bounded end to end: on plan it mixes two problem families
    half and half under a contended pool, so its median is ill-conditioned."""
    if len(diffs) < 100:
        raise RuntimeError(f"only {len(diffs)} iteration samples; p90 needs 100")
    return {"algorithms.iter_us_p50": (statistics.median(diffs) * 1e6, "us"),
            "algorithms.iter_us_p90": (statistics.quantiles(diffs, n=10)[8] * 1e6, "us")}


def import_metrics(statement: str) -> dict:
    """Self import time per package group, median of IMPORT_REPS cold imports."""
    runs = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        runs.append(tracer.parse_importtime(proc.stderr))
    groups = tracer.median_groups(runs)
    m = {"cli.import_total_s": (sum(groups.values()), "s")}
    for g, v in groups.items():
        m[f"cli.import_self_s.{g}"] = (v, "s")
    return m


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "lib*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
            "VIKIT_THREADS": child_env()["VIKIT_THREADS"], "seed": seed}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vikit" / "__init__.py").is_file():
        print(f"error: no vikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads(REFERENCE.read_text())
    WORK.mkdir(exist_ok=True)

    if args.workload == "plan":
        if args.trace:
            metrics, samples, tally, inputs = plan_traced(args.seed, ref["plan"])
        else:
            metrics, samples, tally, inputs = plan_timed(args.seed, args.seconds, ref["plan"])
    else:
        lib_ref = ref["library"][args.workload]
        if args.trace:
            metrics, samples, tally, inputs = library_traced(args.workload, args.seed, lib_ref)
        else:
            metrics, samples, tally, inputs = library_timed(
                args.workload, args.seed, args.seconds, lib_ref)

    record = machine_record(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record))
    print("inputs " + json.dumps(inputs))
    for name, (value, unit) in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {value:14.6g} {unit}{n}")
    print(f"cells attempted {tally.attempted}  failed {tally.failed}  "
          f"fail_frac {tally.failed / max(tally.attempted, 1):.4f}  "
          f"bitwise-equal to reference {tally.bitwise}")
    for note in tally.notes[:10]:
        print(f"  note: {note}")
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, machine=record, inputs=inputs, samples=samples, notes=tally.notes)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
