"""The names perfbench's tracer binds in vikit still exist and still carry
the calls it counts, the library calls of perfbench's workloads still
work, and perfbench names every scheme.

`perfbench/tracer.py` replaces module-level functions, the plan's thread
pool, `parse_problem_spec`, `project`, `solve` and `SpaceElement.__init__`
by name. A refactor that renames or drops one of them breaks every traced
benchmark run, so a small traced plan runs here. `perfbench/run.py` builds,
certifies, configures, validates, solves and writes its library cells
through vikit's public functions, so two small cells run here through it. perfbench keeps its own list of the scheme names, and
`BENCHMARK.json` one per-scheme metric for each, so a scheme added to vikit
alone would go untraced; that is checked here too.
"""

import json
import sys
from pathlib import Path

from vikit import algorithms, harness, projections, space
from vikit.algorithms import Scheme

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bound_names(tracer):
    names = {(modname, attr): getattr(sys.modules[modname], attr)
             for modname, attr, _ in tracer.FUNCTION_SPANS}
    names.update({
        ("vikit.harness", "ThreadPoolExecutor"): harness.ThreadPoolExecutor,
        ("vikit.harness", "parse_problem_spec"): harness.parse_problem_spec,
        ("vikit.projections", "project"): projections.project,
        ("vikit.algorithms", "solve"): algorithms.solve,
        ("vikit.space", "SpaceElement.__init__"): space.SpaceElement.__init__,
    })
    return names


def test_traced_plan_counts_cells_and_operator_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bound_names(tracer)
    # the four ex1 cells share one wrapped problem; the four ex2 cells share
    # another and, as their start ignores the seed, make two runs. The tracer
    # must see one cell per run, every A call, and one build per problem
    plan = harness.ExperimentPlan(problems=["ex1:n=6,seed=1", "ex2:grid=11"],
                                  algorithms=[Scheme.IMSEGM, Scheme.STEGM],
                                  max_iter=5, seeds=[1, 2], output_dir=str(tmp_path))
    with tracer.installed(tracer.Recorder()) as rec:
        result = harness.run_plan(plan)
    assert result.errors == [] and len(result.paths) == 8
    assert len(rec.cells) == 6
    metrics = tracer.layer_metrics(rec.arrays(), n_cells=6)
    assert metrics["operators.A_evals_per_iter.imsegm"][0] == 2.0
    assert metrics["harness.builds_per_spec"][0] == 1.0
    assert metrics["problems.build_s"][0] > 0.0  # builds go through make_example1
    assert _bound_names(tracer) == before


def test_library_workload_cells_run_through_vikit(tmp_path, monkeypatch):
    # run.py pins the BLAS thread variables at import; setenv restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    instances = run.build(["ex1:n=6,seed=1", "ex2:grid=11"])
    for spec, instance in instances.items():
        for scheme in ("imsegm", "stegm"):
            path = tmp_path / f"{spec}-{scheme}.csv"
            _, _, trace = run.run_cell(instance, 1, scheme, path)
            iterations, _, _ = run.fingerprint(path)
            assert 0 < iterations == len(trace.rows) - 1


def test_perfbench_names_each_scheme_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    names = tuple(s.value for s in Scheme)
    assert tracer.SCHEMES == names
    prefix = "operators.A_evals_per_iter."
    bench = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    metered = [m["name"][len(prefix):] for m in bench["per_layer"]
               if m["name"].startswith(prefix)]
    assert sorted(metered) == sorted(names)
