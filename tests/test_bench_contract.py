"""The names perfbench's tracer binds in vikit still exist and still carry
the calls it counts.

`perfbench/tracer.py` replaces module-level functions, the plan's thread
pool, `parse_problem_spec`, `project`, `solve` and `SpaceElement.__init__`
by name. A refactor that renames or drops one of them breaks every traced
benchmark run, so a small traced plan runs here.
"""

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
    plan = harness.ExperimentPlan(problems=["ex1:n=6,seed=1"],
                                  algorithms=[Scheme.IMSEGM, Scheme.STEGM],
                                  max_iter=5, seeds=[1], output_dir=str(tmp_path))
    with tracer.installed(tracer.Recorder()) as rec:
        result = harness.run_plan(plan)
    assert result.errors == []
    assert len(rec.cells) == 2
    metrics = tracer.layer_metrics(rec.arrays(), n_cells=2)
    assert metrics["operators.A_evals_per_iter.imsegm"][0] == 2.0
    assert metrics["problems.build_s"][0] > 0.0  # builds go through make_example1
    assert _bound_names(tracer) == before
