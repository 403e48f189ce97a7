"""A step allocates no vector: in steady state on a 10001-node grid, no
ex2 scheme page-faults, whether or not its solve records its residuals,
and an ex1 step that makes no Armijo search allocates less than one
n-vector, over ex1's box or over a halfspace C.

Each solve owns its work vectors, made once before its loop, and every
step writes its vectors there, the residuals' differences and the clipped
trial point included. A step that made new 80 KB temporaries let glibc
trim the heap and fault the pages back in: 2.1-52.6 minor faults per
iteration, by scheme, on this grid. The ex2 solves run in a fresh process
whose environment holds no malloc setting, so that none can hide a fault.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from vikit.algorithms import Scheme, _build_step
from vikit.harness import make_config, parse_problem_spec
from vikit.problems import initial_points
from vikit.projections import HalfSpace
from vikit.stepsize import Armijo

SRC = Path(__file__).resolve().parents[1] / "src"
ITERS = 100

# each scheme solves twice, recording nothing and then its residuals; the
# second solve's minor faults per iteration
CHILD = f"""
import json, resource
from vikit.algorithms import Scheme, solve
from vikit.harness import make_config, parse_problem_spec
from vikit.problems import initial_points

problem, init = parse_problem_spec("ex2:grid=10001", 1)
x0, x1 = initial_points(problem, init, seed=1)
faults = {{}}
for record in (False, True):
    for scheme in Scheme:
        cfg = make_config(scheme, problem, x0=x0, x1=x1, max_iter={ITERS},
                          record_invariants=record)
        solve(problem, cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve(problem, cfg)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        faults[scheme.value + (" recording" if record else "")] = (after - before) / {ITERS}
print(json.dumps(faults))
"""


def test_no_scheme_page_faults_in_steady_state_on_a_10001_node_grid():
    # glibc reads malloc settings from MALLOC_* variables and GLIBC_TUNABLES
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    faults = json.loads(run.stdout)
    assert list(faults) == ([scheme.value for scheme in Scheme]
                            + [f"{scheme.value} recording" for scheme in Scheme])
    assert all(per_iter <= 0.1 for per_iter in faults.values()), faults


def test_a_non_armijo_ex1_step_allocates_no_n_vector():
    # 50 steps of each scheme's built step on ex1's box and on the
    # halfspace {x : <1, x> <= 0} through its solution 0, under tracemalloc,
    # which sees numpy's array data: a vector the step made, such as a
    # clip or a projection into a new array, would take 8n bytes
    problem, init = parse_problem_spec("ex1:n=400,seed=1", 1)
    x0, x1 = initial_points(problem, init, seed=1)
    n, grown = problem.space.dim, {}
    halfspace = dataclasses.replace(problem, C=HalfSpace(np.ones(n), np.zeros(n), problem.space))
    for name, p in (("box", problem), ("halfspace", halfspace)):
        for scheme in Scheme:
            if scheme.step is Armijo:
                continue
            cfg = make_config(scheme, p, x0=x0, x1=x1)
            x_prev, x, gamma = x0.coords, x1.coords, cfg.step.gamma1
            step = _build_step(scheme, p, cfg, (x_prev, x))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                for k in range(1, 51):
                    x_prev, (x, gamma, _, _) = x, step(k, x_prev, x, gamma)
                grown[name, scheme.value] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
    assert len(grown) == 18 and all(peak < 8 * n for peak in grown.values()), grown
