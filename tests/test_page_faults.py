"""The ex2 step allocates nothing: in steady state on a 10001-node grid,
no scheme page-faults, whether or not its solve records its residuals.

Each solve owns its work vectors, made once before its loop, and every
step writes its vectors there, the residuals' differences included. A step
that made new 80 KB temporaries let glibc trim the heap and fault the pages
back in: 2.1-52.6 minor faults per iteration, by scheme, on this grid. The
solves run in a fresh process whose environment holds no malloc setting,
so that none can hide a fault.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from vikit.algorithms import Scheme

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
