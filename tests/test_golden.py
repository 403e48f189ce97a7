"""Golden traces: every scheme must reproduce these trace fingerprints bit
for bit. The hashes pin the exact floating-point behaviour of the solvers,
so a refactor that reorders any arithmetic fails here.

The hashes were recorded with numpy 2.4 and its bundled OpenBLAS on
x86-64; a BLAS that sums a mat-vec in another order changes the ex1 rows.
To re-record after a deliberate numerical change, print
``_fingerprint_sha(...)`` for every cell and replace the table.
"""

import hashlib

import pytest

from vikit import harness
from vikit.algorithms import Scheme, solve
from vikit.problems import initial_points

SEED = 1
MAX_ITER = 50

GOLDEN = {
    ("ex1:n=8,seed=1", "imsegm"):
        "c9756da26cac9aafc8a162f09b16da046890752e2ffa71f9fcb53b1cebd9dac7",
    ("ex1:n=8,seed=1", "imtegm"):
        "85bd3e937ca8c38e2c59b86a4d2a9b5aff407538c0c979019c13185c28e06c93",
    ("ex1:n=8,seed=1", "immsegm"):
        "9079df6957493207afd3fabede19f414078b14c178142a7e54419b3627667d8c",
    ("ex1:n=8,seed=1", "immtegm"):
        "2ed263099776d0417668ecafd851f63815892c07416f72528a775f02c2d120a4",
    ("ex1:n=8,seed=1", "hsegm"):
        "7b0a941409b0cef8dd7516e4c20f6b6b67c1432d86e40ca31fee828e767bc651",
    ("ex1:n=8,seed=1", "stegm"):
        "518b41c25a95872bf5af297404a13c69cbad8f7b2fdd75477c06fb142054ddba",
    ("ex1:n=8,seed=1", "msegm"):
        "58a7c7b47b752f9e18db04fa11bcd7ed498de3fa45b1e05c7c6799fd825851c9",
    ("ex1:n=8,seed=1", "mmsegm"):
        "681ec3ab7aa6346f8cc1ba489e637f5e3e3493870334dc86abf9e086ae3c6b8e",
    ("ex1:n=8,seed=1", "vsegm"):
        "5cc6d216f41effe42780ad85ef0b2037b09dfda01f7d121120364032241c0e8a",
    ("ex1:n=8,seed=1", "vtegm"):
        "e46d885ef31968d010fdc42ea7add9f1af88025f1362200ce33352a863e1750f",
    ("ex2:grid=31", "imsegm"):
        "660135f647714c36a034655c8574ae9e3e592b6657b3c37b9de2593f1c6269d5",
    ("ex2:grid=31", "imtegm"):
        "54a24c11134cfb8daeafe174d0de70e919085efde9dab262590a9fc8f21ca76f",
    ("ex2:grid=31", "immsegm"):
        "f3cc1bfd9008fb0569956aac3fdbb182d07736eb2b149e71d45bc6372839e4dd",
    ("ex2:grid=31", "immtegm"):
        "6367de2dafd553489b9cc517b8bdb8700834fc326fc1bb3fbeee63e1266a0f1c",
    ("ex2:grid=31", "hsegm"):
        "e327b90924fe07502d4297db4b3f5ec45e2a72eebc4a9f7ff849215ba3060eea",
    ("ex2:grid=31", "stegm"):
        "25513273c34438d82169a67d9a21ac4c1b1a123a6afff01a830882867ac3b71e",
    ("ex2:grid=31", "msegm"):
        "0237b567c8c5b845e37bc38117b113b0b3ec351a32c2a05acd76580a1b46a863",
    ("ex2:grid=31", "mmsegm"):
        "09b43dcdd4a7000713a145d88cf899323d618e2829cce22afa11431bd14b3e1d",
    ("ex2:grid=31", "vsegm"):
        "81f6646f80ea000f7d410a4c1c25a16373f549a1523abd63b77017756a3b3730",
    ("ex2:grid=31", "vtegm"):
        "5240bbd3559db45bf7944085ba01c2c93f37d2bbb62eb2ec696912085e249cf2",
}


def _fingerprint_sha(spec: str, scheme: Scheme, path) -> str:
    problem, init = harness.parse_problem_spec(spec, SEED)
    x0, x1 = initial_points(problem, init, seed=SEED)
    cfg = harness.make_config(scheme, problem, x0=x0, x1=x1, max_iter=MAX_ITER,
                              record_invariants=True)
    trace = solve(problem, cfg)
    header = harness.TraceFileHeader.create(scheme, "table1", problem.problem_id,
                                            SEED, problem.space.dim)
    harness.emit_csv(trace, header, path)
    lines = harness.trace_fingerprint(path)
    assert len(lines) == MAX_ITER + 1
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("spec", ["ex1:n=8,seed=1", "ex2:grid=31"])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_trace_matches_golden_fingerprint(spec, scheme, tmp_path):
    sha = _fingerprint_sha(spec, scheme, tmp_path / "trace.csv")
    assert sha == GOLDEN[(spec, scheme.value)]
