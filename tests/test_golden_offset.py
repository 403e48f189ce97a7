"""Golden traces on a problem whose A has an offset.

The benchmark families' A has none, so test_golden.py's cells never run
the offset branch of AffineMatrix (Gx + f). These cells pin every scheme
on it bit for bit, on the test-only problem of binding_problem.py, where
A(x) = G(x - x*) is AffineMatrix(G, -Gx*) with a known x* != 0, so D_k
and the residuals are finite. The caveats and the way to re-record are
test_golden.py's, with ``_offset_sha(...)`` printed for every scheme.
"""

import hashlib

import pytest

from binding_problem import binding_problem
from test_golden import MAX_ITER, SEED
from vikit import harness
from vikit.algorithms import Scheme, solve
from vikit.problems import initial_points

PROBLEM = binding_problem(8, 4, 1)

GOLDEN_OFFSET = {
    "imsegm":
        "b46e639cdbbeccb5e65d77ea4527f546d197036edaa81e3d9b70b8f1643b98bf",
    "imtegm":
        "70aecc7a3da1d6df499dd5bc84b9a51aa85e98bd3194721f9f1b5fa2611cacdc",
    "immsegm":
        "fe019f12ca5d32a1b16cf138d4c061a952284b61b6a6862cb980c18d3bb4552f",
    "immtegm":
        "28882d9589b5adff33edffd337e29e46d20e2eb99ce8641edec3c4fc93cd45fc",
    "hsegm":
        "05d14bbd0445d5ad96bfddb57bfe502b7ae6c9ded4c0b71701f64baf4f5c48d1",
    "stegm":
        "045b02ee7190254773ede63e70ea6170223ea9a175769927b72f591f66bc512e",
    "msegm":
        "5f890a59e2f45e17d739459d89805fa88024561cf1008c5bda1d16f1d6e9fcba",
    "mmsegm":
        "daf32842c8db56989631f6b0ded6b4e99fc7df1631d7e1b48970a93d5b586d4e",
    "vsegm":
        "acead3b02f6e98f367b228b99447b439f7e7fb87a35ee54ff299b542e47a8340",
    "vtegm":
        "84d5d3438ec5b131732ef4234edaa94fc077866aed3cceee62f64b9ac0ada175",
}


def _offset_sha(scheme: Scheme, path, problem=PROBLEM) -> str:
    """The fingerprint hash of scheme's trace on problem, written to path."""
    x0, x1 = initial_points(problem, "random_uniform", seed=SEED)
    cfg = harness.make_config(scheme, problem, x0=x0, x1=x1, max_iter=MAX_ITER,
                              record_invariants=True)
    header = harness.TraceFileHeader.create(scheme, "table1", problem.problem_id,
                                            SEED, problem.space.dim)
    harness.emit_csv(solve(problem, cfg), header, path)
    lines = harness.trace_fingerprint(path)
    assert len(lines) == MAX_ITER + 1
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_offset_trace_matches_golden_fingerprint(scheme, tmp_path):
    assert _offset_sha(scheme, tmp_path / "trace.csv") == GOLDEN_OFFSET[scheme.value]
