"""Golden traces: every scheme must reproduce these trace fingerprints bit
for bit on each of five problems. The hashes pin the exact floating-point
behaviour of the solvers, so a refactor that reorders any arithmetic fails
here. Beyond the two benchmark families, each problem runs a branch that
theirs never reach:

- binding_problem.py's A(x) = G(x - x*) is an AffineMatrix with an offset
  (Gx + f), with a known x* != 0, so D_k and the residuals are finite;
- ball_problem.py's solution lies on the sphere, so project scales points
  back onto it, where ex2's iterates stay inside its unit ball;
- demi_problem.py's T = -1.5 x is demicontractive with lambda_T = 0.2 and
  not quasi-nonexpansive, where every other T has lambda_T = 0; each cell
  ends at a finite D_k > 0.

test_coverage.py runs the same cells. The hashes were recorded with numpy
2.4 and its bundled OpenBLAS on x86-64; a BLAS that sums a mat-vec in
another order changes the rows whose A is an AffineMatrix. To re-record
after a deliberate numerical change, print ``fingerprint_sha(...)`` for
every cell and replace the table.
"""

import hashlib

import pytest

from ball_problem import ball_problem
from binding_problem import binding_problem
from demi_problem import demi_problem
from vikit import harness
from vikit.algorithms import Scheme, solve
from vikit.problems import initial_points

SEED = 1
MAX_ITER = 50

# {name: (problem, start)}, named by problem_id
PROBLEMS = {problem.problem_id: (problem, init) for problem, init in [
    harness.parse_problem_spec("ex1:n=8,seed=1", SEED),
    harness.parse_problem_spec("ex2:grid=31", SEED),
    (binding_problem(8, 4, 1), "random_uniform"),
    (ball_problem(6, 1), "random_uniform"),
    (demi_problem(), "random_uniform"),
]}

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
    ("binding:n=8,dim_v=4,seed=1", "imsegm"):
        "b46e639cdbbeccb5e65d77ea4527f546d197036edaa81e3d9b70b8f1643b98bf",
    ("binding:n=8,dim_v=4,seed=1", "imtegm"):
        "70aecc7a3da1d6df499dd5bc84b9a51aa85e98bd3194721f9f1b5fa2611cacdc",
    ("binding:n=8,dim_v=4,seed=1", "immsegm"):
        "fe019f12ca5d32a1b16cf138d4c061a952284b61b6a6862cb980c18d3bb4552f",
    ("binding:n=8,dim_v=4,seed=1", "immtegm"):
        "28882d9589b5adff33edffd337e29e46d20e2eb99ce8641edec3c4fc93cd45fc",
    ("binding:n=8,dim_v=4,seed=1", "hsegm"):
        "05d14bbd0445d5ad96bfddb57bfe502b7ae6c9ded4c0b71701f64baf4f5c48d1",
    ("binding:n=8,dim_v=4,seed=1", "stegm"):
        "045b02ee7190254773ede63e70ea6170223ea9a175769927b72f591f66bc512e",
    ("binding:n=8,dim_v=4,seed=1", "msegm"):
        "5f890a59e2f45e17d739459d89805fa88024561cf1008c5bda1d16f1d6e9fcba",
    ("binding:n=8,dim_v=4,seed=1", "mmsegm"):
        "daf32842c8db56989631f6b0ded6b4e99fc7df1631d7e1b48970a93d5b586d4e",
    ("binding:n=8,dim_v=4,seed=1", "vsegm"):
        "acead3b02f6e98f367b228b99447b439f7e7fb87a35ee54ff299b542e47a8340",
    ("binding:n=8,dim_v=4,seed=1", "vtegm"):
        "84d5d3438ec5b131732ef4234edaa94fc077866aed3cceee62f64b9ac0ada175",
    ("ball:n=6,seed=1", "imsegm"):
        "ecfef27878d87361bb8d9f99bb4f1cfb414041d6fe713d0193de72774f2c0766",
    ("ball:n=6,seed=1", "imtegm"):
        "bd5c7b7f95e7e282733d9361529ec71b35ab2b47e02f616d2013599dc8f62a94",
    ("ball:n=6,seed=1", "immsegm"):
        "a39bda999cf1cc894475f7a29a84cc890b8909f4994024d340e7c50b1eec681c",
    ("ball:n=6,seed=1", "immtegm"):
        "b4649ce620cfaa0d08b3a72da421da711ba518b0285d4e7ad3670823bbc47db3",
    ("ball:n=6,seed=1", "hsegm"):
        "b527cb4c2556e8daacc09f9cba4058d13360d4c0de0af7eb15d411da1c761337",
    ("ball:n=6,seed=1", "stegm"):
        "9a33eca4e6a0fb88e71acd4629f0406d265f9d1370a23be2b940905748b0f4df",
    ("ball:n=6,seed=1", "msegm"):
        "45970280c05cd5884cac48b1e83e0d8938d08bf69e169a0ab890687bda775f2c",
    ("ball:n=6,seed=1", "mmsegm"):
        "a281aa4a98e49a3178d89b5e5f14113168d580469b38472e38a49b0edcaf4e0a",
    ("ball:n=6,seed=1", "vsegm"):
        "a9fd1bf7fc4fbb11c9cf6a2c72f4393e34b510064dbe77303d0fd79d7ef721f0",
    ("ball:n=6,seed=1", "vtegm"):
        "44c1978cc3ac0da5ab1e691c938661ac5efecd6c779f50b7890d2e34c5f84f44",
    ("demi:k=1.5", "imsegm"):
        "85a68b63f79cc5107dcd7d0d9ec7b37acf97ae8eb2bc011355a03a53d74fbb2b",
    ("demi:k=1.5", "imtegm"):
        "8af49a61a6b1fd96c4558c12c5366b363575cf4272cc62eed21e828aa1fcc55d",
    ("demi:k=1.5", "immsegm"):
        "70002f128d49a10e4998561655a1de42df0eb93e727476f63a532783d22ba5b9",
    ("demi:k=1.5", "immtegm"):
        "03ed92c3f032c2a884c1efae822ad1ca45d4ad3488625daab680a3be57847c9d",
    ("demi:k=1.5", "hsegm"):
        "e01f44c4c0f707b05abb7c981eb309b2704cf65af4ca4a14a2bb53c42378d79a",
    ("demi:k=1.5", "stegm"):
        "6b2614c4ad0c032d8a9ec86f02ad0cc0f85083724f00e46fc80e09f65c331f82",
    ("demi:k=1.5", "msegm"):
        "9e0049088ce3640c05ca3e6b60d40cd9873babf0cd610804572a12a58c83bd6f",
    ("demi:k=1.5", "mmsegm"):
        "986c2c9a190d111101772504335600b6f1b7dd9220b640c75ed4b72080699b24",
    ("demi:k=1.5", "vsegm"):
        "3e3a53375f0cb3f74d5cb26f3588ac44f04da9d13969f6cddaf1536610f93370",
    ("demi:k=1.5", "vtegm"):
        "0a4be1fa64c9e4acc80db6e0ee7d73a9c043f27029426359e50798b23d126a21",
}


def fingerprint_sha(name: str, scheme: Scheme, path) -> str:
    """The sha256 of the fingerprint of scheme's trace on PROBLEMS[name],
    written to path."""
    problem, init = PROBLEMS[name]
    x0, x1 = initial_points(problem, init, seed=SEED)
    cfg = harness.make_config(scheme, problem, x0=x0, x1=x1, max_iter=MAX_ITER,
                              record_invariants=True)
    header = harness.TraceFileHeader.create(scheme, "table1", problem.problem_id,
                                            SEED, problem.space.dim)
    harness.emit_csv(solve(problem, cfg), header, path)
    lines = harness.trace_fingerprint(path)
    assert len(lines) == MAX_ITER + 1
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_the_table_holds_every_problem_and_scheme():
    # the test below runs the table's cells: a Scheme member or a problem
    # without its rows would otherwise go unchecked
    assert set(GOLDEN) == {(name, scheme.value) for name in PROBLEMS for scheme in Scheme}


@pytest.mark.parametrize("name,scheme", list(GOLDEN))
def test_trace_matches_golden_fingerprint(name, scheme, tmp_path):
    assert fingerprint_sha(name, Scheme(scheme), tmp_path / "trace.csv") == GOLDEN[name, scheme]


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_a_run_that_records_nothing_gives_the_golden_columns(name):
    # the golden cells record their residuals; a step that records nothing
    # returns before it builds an IterateState, with the same bits
    problem, init = PROBLEMS[name]
    x0, x1 = initial_points(problem, init, seed=SEED)
    for scheme in Scheme:
        columns = []
        for record in (True, False):
            cfg = harness.make_config(scheme, problem, x0=x0, x1=x1, max_iter=MAX_ITER,
                                      record_invariants=record)
            columns.append([(r.k, r.D.hex(), r.gamma.hex(), r.delta.hex())
                            for r in solve(problem, cfg).rows])
        assert columns[0] == columns[1], scheme
