"""Golden traces on a problem whose iterates leave a ball.

ex2's iterates stay inside its unit ball, so test_golden.py's cells never
run the branch of project that scales a point back onto a sphere. These
cells pin every scheme on the test-only problem of ball_problem.py, whose
solution lies on the sphere. The caveats and the way to re-record are
test_golden.py's, with ``_offset_sha(scheme, path, PROBLEM)`` printed for
every scheme.
"""

import pytest

from ball_problem import ball_problem
from test_golden_offset import _offset_sha
from vikit.algorithms import Scheme

PROBLEM = ball_problem(6, 1)

GOLDEN_BALL = {
    "imsegm":
        "ecfef27878d87361bb8d9f99bb4f1cfb414041d6fe713d0193de72774f2c0766",
    "imtegm":
        "bd5c7b7f95e7e282733d9361529ec71b35ab2b47e02f616d2013599dc8f62a94",
    "immsegm":
        "a39bda999cf1cc894475f7a29a84cc890b8909f4994024d340e7c50b1eec681c",
    "immtegm":
        "b4649ce620cfaa0d08b3a72da421da711ba518b0285d4e7ad3670823bbc47db3",
    "hsegm":
        "b527cb4c2556e8daacc09f9cba4058d13360d4c0de0af7eb15d411da1c761337",
    "stegm":
        "9a33eca4e6a0fb88e71acd4629f0406d265f9d1370a23be2b940905748b0f4df",
    "msegm":
        "45970280c05cd5884cac48b1e83e0d8938d08bf69e169a0ab890687bda775f2c",
    "mmsegm":
        "a281aa4a98e49a3178d89b5e5f14113168d580469b38472e38a49b0edcaf4e0a",
    "vsegm":
        "a9fd1bf7fc4fbb11c9cf6a2c72f4393e34b510064dbe77303d0fd79d7ef721f0",
    "vtegm":
        "44c1978cc3ac0da5ab1e691c938661ac5efecd6c779f50b7890d2e34c5f84f44",
}


def _ball_sha(scheme: Scheme, path) -> str:
    return _offset_sha(scheme, path, PROBLEM)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_ball_trace_matches_golden_fingerprint(scheme, tmp_path):
    assert _ball_sha(scheme, tmp_path / "trace.csv") == GOLDEN_BALL[scheme.value]
