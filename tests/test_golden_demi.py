"""Golden traces on a problem whose T is demicontractive with lambda > 0.

Every other golden cell has lambda_T = 0 and a T that is
quasi-nonexpansive. These cells pin every scheme on the test-only problem
of demi_problem.py, T = -1.5 x with lambda_T = 0.2, which reflects each
iterate through the fixed point and moves it further out than it was.
Each cell ends at a finite D_k > 0. The caveats and the way to re-record
are test_golden.py's, with ``_offset_sha(scheme, path, PROBLEM)`` printed
for every scheme.
"""

import pytest

from demi_problem import demi_problem
from test_golden_offset import _offset_sha
from vikit.algorithms import Scheme

PROBLEM = demi_problem()

GOLDEN_DEMI = {
    "imsegm":
        "85a68b63f79cc5107dcd7d0d9ec7b37acf97ae8eb2bc011355a03a53d74fbb2b",
    "imtegm":
        "8af49a61a6b1fd96c4558c12c5366b363575cf4272cc62eed21e828aa1fcc55d",
    "immsegm":
        "70002f128d49a10e4998561655a1de42df0eb93e727476f63a532783d22ba5b9",
    "immtegm":
        "03ed92c3f032c2a884c1efae822ad1ca45d4ad3488625daab680a3be57847c9d",
    "hsegm":
        "e01f44c4c0f707b05abb7c981eb309b2704cf65af4ca4a14a2bb53c42378d79a",
    "stegm":
        "6b2614c4ad0c032d8a9ec86f02ad0cc0f85083724f00e46fc80e09f65c331f82",
    "msegm":
        "9e0049088ce3640c05ca3e6b60d40cd9873babf0cd610804572a12a58c83bd6f",
    "mmsegm":
        "986c2c9a190d111101772504335600b6f1b7dd9220b640c75ed4b72080699b24",
    "vsegm":
        "3e3a53375f0cb3f74d5cb26f3588ac44f04da9d13969f6cddaf1536610f93370",
    "vtegm":
        "0a4be1fa64c9e4acc80db6e0ee7d73a9c043f27029426359e50798b23d126a21",
}


def _demi_sha(scheme: Scheme, path) -> str:
    return _offset_sha(scheme, path, PROBLEM)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_demi_trace_matches_golden_fingerprint(scheme, tmp_path):
    assert _demi_sha(scheme, tmp_path / "trace.csv") == GOLDEN_DEMI[scheme.value]
