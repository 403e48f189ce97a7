"""An outer update's name is written in one module of src/vikit.

What Table 1 and its theorem fix for an outer update is one
`algorithms.Outer` member, and a member equals its name. So a string
literal equal to that name anywhere else in the package would be a second
table keyed on it: only algorithms.py may hold one. The modules are read
with `tokenize`, as tools/code_lines.py reads them.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

from vikit.algorithms import Outer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vikit"
NAMES = {outer.value for outer in Outer}


def outer_names(source: str) -> list:
    """(line, name) of each string literal of source equal to an outer
    update's name; an f-string is no such literal."""
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # an f-string
                continue
            if value in NAMES:
                found.append((tok.start[0], value))
    return found


def test_the_names_are_the_five_outer_updates():
    assert NAMES == {"mann", "modified_mann", "anchored", "viscosity", "hsd"}


def test_each_string_literal_is_read_but_no_comment_or_f_string():
    source = 'x = {"mann": 1}\n# "hsd"\ny = f"{x}hsd"\n"""anchored"""\nz = (\'viscosity\')\n'
    assert outer_names(source) == [(1, "mann"), (4, "anchored"), (5, "viscosity")]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "algorithms.py"))
def test_no_other_module_names_an_outer_update(module):
    assert outer_names((PACKAGE / module).read_text()) == []
