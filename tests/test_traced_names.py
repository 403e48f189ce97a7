"""No test rebinds a vikit name that only perfbench's tracer needs.

These names are reached by no product path, and are to be deleted once
the tracer stops rebinding them: step_alg2-step_alg4, step_baseline, the
module-level inner and norm of vikit.space, and the late binding of
make_example1 and make_example2 in problems.FAMILIES. A test that rebinds
one, to count its calls or to stand in for it, would hold it in place, so
tests count with tools/call_counts.count_calls and substitute through a
table such as FAMILIES. Each test module is read with `ast`: a setattr or
patch.object call, or a setattr or patch call with a dotted-string target,
that names one of them is reported with its line.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
# the names, matched on whatever object they are set, and vikit.space's
# functions, matched on an object named space (a SpaceDescriptor, which has
# a norm too, is frozen)
TRACED = {"step_alg2", "step_alg3", "step_alg4", "step_baseline", "make_example1",
          "make_example2", "space.inner", "space.norm"}


def rebindings(source: str) -> list:
    """(line, name) of each call of source that rebinds a name of TRACED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        called, target = getattr(node.func, "attr", getattr(node.func, "id", None)), node.args[0]
        if called in ("setattr", "patch") and isinstance(target, ast.Constant):
            owner, _, name = str(target.value).rpartition(".")
        elif called in ("setattr", "object") and len(node.args) > 1:
            owner, name = ast.unparse(target), getattr(node.args[1], "value", None)
        else:
            continue
        if name in TRACED or f"{owner.rpartition('.')[2]}.{name}" in TRACED:
            found.append((node.lineno, name))
    return found


def test_each_form_of_rebinding_is_found_and_no_other_call():
    source = ("setattr(algorithms, 'step_alg2', f)\n"
              "mock.patch.object(algorithms, 'step_baseline', f)\n"
              "monkeypatch.setattr(vikit.space, 'norm', f)\n"
              "monkeypatch.setattr('vikit.space.inner', f)\n"
              "m.setattr(harness.prob, 'make_example1', f)\n"
              "monkeypatch.setattr(harness, 'solve', f)\n"
              "monkeypatch.setitem(FAMILIES, 'make_example2', f)\n")
    assert rebindings(source) == [(1, "step_alg2"), (2, "step_baseline"), (3, "norm"),
                                  (4, "inner"), (5, "make_example1")]


@pytest.mark.parametrize("module", sorted(path.name for path in TESTS.glob("*.py")))
def test_no_test_rebinds_a_name_only_the_tracer_needs(module):
    found = rebindings((TESTS / module).read_text())
    assert not found, ", ".join(f"{module}:{line} rebinds {name}" for line, name in found)
