"""Which statements of the numerical core the golden cells run.

test_golden.py, test_golden_offset.py, test_golden_ball.py and
test_golden_demi.py pin each scheme's arithmetic bit for bit, but only on
the statements their 50 cells execute. This test runs the same cells under a sys.settrace line
collector and checks that every statement of the functions in CORE is
reached, apart from those in UNREACHED. Each of those names the test that
pins it instead, and leaves the list once a golden cell reaches it. Line
coverage does not see a branch inside one statement (a conditional
expression, or the right operand of `and`), so such a branch needs a
statement of its own to be counted.
"""

import ast
import functools
import importlib
import inspect
import sys
import textwrap

from test_golden import GOLDEN, _fingerprint_sha
from test_golden_ball import GOLDEN_BALL, _ball_sha
from test_golden_demi import GOLDEN_DEMI, _demi_sha
from test_golden_offset import GOLDEN_OFFSET, _offset_sha
from vikit import algorithms, operators, projections, space, stepsize
from vikit.algorithms import Scheme

CORE = (algorithms._step, algorithms._residuals, projections.project,
        stepsize.adaptive_update, stepsize.armijo_search, stepsize._proven_rejections,
        space.SpaceDescriptor.inner, space.SpaceDescriptor.norm, operators.AffineMatrix.__call__)

# the golden cells, in the order they run here: (the cell's fingerprint
# given a path to write its trace to, its golden hash)
CELLS = ([(functools.partial(_fingerprint_sha, spec, Scheme(scheme)), sha)
          for (spec, scheme), sha in GOLDEN.items()]
         + [(functools.partial(_offset_sha, Scheme(scheme)), sha)
            for scheme, sha in GOLDEN_OFFSET.items()]
         + [(functools.partial(_ball_sha, Scheme(scheme)), sha)
            for scheme, sha in GOLDEN_BALL.items()]
         + [(functools.partial(_demi_sha, Scheme(scheme)), sha)
            for scheme, sha in GOLDEN_DEMI.items()])

# (function, statement as written, which of the function's statements so
# written, counted from 1) -> the test that pins the statement where no
# golden cell reaches it
UNREACHED = {
    # guards that raise on a point of the wrong shape
    ("project", 'check_space("x", x, euclidean(y.size))', 1):
        "test_projections.py::test_box_projection_keeps_the_points_shape_or_names_it",
    ("project", 'check_space("x", x, sp)', 1): "test_projections.py::test_space_mismatch",
    ("project", 'check_space("x", x, sp)', 2): "test_projections.py::test_space_mismatch",
    ("AffineMatrix.__call__", 'check_space("x", x, euclidean(G.shape[0]))', 1):
        "test_error_paths.py::test_bad_input_raises_a_typed_error_naming_it",
    # a halfspace normal whose square underflows, and the overflow rescale
    ("project", "return project(HalfSpace(normal / np.abs(normal).max(), s.anchor, sp), x)", 1):
        "test_projections.py::test_halfspace_whose_normal_squared_underflows_is_not_the_whole_space",
    ("project", "if np.isfinite(normal).all() and np.isfinite(d).all():", 1):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "a = normal / np.abs(normal).max()", 1):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "scale = float(np.abs(d).max())", 1):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "viol = sp.inner(a, d / scale)", 1):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "if viol <= 0.0:", 2):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "return x", 4):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    ("project", "return x - (scale * (viol / sp.inner(a, a))) * a", 1):
        "test_algorithms.py::test_step_checks_only_where_finiteness_can_be_lost",
    # a ball's x - center that overflows on finite points
    ("project", "scale = max(np.abs(check_finite(x)).max(), np.abs(c).max())", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    ("project", "t = s.radius / scale / sp.norm(x / scale - c / scale)", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    ("project", "return x if t >= 1.0 else (1.0 - t) * c + t * x", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    # the Armijo search exhausted, and a policy with no trial to screen
    ("armijo_search", "raise ArmijoSearchError(", 1):
        "test_stepsize.py::test_armijo_exhaustion_raises_with_last_gamma",
    ("_proven_rejections", "return []", 2):
        "test_stepsize.py::test_screened_armijo_search_equals_the_serial_search",
    # the @ forms of a reversed, strided or one-element operand
    ("SpaceDescriptor.inner", "return float(a @ b)", 1):
        "test_space.py::test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms",
    ("AffineMatrix.__call__", "y = G @ x", 1):
        "test_operators.py::test_affine_matrix_is_bitwise_the_matmul_form",
    # a norm of a NaN or Inf entry, and a sum of squares that overflows on
    # finite entries
    ("SpaceDescriptor.norm", "check_finite(a)", 1):
        "test_space.py::test_norm_of_a_finite_array_does_not_overflow_before_the_norm_does",
    ("SpaceDescriptor.norm", "big = float(np.abs(a).max())", 1):
        "test_space.py::test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms",
    ("SpaceDescriptor.norm", "b = a / big", 1):
        "test_space.py::test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms",
    ("SpaceDescriptor.norm", "return big * math.sqrt(self.inner(b, b))", 1):
        "test_space.py::test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms",
    # certification's blocks of rows
    ("AffineMatrix.__call__", "y = x @ G.T", 1):
        "test_operators.py::test_affine_matrix_maps_a_block_bitwise_as_x_times_g_transposed",
}


def _statements(func) -> dict:
    """{line number: (statement as written, its occurrence among the
    statements so written)} of every statement of func, those of nested
    functions included and its docstring left out, in source order."""
    lines, first = inspect.getsourcelines(func)
    tree = ast.parse(textwrap.dedent("".join(lines))).body[0]
    doc = tree.body[0] if ast.get_docstring(tree) is not None else None
    numbers = sorted(node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.stmt) and node is not tree and node is not doc)
    seen, out = {}, {}
    for number in numbers:
        text = lines[number - 1].strip()
        seen[text] = seen.get(text, 0) + 1
        out[first + number - 1] = text, seen[text]
    return out


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _reached(cells, path) -> set:
    """(file, line) of every line of CORE that running cells executes;
    each cell must still give its golden fingerprint."""
    traced = {code for func in CORE for code in _code_objects(func.__code__)}
    reached = set()

    def on_line(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code in traced else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for fingerprint, sha in cells:
            assert fingerprint(path) == sha
    finally:
        sys.settrace(previous)
    return reached


def test_the_golden_cells_reach_every_statement_of_the_core_but_the_listed_ones(tmp_path):
    reached = _reached(CELLS, tmp_path / "trace.csv")
    missed = {}
    for func in CORE:
        for number, (text, occurrence) in _statements(func).items():
            if (func.__code__.co_filename, number) not in reached:
                missed[func.__qualname__, text, occurrence] = number
    unlisted = {key: number for key, number in missed.items() if key not in UNREACHED}
    assert not unlisted, f"statements no golden cell reaches: {unlisted}"
    stale = set(UNREACHED) - set(missed)
    assert not stale, f"listed statements a golden cell reaches, or that are gone: {stale}"


def test_each_unreached_statement_names_a_test_that_exists():
    for node in UNREACHED.values():
        module, name = node.split("::")
        assert callable(getattr(importlib.import_module(module[:-3]), name)), node
