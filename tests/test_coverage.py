"""Which statements of the numerical core the golden cells run.

test_golden.py pins each scheme's arithmetic bit for bit, but only on the
statements its 50 cells execute. This test runs the same cells under a
sys.settrace line collector and checks that every statement of the
functions in CORE is reached, apart from those in UNREACHED. Each of those
names the test that pins it instead, and leaves the list once a golden
cell reaches it. Line coverage does not see a branch inside one statement
(a conditional expression, or the right operand of `and`), so such a
branch needs a statement of its own to be counted.
"""

import ast
import importlib
import inspect
import sys
import textwrap

from test_golden import GOLDEN, fingerprint_sha
from vikit import algorithms, operators, projections, space, stepsize
from vikit.algorithms import Scheme

CORE = (algorithms._build_step, algorithms._recorder, algorithms._square, projections.project,
        projections.Box.project, projections.Ball.project, projections.HalfSpace.project,
        projections.project_halfspace, stepsize.adaptive_update,
        stepsize.armijo_search,
        stepsize._proven_rejections, space.SpaceDescriptor.inner, space.SpaceDescriptor.norm,
        space.SpaceDescriptor.bare_inner, operators.AffineMatrix.__call__, operators.bare_map)

# (function, statement as written, which of the function's statements so
# written, counted from 1) -> the test that pins the statement where no
# golden cell reaches it
UNREACHED = {
    # guards that raise on a point of the wrong shape
    ("Box.project", 'check_space("x", x, euclidean(self.shape[0]))', 1):
        "test_projections.py::test_box_projection_keeps_the_points_shape_or_names_it",
    ("Ball.project", 'check_space("x", x, sp)', 1): "test_projections.py::test_space_mismatch",
    ("HalfSpace.project", 'check_space("x", x, self.space)', 1):
        "test_projections.py::test_space_mismatch",
    ("AffineMatrix.__call__", 'check_space("x", x, euclidean(G.shape[0]))', 1):
        "test_error_paths.py::test_bad_input_raises_a_typed_error_naming_it",
    # a halfspace normal whose square underflows, an x - anchor or inner
    # product that overflows on finite vectors, or a NaN or Inf entry of x
    ("project_halfspace", "check_finite(x)", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    ("project_halfspace", "nn = viol = math.nan", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    ("project_halfspace", "a = normal / np.abs(normal).max()", 1):
        "test_projections.py::test_halfspace_whose_normal_squared_underflows_is_not_the_whole_space",
    ("project_halfspace", "scale = math.ldexp(0.5, math.frexp(max(np.abs(anchor).max(), "
                          "np.abs(x).max()))[1])", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    ("project_halfspace", "xs = x / scale", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    ("project_halfspace", "viol = float(inner(a, xs - anchor / scale))", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    ("project_halfspace",
     "return x if viol <= 0.0 else scale * (xs - (viol / float(inner(a, a))) * a)", 1):
        "test_projections.py::test_halfspace_projects_a_finite_point_whose_offset_overflows",
    # a projection onto a halfspace C: a scheme's step projects onto its
    # own halfspace with project_halfspace, and every golden C is a box or ball
    ("HalfSpace.project", "if x.shape != self.normal.shape:  # the normal has the space's shape",
     1): "test_projections.py::test_halfspace_orthogonal_drop",
    ("HalfSpace.project",
     "return project_halfspace(self.space.inner, self.normal, self.anchor, x, out)", 1):
        "test_projections.py::test_halfspace_orthogonal_drop",
    # a zeta_k that is not positive, which no Table 1 sequence gives
    ("_build_step", 'raise ValueError(f"zeta_k must be positive, got {zeta_k}")', 1):
        "test_algorithms.py::test_inertial_delta_examples",
    # a residual's square that overflows
    ("_square", "return math.inf", 1):
        "test_algorithms.py::test_a_recording_solve_runs_where_a_plain_solve_does",
    # a ball's x - center that overflows on finite points
    ("Ball.project", "scale = max(np.abs(check_finite(x)).max(), np.abs(c).max())", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    ("Ball.project", "t = self.radius / scale / sp.norm(x / scale - c / scale)", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    ("Ball.project", "return x if t >= 1.0 else (1.0 - t) * c + t * x", 1):
        "test_projections.py::test_ball_projects_a_finite_point_whose_offset_overflows",
    # project itself: a scheme's step and the Armijo search call the set's
    # own project
    ("project", "return s.project(x)", 1):
        "test_projections.py::test_the_clip_ufunc_is_np_clip_bit_for_bit",
    # the Armijo search exhausted, and a policy with no trial to screen
    ("armijo_search", "raise ArmijoSearchError(", 1):
        "test_stepsize.py::test_armijo_exhaustion_raises_with_last_gamma",
    ("_proven_rejections", "return []", 2):
        "test_stepsize.py::test_screened_armijo_search_equals_the_serial_search",
    # inner's @ in R^n: a step, and so a recording one, takes ndarray.dot
    # itself on a golden cell's C-contiguous vectors (`bare_inner`)
    ("SpaceDescriptor.inner", "return float(a @ b)", 1):
        "test_space.py::test_euclidean_inner_and_norm_are_bitwise_the_matmul_forms",
    ("AffineMatrix.__call__", "y = np.matmul(G, x, out)", 1):
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
    ("AffineMatrix.__call__", "y = np.matmul(x, G.T, out)", 1):
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


def _reached(path) -> set:
    """(file, line) of every line of CORE that running the golden cells
    executes; each cell must still give its golden fingerprint."""
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
        for (name, scheme), sha in GOLDEN.items():
            assert fingerprint_sha(name, Scheme(scheme), path) == sha
    finally:
        sys.settrace(previous)
    return reached


def test_the_golden_cells_reach_every_statement_of_the_core_but_the_listed_ones(tmp_path):
    reached = _reached(tmp_path / "trace.csv")
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
