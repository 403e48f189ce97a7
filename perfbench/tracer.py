"""Span recorder for the traced benchmark run.

Wraps the public entry points of every ``vikit`` module from outside:
module-level functions are replaced in every ``vikit`` module (and
module-level dict) that binds them, so a name brought in with
``from .space import norm`` is traced wherever it is called. Operators
are wrapped per problem with ``dataclasses.replace``; ``SpaceElement``
construction through its class ``__init__``; plan cells through the
thread pool that ``vikit.harness`` looks up by name.

Spans (name, start, end, span id, parent id, cell id, computed bytes)
are kept in per-thread arrays in memory and written out once, with
``Recorder.dump``, when the run ends. ``layer_metrics`` turns a dump into
the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

SCHEMES = ("imsegm", "imtegm", "immsegm", "immtegm", "hsegm", "stegm",
           "msegm", "mmsegm", "vsegm", "vtegm")
SET_KINDS = ("box", "ball", "halfspace")
CELL = "harness.cell"

# (defining module, function, span name). Each function is replaced in
# every vikit module and module-level dict that binds it.
FUNCTION_SPANS = (
    ("vikit.space", "inner", "space.inner"),
    ("vikit.space", "norm", "space.norm"),
    ("vikit.stepsize", "adaptive_update", "stepsize.adaptive_update"),
    ("vikit.stepsize", "armijo_search", "stepsize.armijo_search"),
    ("vikit.algorithms", "step_alg1", "algorithms.step"),
    ("vikit.algorithms", "step_alg2", "algorithms.step"),
    ("vikit.algorithms", "step_alg3", "algorithms.step"),
    ("vikit.algorithms", "step_alg4", "algorithms.step"),
    ("vikit.algorithms", "step_baseline", "algorithms.step"),
    ("vikit.operators", "estimate_lipschitz", "operators.estimate_lipschitz"),
    ("vikit.problems", "make_example1", "problems.make_example"),
    ("vikit.problems", "make_example2", "problems.make_example"),
    ("vikit.problems", "certify", "problems.certify"),
    ("vikit.problems", "initial_points", "problems.initial_points"),
    ("vikit.harness", "make_config", "harness.make_config"),
    ("vikit.harness", "validate_conditions", "harness.validate"),
    ("vikit.harness", "emit_csv", "harness.emit"),
)


class _Buffer:
    """One thread's spans, as parallel typed arrays."""

    def __init__(self):
        self.nid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.sid = array("q")
        self.parent = array("q")
        self.cell = array("i")
        self.aux = array("q")


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._cell_ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.cells: list[tuple[int, float, float]] = []  # (cell, wall s, thread cpu s)
        self.specs: list[str] = []  # spec argument of every problem build

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _state(self):
        local = self._local
        if not hasattr(local, "buf"):
            local.buf = _Buffer()
            local.stack = [-1]
            local.cell = -1
            with self._lock:
                self._buffers.append(local.buf)
        return local

    def call(self, nid: int, aux: int, fn, args, kwargs):
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1]
        local.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
            buf = local.buf
            buf.nid.append(nid)
            buf.t0.append(t0)
            buf.t1.append(t1)
            buf.sid.append(sid)
            buf.parent.append(parent)
            buf.cell.append(local.cell)
            buf.aux.append(aux)

    def wrap(self, name: str, fn, aux: int = 0):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            return self.call(nid, aux, fn, args, kwargs)

        return traced

    def in_cell(self, fn, *args, **kwargs):
        """Run fn as one cell: a span that its callees' spans carry the id of,
        plus the cell's wall and thread CPU time."""
        local = self._state()
        cid = next(self._cell_ids)
        prev, local.cell = local.cell, cid
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            return self.call(self.name_id(CELL), 0, fn, args, kwargs)
        finally:
            self.cells.append((cid, time.perf_counter() - w0, time.thread_time() - c0))
            local.cell = prev

    def arrays(self) -> dict:
        with self._lock:
            bufs = list(self._buffers)
        out = {}
        for field, dtype in (("nid", np.int32), ("t0", float), ("t1", float),
                             ("sid", np.int64), ("parent", np.int64),
                             ("cell", np.int32), ("aux", np.int64)):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs]
            out[field] = np.concatenate(parts) if parts else np.zeros(0, dtype)
        order = np.argsort(out["sid"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        out["names"] = np.array(self.names, dtype=str)
        out["cells"] = np.array(self.cells, dtype=float).reshape(-1, 3)
        out["specs"] = np.array(self.specs, dtype=str)
        return out

    def dump(self, path) -> None:
        np.savez(path, **self.arrays())


def _computed_bytes(op, dim: int) -> int:
    """Bytes an evaluation must touch, from array sizes alone (ignores caches):
    the matrix plus the vector read and written, or the vector read and
    written for a coordinatewise map."""
    G = getattr(op, "G", None)
    if G is not None:
        return int(G.nbytes) + 16 * dim
    return 16 * dim


def wrap_problem(rec: Recorder, problem):
    """The same problem with A, T, F and f_visc recorded as operator spans."""
    dim = problem.space.dim
    changes = {"A": rec.wrap("operators.A", problem.A, _computed_bytes(problem.A, dim)),
               "T": rec.wrap("operators.T", problem.T, _computed_bytes(problem.T, dim))}
    for field in ("F", "f_visc"):
        op = getattr(problem, field)
        if op is not None:
            changes[field] = rec.wrap(f"operators.{field}", op, _computed_bytes(op, dim))
    return dataclasses.replace(problem, **changes)


def _rebind(orig, new, undo: list) -> int:
    """Replace orig by new in every vikit module namespace and module-level dict."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "vikit" or modname.startswith("vikit.")):
            continue
        ns = vars(mod)
        for key, val in list(ns.items()):
            if val is orig:
                undo.append((ns, key, orig))
                ns[key] = new
                hits += 1
            elif type(val) is dict:
                for dkey, dval in list(val.items()):
                    if dval is orig:
                        undo.append((val, dkey, orig))
                        val[dkey] = new
                        hits += 1
    return hits


@contextmanager
def installed(rec: Recorder):
    """Patch the vikit entry points to record into rec; undo on exit."""
    import vikit.algorithms
    import vikit.cli  # noqa: F401  (so its bindings are patched too)
    import vikit.harness
    import vikit.projections
    import vikit.space

    undo: list = []
    try:
        for modname, attr, name in FUNCTION_SPANS:
            orig = getattr(sys.modules[modname], attr)
            if _rebind(orig, rec.wrap(name, orig), undo) == 0:
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")

        project = vikit.projections.project

        def traced_project(s, x):
            nid = rec.name_id("projections.project:" + type(s).__name__.lower())
            return rec.call(nid, 0, project, (s, x), {})

        _rebind(project, traced_project, undo)

        solve = vikit.algorithms.solve

        def traced_solve(problem, cfg):
            nid = rec.name_id("algorithms.solve:" + cfg.algorithm.value)
            return rec.call(nid, 0, solve, (problem, cfg), {})

        _rebind(solve, traced_solve, undo)

        parse = vikit.harness.parse_problem_spec
        build_id = rec.name_id("harness.build")

        def traced_parse(spec, seed):
            rec.specs.append(spec)
            problem, init = rec.call(build_id, 0, parse, (spec, seed), {})
            return wrap_problem(rec, problem), init

        _rebind(parse, traced_parse, undo)

        class CellPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.in_cell, fn, *args, **kwargs)

        undo.append((vars(vikit.harness), "ThreadPoolExecutor",
                     vikit.harness.ThreadPoolExecutor))
        vikit.harness.ThreadPoolExecutor = CellPool

        element = vikit.space.SpaceElement
        undo.append((None, element, element.__init__))
        element.__init__ = rec.wrap("space.element", element.__init__)
        yield rec
    finally:
        for container, key, orig in reversed(undo):
            if container is None:
                key.__init__ = orig
            else:
                container[key] = orig


# ---------------------------------------------------------------------------
# analysis


def _base(name: str) -> str:
    return name.split(":", 1)[0]


def layer_metrics(data: dict, n_cells: int) -> dict:
    """Per-layer metrics from a dump. Per-iteration figures count only spans
    inside a solve; per-cell figures divide by the cells attempted."""
    names = [str(n) for n in data["names"]]
    nid = data["nid"]
    sid = data["sid"]
    dur = data["t1"] - data["t0"]
    n = len(sid)
    has_parent = data["parent"] >= 0
    pidx = np.where(has_parent, np.searchsorted(sid, data["parent"]), -1)
    child = np.zeros(n)
    np.add.at(child, pidx[has_parent], dur[has_parent])
    self_t = dur - child

    bases = [_base(x) for x in names]
    base = np.array(bases, dtype=object)[nid]
    layer = np.array([b.split(".", 1)[0] for b in bases], dtype=object)[nid]
    is_solve = base == "algorithms.solve"
    # index of the enclosing solve span, or -1; parents precede children in sid order
    so = [-1] * n
    pl = pidx.tolist()
    for i, solve_span in enumerate(is_solve.tolist()):
        if solve_span:
            so[i] = i
        elif pl[i] >= 0:
            so[i] = so[pl[i]]
    solve_of = np.array(so, dtype=np.int64)
    inside = solve_of >= 0
    tags = np.array([x.split(":", 1)[1] if ":" in x else "" for x in names], dtype=object)
    scheme_of = np.where(inside, tags[nid[solve_of]], "")

    def sel(b):
        return inside & (base == b)

    steps = sel("algorithms.step")
    iters = max(int(steps.sum()), 1)
    m = {}

    def per_iter(mask):
        return float(mask.sum()) / iters

    def mean_us(mask):
        return float(dur[mask].mean()) * 1e6 if mask.any() else 0.0

    el = sel("space.element")
    inn = sel("space.inner")
    m["space.elements_per_iter"] = (per_iter(el), "count")
    m["space.element_us_per_iter"] = (float(dur[el].sum()) / iters * 1e6, "us")
    m["space.inner_calls_per_iter"] = (per_iter(inn), "count")
    m["space.inner_us_per_call"] = (mean_us(inn), "us")

    A = sel("operators.A")
    for scheme in SCHEMES:
        in_scheme = scheme_of == scheme
        it = int((steps & in_scheme).sum())
        m[f"operators.A_evals_per_iter.{scheme}"] = (
            float((A & in_scheme).sum()) / it if it else 0.0, "count")
    m["operators.A_us_per_eval"] = (mean_us(A), "us")
    solve_time = float(dur[is_solve].sum())
    m["operators.A_share"] = (float(dur[A].sum()) / solve_time if solve_time else 0.0, "ratio")
    m["operators.A_bytes_per_eval"] = (
        float(data["aux"][A].mean()) if A.any() else 0.0, "B-computed")
    T = sel("operators.T")
    m["operators.T_evals_per_iter"] = (per_iter(T), "count")
    m["operators.T_us_per_eval"] = (mean_us(T), "us")

    proj = sel("projections.project")
    for kind in SET_KINDS:
        m[f"projections.calls_per_iter.{kind}"] = (
            per_iter(proj & (tags[nid] == kind)), "count")
    m["projections.us_per_call"] = (mean_us(proj), "us")

    ad = sel("stepsize.adaptive_update")
    arm = sel("stepsize.armijo_search")
    trials = int((proj & has_parent & arm[pidx]).sum())
    m["stepsize.adaptive_us_per_call"] = (mean_us(ad), "us")
    m["stepsize.armijo_us_per_call"] = (mean_us(arm), "us")
    m["stepsize.armijo_trials_per_call"] = (trials / max(int(arm.sum()), 1), "count")
    m["stepsize.armijo_accept_ratio"] = (int(arm.sum()) / trials if trials else 0.0, "ratio")

    m["algorithms.step_us_p50"] = (
        float(np.median(dur[steps])) * 1e6 if steps.any() else 0.0, "us")
    m["algorithms.step_self_us_p50"] = (
        float(np.median(self_t[steps])) * 1e6 if steps.any() else 0.0, "us")
    m["algorithms.loop_us_per_iter"] = (float(self_t[is_solve].sum()) / iters * 1e6, "us")

    for name in ("space", "operators", "projections", "stepsize", "algorithms"):
        m[f"{name}.self_us_per_iter"] = (
            float(self_t[inside & (layer == name)].sum()) / iters * 1e6, "us")

    def mean_s(b):
        mask = base == b
        return float(dur[mask].mean()) if mask.any() else 0.0

    cells = max(n_cells, 1)
    m["problems.build_s"] = (mean_s("problems.make_example"), "s")
    m["problems.lipschitz_s"] = (mean_s("operators.estimate_lipschitz"), "s")
    m["problems.certify_s"] = (mean_s("problems.certify"), "s")
    m["problems.self_s_per_cell"] = (float(self_t[layer == "problems"].sum()) / cells, "s")
    for metric, b in (("build", "harness.build"), ("certify", "problems.certify"),
                      ("validate", "harness.validate"), ("solve", "algorithms.solve"),
                      ("emit", "harness.emit")):
        m[f"harness.{metric}_s"] = (float(dur[base == b].sum()) / cells, "s")
    specs = [str(x) for x in data["specs"]]
    m["harness.builds_per_spec"] = (len(specs) / max(len(set(specs)), 1), "count")
    cw = data["cells"]
    m["harness.pool_wait_s"] = (float((cw[:, 1] - cw[:, 2]).sum()) / cells, "s")
    m["harness.self_s_per_cell"] = (float(self_t[layer == "harness"].sum()) / cells, "s")
    return m


IMPORT_GROUPS = ("vikit", "numpy", "scipy")


def parse_importtime(stderr: str) -> dict:
    """Self import time in seconds per top-level package group, from the
    output of ``python -X importtime``."""
    groups = {g: 0.0 for g in IMPORT_GROUPS + ("other",)}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, rest = line[len("import time:"):].partition("|")
        module = rest.partition("|")[2].strip()
        top = module.split(".", 1)[0]
        groups[top if top in groups else "other"] += int(self_us) * 1e-6
    return groups


def median_groups(runs: list) -> dict:
    return {g: statistics.median(r[g] for r in runs) for g in runs[0]}
