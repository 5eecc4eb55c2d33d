"""Per-layer spans and counters, recorded from outside the library.

A Tracer replaces public functions at the module attribute their caller
looks up (for example ``boxflow.solvers.solve_decide``, which the
threshold search resolves from the solvers module at call time) with a
wrapper that records a span and reads counts off the returned objects.
Nothing inside ``boxflow`` is edited; ``restore()`` puts every original
back.

Counts land in one of two phases, "setup" (edge list to approximator
ready) and "solve" (demand to report), so that a solve that builds its own
approximator does not leak into the set-up layers.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

PRODUCT_METHODS = ("mul_M", "mul_MT", "mul_absM", "mul_absMT")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.counts = {"setup": defaultdict(float), "solve": defaultdict(float)}
        self.spans = []  # (name, start, end, parent index), kept in memory
        self.peaks = {"setup": defaultdict(float), "solve": defaultdict(float)}
        self.shapes = {}  # id(core) -> (rows, cols, nnz) of its M, for computed bytes
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def add(self, key, value=1.0):
        self.counts[self.phase][key] += value

    def peak(self, key, value):
        peaks = self.peaks[self.phase]
        peaks[key] = max(peaks[key], float(value))

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  "its layer reads 0", file=sys.stderr)
            return
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original))

    def wrap(self, owner, attr, span, after=None, when=None):
        """Time calls of owner.attr as span; after(result, args, seconds).

        owner is a module name or a class.
        """
        if isinstance(owner, str):
            owner = importlib.import_module(owner)

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if when is not None and not when():
                    return original(*args, **kwargs)
                idx = len(self.spans)
                result = self._call(span, original, args, kwargs)
                seconds = self.spans[idx][2] - self.spans[idx][1]
                self.add(span + "_s", seconds)
                self.add(span + "_calls")
                if after is not None:
                    after(result, args, seconds)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count_products(self, module_name, class_name):
        """Count the four M products of a core class, with rounds spent."""
        cls = getattr(importlib.import_module(module_name), class_name, None)
        if cls is None:
            print(f"trace: {module_name}.{class_name} not found", file=sys.stderr)
            return
        self._patch(cls, "__init__", self._register)
        for method in PRODUCT_METHODS:
            self._patch(cls, method, lambda original, method=method: self._product(original, method))

    def _register(self, original):
        """Remember the shape of M for every core built, keyed by the core."""

        @functools.wraps(original)
        def wrapper(core, *args, **kwargs):
            original(core, *args, **kwargs)
            approx = kwargs.get("approx", args[-1] if args else None)
            M = approx.game_operator()
            self.shapes[id(core)] = (M.n_rows, M.n_cols, M.nnz)

        return wrapper

    def _product(self, original, method):
        transposed = method.endswith("T")

        @functools.wraps(original)
        def wrapper(core, vec):
            before = getattr(core, "rounds", 0)
            out = original(core, vec)
            self.add("products")
            self.add("product_rounds", getattr(core, "rounds", 0) - before)
            shape = self.shapes.get(id(core))
            if shape is not None:
                rows, cols, nnz = shape
                if transposed:
                    rows, cols = cols, rows
                # CSR product: values (8 B) and int32 indices per nonzero,
                # the row pointer, the input vector and the output vector
                self.add("product_bytes", 12 * nnz + 4 * (rows + 1) + 8 * cols + 8 * rows)
            return out

        return wrapper

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install(tracer):
    """Patch every layer boundary the benchmark reports on."""

    def covers_done(ds, args, seconds):
        tracer.add("covers.scales", ds.n_scales)
        for st in ds.structures:
            tracer.add("covers.clusterings", st.cover.num_clusterings)
            tracer.add("covers.clusters", sum(c.n_clusters for c in st.cover.clusterings))

    def build_R_done(result, args, seconds):
        R = result[0]
        tracer.add("ts_approx.R_rows", R.n_rows)
        tracer.add("ts_approx.R_nnz", R.nnz)
        tracer.peak("ts_approx.R_max_col_nnz", R.max_col_nnz())

    def tree_done(tree, args, seconds):
        tracer.peak("tree_approx.height", tree.height)

    def tree_R_done(result, args, seconds):
        tracer.add("tree_approx.R_nnz", result[0].nnz)

    def calibrate_done(report, args, seconds):
        tracer.add("approx_common.calibrate_scale", report.scale)
        tracer.add("approx_common.calibrate_rho", report.rho)

    def decide_done(result, args, seconds):
        pt = result[0]
        tracer.add("boxsimplex.iterations", pt.iterations)
        tracer.add("boxsimplex.scheduled", pt.scheduled_iterations)
        tracer.peak("boxsimplex.game_norm", args[0].L)
        if tracer.inside("solvers.search") and not tracer.inside("solvers.repair"):
            tracer.add("solvers.probes")

    def repair_done(result, args, seconds):
        tracer.add("solvers.repair_rounds", result[1])

    def top_level_search():
        return not tracer.inside("solvers.repair")

    def in_calibration():
        return tracer.inside("approx_common.calibrate")

    tracer.wrap("boxflow.ts_approx", "build_distance_structures", "covers.build", covers_done)
    tracer.wrap("boxflow.ts_approx", "build_R", "ts_approx.build_R", build_R_done)
    tracer.wrap("boxflow.tree_approx", "build_tree", "tree_approx.build", tree_done)
    tracer.wrap("boxflow.tree_approx", "tree_to_R", "tree_approx.build", tree_R_done)
    for module in ("boxflow.ts_approx", "boxflow.tree_approx"):
        tracer.wrap(module, "calibrate", "approx_common.calibrate", calibrate_done)
    for oracle in ("opt_transshipment", "opt_congestion"):
        tracer.wrap("boxflow.oracle", oracle, "oracle", when=in_calibration)
    approx_common = importlib.import_module("boxflow.approx_common")
    tracer.wrap(approx_common.BaseApproximator, "game_operator", "sparsemat.game_operator")
    tracer.wrap("boxflow.solvers", "_threshold_search", "solvers.search", when=top_level_search)
    tracer.wrap("boxflow.solvers", "repair_flow", "solvers.repair", repair_done)
    tracer.wrap("boxflow.solvers", "_extract_dual", "solvers.dual")
    tracer.wrap("boxflow.solvers", "solve_decide", "boxsimplex", decide_done)
    tracer.count_products("boxflow.solvers", "CentralizedCore")
    tracer.count_products("boxflow.minoragg", "MinorAggCore")
