import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from boxflow import boxsimplex
from boxflow.boxsimplex import (
    ALPHA,
    BETA,
    FLOOR,
    BoxSimplexInstance,
    NumericOverflowError,
    ParameterError,
    SaddlePoint,
    SolverConfig,
    _average,
    _entropy,
    _solve_zero_matrix,
    iteration_budget,
    solve,
    solve_decide,
)
from boxflow.solvers import build_instance
from boxflow.sparsemat import ColSparseMatrix
from boxflow.tree_approx import build_mf_approximator
from boxflow.ts_approx import build_ts_approximator

from conftest import FIG1_DEMAND, cycle_graph, random_connected_graph
from test_sparsemat import random_col_sparse


def make_instance(A_dense, b, c):
    A = ColSparseMatrix.from_dense(np.asarray(A_dense, dtype=float))
    return BoxSimplexInstance(A, np.asarray(b, float), np.asarray(c, float))


def random_instance(rng, n=None, d=None, s=3):
    n = n or int(rng.integers(2, 101))
    d = d or int(rng.integers(2, 101))
    A = random_col_sparse(n, d, s, rng)
    if A.one_to_one_norm() == 0.0:
        A = ColSparseMatrix.identity(max(n, d))
        n = d = max(n, d)
    b = rng.normal(size=d)
    c = rng.normal(size=n)
    return BoxSimplexInstance(A, b, c)


def test_zero_matrix_game():
    inst = make_instance([[0.0]], [0.0], [0.0])
    pt = solve(inst, 0.1)
    assert pt.gap == 0.0
    assert inst.L == 0.0


def test_scalar_game_gap():
    inst = make_instance([[1.0]], [0.0], [0.0])
    pt = solve(inst, 0.1)
    assert pt.gap <= 0.1
    # one-dimensional simplex forces y = 1; optimum is x = -1, value -1
    assert inst.eval_box_form(np.array([-1.0])) == -1.0


def test_closed_form_1x2_game():
    # A = [[1, -1]], b = 0, c = (-1): V = min_x |x| - x = 0 on x >= 0.
    inst = make_instance([[1.0, -1.0]], [0.0, 0.0], [-1.0])
    pt = solve(inst, 0.05)
    assert pt.gap <= 0.05
    value_lo = inst.eval_simplex_form(pt.y)
    value_up = inst.eval_box_form(pt.x)
    assert value_lo <= 0.0 + 1e-12
    assert value_up >= 0.0 - 1e-12


def test_eval_simplex_vertex():
    rng = np.random.default_rng(0)
    inst = random_instance(rng, n=6, d=4)
    dense = inst.A.to_dense()
    for j in range(4):
        y = np.zeros(4)
        y[j] = 1.0
        want = -(np.abs(dense[:, j] + inst.c).sum() + inst.b[j])
        assert np.isclose(inst.eval_simplex_form(y), want, atol=1e-12)


def test_eval_zero_instance():
    inst = make_instance(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
    assert inst.eval_simplex_form(np.array([0.5, 0.5])) == 0.0
    assert inst.eval_box_form(np.zeros(3)) == 0.0


def test_eval_box_one_hot_identity():
    inst = make_instance([[1.0]], [0.0], [0.0])
    assert inst.eval_box_form(np.array([1.0])) == 1.0


def test_weak_duality_sweep():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, n=8, d=6)
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=8)
        y = rng.uniform(0, 1, size=6)
        y /= y.sum()
        assert inst.eval_box_form(x) >= inst.eval_simplex_form(y) - 1e-9
        assert inst.gap(x, y) >= -1e-9


def test_gap_zero_at_scalar_optimum():
    inst = make_instance([[1.0]], [0.0], [0.0])
    assert abs(inst.gap(np.array([-1.0]), np.array([1.0]))) <= 1e-12


def test_solver_certifies_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(5):
        inst = random_instance(rng, n=20, d=40)
        eps = 0.1
        pt = solve(inst, eps)
        assert pt.gap <= eps
        assert np.abs(pt.x).max() <= 1.0
        assert pt.y.min() >= 0.0
        assert abs(pt.y.sum() - 1.0) <= 1e-12


def test_parameter_errors():
    inst = make_instance([[1.0]], [0.0], [0.0])
    with pytest.raises(ParameterError):
        solve(inst, 0.0)
    with pytest.raises(ParameterError):
        solve(inst, -1.0)
    with pytest.raises(ParameterError):
        solve(inst, 2.0)  # eps >= L


def test_iteration_budget_formula():
    # T = ceil(6 (8 log2 d + 1) L / eps)
    assert iteration_budget(16, 48.0, 0.1) == int(np.ceil(6 * (8 * 4 + 1) * 48 / 0.1))
    inst = make_instance([[1.0, -1.0]], [0.0, 0.0], [-1.0])
    cfg = SolverConfig(early_exit=False)
    pt = solve(inst, 0.5, cfg)
    assert pt.scheduled_iterations == iteration_budget(2, inst.L, 0.5)
    assert pt.iterations == pt.scheduled_iterations
    assert not pt.early_exit


def test_full_budget_meets_guarantee_small():
    rng = np.random.default_rng(3)
    cfg = SolverConfig(early_exit=False)
    for _ in range(3):
        inst = random_instance(rng, n=6, d=8)
        eps = 0.3
        pt = solve(inst, eps, cfg)
        assert pt.gap <= eps


def test_determinism():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, n=15, d=12)
    pt1 = solve(inst, 0.1)
    pt2 = solve(inst, 0.1)
    assert np.array_equal(pt1.x, pt2.x)
    assert np.array_equal(pt1.y, pt2.y)
    assert pt1.gap == pt2.gap
    assert pt1.iterations == pt2.iterations


def test_iterate_feasibility_trace():
    rng = np.random.default_rng(5)
    inst = random_instance(rng, n=10, d=10)
    cfg = SolverConfig(collect_trace=True, check_every=5)
    pt = solve(inst, 0.05, cfg)
    assert len(pt.trace) >= 1
    for (_it, gap, entropy) in pt.trace:
        assert gap >= -1e-9
        assert entropy >= 0.0


def test_solve_decide_stops_early():
    rng = np.random.default_rng(6)
    inst = random_instance(rng, n=30, d=30)
    # An absurdly generous threshold is decided almost immediately.
    pt, up, lo = solve_decide(inst, 0.05, upper_at_most=inst.L * 0.9)
    assert up <= inst.L * 0.9
    assert pt.iterations <= pt.scheduled_iterations


def test_log_domain_survives_long_runs():
    # Strongly scaled instance drives the simplex iterates to extremes.
    inst = make_instance([[5.0, -5.0], [-5.0, 5.0]], [4.0, -4.0], [0.0, 0.0])
    pt = solve(inst, 0.02)
    assert np.isfinite(pt.y).all()
    assert pt.gap <= 0.02


# -- the published listing, kept as the reference for the lean loop ---------
#
# _listing_run is the solver loop as the listing states it: twelve products
# per iteration, np.clip, fresh temporaries and a finiteness test on every
# iteration.  boxsimplex._run must return byte-equal results.


def _logsumexp(v):
    m = v.max()
    return m + math.log(np.exp(v - m).sum())


def _listing_run(inst, eps, config, stop_fn=None):
    """Core loop shared by solve() and value probes.

    stop_fn(best_upper, best_lower) may end the run once the certified
    value bounds decide whatever question the caller is asking.  Returns
    (SaddlePoint, best_upper, best_lower) with certificates in original
    units.
    """
    # the listing models only a fixed interval; the lean loop's default
    # schedule is compared through check_every=1 instead
    assert config.check_every > 0
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    L = inst.L
    if L == 0.0:
        pt = _solve_zero_matrix(inst)
        return pt, inst.eval_box_form(pt.x), inst.eval_simplex_form(pt.y)
    if eps >= L:
        raise ParameterError(f"eps={eps} must be below L={L}")

    n, d = inst.n, inst.d
    A = inst.A
    inv_L = 1.0 / L
    b = inst.b * inv_L
    c = inst.c * inv_L
    inv_beta = 1.0 / BETA
    T = iteration_budget(d, L, eps)
    check_every = config.check_every

    x = np.zeros(n)
    ln_y = np.full(d, -math.log(d))
    ln_ybar = ln_y.copy()
    y = np.exp(ln_y)
    ybar = y.copy()
    xhat_sum = np.zeros(n)
    yhat_sum = np.zeros(d)

    def project_box(num, den):
        # Where a row of A is identically zero the denominator vanishes and
        # the update degenerates to the clipped sign of the numerator; the
        # floor realizes exactly that limit.
        return np.clip(num / np.maximum(den, FLOOR), -1.0, 1.0)

    def log_project(base_ln, v):
        ln_new = base_ln + v
        return ln_new - _logsumexp(ln_new)

    trace = []
    best_upper = math.inf
    best_lower = -math.inf
    iterations_done = T
    exited_early = False

    for t in range(T):
        absA_y = inv_L * A.abs_matvec(y)
        two_diag = 2.0 * x * absA_y
        absAT_x2 = inv_L * A.abs_matvec_T(x * x)

        gx = (inv_L * A.matvec(y) + c) / 3.0
        gy = (b - inv_L * A.matvec_T(x)) / 3.0

        x_star = project_box(-(gx - two_diag), 2.0 * absA_y)
        ln_yp = log_project(
            ln_y, -inv_beta * (gy + inv_L * A.abs_matvec_T(x_star * x_star) - absAT_x2)
        )
        yp = np.exp(ln_yp)
        x_prime = project_box(-(gx - two_diag), 2.0 * inv_L * A.abs_matvec(yp))

        xhat_sum += x_prime
        yhat_sum += yp

        gx = (inv_L * A.matvec(yp) + c) / 6.0
        gy = (b - inv_L * A.matvec_T(x_prime)) / 6.0

        xbar_star = project_box(-(gx - two_diag), 2.0 * inv_L * A.abs_matvec(ybar))
        ln_y_next = log_project(
            ln_ybar,
            -inv_beta
            * (
                gy
                + inv_L * A.abs_matvec_T(xbar_star * xbar_star)
                + ALPHA * ln_ybar
                - absAT_x2
                - ALPHA * ln_y
            ),
        )
        y_next = np.exp(ln_y_next)
        x_next = project_box(-(gx - two_diag), 2.0 * inv_L * A.abs_matvec(y_next))
        ln_ybar_next = log_project(
            ln_y,
            -inv_beta
            * (
                gy
                + inv_L * A.abs_matvec_T(x_next * x_next)
                + ALPHA * ln_y_next
                - absAT_x2
                - ALPHA * ln_y
            ),
        )

        x = x_next
        ln_y, ln_ybar = ln_y_next, ln_ybar_next
        y, ybar = np.exp(ln_y), np.exp(ln_ybar)

        if not np.isfinite(x).all() or not np.isfinite(ln_y).all():
            raise NumericOverflowError(f"non-finite iterate at iteration {t}")

        if (t + 1) % check_every == 0 or t == T - 1:
            xa, ya = _average(xhat_sum, yhat_sum, t + 1)
            up = inst.eval_box_form(xa)
            lo = inst.eval_simplex_form(ya)
            best_upper = min(best_upper, up)
            best_lower = max(best_lower, lo)
            if config.collect_trace:
                trace.append((t + 1, up - lo, _entropy(ya)))
            if stop_fn is not None and stop_fn(best_upper, best_lower):
                iterations_done = t + 1
                exited_early = t + 1 < T
                break
            if config.early_exit and up - lo <= eps:
                iterations_done = t + 1
                exited_early = t + 1 < T
                break

    xa, ya = _average(xhat_sum, yhat_sum, iterations_done)
    gap = inst.gap(xa, ya)
    best_upper = min(best_upper, inst.eval_box_form(xa))
    best_lower = max(best_lower, inst.eval_simplex_form(ya))
    pt = SaddlePoint(
        x=xa,
        y=ya,
        iterations=iterations_done,
        gap=gap,
        scheduled_iterations=T,
        early_exit=exited_early,
        trace=trace,
    )
    return pt, best_upper, best_lower


def _reference(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the listing loop in place of _run."""
    with mock.patch.object(boxsimplex, "_run", _listing_run):
        return fn(*args, **kwargs)


def _fingerprint(pt, up=None, lo=None):
    floats = np.array([pt.gap] + ([] if up is None else [up, lo]))
    return (
        pt.x.tobytes(),
        pt.y.tobytes(),
        floats.tobytes(),
        pt.iterations,
        pt.scheduled_iterations,
        pt.early_exit,
        repr(pt.trace),
    )


def _assert_matches_listing(inst, eps, cfg, threshold):
    """solve and solve_decide give the listing's bytes on inst."""
    assert _fingerprint(solve(inst, eps, cfg)) == _fingerprint(_reference(solve, inst, eps, cfg))
    for kwargs in ({"upper_at_most": threshold}, {"lower_above": threshold}):
        got = solve_decide(inst, eps, cfg, **kwargs)
        want = _reference(solve_decide, inst, eps, cfg, **kwargs)
        assert _fingerprint(*got) == _fingerprint(*want)


def test_matches_listing_on_random_games():
    rng = np.random.default_rng(11)
    for k in range(12):
        inst = random_instance(rng, n=int(rng.integers(2, 30)), d=int(rng.integers(2, 30)))
        if k % 3 == 0:  # all-zero rows reach the denominator floor
            dense = inst.A.to_dense()
            dense[: inst.n // 2] = 0.0
            if dense.any():
                inst = BoxSimplexInstance(ColSparseMatrix.from_dense(dense), inst.b, inst.c)
        eps = min(0.2, inst.L / 2)
        cfg = SolverConfig(
            check_every=int(rng.integers(1, 12)), collect_trace=True, early_exit=bool(k % 2)
        )
        _assert_matches_listing(inst, eps, cfg, threshold=0.05)


def test_matches_listing_on_transshipment_family():
    g = cycle_graph(8)
    approx = build_ts_approximator(g, seed=0)
    for t in (3.0, 4.4):  # either side of OPT = 4
        inst = build_instance("transshipment", g, approx, FIG1_DEMAND, t)
        _assert_matches_listing(inst, 0.05, SolverConfig(check_every=50), threshold=-0.03)


def test_matches_listing_on_maxflow_family():
    g = random_connected_graph(12, np.random.default_rng(3))
    approx = build_mf_approximator(g, seed=0)
    d = np.zeros(12)
    d[0], d[7] = 2.0, -2.0
    for t in (0.5, 3.0):
        inst = build_instance("maxflow", g, approx, d, t)
        _assert_matches_listing(inst, 0.05, SolverConfig(check_every=50), threshold=0.03)


def _trace_bytes(entry):
    it, gap, entropy = entry
    return it, np.array([gap, entropy]).tobytes()


def test_schedule_only_decides_where_the_loop_looks():
    # the default checkpoints are a subset of check_every=1's, with the
    # same certificate bytes at each; they grow by 1.1 and end at T
    rng = np.random.default_rng(12)
    for _ in range(6):
        inst = random_instance(rng, n=int(rng.integers(2, 12)), d=int(rng.integers(2, 6)))
        eps = inst.L / 4
        geometric = solve(inst, eps, SolverConfig(early_exit=False, collect_trace=True))
        every = solve(inst, eps, SolverConfig(early_exit=False, collect_trace=True, check_every=1))
        T = geometric.scheduled_iterations
        assert len(every.trace) == T
        for entry in geometric.trace:
            assert _trace_bytes(entry) == _trace_bytes(every.trace[entry[0] - 1])
        assert _fingerprint(geometric)[:2] == _fingerprint(every)[:2]
        want, k = [], 1
        while k < T:
            want.append(k)
            k = max(k + 1, -(-11 * k // 10))
        assert [entry[0] for entry in geometric.trace] == want + [T]
        assert len(geometric.trace) <= 25 + math.ceil(math.log(T) / math.log(1.1))


class CountingOperator:
    """A ColSparseMatrix that counts its products by kind."""

    def __init__(self, A):
        self._A = A
        self.shape = A.shape
        self.calls = Counter()

    def one_to_one_norm(self):
        return self._A.one_to_one_norm()

    def _count(self, kind, v):
        self.calls[kind] += 1
        return getattr(self._A, kind)(v)

    def matvec(self, y):
        return self._count("matvec", y)

    def matvec_T(self, x):
        return self._count("matvec_T", x)

    def abs_matvec(self, y):
        return self._count("abs_matvec", y)

    def abs_matvec_T(self, x):
        return self._count("abs_matvec_T", x)


def test_ten_products_per_iteration():
    # |A| y and |A|^T x^2 once at set-up, then per iteration 3 |A|, 3 |A|^T,
    # 2 A and 2 A^T; each checkpoint evaluates one A y and one A^T x, and
    # the last checkpoint is the final certificate
    rng = np.random.default_rng(7)
    inst = random_instance(rng, n=12, d=9)
    op = CountingOperator(inst.A)
    counted = BoxSimplexInstance(op, inst.b, inst.c)
    cfg = SolverConfig(check_every=7, collect_trace=True)
    full = SolverConfig(early_exit=False, collect_trace=True)
    for run in (
        lambda: solve(counted, 0.1, cfg),
        lambda: solve_decide(counted, 0.1, cfg, upper_at_most=inst.L)[0],
        lambda: solve(counted, 0.5, full),
    ):
        op.calls.clear()
        pt = run()
        its, checks = pt.iterations, len(pt.trace)  # one trace entry per checkpoint
        assert op.calls == {
            "abs_matvec": 1 + 3 * its,
            "abs_matvec_T": 1 + 3 * its,
            "matvec": 2 * its + checks,
            "matvec_T": 2 * its + checks,
        }


@pytest.mark.parametrize(
    "side, value",
    [
        ("b", np.nan),
        ("b", np.inf),
        ("b", -np.inf),
        ("c", np.nan),
        ("c", np.inf),
        ("c", -np.inf),
    ],
)
def test_non_finite_input_raises_by_first_checkpoint(side, value):
    rng = np.random.default_rng(8)
    inst = random_instance(rng, n=10, d=10)
    b, c = inst.b.copy(), inst.c.copy()
    (b if side == "b" else c)[3] = value
    op = CountingOperator(inst.A)
    bad = BoxSimplexInstance(op, b, c)
    cfg = SolverConfig(check_every=5)
    with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
        solve(bad, 0.1, cfg)
    # raised before the first checkpoint's certificate products
    assert sum(op.calls.values()) <= 2 + 10 * cfg.check_every
    with np.errstate(all="ignore"), pytest.raises(NumericOverflowError):
        solve_decide(bad, 0.1, cfg, upper_at_most=0.0)
