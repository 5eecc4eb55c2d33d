from types import SimpleNamespace

import numpy as np
import pytest

from boxflow import solvers
from boxflow.boxsimplex import solve
from boxflow.graphs import Graph, apply_B, apply_BT
from boxflow.oracle import opt_congestion, opt_transshipment
from boxflow.solvers import (
    GRID_FACTOR,
    FlowSolveError,
    build_instance,
    repair_flow,
    solve_maxflow,
    solve_transshipment,
)
from boxflow.tree_approx import build_mf_approximator
from boxflow.ts_approx import build_ts_approximator

from conftest import (
    FIG1_DEMAND,
    FIG2_DEMAND,
    cycle_graph,
    path_graph,
    random_connected_graph,
    random_demand,
)


@pytest.fixture(scope="module")
def cycle8():
    return cycle_graph(8)


@pytest.fixture(scope="module")
def mf_approx(cycle8):
    return build_mf_approximator(cycle8, seed=0)


@pytest.fixture(scope="module")
def ts_approx(cycle8):
    return build_ts_approximator(cycle8, seed=0)


def test_maxflow_instance_value_orientation(cycle8, mf_approx):
    # at t far above OPT the game value certifies as (near) zero
    inst = build_instance("maxflow", cycle8, mf_approx, FIG2_DEMAND, t=100.0)
    pt = solve(inst, 0.05)
    assert inst.eval_box_form(pt.x) <= 0.1
    # well below OPT = 1.5 the value stays bounded away from zero
    inst_low = build_instance("maxflow", cycle8, mf_approx, FIG2_DEMAND, t=0.75)
    pt_low = solve(inst_low, 0.05)
    assert inst_low.eval_simplex_form(pt_low.y) >= 0.5  # (OPT-t)/t - gap = 1 - eps


def test_maxflow_instance_near_opt_value_small(cycle8, mf_approx):
    inst = build_instance("maxflow", cycle8, mf_approx, FIG2_DEMAND, t=1.5)
    pt = solve(inst, 0.05)
    # t = OPT makes the optimal primal achieve value zero
    assert inst.eval_box_form(pt.x) <= 0.15


def test_single_edge_maxflow_value():
    g = Graph(2, [(0, 1, 3.0)])
    approx = build_mf_approximator(g, seed=0)
    d = np.array([1.0, -1.0])
    inst = build_instance("maxflow", g, approx, d, t=3.0 * approx.scale)
    pt = solve(inst, 0.05)
    assert inst.eval_box_form(pt.x) <= 0.1


def test_ts_instance_zero_demand_zero_value(cycle8, ts_approx):
    inst = build_instance("transshipment", cycle8, ts_approx, np.zeros(8), t=1.0)
    assert inst.eval_simplex_form(np.full(16, 1 / 16.0)) == 0.0


def test_ts_instance_thresholds(cycle8, ts_approx):
    # t at or above OPT = 4 solves to a residual value near zero
    inst_hi = build_instance("transshipment", cycle8, ts_approx, FIG1_DEMAND, t=4.0)
    pt = solve(inst_hi, 0.05)
    assert -inst_hi.eval_simplex_form(pt.y) <= 0.12
    # well below OPT the value stays bounded away from zero
    inst_lo = build_instance("transshipment", cycle8, ts_approx, FIG1_DEMAND, t=1.0)
    pt_lo = solve(inst_lo, 0.05)
    assert -inst_lo.eval_box_form(pt_lo.x) >= 0.5


def test_instance_rejects_bad_t(cycle8, ts_approx, mf_approx):
    with pytest.raises(ValueError):
        build_instance("transshipment", cycle8, ts_approx, FIG1_DEMAND, t=0.0)
    with pytest.raises(ValueError):
        build_instance("maxflow", cycle8, mf_approx, FIG2_DEMAND, t=-1.0)
    with pytest.raises(ValueError):
        build_instance("mincut", cycle8, mf_approx, FIG2_DEMAND, t=1.0)


@pytest.mark.parametrize("graph", ["cycle8", "float-random"])
@pytest.mark.parametrize("problem", ["maxflow", "transshipment"])
def test_game_operator_matches_dense_stack(problem, graph):
    # the family's implicit A against the explicit [M^T, -M^T] or [M, -M]
    rng = np.random.default_rng(11)
    if graph == "cycle8":
        g, d = cycle_graph(8), FIG1_DEMAND
    else:
        g = random_connected_graph(24, rng, weight_choices=(0.37, 1.7, 3.3))
        d = random_demand(24, rng)
    build = build_mf_approximator if problem == "maxflow" else build_ts_approximator
    approx = build(g, seed=2, calibrate_scale=False)
    approx.set_scale(1.37)
    M = approx.game_operator().to_dense()
    dense = np.hstack([M.T, -M.T]) if problem == "maxflow" else np.hstack([M, -M])
    inst = build_instance(problem, g, approx, d, t=2.0)
    assert inst.A.shape == dense.shape == (inst.n, inst.d)
    for _ in range(3):
        y = rng.normal(size=inst.d)
        x = rng.normal(size=inst.n)
        for got, want in [
            (inst.A.matvec(y), dense @ y),
            (inst.A.matvec_T(x), dense.T @ x),
            (inst.A.abs_matvec(y), np.abs(dense) @ y),
            (inst.A.abs_matvec_T(x), np.abs(dense).T @ x),
        ]:
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    L = np.abs(dense).sum(axis=0).max()
    assert abs(inst.L - L) <= 1e-12 * L


def test_fig1_transshipment_solve(cycle8, ts_approx):
    rep = solve_transshipment(cycle8, FIG1_DEMAND, 0.1, approx=ts_approx, seed=0)
    assert 4.0 - 1e-9 <= rep.primal_cost <= 4.4
    assert rep.dual_value >= 3.6
    assert abs(rep.dual_norm - 1.0) <= 1e-9
    assert rep.feasibility_residual <= 1e-8
    assert np.allclose(apply_B(cycle8, rep.primal_flow), FIG1_DEMAND, atol=1e-8)


def test_fig2_maxflow_solve(cycle8, mf_approx):
    rep = solve_maxflow(cycle8, FIG2_DEMAND, 0.1, approx=mf_approx, seed=0)
    assert 1.5 - 1e-9 <= rep.primal_cost <= 1.65
    assert rep.dual_value >= 1.35
    assert abs(rep.dual_norm - 1.0) <= 1e-9
    assert rep.feasibility_residual <= 1e-8


def test_zero_demand_reports(cycle8, ts_approx, mf_approx):
    for fn, approx in ((solve_transshipment, ts_approx), (solve_maxflow, mf_approx)):
        rep = fn(cycle8, np.zeros(8), 0.1, approx=approx, seed=0)
        assert rep.primal_cost == 0.0
        assert not np.any(rep.primal_flow)
        assert rep.dual_value == 0.0


def test_path_graph_transshipment_cost():
    g = path_graph(6)
    d = np.zeros(6)
    d[0], d[5] = 1.0, -1.0
    rep = solve_transshipment(g, d, 0.1, seed=0)
    assert 5.0 - 1e-9 <= rep.primal_cost <= 5.5  # unique route of length 5


def test_eps_validation(cycle8, ts_approx):
    with pytest.raises(ValueError):
        solve_transshipment(cycle8, FIG1_DEMAND, 0.0, approx=ts_approx)
    with pytest.raises(ValueError):
        solve_transshipment(cycle8, FIG1_DEMAND, 0.6, approx=ts_approx)


def test_repair_zero_residual(cycle8, ts_approx):
    f, rounds = repair_flow(cycle8, ts_approx, np.zeros(8), threshold=1.0)
    assert not np.any(f)
    assert rounds == 0


def test_repair_tree_graph_exact():
    g = path_graph(5, [2.0, 1.0, 1.0, 3.0])
    approx = build_ts_approximator(g, seed=0)
    d = np.zeros(5)
    d[1], d[4] = 2.0, -2.0
    f, _ = repair_flow(g, approx, d, threshold=1e-12)
    assert np.allclose(apply_B(g, f), d, atol=1e-12)
    # trees route uniquely
    assert np.allclose(f, [0.0, 2.0, 2.0, 2.0], atol=1e-9)


def test_repair_random_residuals_feasible_and_cheap():
    rng = np.random.default_rng(3)
    for trial in range(4):
        g = random_connected_graph(14, rng)
        approx = build_ts_approximator(g, seed=trial)
        d = random_demand(14, rng)
        est = approx.estimate(d)
        f, _ = repair_flow(g, approx, d, threshold=0.01 * est)
        resid = np.abs(apply_B(g, f) - d).sum()
        assert resid <= 1e-8 * max(1.0, np.abs(d).sum())
        opt = opt_transshipment(g, d)[0]
        cost = float((np.abs(f) * g.weight).sum())
        assert cost <= 4.0 * opt


def test_value_monotone_in_t(cycle8, ts_approx):
    rep = solve_transshipment(cycle8, FIG1_DEMAND, 0.1, approx=ts_approx, seed=0)
    eps_s = 0.1 / 6.0
    probes = sorted(rep.t_trace)
    for (t1, v1, _), (t2, v2, _) in zip(probes, probes[1:]):
        assert v1 >= v2 - 2 * eps_s - 1e-9


def test_weak_duality_always(cycle8, ts_approx, mf_approx):
    rng = np.random.default_rng(4)
    for _ in range(3):
        d = random_demand(8, rng, integer=True)
        if not np.any(d):
            continue
        r1 = solve_transshipment(cycle8, d, 0.2, approx=ts_approx, seed=0)
        assert r1.dual_value <= r1.primal_cost * (1 + 1e-9)
        r2 = solve_maxflow(cycle8, d, 0.2, approx=mf_approx, seed=0)
        assert r2.dual_value <= r2.primal_cost * (1 + 1e-9)


def test_random_batch_vs_oracle():
    rng = np.random.default_rng(5)
    eps = 0.1
    for trial in range(3):
        n = int(rng.integers(10, 21))
        g = random_connected_graph(n, rng)
        d = random_demand(n, rng, integer=True)
        if not np.any(d):
            continue
        rep = solve_transshipment(g, d, eps, seed=trial)
        opt = opt_transshipment(g, d)[0]
        assert rep.primal_cost <= (1 + eps) * opt
        assert rep.dual_value >= (1 - eps / 4) * opt
        assert rep.primal_cost / rep.dual_value <= 1 + eps
        rep2 = solve_maxflow(g, d, eps, seed=trial)
        opt2 = opt_congestion(g, d)[0]
        assert rep2.primal_cost <= (1 + eps) * opt2
        assert rep2.dual_value >= (1 - eps / 4) * opt2
        assert rep2.primal_cost / rep2.dual_value <= 1 + eps


def test_dual_feasibility_norms(cycle8, ts_approx, mf_approx):
    r1 = solve_transshipment(cycle8, FIG1_DEMAND, 0.1, approx=ts_approx, seed=0)
    stretch = np.abs(apply_BT(cycle8, r1.dual_potentials)) / cycle8.weight
    assert abs(stretch.max() - 1.0) <= 1e-9  # l-inf feasibility, tight
    r2 = solve_maxflow(cycle8, FIG2_DEMAND, 0.1, approx=mf_approx, seed=0)
    stretch2 = np.abs(apply_BT(cycle8, r2.dual_potentials)) / cycle8.weight
    assert abs(stretch2.sum() - 1.0) <= 1e-9  # l1 feasibility, tight


def test_solver_determinism(cycle8, ts_approx):
    r1 = solve_transshipment(cycle8, FIG1_DEMAND, 0.15, approx=ts_approx, seed=7)
    r2 = solve_transshipment(cycle8, FIG1_DEMAND, 0.15, approx=ts_approx, seed=7)
    assert r1.primal_cost == r2.primal_cost
    assert np.array_equal(r1.primal_flow, r2.primal_flow)
    assert np.array_equal(r1.dual_potentials, r2.dual_potentials)
    assert r1.t_trace == r2.t_trace


@pytest.mark.parametrize("problem", ["transshipment", "maxflow"])
def test_dual_from_highest_no_probe(cycle8, ts_approx, mf_approx, problem):
    # the dual comes from the bracket's NO end, one grid step below t_final
    eps = 0.1
    if problem == "transshipment":
        rep = solve_transshipment(cycle8, FIG1_DEMAND, eps, approx=ts_approx, seed=0)
    else:
        rep = solve_maxflow(cycle8, FIG2_DEMAND, eps, approx=mf_approx, seed=0)
    no_below = [t for t, _value, yes in rep.t_trace if not yes and t < rep.t_final]
    assert rep.t_dual == max(no_below)
    assert abs(rep.t_final / rep.t_dual - (1 + eps / GRID_FACTOR)) <= 1e-12


def test_exhausted_walk_down_raises(cycle8, ts_approx, monkeypatch):
    # a search whose every probe answers YES never finds the bracket's NO end
    def always_yes(family, t, eps_probe, threshold):
        return solvers._Probe(t=t, yes=True, value=0.0, point=SimpleNamespace(iterations=0))

    monkeypatch.setattr(solvers, "_run_probe", always_yes)
    with pytest.raises(FlowSolveError, match="walk-down"):
        solve_transshipment(cycle8, FIG1_DEMAND, 0.1, approx=ts_approx, seed=0)
