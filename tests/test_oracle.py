import itertools
from fractions import Fraction

import numpy as np
import pytest

from boxflow.approx_common import _pair_congestions
from boxflow.graphs import DemandBalanceError, Graph, apply_B, dijkstra
from boxflow.oracle import _cut_ratio, _Dinic, opt_congestion, opt_transshipment

from conftest import (
    FIG1_DEMAND,
    FIG2_DEMAND,
    cycle_graph,
    dense_calibration_demands,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_demand,
    two_point_demand,
)


def test_fig1_transshipment_cost_is_exactly_four(eight_cycle):
    cost, flow, phi = opt_transshipment(eight_cycle, FIG1_DEMAND)
    assert cost == 4
    assert isinstance(cost, int)
    assert np.allclose(apply_B(eight_cycle, flow), FIG1_DEMAND, atol=1e-12)
    assert float(np.abs(flow).sum()) == 4.0


def test_zero_demand(eight_cycle):
    cost, flow, phi = opt_transshipment(eight_cycle, np.zeros(8))
    assert cost == 0
    assert not np.any(flow)


def test_transshipment_imbalance_rejected(eight_cycle):
    d = np.zeros(8)
    d[0] = 1.0
    with pytest.raises(DemandBalanceError):
        opt_transshipment(eight_cycle, d)


def test_transshipment_path_is_distance():
    g = path_graph(5, [1.0, 2.0, 3.0, 4.0])
    d = np.zeros(5)
    d[0], d[4] = 1.0, -1.0
    cost, flow, _ = opt_transshipment(g, d)
    assert cost == 10
    assert np.allclose(flow, [1, 1, 1, 1])


def _brute_force_transport(g, d):
    """Unit-by-unit assignment enumeration on the shortest-path metric."""
    units_s, units_t = [], []
    for v in range(g.n):
        k = int(round(d[v]))
        if k > 0:
            units_s.extend([v] * k)
        elif k < 0:
            units_t.extend([v] * (-k))
    dists = {}
    for s in set(units_s):
        dists[s] = dijkstra(g, s, as_int=True)[0]
    best = None
    for perm in itertools.permutations(range(len(units_t))):
        c = sum(dists[units_s[i]][units_t[perm[i]]] for i in range(len(units_s)))
        if best is None or c < best:
            best = c
    return 0 if best is None else best


def test_transshipment_matches_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(6):
        g = random_connected_graph(10, rng)
        d = np.zeros(10)
        picks = rng.choice(10, size=4, replace=False)
        d[picks[0]], d[picks[1]] = 1.0, 2.0
        d[picks[2]], d[picks[3]] = -2.0, -1.0
        cost, flow, _ = opt_transshipment(g, d)
        assert cost == _brute_force_transport(g, d)
        assert np.allclose(apply_B(g, flow), d, atol=1e-9)


def test_transshipment_duality():
    rng = np.random.default_rng(1)
    for n in (6, 9, 12):
        g = random_connected_graph(n, rng)
        d = random_demand(n, rng, integer=True)
        cost, flow, phi = opt_transshipment(g, d)
        # phi is 1-Lipschitz in W and tight: <d, phi> equals the cost
        for e in range(g.m):
            du = abs(phi[int(g.tail[e])] - phi[int(g.head[e])])
            assert du <= float(g.weight[e]) + 1e-9
        assert abs(float(d @ phi) - cost) <= 1e-9 * max(1.0, cost)


def _assert_certified(g, d, cost, flow, phi):
    """Feasible flow at the cost, 1-Lipschitz phi, <d, phi> = cost."""
    assert np.allclose(apply_B(g, flow), d, atol=1e-9)
    assert abs(float(np.abs(flow) @ g.weight) - cost) <= 1e-12 * cost
    slack = 1e-12 * float(np.abs(phi).max())
    assert np.all(np.abs(phi[g.tail] - phi[g.head]) <= g.weight + slack)
    assert abs(float(d @ phi) - cost) <= 1e-12 * cost


def test_float_weights_transport_terminates():
    # round-off once turned the transport's predecessor chain into a loop
    # that grew until memory ran out
    rng = np.random.default_rng(21)
    g = random_connected_graph(5, rng, weight_choices=(0.37, 1.7, 3.3))
    d = random_demand(5, rng)
    _assert_certified(g, d, *opt_transshipment(g, d))


def test_grid_duals_are_certified():
    # duals from a residual-network search once reported a negative cycle
    # here, from round-off against a fixed tolerance
    g = grid_graph(14, 14)
    d = random_demand(196, np.random.default_rng(4))
    _assert_certified(g, d, *opt_transshipment(g, d))


def test_calibrated_ts_build_on_spread_weights(monkeypatch):
    # the transport's duals once failed certification on the dense demands
    # that calibration priced on this graph; calibration now takes pairs
    # only, so neither the build nor a solve may reach the transport
    from boxflow import oracle
    from boxflow.solvers import solve_transshipment
    from boxflow.ts_approx import build_ts_approximator

    g = random_connected_graph(20, np.random.default_rng(1), weight_choices=(1e-3, 1, 1e3))
    for d in dense_calibration_demands(g.n, seed=0):
        _assert_certified(g, d, *opt_transshipment(g, d))

    calls = []
    monkeypatch.setattr(oracle, "opt_transshipment", lambda *args: calls.append(args))
    monkeypatch.setattr(oracle, "_solve_transport", lambda *args: calls.append(args))
    approx = build_ts_approximator(g, seed=0)
    assert approx.calibration.enabled and np.isfinite(approx.calibration.rho)
    assert approx.calibration.batch_size == 200
    solve_transshipment(cycle_graph(8), FIG1_DEMAND, 0.1, seed=0)
    assert calls == []


def test_fig2_congestion_is_exactly_1_5(eight_cycle):
    cost, flow = opt_congestion(eight_cycle, FIG2_DEMAND)
    assert cost == 1.5
    assert np.allclose(apply_B(eight_cycle, flow), FIG2_DEMAND, atol=1e-9)
    assert float(np.max(np.abs(flow) * eight_cycle.weight)) <= 1.5 + 1e-12


def test_congestion_single_edge():
    g = Graph(2, [(0, 1, 3.0)])
    d = np.array([1.0, -1.0])
    cost, flow = opt_congestion(g, d)
    assert cost == 3.0
    assert np.allclose(flow, [1.0])


def test_congestion_zero_demand(eight_cycle):
    cost, flow = opt_congestion(eight_cycle, np.zeros(8))
    assert cost == 0.0


def _congestion_inputs():
    rng = np.random.default_rng(2)
    for trial in range(5):
        g = random_connected_graph(7, rng)
        yield g, random_demand(7, rng, integer=True)
    # weight 3 on every edge: no cut capacity is a dyadic number
    rng = np.random.default_rng(3)
    g = random_connected_graph(7, rng, extra_edge_prob=0.3, weight_choices=(3.0,))
    yield g, random_demand(7, rng, integer=True)


def test_congestion_dominates_all_cut_bounds():
    # the optimum is the largest cut ratio |d(S)|/cap(S), rounded once
    for g, d in _congestion_inputs():
        if not np.any(d):
            continue
        cost, flow = opt_congestion(g, d)
        assert np.allclose(apply_B(g, flow), d, atol=1e-8)
        best = Fraction(0)
        for bits in range(1, 2**6):
            side = [v for v in range(7) if (bits >> v) & 1]
            dS = sum(Fraction(d[v]) for v in side)
            cap = sum(
                1 / Fraction(float(g.weight[e]))
                for e in range(g.m)
                if (int(g.tail[e]) in side) != (int(g.head[e]) in side)
            )
            if cap > 0:
                best = max(best, abs(dS) / cap)
        assert cost == float(best)
        congestion = float(np.max(np.abs(flow) * g.weight))
        assert congestion <= cost * (1 + 1e-9) + 1e-12


def _cold_start_congestion(g, d):
    """opt_congestion's t with every Dinkelbach round's max flow from zero."""
    dd = [float(v) for v in d]
    total = sum(v for v in dd if v > 0)
    slack = 1e-11 * max(total, 1.0)
    n = g.n
    ends = [(n, v) if dd[v] > 0 else (v, n + 1) for v in range(n) if dd[v] != 0.0]
    tails, heads = zip(*ends)
    net = _Dinic(n + 2, g.tail.tolist() + list(tails), g.head.tolist() + list(heads))
    demand_cap = [c for v in range(n) if dd[v] != 0.0 for c in (abs(dd[v]), 0.0)]
    t = 0.0
    while True:
        cap = np.repeat(t / g.weight, 2).tolist() + demand_cap
        value, level = net.max_flow(cap, n, n + 1)
        if value >= total - slack and t > 0:
            return t
        ratio = _cut_ratio(g, dd, [v for v in range(n) if level[v] >= 0])
        if ratio <= t:
            return t
        t = ratio


def test_warm_started_congestion_matches_cold_start():
    # each round keeps the last round's flow; the optimum must not move
    rng = np.random.default_rng(31)
    for k in range(24):
        weights = ((0.37, 1.7, 3.3), (1e-3, 1.0, 1e3))[k % 2]
        n = int(rng.integers(5, 41))
        g = random_connected_graph(n, rng, weight_choices=weights)
        d = random_demand(n, rng) if k % 3 else two_point_demand(n, rng)
        cost, flow = opt_congestion(g, d)
        assert cost == _cold_start_congestion(g, d)
        assert np.allclose(apply_B(g, flow), d, rtol=0.0, atol=1e-9 * np.abs(d).max())
        assert float(np.max(np.abs(g.weight * flow))) <= cost * (1 + 1e-12)
    assert opt_congestion(cycle_graph(8), FIG2_DEMAND)[0] == 1.5


def test_max_flow_deeper_than_recursion_limit():
    # a 1,100-node path has a level graph deeper than Python's recursion
    # limit, which a recursive blocking-flow search overflowed
    rng = np.random.default_rng(5)
    weights = rng.choice([1.0, 2.0, 3.0], size=1099)
    g = path_graph(1100, weights.tolist())
    d = np.zeros(1100)
    d[0], d[-1] = 1.0, -1.0
    cost, flow = opt_congestion(g, d)
    assert cost == weights.max()
    assert np.allclose(flow, 1.0)
    pairs = np.array([[0, 1099], [1017, 1014]])
    assert _pair_congestions(g, pairs) == [weights.max(), weights[1014:1017].max()]
