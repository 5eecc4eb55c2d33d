import math

import numpy as np
import pytest

from boxflow.minoragg import (
    AuditError,
    MinorAggCore,
    MinorAggNetwork,
    dist_matvec,
)
from boxflow.solvers import CentralizedCore, solve_transshipment
from boxflow.tree_approx import build_mf_approximator
from boxflow.ts_approx import build_ts_approximator

from conftest import FIG1_DEMAND, cycle_graph, grid_graph, random_connected_graph


def test_round_no_contraction_sum(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    res = net.run_round(node_values=np.ones(8), consensus_op="sum")
    assert res.n_supernodes == 8
    assert np.array_equal(res.consensus, np.ones(8))
    assert net.round_count == 1


def test_round_contract_everything_learns_demand_sum(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    res = net.run_round(
        contract=np.ones(8, dtype=bool), node_values=FIG1_DEMAND, consensus_op="sum"
    )
    assert res.n_supernodes == 1
    assert np.allclose(res.consensus, 0.0)


def test_round_counter_increments(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    for k in range(3):
        net.run_round(node_values=np.zeros(8), consensus_op="sum")
    assert net.round_count == 3
    assert net.trace == [{"label": "", "rounds": 3, "max_words": 1}]


def test_trace_keeps_one_record_per_label(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    for k in range(1000):
        if k % 2:
            net.run_round(node_values=np.zeros(8), label="narrow")
        else:
            # 3-word and 1-word messages alternate under this label
            net.run_round(node_values=np.zeros((8, 3 if k % 4 == 0 else 1)), label="wide")
    assert net.round_count == 1000
    assert net.trace == [
        {"label": "wide", "rounds": 500, "max_words": 3},
        {"label": "narrow", "rounds": 500, "max_words": 1},
    ]


def test_unknown_operator_rejected(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    with pytest.raises(ValueError, match="unknown operator"):
        net.run_round(node_values=np.zeros(8), consensus_op="min")
    with pytest.raises(ValueError, match="unknown operator"):
        net.run_round(
            edge_value_fn=lambda e, yt, yh: (np.zeros(len(e)), np.zeros(len(e))),
            aggregate_op=max,
        )
    assert net.round_count == 0


def test_containment_round_matches_set_inclusion(eight_cycle):
    # contract the two 4-arcs; consensus (max, -min) on an id vector tells
    # every node whether its arc sits inside one upper cluster
    net = MinorAggNetwork(eight_cycle)
    arc = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    upper = np.array([0, 0, 0, 1, 1, 1, 0, 0], dtype=np.float64)
    contract = arc[eight_cycle.tail] == arc[eight_cycle.head]
    res = net.run_round(
        contract=contract,
        node_values=np.stack([upper, -upper], axis=1),
        consensus_op="max",
    )
    agree = res.consensus[:, 0] == -res.consensus[:, 1]
    for v in range(8):
        members = np.flatnonzero(arc == arc[v])
        assert bool(agree[v]) == (len(set(upper[members])) == 1)


def test_aggregation_step_incident_sums(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    x = np.arange(8.0)

    def edge_fn(alive, yt, yh):
        return x[alive], x[alive]

    res = net.run_round(edge_value_fn=edge_fn, aggregate_op="sum")
    # every node is its own supernode; it hears from both incident edges
    for v in range(8):
        incident = [e for e in range(8) if v in (int(eight_cycle.tail[e]), int(eight_cycle.head[e]))]
        assert res.aggregate[v] == sum(x[e] for e in incident)


def test_audit_word_budget(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    assert net.word_budget == 24  # 8 ceil(log2 8)
    net.run_round(node_values=np.zeros((8, net.word_budget)), consensus_op="sum")
    with pytest.raises(AuditError):
        net.run_round(node_values=np.zeros((8, net.word_budget + 1)), consensus_op="sum")


def test_audit_nonfinite(eight_cycle):
    net = MinorAggNetwork(eight_cycle)
    bad = np.zeros(8)
    bad[3] = np.inf
    with pytest.raises(AuditError):
        net.run_round(node_values=bad, consensus_op="sum")


def graphs_for_equivalence():
    rng = np.random.default_rng(5)
    return [cycle_graph(8), grid_graph(3, 4), random_connected_graph(14, rng)]


def test_r_columns_bit_identical_to_centralized():
    for gi, g in enumerate(graphs_for_equivalence()):
        approx = build_ts_approximator(g, seed=40 + gi)
        net = MinorAggNetwork(g)
        r_dist = MinorAggCore(net, approx).r_columns()
        want = approx.scaled_R()
        assert r_dist.shape == want.shape
        assert np.array_equal(r_dist.to_dense(), want.to_dense())


def test_ts_contract_votes_match_cluster_ids():
    # every block of either approximator contracts the edges inside its
    # clusters; the votes come from the edge-id delivery, the only set-up
    # rounds, which a narrower word budget splits into more rounds
    inputs = graphs_for_equivalence()
    builds = [build_ts_approximator(g, seed=40 + gi) for gi, g in enumerate(inputs)]
    builds.append(build_ts_approximator(grid_graph(6, 6), seed=0, tau=4))
    builds += [
        build_mf_approximator(g, seed=80 + gi, calibrate_scale=False) for gi, g in enumerate(inputs)
    ]
    assert len(builds[3].blocks) > 2
    for approx in builds:
        g = approx.graph
        for budget in (None, 2):
            net = MinorAggNetwork(g)
            if budget is not None:
                net.word_budget = budget
            core = MinorAggCore(net, approx)
            for blk, wired in zip(approx.blocks, core._blocks, strict=True):
                assert np.array_equal(wired.contract, blk.ids[g.tail] == blk.ids[g.head])
            assert [r["label"] for r in net.trace] == ["edge-id-setup"]
            assert net.round_count == math.ceil(len(approx.blocks) / net.word_budget)
            assert net.trace[0]["max_words"] <= net.word_budget


def _assert_six_products_match(g, approx, rng, word_budget=None):
    net = MinorAggNetwork(g)
    if word_budget is not None:
        net.word_budget = word_budget
    core = MinorAggCore(net, approx)
    cen = CentralizedCore(approx)
    k, m, n = approx.R.n_rows, g.m, g.n
    for _ in range(5):
        xe = rng.normal(size=m)
        xn = rng.normal(size=n)
        yr = rng.normal(size=k)
        checks = [
            ("R", xn, cen.mul_R(xn)),
            ("Rt", yr, cen.mul_RT(yr)),
            ("A", xe, cen.mul_M(xe)),
            ("At", yr, cen.mul_MT(yr)),
            ("absA", xe, cen.mul_absM(xe)),
            ("absAt", yr, cen.mul_absMT(yr)),
        ]
        for which, vec, want in checks:
            got = dist_matvec(core, which, vec)
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(got - want).max() <= 1e-9 * scale, which
    return core


def test_all_six_products_match_centralized():
    for gi, g in enumerate(graphs_for_equivalence()):
        approx = build_ts_approximator(g, seed=50 + gi)
        _assert_six_products_match(g, approx, np.random.default_rng(gi))


def test_core_messages_fit_word_budget():
    # a budget of the widest block's upper clusterings (the forward
    # products send one word per upper clustering) is narrower than the
    # blocks (set-up sends one id per block) and the row slots (the
    # transpose delivery sends one word per slot), so both deliveries
    # split into several rounds, each within the budget
    for g, seed in [
        (random_connected_graph(24, np.random.default_rng(3)), 2),
        (cycle_graph(60, weight=10.0), 1),
        (grid_graph(6, 6), 0),
    ]:
        approx = build_ts_approximator(g, seed=seed, tau=4)
        budget = max(len(blk.rows) for blk in approx.blocks)
        slots = sum(len(blk.rows) for blk in approx.blocks)
        assert len(approx.blocks) > budget
        core = _assert_six_products_match(g, approx, np.random.default_rng(seed), budget)
        got, want = core.r_columns().to_csc(), approx.scaled_R().to_csc()
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        trace = {r["label"]: r for r in core.net.trace}
        assert trace["edge-id-setup"]["rounds"] == math.ceil(len(approx.blocks) / budget)
        # each of the six products runs five times; two are transposes
        assert trace["transpose delivery"]["rounds"] == 10 * math.ceil(slots / budget)
        assert all(r["max_words"] <= budget for r in core.net.trace)


def test_tree_core_matches_centralized():
    # the max-flow approximator: one block per tree depth, filler singletons
    for gi, g in enumerate(graphs_for_equivalence()):
        approx = build_mf_approximator(g, seed=80 + gi)
        core = _assert_six_products_match(g, approx, np.random.default_rng(gi))
        r_dist = core.r_columns()
        want = approx.scaled_R()
        assert r_dist.shape == want.shape
        assert np.array_equal(r_dist.to_dense(), want.to_dense())


def test_round_budget_per_matvec():
    for gi, g in enumerate(graphs_for_equivalence()):
        approx = build_ts_approximator(g, seed=60 + gi)
        ds = approx.structures
        n_scales = len(ds.structures)
        num_max = max(st.cover.num_clusterings for st in ds.structures)
        budget = 4 * n_scales * num_max * num_max
        net = MinorAggNetwork(g)
        core = MinorAggCore(net, approx)
        rng = np.random.default_rng(gi)
        for which, size in [("R", g.n), ("A", g.m), ("absA", g.m), ("At", approx.R.n_rows)]:
            before = net.round_count
            dist_matvec(core, which, rng.normal(size=size))
            assert net.round_count - before <= budget


def test_zero_vector_zero_product(eight_cycle):
    approx = build_ts_approximator(eight_cycle, seed=0)
    net = MinorAggNetwork(eight_cycle)
    core = MinorAggCore(net, approx)
    assert not np.any(dist_matvec(core, "R", np.zeros(8)))
    assert not np.any(dist_matvec(core, "Rt", np.zeros(approx.R.n_rows)))


def test_single_row_support_local(eight_cycle):
    # R^T with y supported on one row touches only that row's cluster
    approx = build_ts_approximator(eight_cycle, seed=0)
    net = MinorAggNetwork(eight_cycle)
    core = MinorAggCore(net, approx)
    y = np.zeros(approx.R.n_rows)
    y[0] = 1.0
    out = dist_matvec(core, "Rt", y)
    dense = approx.scaled_R().to_dense()
    assert np.array_equal(out, dense[0, :])


def test_degenerate_single_scale_core():
    from boxflow.graphs import Graph

    g = Graph(2, [(0, 1, 1.0)])
    approx = build_ts_approximator(g, seed=0, tau=4)
    net = MinorAggNetwork(g)
    core = MinorAggCore(net, approx)
    r_dist = core.r_columns()
    assert np.array_equal(r_dist.to_dense(), approx.scaled_R().to_dense())
    cen = CentralizedCore(approx)
    x = np.array([0.3, -0.7])
    assert np.allclose(dist_matvec(core, "R", x), cen.mul_R(x), atol=1e-12)


def test_core_solve_reports_its_mode(eight_cycle, fig1_demand):
    # a library solve names the core it ran on; no caller has to fix it up
    approx = build_ts_approximator(eight_cycle, seed=0)
    core = MinorAggCore(MinorAggNetwork(eight_cycle), approx)
    rep = solve_transshipment(eight_cycle, fig1_demand, 0.1, approx=approx, seed=0, core=core)
    assert rep.mode == "minor-agg"
    assert rep.rounds_total > 0
    assert solve_transshipment(eight_cycle, fig1_demand, 0.1, approx=approx, seed=0).mode == "centralized"
