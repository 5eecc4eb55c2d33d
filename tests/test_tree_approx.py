import math

import numpy as np
import pytest

from boxflow.graphs import Graph
from boxflow.oracle import opt_congestion
from boxflow.tree_approx import build_mf_approximator, build_tree, tree_to_R

from conftest import (
    FIG2_DEMAND,
    cycle_graph,
    grid_graph,
    random_connected_graph,
    random_demand,
    star_graph,
)


def crossing_capacity(g, side):
    side = set(int(v) for v in side)
    cap = 0.0
    for e in range(g.m):
        if (int(g.tail[e]) in side) != (int(g.head[e]) in side):
            cap += 1.0 / float(g.weight[e])
    return cap


def check_tree_invariants(g, tree):
    n = g.n
    children = [[] for _ in range(tree.n_nodes)]
    for x, par in enumerate(tree.parent):
        if par >= 0:
            children[par].append(x)
    # graph vertices are exactly the leaves
    leaves = [x for x in range(tree.n_nodes) if not children[x]]
    assert sorted(tree.leaf_of) == leaves
    for v, x in enumerate(tree.leaf_of):
        assert tree.subtree[x] == [v]
    assert tree.n_nodes <= 2 * n
    assert tree.height <= 4 * max(1, math.ceil(math.log2(max(n, 2)))) + 2
    # laminar family: children partition the parent's subtree
    for x in range(tree.n_nodes):
        if children[x]:
            merged = sorted(v for c in children[x] for v in tree.subtree[c])
            assert merged == tree.subtree[x]
    # cut capacities match direct enumeration; positive off the root
    for x in range(tree.n_nodes):
        if tree.parent[x] < 0:
            continue
        assert tree.cap[x] > 0
        assert np.isclose(tree.cap[x], crossing_capacity(g, tree.subtree[x]), atol=1e-9)


def test_single_edge_tree():
    g = Graph(2, [(0, 1, 1.0)])
    tree = build_tree(g)
    check_tree_invariants(g, tree)
    R, _ = tree_to_R(tree, 2)
    d = np.array([1.0, -1.0])
    assert np.abs(R.matvec(d)).max() == 1.0  # = OPT for the unit edge


def test_star_leaf_cuts():
    g = star_graph(4)
    tree = build_tree(g)
    check_tree_invariants(g, tree)
    # every leaf vertex except possibly the center sits under a unit cut
    for v, x in enumerate(tree.leaf_of):
        if v > 0:
            assert np.isclose(tree.cap[x], 1.0)


def test_cycle_cut_capacities(eight_cycle):
    tree = build_tree(eight_cycle, seed=1)
    check_tree_invariants(eight_cycle, tree)
    for x in range(tree.n_nodes):
        if tree.parent[x] < 0:
            continue
        k = len(tree.subtree[x])
        if 0 < k < 8:
            # contiguous arcs cross 2 edges; fragmented pieces cross more
            assert tree.cap[x] >= 2.0 - 1e-9 or k == 8


def test_tree_invariants_various():
    rng = np.random.default_rng(0)
    for g in (grid_graph(5, 5), random_connected_graph(30, rng), cycle_graph(17)):
        tree = build_tree(g, seed=3)
        check_tree_invariants(g, tree)


def test_zero_demand_estimate(eight_cycle):
    approx = build_mf_approximator(eight_cycle, seed=0, calibrate_scale=False)
    assert approx.estimate(np.zeros(8)) == 0.0


def test_cut_lower_bound_never_exceeds_opt():
    rng = np.random.default_rng(1)
    for trial in range(6):
        g = random_connected_graph(12, rng)
        approx = build_mf_approximator(g, seed=trial, calibrate_scale=False)
        d = random_demand(g.n, rng, integer=True)
        if not np.any(d):
            continue
        opt, _ = opt_congestion(g, d)
        raw = approx.vec_norm(approx.apply_raw(d))
        assert raw <= opt * (1 + 1e-9) + 1e-12


def test_fig2_bound(eight_cycle, fig2_demand):
    approx = build_mf_approximator(eight_cycle, seed=0)
    raw = approx.vec_norm(approx.apply_raw(fig2_demand))
    assert raw <= 1.5 + 1e-9
    est = approx.estimate(fig2_demand)
    assert est >= 1.5 * (1 - 1e-9)


def test_calibrated_sandwich(eight_cycle):
    approx = build_mf_approximator(eight_cycle, seed=0)
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = random_demand(8, rng, integer=True)
        if not np.any(d):
            continue
        opt, _ = opt_congestion(eight_cycle, d)
        est = approx.estimate(d)
        assert est >= opt * (1 - 1e-9)
        assert est <= 500.0 * opt


def test_tree_R_rows_brute_force():
    # row r is 1/cap[x] on subtree[x] and 0 elsewhere, x the r-th non-root node
    rng = np.random.default_rng(4)
    for g in (cycle_graph(8), grid_graph(5, 5), random_connected_graph(30, rng), star_graph(6)):
        tree = build_tree(g, seed=2)
        R, blocks = tree_to_R(tree, g.n)
        dense = R.to_dense()
        nonroot = [x for x in range(tree.n_nodes) if tree.parent[x] >= 0]
        assert dense.shape == (len(nonroot), g.n)
        for r, x in enumerate(nonroot):
            want = np.zeros(g.n)
            want[tree.subtree[x]] = 1.0 / tree.cap[x]
            assert np.array_equal(dense[r], want)
        assert len(blocks) == tree.height


def test_column_sparsity_is_height(eight_cycle):
    tree = build_tree(eight_cycle, seed=0)
    R, _ = tree_to_R(tree, 8)
    assert R.max_col_nnz() <= tree.height


def test_determinism(eight_cycle):
    t1 = build_tree(eight_cycle, seed=5)
    t2 = build_tree(eight_cycle, seed=5)
    assert t1.parent == t2.parent
    assert t1.cap == t2.cap
