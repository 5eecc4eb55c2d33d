import numpy as np
import pytest

from boxflow.approx_common import calibrate
from boxflow.covers import build_distance_structures, default_tau
from boxflow.graphs import Graph
from boxflow.oracle import opt_transshipment
from boxflow.solvers import solve_transshipment
from boxflow.ts_approx import build_R, build_ts_approximator, r_entry

from conftest import (
    cycle_graph,
    dense_calibration_demands,
    grid_graph,
    ladder_graph,
    random_connected_graph,
    random_demand,
    two_point_demand,
)


def test_degenerate_single_scale_fallback():
    g = Graph(2, [(0, 1, 1.0)])
    ds = build_distance_structures(g, tau=4, seed=0)
    assert len(ds.structures) == 1  # D_1 = 16 > 4
    R, blocks = build_R(ds)
    assert R.shape == (2, 2)
    assert len(blocks) == 1
    assert np.array_equal(blocks[0].rows, [[0, 1]])
    # identity-like with entry D_1 = beta
    assert np.allclose(R.to_dense(), 16.0 * np.eye(2))


def _lower_clusterings(ds):
    """(i, j) of every block of build_R, in block order."""
    return [
        (i, j)
        for i in range(len(ds.structures) - 1)
        for j in range(ds.structures[i].cover.num_clusterings)
    ]


def test_zero_entry_when_p_vanishes(eight_cycle):
    # tau 4 gives the grid and the random graph three scales (levels 1, 16
    # and 256) and 5-11 clusterings at the middle one.  There every lower
    # cluster is a singleton or sits inside the one top cluster; on the
    # weighted 60-cycle at the default tau 6 (four scales) the clusters of
    # 5 of the 160 rows (seed 0) and 4 of the 141 (seed 1) straddle an
    # upper cluster boundary, at beta = 4 tau exactly.  build_R never
    # tests containment, so the set-based reference below checks that
    # those rows come out empty through p alone.
    inputs = [
        (eight_cycle, 4, 1),
        (grid_graph(6, 6), 4, 0),
        (random_connected_graph(24, np.random.default_rng(3)), 4, 2),
        (cycle_graph(60, weight=10.0), None, 0),
        (cycle_graph(60, weight=10.0), None, 1),
    ]
    straddling = 0
    for g, tau, seed in inputs:
        ds = build_distance_structures(g, tau=tau, seed=seed)
        R, blocks = build_R(ds)
        # entries follow the formula exactly; check a full reconstruction
        dense = R.to_dense()
        scales = ds.scales
        seen = []
        for blk, (i, j) in zip(blocks, _lower_clusterings(ds), strict=True):
            low = ds.structures[i]
            high = ds.structures[i + 1]
            clustering = low.cover.clusterings[j]
            for jp in range(high.cover.num_clusterings):
                high_ids = high.cover.clusterings[jp].ids
                for cid in range(clustering.n_clusters):
                    row = blk.rows[jp, cid]
                    seen.append(row)
                    members = set(int(x) for x in clustering.members[cid])
                    contained = len({int(high_ids[v]) for v in members}) == 1
                    straddling += not contained
                    for v in range(g.n):
                        if v in members and contained:
                            want = r_entry(
                                scales.levels[i + 1],
                                low.p[j][v],
                                high.p[jp][v],
                                low.w[v],
                                high.w[v],
                            )
                        else:
                            want = 0.0
                        assert dense[row, v] == want
        assert seen == list(range(R.n_rows))
    assert straddling > 0


def test_rows_and_column_sparsity_bounds():
    rng = np.random.default_rng(0)
    for g in (cycle_graph(16), grid_graph(4, 6), random_connected_graph(24, rng)):
        approx = build_ts_approximator(g, seed=3, calibrate_scale=False)
        ds = approx.structures
        num_per_scale = [st.cover.num_clusterings for st in ds.structures]
        num_max = max(num_per_scale)
        n_scales = len(ds.structures)
        # exact row count <= |I| * NUM^2 * n
        assert approx.R.n_rows <= n_scales * num_max * num_max * g.n
        pair_bound = sum(
            num_per_scale[i] * num_per_scale[i + 1] for i in range(n_scales - 1)
        )
        assert approx.R.max_col_nnz() <= max(1, pair_bound)


def test_block_rows_retrievable(eight_cycle):
    # every row of R names its (i, j, jp, cluster) through the blocks
    approx = build_ts_approximator(eight_cycle, seed=0, calibrate_scale=False)
    ds = approx.structures
    for blk, (i, j) in zip(approx.blocks, _lower_clusterings(ds), strict=True):
        clustering = ds.structures[i].cover.clusterings[j]
        assert np.array_equal(blk.ids, clustering.ids)
        assert blk.n_clusters == clustering.n_clusters
        assert blk.rows.shape == (ds.structures[i + 1].cover.num_clusterings, blk.n_clusters)
        assert blk.entries.shape == (eight_cycle.n, blk.rows.shape[0])
    rows = np.concatenate([blk.rows.ravel() for blk in approx.blocks])
    assert np.array_equal(rows, np.arange(approx.R.n_rows))


def test_calibrated_sandwich_on_cycle(eight_cycle):
    approx = build_ts_approximator(eight_cycle, seed=0)
    s = approx.scale
    assert s > 0
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        d = random_demand(8, rng, integer=True)
        if not np.any(d):
            continue
        opt, _, _ = opt_transshipment(eight_cycle, d)
        est = approx.estimate(d)
        assert est >= opt * (1 - 1e-9)
        worst = max(worst, est / opt)
    assert worst <= 500.0


def test_adjacent_pair_ratio_recorded(eight_cycle):
    approx = build_ts_approximator(eight_cycle, seed=0)
    d = np.zeros(8)
    d[0], d[1] = 1.0, -1.0
    est = approx.estimate(d)
    assert 1.0 - 1e-9 <= est <= 500.0  # OPT = 1; rho ceiling from acceptance


def test_weight_normalization_small_weights():
    g = Graph(3, [(0, 1, 0.25), (1, 2, 0.5)])
    approx = build_ts_approximator(g, seed=2)
    d = np.array([1.0, 0.0, -1.0])
    opt, _, _ = opt_transshipment(g, d)
    assert abs(opt - 0.75) < 1e-12
    assert approx.estimate(d) >= opt * (1 - 1e-9)


def test_determinism():
    g = cycle_graph(10)
    a1 = build_ts_approximator(g, seed=11)
    a2 = build_ts_approximator(g, seed=11)
    assert a1.scale == a2.scale
    assert np.array_equal(a1.R.to_dense(), a2.R.to_dense())


def test_heavier_parallel_edges_change_nothing():
    # Graph accepts parallel edges; only the lightest copy may count.  The
    # weighted 2 x 16 ladder is long enough for nontrivial potentials.
    rng = np.random.default_rng(11)
    length = 16
    edges = []
    for c in range(length):
        edges.append((c, length + c, float(rng.choice((1.0, 2.0, 3.0)))))
        if c + 1 < length:
            edges.append((c, c + 1, float(rng.choice((1.0, 2.0, 3.0)))))
            edges.append((length + c, length + c + 1, float(rng.choice((1.0, 2.0, 3.0)))))
    heavier = edges + [(v, u, 3.0) for u, v, _w in edges]
    a = build_ts_approximator(Graph(2 * length, edges), seed=2, calibrate_scale=False)
    b = build_ts_approximator(Graph(2 * length, heavier), seed=2, calibrate_scale=False)
    assert a.R.n_rows > 2 * length
    assert np.array_equal(a.R.to_dense(), b.R.to_dense())
    for sa, sb in zip(a.structures.structures, b.structures.structures, strict=True):
        for pa, pb in zip(sa.phi, sb.phi, strict=True):
            assert np.array_equal(pa, pb)


def test_bench_ladder_rho():
    # the bench's ts-ladder graph: beta = 8 tau gave rho 17.06 here, and
    # rho ~ L sets the iteration count of every transshipment probe
    g = ladder_graph(24, np.random.default_rng(1))
    approx = build_ts_approximator(g, seed=0)
    assert approx.structures.scales.beta == 4 * default_tau(g.n)
    assert approx.calibration.rho <= 8.0


def test_dense_samples_never_raise_the_pair_scale():
    # The evidence for calibrating on pairs only: the 16 dense demands the
    # build used to price with the exact transport never ask for a larger
    # scale than the 200 pairs on the bench ladder, the Fig 1 cycle and the
    # criterion-4 graphs.
    from test_acceptance import _criterion4_graphs

    cases = [(ladder_graph(24, np.random.default_rng(1)), 0), (cycle_graph(8), 0)]
    cases += [(g, 1) for _name, g in _criterion4_graphs()]
    for g, seed in cases:
        approx = build_ts_approximator(g, seed=seed)
        dense = max(
            opt_transshipment(g, d)[0] / approx.vec_norm(approx.apply_raw(d))
            for d in dense_calibration_demands(g.n, seed)
        )
        assert dense <= approx.scale


def test_pair_scale_undershoots_on_spread_weights():
    # Pairs fit scale 3.577e-5 here (3.817e-5 with the 16 dense samples),
    # and dense demand #227 below falls under the one-sided bound at
    # est/OPT 0.824.  The bracket, repair and certificate still carry the
    # solve to 1 + eps.
    g = random_connected_graph(10, np.random.default_rng(3), weight_choices=(1e-3, 1, 1e3))
    approx = build_ts_approximator(g, seed=0)
    assert approx.scale == pytest.approx(3.577e-5, rel=1e-3)
    rng = np.random.default_rng(5)
    for _ in range(228):
        d = rng.normal(size=g.n)
        d -= d.mean()
    opt = opt_transshipment(g, d)[0]
    assert approx.estimate(d) < opt
    rep = solve_transshipment(g, d, 0.1, approx=approx, seed=0)
    assert rep.feasibility_residual <= 1e-8
    assert rep.primal_cost <= 1.1 * opt
    assert rep.certified_ratio <= 1.1


def test_dense_calibration_samples_are_congestion_only(eight_cycle):
    approx = build_ts_approximator(eight_cycle, seed=0, calibrate_scale=False)
    with pytest.raises(ValueError, match="congestion"):
        calibrate(approx, 0, multipoint=16)
