import heapq
import math

import numpy as np
import pytest

from boxflow.covers import (
    _carve_clustering,
    _clustering_potentials,
    build_cover,
    build_distance_structures,
    build_scales,
    compute_pw,
    default_tau,
)
from boxflow.graphs import Graph

from conftest import cycle_graph, grid_graph, ladder_graph, path_graph, random_connected_graph


def induced_distances(g, members):
    """All-pairs shortest paths inside the induced subgraph of members."""
    member_set = set(int(u) for u in members)
    adj = g.adjacency()
    out = {}
    for s in member_set:
        dist = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w, _e in adj[u]:
                if v not in member_set:
                    continue
                nd = du + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        out[s] = dist
    return out


def ball(g, v, radius, free=None):
    """Nodes within radius of v, in the subgraph induced by free if given."""
    adj = g.adjacency()
    dist = {v: 0.0}
    heap = [(0.0, v)]
    out = set()
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        out.add(u)
        for nb, w, _e in adj[u]:
            nd = du + w
            if (free is None or free[nb]) and nd <= radius and (nb not in dist or nd < dist[nb]):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return out


def graph_distances(g, source):
    adj = g.adjacency()
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w, _e in adj[u]:
            nd = du + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def check_cover_invariants(g, cover, tau):
    for clustering in cover.clusterings:
        ids = clustering.ids
        # partition: all clustered, clusters disjoint by construction
        assert (ids >= 0).all()
        seen = 0
        for cid, members in enumerate(clustering.members):
            assert len(members) > 0
            seen += len(members)
            dists = induced_distances(g, members)
            # connected with strong diameter <= D_i
            for s in dists:
                assert len(dists[s]) == len(members)
                assert max(dists[s].values()) <= cover.diameter + 1e-9
        assert seen == g.n
    # covering: every node's D_i/tau ball inside some cluster
    for v in range(g.n):
        j = cover.covering_index[v]
        assert j >= 0
        b = ball(g, v, cover.radius)
        ids = cover.clusterings[j].ids
        assert len({int(ids[u]) for u in b}) == 1


def test_scales_eight_cycle_tau4(eight_cycle):
    scales = build_scales(eight_cycle, 4)
    assert scales.beta == 16
    assert scales.levels == [1.0, 16.0]  # 16 <= 64, 256 > 64
    assert scales.i_max == 1


def test_scales_single_edge_tau4():
    g = Graph(2, [(0, 1, 1.0)])
    scales = build_scales(g, 4)
    assert scales.levels == [1.0]  # D_1 = 16 > 4
    assert scales.i_max == 0


def test_scales_default_tau():
    assert [default_tau(n) for n in (1, 2, 8, 16, 17, 2304)] == [4, 4, 4, 4, 5, 12]
    g = cycle_graph(8)
    scales = build_scales(g, default_tau(8))
    assert scales.beta == 16
    assert scales.i_max >= 0
    assert scales.levels[0] == 1.0


def test_scales_reject_small_tau(eight_cycle):
    # below 4 the covering radius D/tau nears the smallest carving radius
    for tau in (1, 2, 3):
        with pytest.raises(ValueError, match="at least 4"):
            build_scales(eight_cycle, tau)


def test_cover_whole_graph_single_cluster(eight_cycle):
    # D large enough that one cluster can hold V
    cover = build_cover(eight_cycle, 1, 16.0, 2, seed=3)
    check_cover_invariants(eight_cycle, cover, 2)
    assert cover.clusterings[cover.covering_index[0]].n_clusters >= 1


def test_cover_diameter_one_is_singletons(eight_cycle):
    cover = build_cover(eight_cycle, 0, 1.0, 2, seed=0)
    assert cover.num_clusterings == 1
    assert cover.clusterings[0].n_clusters == 8
    check_cover_invariants(eight_cycle, cover, 2)


def test_cover_eight_cycle_ball_containment(eight_cycle):
    # brute-force check of B(v, 8) containment at D=16, tau=2
    cover = build_cover(eight_cycle, 1, 16.0, 2, seed=1)
    for v in range(8):
        b = ball(eight_cycle, v, 8.0)
        j = cover.covering_index[v]
        ids = cover.clusterings[j].ids
        assert len({int(ids[u]) for u in b}) == 1


def test_cover_invariants_various_graphs():
    rng = np.random.default_rng(0)
    graphs = [
        cycle_graph(12),
        grid_graph(4, 5),
        path_graph(17),
        random_connected_graph(20, rng),
    ]
    for gi, g in enumerate(graphs):
        tau = default_tau(g.n)
        scales = build_scales(g, tau)
        for i, D in enumerate(scales.levels):
            cover = build_cover(g, i, D, tau, seed=100 + gi)
            check_cover_invariants(g, cover, tau)


def test_cover_deterministic(eight_cycle):
    c1 = build_cover(eight_cycle, 1, 16.0, 2, seed=9)
    c2 = build_cover(eight_cycle, 1, 16.0, 2, seed=9)
    assert len(c1.clusterings) == len(c2.clusterings)
    for a, b in zip(c1.clusterings, c2.clusterings):
        assert np.array_equal(a.ids, b.ids)


def test_potentials_singleton():
    g = path_graph(4, [2.0, 1.0, 3.0])
    cover = build_cover(g, 0, 1.0, 2, seed=0)
    phis = [_clustering_potentials(g, c.ids, cover.diameter) for c in cover.clusterings]
    # singleton: distance to nearest other node, capped at D=1
    assert phis[0][0] == 1.0  # min(2, 1)
    assert phis[0][1] == 1.0
    assert phis[0][2] == 1.0
    assert phis[0][3] == 1.0


def test_potentials_whole_graph_convention(eight_cycle):
    # a single all-V cluster has an empty complement: phi is the cap D
    phi = _clustering_potentials(eight_cycle, np.zeros(8, dtype=np.int64), 16.0)
    assert np.all(phi == 16.0)


def test_potentials_arc_pattern(eight_cycle):
    ids = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
    phi = _clustering_potentials(eight_cycle, ids, 16.0)
    # arc 0-1-2-3: distance to complement {4..7} is [1, 2, 2, 1]
    assert list(phi[:4]) == [1.0, 2.0, 2.0, 1.0]
    assert list(phi[4:]) == [1.0, 2.0, 2.0, 1.0]


def test_distance_structure_properties():
    rng = np.random.default_rng(1)
    graphs = [cycle_graph(10), random_connected_graph(14, rng), grid_graph(3, 5)]
    for gi, g in enumerate(graphs):
        tau = default_tau(g.n)
        ds = build_distance_structures(g, tau=tau, seed=200 + gi)
        gamma_all = max(s.cover.num_clusterings for s in ds.structures)
        assert gamma_all <= 2 * tau or gamma_all <= ds.num_target
        dists = {v: graph_distances(g, v) for v in range(g.n)}
        for st in ds.structures:
            D = st.cover.diameter
            gamma = st.cover.num_clusterings
            for j, clustering in enumerate(st.cover.clusterings):
                phi = st.phi[j]
                for v in range(g.n):
                    members = st.cover.clusterings[j].members[clustering.ids[v]]
                    complement = [u for u in range(g.n) if clustering.ids[u] != clustering.ids[v]]
                    if complement:
                        d_comp = min(dists[v][u] for u in complement)
                    else:
                        d_comp = math.inf
                    # property 1 with equality up to the cap
                    assert phi[v] <= min(d_comp, D) + 1e-9
                    assert phi[v] >= min(d_comp, D) - 1e-9
                    # property 3
                    if d_comp >= D / gamma:
                        assert phi[v] >= D / (2 * tau) - 1e-9
                # property 2: 1-Lipschitz within a cluster
                for cid, members in enumerate(clustering.members):
                    for a in members:
                        for b in members:
                            assert abs(phi[a] - phi[b]) <= dists[int(a)][int(b)] + 1e-9


def test_pw_formulas_and_bounds():
    rng = np.random.default_rng(2)
    for g in (cycle_graph(8), random_connected_graph(12, rng)):
        tau = default_tau(g.n)
        ds = build_distance_structures(g, tau=tau, seed=5)
        for st in ds.structures:
            D = st.cover.diameter
            num_here = st.cover.num_clusterings
            for j, phi in enumerate(st.phi):
                expect = np.maximum(0.0, phi / D - 0.25 / tau)
                assert np.allclose(st.p[j], expect, atol=1e-15)
                assert np.all(st.p[j] >= 0.0) and np.all(st.p[j] <= 1.0)
            # w bounds from the covering property
            assert np.all(st.w >= 0.25 / tau - 1e-12)
            assert np.all(st.w <= num_here + 1e-12)


def test_pw_plugin_values():
    tau = 4
    # phi = D gives p = 1 - 0.25/tau; phi = 0 gives p = 0
    from boxflow.covers import Cover, DistanceStructure

    cover = Cover(scale_index=1, diameter=32.0, radius=8.0)
    from boxflow.covers import _make_clustering

    cover.clusterings.append(_make_clustering(np.zeros(3, dtype=np.int64)))
    st = DistanceStructure(cover=cover, phi=[np.array([32.0, 0.0, 16.0])])
    ps, w = compute_pw(st, tau)
    assert ps[0][0] == 1 - 0.25 / tau
    assert ps[0][1] == 0.0
    assert ps[0][2] == 0.5 - 0.25 / tau


def test_p_lipschitz_exhaustive_small():
    rng = np.random.default_rng(3)
    for g in (cycle_graph(9), random_connected_graph(11, rng), path_graph(8)):
        tau = default_tau(g.n)
        ds = build_distance_structures(g, tau=tau, seed=77)
        dists = {v: graph_distances(g, v) for v in range(g.n)}
        for st in ds.structures:
            D = st.cover.diameter
            num_here = st.cover.num_clusterings
            for p in st.p:
                for u in range(g.n):
                    for v in range(g.n):
                        assert abs(p[u] - p[v]) <= dists[u][v] / D + 1e-9
            for u in range(g.n):
                for v in range(g.n):
                    assert abs(st.w[u] - st.w[v]) <= num_here * dists[u][v] / D + 1e-9


def test_potentials_match_reference_distances():
    # the path and the 3 x 16 grid at tau = 4 reach potentials in (D/2, D)
    rng = np.random.default_rng(4)
    cases = [
        (random_connected_graph(16, rng, weight_choices=(1.0, 1.37, 2.9)), None),
        (random_connected_graph(40, rng, extra_edge_prob=0.02, weight_choices=(1.0, 1.7, 3.3)), None),
        (path_graph(40, list(rng.choice((1.0, 1.7, 3.3), size=39))), None),
        (grid_graph(3, 16), 4),
    ]
    upper_half = 0
    for gi, (g, tau) in enumerate(cases):
        ds = build_distance_structures(g, tau=tau, seed=300 + gi)
        dists = {u: graph_distances(g, u) for u in range(g.n)}
        for st in ds.structures:
            D = st.cover.diameter
            for j, clustering in enumerate(st.cover.clusterings):
                ids = clustering.ids
                phi = _clustering_potentials(g, ids, D)
                assert np.array_equal(st.phi[j], phi)
                upper_half += int(np.count_nonzero((phi > D / 2) & (phi < D)))
                for v in range(g.n):
                    outside = [dists[u][v] for u in range(g.n) if ids[u] != ids[v]]
                    assert phi[v] == min([D] + outside)
    assert upper_half > 0


def test_carve_clusters_are_residual_balls():
    # each cluster is the residual ball of the first free center in visit
    # order; radii sit on integer and float path lengths alike
    rng = np.random.default_rng(12)
    graphs = [
        cycle_graph(13),
        grid_graph(5, 6),
        random_connected_graph(24, rng),
        random_connected_graph(24, rng, weight_choices=(1.0, 1.37, 2.9)),
        path_graph(20, list(rng.choice((1.0, 1.7, 3.3), size=19))),
    ]
    for g in graphs:
        for theta in (1.0, 2.0, 2.37, 3.4, 4.0, 6.5):
            order = rng.permutation(g.n)
            clustering = _carve_clustering(g, theta, order)
            free = [True] * g.n
            next_id = 0
            for center in order.tolist():
                if not free[center]:
                    continue
                want = ball(g, center, theta, free)
                assert set(clustering.members[next_id].tolist()) == want
                for u in want:
                    free[u] = False
                next_id += 1
            assert clustering.n_clusters == next_id and not any(free)


def test_tau4_builds_raise_no_cover_error():
    # at tau 3 the 24-cycle runs out of clusterings at build seeds 1 and
    # 3; tau 4 covers every build of the sweep
    for seed in range(4):
        rng = np.random.default_rng(seed)
        graphs = [
            cycle_graph(17),
            cycle_graph(24),
            random_connected_graph(20, rng, weight_choices=(1.0, 1.37, 2.9)),
            random_connected_graph(32, rng, weight_choices=(1.0, 1.7, 3.3)),
            ladder_graph(12, rng, weights=(1.0, 1.7, 3.3)),
            ladder_graph(16, rng, weights=(1.0, 1.7, 3.3)),
            grid_graph(4, 6),
            grid_graph(5, 5),
            grid_graph(3, 5),
            path_graph(12, list(rng.choice((1.0, 2.0, 3.0), size=11))),
        ]
        for g in graphs:
            ds = build_distance_structures(g, tau=4, seed=seed)
            for st in ds.structures:
                assert (st.cover.covering_index >= 0).all()
