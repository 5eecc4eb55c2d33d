import numpy as np
import pytest

from boxflow.graphs import (
    DemandBalanceError,
    GraphFormatError,
    apply_B,
    apply_BT,
    dijkstra,
    load_graph,
    parse_demand,
    validate_demand,
)

from conftest import FIG1_DEMAND, cycle_graph, random_connected_graph
from test_covers import induced_distances

EIGHT_CYCLE_TEXT = "\n".join(f"{i} {(i + 1) % 8} 1" for i in range(8))


def test_load_eight_cycle():
    g = load_graph(EIGHT_CYCLE_TEXT)
    assert g.n == 8
    assert g.m == 8
    assert np.all(g.weight == 1.0)


def test_load_single_edge():
    g = load_graph("0 1 5")
    assert (g.n, g.m) == (2, 1)
    assert g.weight[0] == 5.0


def test_load_triangle_preserves_order():
    g = load_graph("0 1 1\n1 2 2\n2 0 3")
    assert g.n == 3 and g.m == 3
    assert list(g.tail) == [0, 1, 2]
    assert list(g.head) == [1, 2, 0]
    assert list(g.weight) == [1.0, 2.0, 3.0]


def test_load_rejects_self_loop():
    with pytest.raises(GraphFormatError):
        load_graph("0 0 1\n0 1 1")


def test_load_rejects_nonpositive_weight():
    with pytest.raises(GraphFormatError):
        load_graph("0 1 0")
    with pytest.raises(GraphFormatError):
        load_graph("0 1 -2")


def test_load_rejects_disconnected():
    with pytest.raises(GraphFormatError):
        load_graph("0 1 1\n2 3 1")


def test_load_skips_comments_and_blanks():
    g = load_graph("# triangle\n\n0 1 1\n1 2 1\n2 0 1\n")
    assert g.m == 3


def test_apply_B_single_edge_column():
    g = load_graph("0 1 5")
    d = apply_B(g, np.array([1.0]))
    assert np.array_equal(d, [1.0, -1.0])


def test_apply_B_zero_flow(eight_cycle):
    assert np.array_equal(apply_B(eight_cycle, np.zeros(8)), np.zeros(8))


def test_apply_B_fig1_blue_flow(eight_cycle):
    # A->B on edge (0,1); A->H against edge (7,0); H->G against edge (6,7);
    # D->E on edge (3,4).
    f = np.zeros(8)
    f[0] = 1.0
    f[7] = -1.0
    f[6] = -1.0
    f[3] = 1.0
    assert np.array_equal(apply_B(eight_cycle, f), FIG1_DEMAND)


def test_apply_B_size_mismatch(eight_cycle):
    with pytest.raises(ValueError):
        apply_B(eight_cycle, np.zeros(7))


def test_apply_BT_constant_is_zero(eight_cycle):
    assert np.array_equal(apply_BT(eight_cycle, np.full(8, 3.7)), np.zeros(8))


def test_apply_BT_indicator():
    g = load_graph("0 1 2")
    phi = np.array([1.0, 0.0])
    assert np.array_equal(apply_BT(g, phi), [1.0])


def test_apply_BT_cycle_sum_zero():
    g = load_graph("0 1 1\n1 2 2\n2 0 3")
    rng = np.random.default_rng(7)
    phi = rng.normal(size=3)
    s = apply_BT(g, phi)
    # around the oriented triangle the differences telescope
    assert abs(s[0] + s[1] + s[2]) < 1e-12


def test_adjointness(eight_cycle):
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.normal(size=8)
        phi = rng.normal(size=8)
        lhs = apply_B(eight_cycle, f) @ phi
        rhs = f @ apply_BT(eight_cycle, phi)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_apply_B_sums_to_zero():
    rng = np.random.default_rng(3)
    g = cycle_graph(12)
    for _ in range(10):
        f = rng.normal(size=12)
        d = apply_B(g, f)
        assert abs(d.sum()) <= 1e-9 * max(1.0, np.abs(d).sum())


def test_validate_demand_fig1():
    validate_demand(FIG1_DEMAND)


def test_validate_demand_zero():
    validate_demand(np.zeros(5))


def test_validate_demand_imbalanced():
    d = np.zeros(4)
    d[1] = 1.0
    with pytest.raises(DemandBalanceError) as err:
        validate_demand(d)
    assert "1" in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_demand_rejects_non_finite(value):
    d = FIG1_DEMAND.copy()
    d[5] = value
    for require_exact in (False, True):
        with pytest.raises(DemandBalanceError, match="entry 5 is"):
            validate_demand(d, require_exact=require_exact)


def test_validate_demand_exact_mode():
    with pytest.raises(DemandBalanceError):
        validate_demand(np.array([1.0, -1.0, 1e-15]), require_exact=True)


def test_parse_demand():
    d = parse_demand("0 2\n3 1\n1 -1\n4 -1\n6 -1\n", 8)
    assert np.array_equal(d, FIG1_DEMAND)


def test_parse_demand_bad_node():
    with pytest.raises(GraphFormatError):
        parse_demand("9 1", 8)


def _float_graphs(seed):
    rng = np.random.default_rng(seed)
    return rng, [random_connected_graph(n, rng, weight_choices=(0.37, 1.7, 3.3)) for n in (7, 12, 20, 31)]


def test_dijkstra_within_matches_induced_distances():
    rng, graphs = _float_graphs(40)
    for g in graphs:
        members = rng.choice(g.n, size=g.n // 2 + 1, replace=False).tolist()
        within = [False] * g.n
        for v in members:
            within[v] = True
        ref = induced_distances(g, members)
        for s in members:
            assert dijkstra(g, s, within)[0] == ref[s]


def test_dijkstra_as_int_returns_ints():
    rng = np.random.default_rng(42)
    g = random_connected_graph(15, rng)
    dist = dijkstra(g, 3, as_int=True)[0]
    assert all(type(x) is int for x in dist.values())
    assert dist == dijkstra(g, 3)[0]


def test_dijkstra_pred_walk_resums_dist():
    _rng, graphs = _float_graphs(43)
    for g in graphs:
        dist, pred, order = dijkstra(g, 0)
        assert sorted(order) == sorted(dist) == list(range(g.n))
        assert [dist[v] for v in order] == sorted(dist.values())
        for v in range(g.n):
            path = []
            u = v
            while u != 0:
                e, parent = pred[u]
                assert {int(g.tail[e]), int(g.head[e])} == {u, parent}
                path.append(float(g.weight[e]))
                u = parent
            assert sum(reversed(path), 0.0) == dist[v]
