import numpy as np
import pytest

from boxflow.graphs import Graph
from boxflow.rng import child_rng


def cycle_graph(n, weight=1.0):
    """n-cycle 0-1-...-(n-1)-0 with uniform weights."""
    edges = [(i, (i + 1) % n, weight) for i in range(n)]
    return Graph(n, edges)


def path_graph(n, weights=None):
    if weights is None:
        weights = [1.0] * (n - 1)
    return Graph(n, [(i, i + 1, weights[i]) for i in range(n - 1)])


def star_graph(k, weight=1.0):
    """Center 0 with k leaves."""
    return Graph(k + 1, [(0, i, weight) for i in range(1, k + 1)])


def grid_graph(rows, cols, weight=1.0):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, weight))
            if r + 1 < rows:
                edges.append((v, v + cols, weight))
    return Graph(rows * cols, edges)


def ladder_graph(length, rng, weights=(1.0, 2.0, 3.0)):
    """2 x length ladder: two rails and a rung at every position, weights
    drawn from weights in edge order (the bench's ts-ladder graph family)."""
    edges = []
    for c in range(length):
        edges.append((c, length + c, float(rng.choice(weights))))
        if c + 1 < length:
            edges.append((c, c + 1, float(rng.choice(weights))))
            edges.append((length + c, length + c + 1, float(rng.choice(weights))))
    return Graph(2 * length, edges)


def random_connected_graph(n, rng, extra_edge_prob=0.08, weight_choices=(1.0, 2.0, 3.0)):
    """Random spanning tree plus extra edges; weights from weight_choices."""
    edges = []
    seen = set()
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[rng.integers(0, i)])
        v = int(order[i])
        w = float(rng.choice(weight_choices))
        edges.append((u, v, w))
        seen.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in seen:
                continue
            if rng.random() < extra_edge_prob:
                edges.append((u, v, float(rng.choice(weight_choices))))
                seen.add((u, v))
    return Graph(n, edges)


def random_demand(n, rng, integer=False, scale=3):
    """Balanced dense demand."""
    if integer:
        d = rng.integers(-scale, scale + 1, size=n).astype(np.float64)
        d[-1] -= d.sum()
        return d
    d = rng.normal(size=n)
    return d - d.mean()


def two_point_demand(n, rng, mass=1.0):
    u, v = rng.choice(n, size=2, replace=False)
    d = np.zeros(n)
    d[u] = mass
    d[v] = -mass
    return d


def dense_calibration_demands(n, seed, count=16):
    """The dense demands a transshipment build at this seed priced with
    the exact transport while its calibration still took dense samples:
    the calibration stream after its 200 two-point pairs."""
    rng = child_rng(seed, "calibrate", "l1")
    for _ in range(200):
        rng.choice(n, size=2, replace=False)
    demands = []
    for _ in range(count):
        d = rng.normal(size=n)
        demands.append(d - d.mean())
    return demands


# Golden instances: 8-cycle A..H (A=0 ... H=7), unit weights, edges in
# cycle order so the file order fixes the orientation.

FIG1_DEMAND = np.array([2.0, -1.0, 0.0, 1.0, -1.0, 0.0, -1.0, 0.0])  # OPT cost 4
FIG2_DEMAND = np.array([-2.0, 2.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0])  # OPT congestion 1.5


@pytest.fixture
def eight_cycle():
    return cycle_graph(8)


@pytest.fixture
def fig1_demand():
    return FIG1_DEMAND.copy()


@pytest.fixture
def fig2_demand():
    return FIG2_DEMAND.copy()
