"""Congestion (max-flow) cost approximator from a hierarchical decomposition.

A rooted tree is built over the graph vertices by recursive balanced
partitioning; every tree edge e defines the vertex set S_e below it and
the cut capacity cap(e) = sum of 1/w over graph edges leaving S_e.  The
approximator has one row per tree edge with entries 1/cap(e) on S_e, so
||R d||_inf = max_e |d(S_e)| / cap(e) is exactly the best cut bound the
laminar family certifies; it never exceeds the true optimum, and the
calibration scale covers the other side.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from boxflow.approx_common import BaseApproximator, calibrate
from boxflow.graphs import dijkstra
from boxflow.rng import child_rng
from boxflow.sparsemat import ColSparseMatrix


@dataclass
class DecompTree:
    parent: list  # per tree node, -1 at the root
    children: list
    leaf_vertex: list  # graph vertex for leaves, -1 for internal nodes
    leaf_of: list  # tree node per graph vertex
    depth: list
    cap: list  # cut capacity of the edge to the parent (root: 0)
    subtree: list = field(default_factory=list)  # sorted graph vertices below

    @property
    def n_nodes(self):
        return len(self.parent)

    @property
    def height(self):
        return max(self.depth)


def _mask(n, members):
    within = [False] * n
    for v in members:
        within[v] = True
    return within


def _components(g, members):
    """Connected components of the subgraph induced by members, each
    sorted, in the order members first meets them."""
    within = _mask(g.n, members)
    comps = []
    for s in members:
        if within[s]:
            comp = sorted(dijkstra(g, s, within)[0])
            for v in comp:
                within[v] = False
            comps.append(comp)
    return comps


def _balanced_split(g, members, rng):
    """Split a connected set into two halves along a farthest-pair sweep."""
    within = _mask(g.n, members)
    start = int(members[int(rng.integers(0, len(members)))])
    d0 = dijkstra(g, start, within)[0]
    u = max(members, key=lambda x: (d0.get(x, 0.0), x))
    du = dijkstra(g, u, within)[0]
    v = max(members, key=lambda x: (du.get(x, 0.0), x))
    dv = dijkstra(g, v, within)[0]
    scored = sorted(members, key=lambda x: (du.get(x, 0.0) - dv.get(x, 0.0), x))
    half = (len(members) + 1) // 2
    return scored[:half], scored[half:]


def build_tree(g, seed=0):
    """Recursive low-diameter balanced partitioning down to singletons.

    Connected pieces split into two balanced halves by a double Dijkstra
    sweep; disconnected pieces split into their components.  Either way
    subtree sizes halve every couple of levels, so the height stays
    logarithmic.
    """
    rng = child_rng(seed, "tree")
    parent, children, leaf_vertex, depth = [], [], [], []
    leaf_of = [-1] * g.n

    def new_node(par):
        idx = len(parent)
        parent.append(par)
        children.append([])
        leaf_vertex.append(-1)
        depth.append(0 if par < 0 else depth[par] + 1)
        if par >= 0:
            children[par].append(idx)
        return idx

    def build(members, par):
        # members is connected here, so every subtree set is connected
        node = new_node(par)
        if len(members) == 1:
            v = int(members[0])
            leaf_vertex[node] = v
            leaf_of[v] = node
            return node
        left, right = _balanced_split(g, list(members), rng)
        # a half may fall apart; its components become direct children so
        # no tree node ever owns a disconnected vertex set
        for half in (left, right):
            for comp in _components(g, half):
                build(comp, node)
        return node

    root = build(sorted(range(g.n)), -1)

    # subtree vertex sets and cut capacities
    n_nodes = len(parent)
    subtree = [[] for _ in range(n_nodes)]
    for v in range(g.n):
        x = leaf_of[v]
        while x >= 0:
            subtree[x].append(v)
            x = parent[x]
    subtree = [sorted(s) for s in subtree]

    cap = [0.0] * n_nodes
    for e in range(g.m):
        u, v = int(g.tail[e]), int(g.head[e])
        inv_w = 1.0 / float(g.weight[e])
        # climb both leaves to their LCA; all strictly lower tree edges cross
        a, b = leaf_of[u], leaf_of[v]
        while a != b:
            if depth[a] >= depth[b]:
                cap[a] += inv_w
                a = parent[a]
            else:
                cap[b] += inv_w
                b = parent[b]

    tree = DecompTree(
        parent=parent,
        children=children,
        leaf_vertex=leaf_vertex,
        leaf_of=leaf_of,
        depth=depth,
        cap=cap,
        subtree=subtree,
    )
    for x in range(n_nodes):
        if parent[x] >= 0 and not cap[x] > 0.0:
            raise RuntimeError("tree edge with zero cut capacity; graph disconnected?")
    if tree.height > 4 * max(1, math.ceil(math.log2(max(g.n, 2)))) + 2:
        raise RuntimeError(f"decomposition tree too tall: {tree.height}")
    return tree


def tree_to_R(tree, n):
    """One row per non-root tree edge: 1/cap(e) on the vertices below it.

    Column sparsity is the tree height (a vertex appears once per strict
    ancestor).  Returns (ColSparseMatrix, row_decode) where decode entries
    are tree node ids.
    """
    rows, cols, vals = [], [], []
    decode = []
    for x in range(tree.n_nodes):
        if tree.parent[x] < 0:
            continue
        row = len(decode)
        decode.append(x)
        inv_cap = 1.0 / tree.cap[x]
        for v in tree.subtree[x]:
            rows.append(row)
            cols.append(v)
            vals.append(inv_cap)
    R = ColSparseMatrix.from_triplets(
        len(decode), n, rows, cols, vals, col_bound=max(1, tree.height)
    )
    return R, decode


class TreeApproximator(BaseApproximator):
    norm_kind = "linf"

    def __init__(self, graph, tree, R_raw, row_decode, seed):
        super().__init__(graph, R_raw, row_decode, seed)
        self.tree = tree


def build_mf_approximator(g, seed=0, calibrate_scale=True, calibration_batch=200):
    tree = build_tree(g, seed)
    R, decode = tree_to_R(tree, g.n)
    approx = TreeApproximator(g, tree, R, decode, seed)
    if calibrate_scale:
        # safety 2: the laminar cut-bound ratio keeps drifting above any
        # finite batch maximum on fresh demands (measured <= 1.5x)
        calibrate(approx, seed, batch_size=calibration_batch, multipoint=24, safety=2.0)
    return approx
