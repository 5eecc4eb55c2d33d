"""Undirected weighted graphs with a fixed edge orientation.

The graph stores an edge list (tail, head, weight) in input order; that
order is the column order of the node-edge incidence operator B, where the
column of edge (a, b) is 1_a - 1_b.  Flows are vectors over edges (negative
means flow against the stored orientation), demands and potentials are
vectors over nodes.
"""

import heapq
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class GraphFormatError(ValueError):
    """Raised when an edge-list or demand document fails validation."""


class DemandBalanceError(ValueError):
    """Raised when a demand vector does not sum to zero."""


DEMAND_TOL = 1e-9


class Graph:
    """Immutable connected undirected graph with positive edge weights."""

    def __init__(self, n, edges):
        if n < 1:
            raise GraphFormatError("graph needs at least one node")
        tails, heads, weights = [], [], []
        for idx, (u, v, w) in enumerate(edges):
            u, v = int(u), int(v)
            if u == v:
                raise GraphFormatError(f"edge {idx}: self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge {idx}: node id out of range 0..{n - 1}")
            w = float(w)
            if not (w > 0.0) or not np.isfinite(w):
                raise GraphFormatError(f"edge {idx}: weight must be positive and finite, got {w}")
            tails.append(u)
            heads.append(v)
            weights.append(w)
        self.n = n
        self.m = len(tails)
        self.tail = np.asarray(tails, dtype=np.int64)
        self.head = np.asarray(heads, dtype=np.int64)
        self.weight = np.asarray(weights, dtype=np.float64)
        for arr in (self.tail, self.head, self.weight):
            arr.flags.writeable = False
        self._adj = None
        self._csr = None
        if csgraph.connected_components(self.csr(), directed=False, return_labels=False) != 1:
            raise GraphFormatError("graph is not connected")

    def adjacency(self):
        """Adjacency lists [(neighbor, weight, edge_index), ...] per node."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for e in range(self.m):
                u, v, w = int(self.tail[e]), int(self.head[e]), float(self.weight[e])
                adj[u].append((v, w, e))
                adj[v].append((u, w, e))
            self._adj = adj
        return self._adj

    def csr(self):
        """Symmetric n x n CSR of edge weights, the csgraph input, cached.

        Parallel edges keep their minimum weight; scipy would sum them.
        """
        if self._csr is None:
            rows = np.concatenate([self.tail, self.head])
            cols = np.concatenate([self.head, self.tail])
            w = np.concatenate([self.weight, self.weight])
            order = np.lexsort((w, cols, rows))
            rows, cols, w = rows[order], cols[order], w[order]
            first = np.ones(len(rows), dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            indptr = np.searchsorted(rows[first], np.arange(self.n + 1))
            self._csr = sp.csr_array((w[first], cols[first], indptr), shape=(self.n, self.n))
        return self._csr

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def dijkstra(g, source, within=None, limit=math.inf, as_int=False):
    """Shortest paths from source over g.adjacency().

    Returns (dist, pred, order): dist and pred are dicts over the reached
    nodes, pred[v] = (edge, parent) on a shortest path, and order is the
    settle order.  Only nodes v with within[v] true are entered, and
    labels above limit are dropped.  as_int sums int(weight), so integral
    graphs give exact int distances.  The heap key (dist, node) breaks
    ties by node id, and a label moves only on a strict improvement;
    callers rely on both for reproducible trees and balls.
    """
    adj = g.adjacency()
    dist = {source: 0 if as_int else 0.0}
    pred = {}
    order = []
    heap = [(dist[source], source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        order.append(u)
        for v, w, e in adj[u]:
            if within is not None and not within[v]:
                continue
            nd = du + (int(w) if as_int else w)
            if nd <= limit and (v not in dist or nd < dist[v]):
                dist[v] = nd
                pred[v] = (e, u)
                heapq.heappush(heap, (nd, v))
    return dist, pred, order


def load_graph(text):
    """Parse an edge-list document, one "u v w" line per edge.

    Blank lines and lines starting with '#' are skipped.  Node ids must be
    integers 0..n-1 with n inferred from the largest id.  Edge order in the
    file is the fixed orientation and column order of B.
    """
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v w', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative node id")
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    if not edges:
        raise GraphFormatError("no edges in document")
    return Graph(max_id + 1, edges)


def parse_demand(text, n):
    """Parse a demand document, one "v value" line per node with demand."""
    d = np.zeros(n, dtype=np.float64)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'v value', got {raw!r}")
        try:
            v = int(parts[0])
            val = float(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if not (0 <= v < n):
            raise GraphFormatError(f"line {lineno}: node id {v} out of range 0..{n - 1}")
        d[v] += val
    return d


def apply_B(g, f):
    """Net demand routed by flow f: (Bf)(a) = sum_out f - sum_in f."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.m,):
        raise ValueError(f"flow has shape {f.shape}, expected ({g.m},)")
    out = np.zeros(g.n, dtype=np.float64)
    np.add.at(out, g.tail, f)
    np.subtract.at(out, g.head, f)
    return out


def apply_BT(g, phi):
    """Potential differences along edges: entry for e=(a,b) is phi(a)-phi(b)."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (g.n,):
        raise ValueError(f"potentials have shape {phi.shape}, expected ({g.n},)")
    return phi[g.tail] - phi[g.head]


def validate_demand(d, require_exact=False):
    """Check the demand is finite and sums to zero; raises
    DemandBalanceError otherwise.

    Tolerance is DEMAND_TOL * ||d||_1 (exact zero required when
    require_exact is set, e.g. for integer input).
    """
    d = np.asarray(d, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise DemandBalanceError(f"demand entry {int(bad[0])} is {d[bad[0]]}, not finite")
    resid = float(d.sum())
    norm = float(np.abs(d).sum())
    if require_exact:
        if resid != 0.0:
            raise DemandBalanceError(f"demand imbalance: residual {resid}")
        return
    if abs(resid) > DEMAND_TOL * max(norm, 1.0):
        raise DemandBalanceError(f"demand imbalance: residual {resid} for ||d||_1 = {norm}")
