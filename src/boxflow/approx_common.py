"""Shared machinery of the two cost approximators.

A cost approximator holds a sparse matrix R whose rows are built from
graph structure; ||R d|| (l1 for transshipment, max for congestion)
estimates the optimal routing cost of demand d.  Because the raw
constants of the constructions are loose, a single global calibration
scale s is fitted once per approximator by maximizing OPT(d)/||R d||
over a calibration batch: random two-point demands, whose optima are a
shortest-path distance or the inverse of one max flow, plus, for
congestion only, a few dense demands priced by oracle.opt_congestion.
The measured upper ratio rho = max ||s R d|| / OPT is logged, never
assumed.  The one-sided bound OPT <= ||s R d|| is empirical, and for l1
it rests on pairs alone: dense demands priced by the exact transport never
raised the pair scale on the bench or acceptance graphs, but on spread
weights (1e-3, 1, 1e3) fresh ones can undershoot it (est/OPT 0.82 on a
seeded 10-node graph; 145 of 300 on a 20-node one, 14 with dense samples).
The solvers' bracket expansion, repair and primal/dual certificate carry
the (1+eps) claim, not this bound.

Both constructions are column sparse in the same way: every row of R is
supported on one cluster of some partition of (part of) the nodes.  R is
therefore stored as a list of blocks.  A Block is one such partition,
given by a cluster id per node (nodes outside every cluster of the block
get distinct filler ids >= n_clusters, so no edge between two of them
counts as inside a cluster), and carries num_jp rows per cluster:
rows[jp, c] is the R row of column slot jp on cluster c, and
entries[v, jp] is the unscaled entry of node v in slot jp, so R[rows[jp,
ids[v]], v] = entries[v, jp] wherever v lies in a cluster.  assemble_R
turns blocks into the ColSparseMatrix.  The transshipment approximator
has one block per (scale i, lower clustering j) with a slot per upper
clustering j'; the tree approximator has one block per tree depth with a
single slot.  The minor-aggregation core reuses the same blocks: one
consensus round over the cluster-contracted minor folds every row sum of
a block at once.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from boxflow import oracle
from boxflow.rng import child_rng
from boxflow.sparsemat import ColSparseMatrix, compose, incidence_matrix, weight_inverse_matrix


@dataclass
class Block:
    """One partition of (part of) the nodes carrying rows of R; see the
    module docstring."""

    ids: np.ndarray  # cluster per node; filler ids >= n_clusters outside the block
    n_clusters: int
    rows: np.ndarray  # (num_jp, n_clusters) row of R per column slot and cluster
    entries: np.ndarray  # (n, num_jp) unscaled entry per node and column slot


def assemble_R(blocks, n_rows, n, col_bound):
    """The n_rows x n ColSparseMatrix holding every nonzero block entry."""
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for blk in blocks:
        v, jp = np.nonzero((blk.ids < blk.n_clusters)[:, None] & (blk.entries != 0.0))
        rows.append(blk.rows[jp, blk.ids[v]])
        cols.append(v)
        vals.append(blk.entries[v, jp])
    return ColSparseMatrix.from_triplets(
        n_rows, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        col_bound=col_bound,
    )


@dataclass
class CalibrationReport:
    scale: float
    rho: float
    batch_size: int
    enabled: bool


class BaseApproximator:
    """Common behavior: scaling, norms, and the composed game operator."""

    norm_kind = "l1"  # overridden

    def __init__(self, graph, R_raw, blocks, seed):
        self.graph = graph
        self.R = R_raw
        self.blocks = blocks
        self.seed = seed
        self.scale = 1.0
        self.calibration = CalibrationReport(scale=1.0, rho=float("nan"), batch_size=0, enabled=False)
        self._scaled_R = None
        self._M = None

    def vec_norm(self, vec):
        if self.norm_kind == "l1":
            return float(np.abs(vec).sum())
        return float(np.abs(vec).max(initial=0.0))

    def apply_raw(self, d):
        return self.R.matvec(d)

    def estimate(self, d):
        """||s R d||, the calibrated cost estimate."""
        return self.vec_norm(self.scaled_R().matvec(d))

    def scaled_R(self):
        if self._scaled_R is None:
            self._scaled_R = self.R.scaled(self.scale) if self.scale != 1.0 else self.R
        return self._scaled_R

    def set_scale(self, scale):
        self.scale = float(scale)
        self._scaled_R = None
        self._M = None

    def game_operator(self):
        """M = (s R) B W^-1, cached; column sparse by composition."""
        if self._M is None:
            g = self.graph
            bw = compose(incidence_matrix(g), weight_inverse_matrix(g))
            self._M = compose(self.scaled_R(), bw)
        return self._M


def _pair_distances(g, pairs):
    """Shortest-path distances, the two-point transshipment optima, from
    one Dijkstra over the distinct sources."""
    sources, rows = np.unique(pairs[:, 0], return_inverse=True)
    dist = csgraph.dijkstra(g.csr(), indices=sources)
    return dist[rows, pairs[:, 1]]


def _pair_congestions(g, pairs):
    """Two-point congestion optima, 1 / maxflow(u -> v) at capacities 1/w,
    on one flow network over the graph's arcs."""
    net = oracle._Dinic(g.n, g.tail.tolist(), g.head.tolist())
    cap = np.repeat(1.0 / g.weight, 2).tolist()
    opts = []
    for u, v in pairs.tolist():
        value, _ = net.max_flow(list(cap), u, v)
        if value <= 0:
            raise RuntimeError("zero max flow between distinct nodes")
        opts.append(1.0 / value)
    return opts


def calibrate(approx, seed, batch_size=200, multipoint=0, safety=1.0):
    """Fit the global scale s = max OPT(d)/||R d|| over a calibration batch.

    The batch is batch_size two-point demands, priced by one batched
    Dijkstra (l1) or one float max flow per pair (congestion).  Congestion
    adds multipoint dense balanced demands priced by oracle.opt_congestion,
    looked up at call time: tree cut bounds can be tight on every pair yet
    loose on spread demands, so pairs alone can undershoot the scale the
    one-sided bound needs.  l1 takes pairs only (multipoint 0); the module
    docstring says how far its empirical bound undershoots.  safety
    multiplies the fitted scale; the cut-bound ratio of the tree
    approximator drifts above any finite batch maximum on fresh demands,
    so its builder passes safety=2.  Returns the CalibrationReport, also
    stored on the approximator.
    """
    if multipoint and approx.norm_kind == "l1":
        raise ValueError("dense calibration demands are priced for the congestion norm only")
    g = approx.graph
    rng = child_rng(seed, "calibrate", approx.norm_kind)
    pairs = np.array(
        [rng.choice(g.n, size=2, replace=False) for _ in range(batch_size)], dtype=np.int64
    ).reshape(-1, 2)
    if approx.norm_kind == "l1":
        opts = _pair_distances(g, pairs).tolist()
    else:
        opts = _pair_congestions(g, pairs)

    def demands():  # one dense vector at a time
        for (u, v), opt in zip(pairs, opts):
            d = np.zeros(g.n)
            d[u], d[v] = 1.0, -1.0
            yield d, opt
        for _ in range(multipoint):
            d = rng.normal(size=g.n)
            d -= d.mean()
            yield d, oracle.opt_congestion(g, d)[0]

    samples = []
    for d, opt in demands():
        est = approx.vec_norm(approx.apply_raw(d))
        if est <= 0:
            raise RuntimeError("approximator maps a nonzero demand to zero")
        samples.append((opt, est))
    scale = safety * max(opt / est for opt, est in samples)
    approx.set_scale(scale)
    rho = max(scale * est / opt for opt, est in samples)
    approx.calibration = CalibrationReport(scale, rho, batch_size=len(samples), enabled=True)
    return approx.calibration
