"""Transshipment cost approximator built from per-scale distance structures.

Rows of R are indexed by tuples (i, j, j', C): a scale below the top one,
a clustering at that scale, a clustering one scale up, and a cluster of
the lower clustering.  The entry for node v is

    D_{i+1} * p_{i,j}(v) * p_{i+1,j'}(v) / (w_i(v) * w_{i+1}(v))

when v lies in C, else zero.  C need not be tested for lying inside one
cluster of j': it has strong diameter at most D_i, so when it straddles
a boundary of j' every member has phi_{i+1,j'} <= D_i = D_{i+1}/beta and
p_{i+1,j'} = 0, which holds while beta >= 4 tau (build_scales fixes
beta = 8 tau).

Column sparsity is bounded by the number of (i, j, j') triples since each
triple contributes at most one row per node.  The rows of one (i, j) pair
form one block of the layout described in boxflow.approx_common, with a
column slot per j'.
"""

import numpy as np

from boxflow.approx_common import BaseApproximator, Block, assemble_R, calibrate
from boxflow.covers import build_distance_structures, default_tau
from boxflow.graphs import Graph


def r_entry(d_next, p_low, p_high, w_low, w_high):
    """Row entry formula, elementwise on scalars or arrays."""
    return d_next * (p_low * p_high) / (w_low * w_high)


def build_R(ds):
    """Assemble R and its blocks from a DistanceStructureSet.

    Returns (ColSparseMatrix, blocks) with one block per (scale i, lower
    clustering j) and rows base + jp * n_clusters + cid, every (i, j, jp,
    cid) row present even when empty.  When only scale 0 exists the
    fallback is D_1 times the identity, one singleton block, so R is never
    0 x n.
    """
    structures = ds.structures
    n = len(structures[0].w)
    if len(structures) == 1:
        ids = np.arange(n)
        block = Block(ids, n, ids[None, :], np.full((n, 1), float(ds.scales.beta)))
        return assemble_R([block], n, n, col_bound=1), [block]

    blocks = []
    base = 0
    bound = 0
    for i in range(len(structures) - 1):
        low, high = structures[i], structures[i + 1]
        num_jp = high.cover.num_clusterings
        bound += low.cover.num_clusterings * num_jp
        p_high = np.stack(high.p, axis=1)
        for clustering, p_low in zip(low.cover.clusterings, low.p, strict=True):
            k = clustering.n_clusters
            entries = r_entry(
                ds.scales.levels[i + 1], p_low[:, None], p_high, low.w[:, None], high.w[:, None]
            )
            rows = base + np.arange(num_jp * k).reshape(num_jp, k)
            base += num_jp * k
            blocks.append(Block(clustering.ids, k, rows, entries))
    return assemble_R(blocks, base, n, col_bound=max(1, bound)), blocks


class TsApproximator(BaseApproximator):
    norm_kind = "l1"

    def __init__(self, graph, structures, R_raw, blocks, seed, weight_scale):
        super().__init__(graph, R_raw, blocks, seed)
        self.structures = structures
        self.weight_scale = weight_scale


def _normalized_graph(g):
    """Rescale weights so the minimum is exactly 1.

    The cover and potential machinery assume weights >= 1 (the singleton
    scale covers radius-1/tau balls).  OPT rescales linearly, so the
    calibration scale absorbs the factor.
    """
    min_w = float(np.min(g.weight))
    if min_w == 1.0:
        return g, 1.0
    edges = [
        (int(g.tail[e]), int(g.head[e]), float(g.weight[e]) / min_w) for e in range(g.m)
    ]
    return Graph(g.n, edges), min_w


def build_ts_approximator(g, seed=0, tau=None, calibrate_scale=True):
    """Build distance structures on the weight-normalized graph, assemble
    R, and (by default) fit the calibration scale against shortest-path
    oracles."""
    tau = tau if tau is not None else default_tau(g.n)
    norm_g, weight_scale = _normalized_graph(g)
    ds = build_distance_structures(norm_g, tau=tau, seed=seed)
    R, blocks = build_R(ds)
    approx = TsApproximator(g, ds, R, blocks, seed, weight_scale)
    if calibrate_scale:
        calibrate(approx, seed)
    return approx
