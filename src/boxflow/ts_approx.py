"""Transshipment cost approximator built from per-scale distance structures.

Rows of R are indexed by tuples (i, j, j', C): a scale below the top one,
a clustering at that scale, a clustering one scale up, and a cluster of
the lower clustering.  The entry for node v is

    D_{i+1} * p_{i,j}(v) * p_{i+1,j'}(v) / (w_i(v) * w_{i+1}(v))

when v lies in C and C sits inside v's cluster one scale up, else zero.
Column sparsity is bounded by the number of (i, j, j') triples since each
triple contributes at most one row per node.
"""

from dataclasses import dataclass

import numpy as np

from boxflow.approx_common import BaseApproximator, calibrate
from boxflow.covers import build_distance_structures, default_tau
from boxflow.graphs import Graph
from boxflow.sparsemat import ColSparseMatrix


def r_entry(d_next, p_low, p_high, w_low, w_high):
    """Row entry formula; shared with the distributed builder so both sides
    produce bit-identical values."""
    return d_next * (p_low * p_high) / (w_low * w_high)


def _containment_table(ds):
    """contained[i][j][cid] -> list of j' with cluster cid inside its
    (i+1, j') cluster."""
    table = []
    for i in range(len(ds.structures) - 1):
        low = ds.structures[i].cover
        high = ds.structures[i + 1].cover
        per_j = []
        for clustering in low.clusterings:
            per_cluster = []
            for members in clustering.members:
                js = []
                for jp, upper in enumerate(high.clusterings):
                    ids = upper.ids[members]
                    if (ids == ids[0]).all():
                        js.append(jp)
                per_cluster.append(js)
            per_j.append(per_cluster)
        table.append(per_j)
    return table


def build_R(ds, graph=None):
    """Assemble R and its row decode table from a DistanceStructureSet.

    Returns (ColSparseMatrix, row_decode) with row_decode[r] = (i, j, j',
    cluster_id).  When only scale 0 exists the fallback is D_1 times the
    identity over singleton rows, so R is never 0 x n.
    """
    n = len(ds.structures[0].w)
    scales = ds.scales
    if len(ds.structures) == 1:
        d1 = float(scales.beta)
        rows = np.arange(n)
        decode = [(0, 0, 0, v) for v in range(n)]
        R = ColSparseMatrix.from_triplets(n, n, rows, rows, np.full(n, d1), col_bound=1)
        return R, decode

    contained = _containment_table(ds)
    decode = []
    rows, cols, vals = [], [], []
    col_count = np.zeros(n, dtype=np.int64)
    for i in range(len(ds.structures) - 1):
        low = ds.structures[i]
        high = ds.structures[i + 1]
        d_next = scales.levels[i + 1]
        for j, clustering in enumerate(low.cover.clusterings):
            p_low = low.p[j]
            for jp in range(high.cover.num_clusterings):
                p_high = high.p[jp]
                high_ids = high.cover.clusterings[jp].ids
                for cid, members in enumerate(clustering.members):
                    row = len(decode)
                    decode.append((i, j, jp, cid))
                    if jp not in contained[i][j][cid]:
                        continue
                    for v in members:
                        v = int(v)
                        val = r_entry(d_next, p_low[v], p_high[v], low.w[v], high.w[v])
                        if val != 0.0:
                            rows.append(row)
                            cols.append(v)
                            vals.append(val)
                            col_count[v] += 1
    bound = 0
    for i in range(len(ds.structures) - 1):
        bound += ds.structures[i].cover.num_clusterings * ds.structures[i + 1].cover.num_clusterings
    R = ColSparseMatrix.from_triplets(
        len(decode), n, rows, cols, vals, col_bound=max(1, bound)
    )
    return R, decode


class TsApproximator(BaseApproximator):
    norm_kind = "l1"

    def __init__(self, graph, structures, R_raw, row_decode, seed, weight_scale):
        super().__init__(graph, R_raw, row_decode, seed)
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


def build_ts_approximator(
    g,
    seed=0,
    tau=None,
    num_clusterings=None,
    calibrate_scale=True,
    calibration_batch=200,
):
    """Build distance structures on the weight-normalized graph, assemble
    R, and (by default) fit the calibration scale against shortest-path
    oracles."""
    tau = tau if tau is not None else default_tau(g.n)
    norm_g, weight_scale = _normalized_graph(g)
    ds = build_distance_structures(norm_g, tau=tau, seed=seed, num_clusterings=num_clusterings)
    R, decode = build_R(ds)
    approx = TsApproximator(g, ds, R, decode, seed, weight_scale)
    if calibrate_scale:
        calibrate(approx, seed, batch_size=calibration_batch)
    return approx
