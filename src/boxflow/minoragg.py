"""Single-process simulator of the Minor-Aggregation distributed model.

A round has three phases: every edge votes whether to contract (supernodes
are the connected components of contracted edges), every node contributes
a value folded per supernode by the consensus operator, and every surviving
inter-supernode edge learns both endpoint consensus values and contributes
values folded per supernode by the aggregation operator.  Self-loops of the
contracted minor are dropped.

The operators are "sum" and "max".  Each fold applies its ufunc's `at` in
a fixed canonical order (node index, then edge index), so results depend
neither on iteration order nor on how supernodes are numbered.  A message
auditor enforces a word budget of 8 ceil(log2 n) words per value: node ids
must fit a few machine words and numeric payloads count one word per
float.  The network's trace keeps one record per round label, with the
number of rounds and the largest message seen under that label, so its
size is bounded by the set of labels however many rounds run.

On top of the raw model sit the distributed implementations of the
transshipment and tree approximators: per-node computation of the columns
of R by cluster-containment consensus rounds, and the six matrix-vector
products with R, R^T, A = R B W^-1, A^T, |A| and |A|^T.  The products that
sum per row of R read each row's sum from the consensus of the round they
run, at one member node of the row's cluster.  Entries are evaluated with
the same formula helper as the centralized builder, so the columns agree
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from boxflow.sparsemat import ColSparseMatrix
from boxflow.ts_approx import r_entry


class AuditError(RuntimeError):
    """A message exceeded the word budget or carried an invalid value."""


# operator name -> (ufunc folded with .at, value of an empty fold)
_FOLDS = {"sum": (np.add, 0.0), "max": (np.maximum, -np.inf)}


def _fold(op, groups, values, n_groups):
    """Fold values (one entry or row per item) per group id in input order."""
    if op not in _FOLDS:
        raise ValueError(f"unknown operator {op!r}; choose from {sorted(_FOLDS)}")
    ufunc, empty = _FOLDS[op]
    values = np.asarray(values, dtype=np.float64)
    out = np.full((n_groups,) + values.shape[1:], empty)
    ufunc.at(out, groups, values)
    return out


@dataclass
class RoundResult:
    supernode: np.ndarray  # dense supernode index per node
    n_supernodes: int
    consensus: np.ndarray = None  # per node, folded value of its supernode
    aggregate: np.ndarray = None  # per node, folded incident-edge value
    edge_tail_value: np.ndarray = None  # y of the tail-side supernode, per edge
    edge_head_value: np.ndarray = None


class MinorAggNetwork:
    """Network state: one round per run_round call.

    word_budget is 8 ceil(log2 n) words per value.  trace lists one record
    {"label", "rounds", "max_words"} per distinct round label, in the order
    the labels first ran.
    """

    def __init__(self, graph):
        self.g = graph
        n = graph.n
        self.word_budget = 8 * max(1, math.ceil(math.log2(max(n, 2))))
        self.round_count = 0
        self._trace = {}
        self._id_bound = max(16, n**4)

    @property
    def trace(self):
        return list(self._trace.values())

    def _audit(self, values, what):
        arr = np.asarray(values)
        words = 1 if arr.ndim == 1 else arr.shape[1]
        if words > self.word_budget:
            raise AuditError(
                f"{what}: {words}-word message exceeds budget {self.word_budget}"
            )
        if np.issubdtype(arr.dtype, np.integer):
            if arr.size and int(np.abs(arr).max()) > self._id_bound:
                raise AuditError(f"{what}: integer value exceeds the id bit budget")
        else:
            if arr.size and not np.isfinite(arr).all():
                raise AuditError(f"{what}: non-finite value in message")
        return arr, words

    def run_round(
        self,
        contract=None,
        node_values=None,
        consensus_op="sum",
        edge_value_fn=None,
        aggregate_op="sum",
        label="",
    ):
        """One synchronous round; see the module docstring for semantics.

        contract: bool array over edges (None contracts nothing).
        node_values: per-node scalar or small vector for the consensus.
        edge_value_fn(edge_ids, y_tail, y_head) -> (z_tail, z_head) values
        each surviving edge contributes to its two endpoint supernodes.
        """
        g = self.g
        n, m = g.n, g.m
        if contract is None:
            contract = np.zeros(m, dtype=bool)
        contract = np.asarray(contract, dtype=bool)
        if contract.shape != (m,):
            raise ValueError("contract must have one vote per edge")

        if contract.any():
            sel = np.flatnonzero(contract)
            adj = sp.csr_matrix(
                (np.ones(len(sel)), (g.tail[sel], g.head[sel])), shape=(n, n)
            )
            n_super, super_id = csgraph.connected_components(adj, directed=False)
        else:
            n_super, super_id = n, np.arange(n)

        result = RoundResult(supernode=super_id, n_supernodes=n_super)
        max_words = 0

        if node_values is not None:
            vals, words = self._audit(node_values, "consensus value")
            max_words = max(max_words, words)
            result.consensus = _fold(consensus_op, super_id, vals, n_super)[super_id]

        if edge_value_fn is not None:
            alive = np.flatnonzero(super_id[g.tail] != super_id[g.head])
            y = result.consensus
            if y is None:
                y_tail = y_head = None
            else:
                y_tail = y[g.tail[alive]]
                y_head = y[g.head[alive]]
            z_tail, z_head = edge_value_fn(alive, y_tail, y_head)
            zt, words_t = self._audit(z_tail, "aggregate value")
            zh, words_h = self._audit(z_head, "aggregate value")
            max_words = max(max_words, words_t, words_h)
            groups = np.concatenate([super_id[g.tail[alive]], super_id[g.head[alive]]])
            stacked = np.concatenate([zt, zh], axis=0)
            result.aggregate = _fold(aggregate_op, groups, stacked, n_super)[super_id]
            result.edge_tail_value = y_tail
            result.edge_head_value = y_head

        self.round_count += 1
        rec = self._trace.get(label)
        if rec is None:
            rec = self._trace[label] = {"label": label, "rounds": 0, "max_words": 0}
        rec["rounds"] += 1
        rec["max_words"] = max(rec["max_words"], max_words)
        return result


# -- distributed approximator ------------------------------------------------


class MinorAggCore:
    """Distributed products with R and A = R B W^-1 over a network.

    Rows of R are organized into blocks; within a block the clusters
    carrying the rows partition (part of) the node set into connected
    pieces, so contracting the edges inside clusters makes each cluster
    one supernode, and one consensus round folds per-row sums.  The
    transshipment approximator contributes one block per (scale,
    clustering) with a vector payload over the upper clusterings; the
    tree approximator contributes one block per tree depth.  Construction
    for the transshipment case runs the containment consensus rounds that
    let every node assemble its own column of R; entries go through the
    same formula helper as the centralized builder, so the columns agree
    bit for bit.
    """

    def __init__(self, net, approx):
        self.net = net
        self.approx = approx
        g = net.g
        self.n, self.m = g.n, g.m
        self.k = approx.R.n_rows
        self._blocks = []
        if approx.norm_kind == "l1":
            self._init_ts_blocks()
        else:
            self._init_tree_blocks()
        self._finish_blocks(g)

    # -- transshipment blocks ----------------------------------------------

    def _init_ts_blocks(self):
        ds = self.approx.structures
        scale = self.approx.scale
        structures = ds.structures

        if len(structures) == 1:
            # degenerate single-scale fallback: s * beta * identity
            ids = np.arange(self.n)
            entries = np.full((self.n, 1), float(ds.scales.beta) * scale)
            self._blocks.append(
                {
                    "contract": np.zeros(self.m, dtype=bool),
                    "cluster_id": ids,
                    "n_clusters": self.n,
                    "row_of": [np.arange(self.n)],
                    "entries": entries,
                }
            )
            return

        # one aggregation round: edges learn their endpoints' cluster ids
        # for every (scale, clustering); payload is polylog many ids
        id_tables = np.stack(
            [cl.ids for st in structures for cl in st.cover.clusterings], axis=1
        )
        res = self.net.run_round(
            node_values=id_tables,
            consensus_op="max",
            edge_value_fn=lambda e, yt, yh: (np.zeros(len(e)), np.zeros(len(e))),
            label="edge-id-setup",
        )
        # one row of votes per clustering: an edge votes to contract when
        # its endpoints' ids agree
        votes = (res.edge_tail_value == res.edge_head_value).T.copy()

        row = 0
        col = 0
        for i in range(len(structures) - 1):
            low, high = structures[i], structures[i + 1]
            d_next = ds.scales.levels[i + 1]
            num_hi = high.cover.num_clusterings
            for j, clustering in enumerate(low.cover.clusterings):
                ids = clustering.ids
                n_clusters = clustering.n_clusters
                contract = votes[col]
                col += 1
                # containment of C_{i,j}(v) in C_{i+1,jp}(v): all members
                # agree on the higher cluster id, checked by a (max, -min)
                # consensus over the cluster-contracted minor
                hi_ids = np.stack(
                    [high.cover.clusterings[jp].ids for jp in range(num_hi)], axis=1
                ).astype(np.float64)
                res = self.net.run_round(
                    contract=contract,
                    node_values=np.concatenate([hi_ids, -hi_ids], axis=1),
                    consensus_op="max",
                    label=f"containment i={i} j={j}",
                )
                mx = res.consensus[:, :num_hi]
                mn = -res.consensus[:, num_hi:]
                contained = mx == mn  # per node, per jp
                p_lo = low.p[j]
                entries = np.zeros((self.n, num_hi))
                for jp in range(num_hi):
                    p_hi = high.p[jp]
                    for v in range(self.n):
                        if contained[v, jp]:
                            entries[v, jp] = (
                                r_entry(d_next, p_lo[v], p_hi[v], low.w[v], high.w[v]) * scale
                            )
                row_of = []
                for jp in range(num_hi):
                    row_of.append(np.arange(row, row + n_clusters))
                    row += n_clusters
                self._blocks.append(
                    {
                        "contract": contract,
                        "cluster_id": ids,
                        "n_clusters": n_clusters,
                        "row_of": row_of,
                        "entries": entries,
                    }
                )

    # -- tree blocks --------------------------------------------------------

    def _init_tree_blocks(self):
        g = self.net.g
        tree = self.approx.tree
        scale = self.approx.scale
        row_of_tree_node = {x: r for r, x in enumerate(self.approx.row_decode)}
        by_depth = {}
        for x in range(tree.n_nodes):
            if tree.parent[x] >= 0:
                by_depth.setdefault(tree.depth[x], []).append(x)
        for depth in sorted(by_depth):
            nodes = by_depth[depth]
            n_real = len(nodes)
            cluster_id = np.full(self.n, -1, dtype=np.int64)
            entries = np.zeros((self.n, 1))
            rows = np.empty(n_real, dtype=np.int64)
            for cid, x in enumerate(nodes):
                rows[cid] = row_of_tree_node[x]
                for v in tree.subtree[x]:
                    cluster_id[v] = cid
                    entries[v, 0] = scale * (1.0 / tree.cap[x])
            # nodes whose leaf sits above this depth become filler
            # singletons with zero entries; their ids are unique, so no
            # edge between two of them contracts
            filler = np.flatnonzero(cluster_id < 0)
            cluster_id[filler] = n_real + np.arange(len(filler))
            self._blocks.append(
                {
                    "contract": cluster_id[g.tail] == cluster_id[g.head],
                    "cluster_id": cluster_id,
                    "n_clusters": n_real,
                    "row_of": [rows],
                    "entries": entries,
                }
            )

    # -- shared machinery ----------------------------------------------------

    def _finish_blocks(self, g):
        """Edge-local column data per block, used by the A products, and
        a representative node per cluster, where the products read its
        sums."""
        tail, head = g.tail, g.head
        inv_w = 1.0 / g.weight
        for blk in self._blocks:
            ids = blk["cluster_id"]
            ent = blk["entries"]  # (n, num_jp)
            same = blk["contract"]
            # A entry of edge e in the rows of its tail-side and head-side
            # clusters (internal edges touch a single row)
            ent_t = ent[tail]
            ent_h = ent[head]
            val_tail = (ent_t - np.where(same[:, None], ent_h, 0.0)) * inv_w[:, None]
            val_head = (np.where(same[:, None], ent_t, 0.0) - ent_h) * inv_w[:, None]
            blk["edge_val_tail"] = val_tail
            blk["edge_val_head"] = val_head
            blk["edge_same"] = same
            # every cluster id 0..n_clusters-1 has a member; fillers sort after
            blk["rep"] = np.unique(ids, return_index=True)[1][: blk["n_clusters"]]

    @property
    def rounds(self):
        return self.net.round_count

    def r_columns(self):
        """The R matrix the nodes assembled, as a ColSparseMatrix.

        Bit-identical to the centralized scaled matrix because entries go
        through the same arithmetic.
        """
        rows, cols, vals = [], [], []
        for blk in self._blocks:
            ids = blk["cluster_id"]
            ent = blk["entries"]
            for jp, row_of in enumerate(blk["row_of"]):
                v = np.flatnonzero((ids < blk["n_clusters"]) & (ent[:, jp] != 0.0))
                rows.append(row_of[ids[v]])
                cols.append(v)
                vals.append(ent[v, jp])
        return ColSparseMatrix.from_triplets(
            self.k,
            self.n,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
            col_bound=self.approx.scaled_R().col_bound,
        )

    def _scatter_rows(self, out, blk, consensus):
        """Place each cluster's folded sums, read at its representative
        node, in the cluster's rows."""
        sums = consensus[blk["rep"]]
        for jp, row_of in enumerate(blk["row_of"]):
            out[row_of] = sums[:, jp]

    # -- products ---------------------------------------------------------

    def mul_R(self, x):
        """R x: one consensus round per block, vector payload over jp."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.k)
        for blk in self._blocks:
            res = self.net.run_round(
                contract=blk["contract"],
                node_values=blk["entries"] * x[:, None],
                consensus_op="sum",
                label="mul_R block",
            )
            self._scatter_rows(out, blk, res.consensus)
        return out

    def mul_RT(self, y):
        """R^T y: zero rounds; every node dots its own column locally."""
        y = np.asarray(y, dtype=np.float64)
        out = np.zeros(self.n)
        for blk in self._blocks:
            ids = blk["cluster_id"]
            ent = blk["entries"]
            nc = blk["n_clusters"]
            member = ids < nc
            for jp, row_of in enumerate(blk["row_of"]):
                gathered = np.zeros(self.n)
                gathered[member] = y[row_of[ids[member]]]
                out += ent[:, jp] * gathered
        return out

    def _forward_block_product(self, x, use_abs, label):
        """Shared by A x and |A| x: per block an edge-to-node partials
        round then a cluster consensus round."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.k)
        for blk in self._blocks:
            vt = blk["edge_val_tail"]
            vh = blk["edge_val_head"]
            if use_abs:
                vt, vh = np.abs(vt), np.abs(vh)
            vt = vt * x[:, None]
            vh = vh * x[:, None]
            same = blk["edge_same"]

            def edge_fn(alive, yt, yh, vt=vt, vh=vh, same=same):
                # internal edges hand their whole term to the tail side
                zt = vt[alive]
                zh = np.where(same[alive][:, None], 0.0, vh[alive])
                return zt, zh

            partial = self.net.run_round(
                edge_value_fn=edge_fn, aggregate_op="sum", label=f"{label} partials"
            ).aggregate
            res = self.net.run_round(
                contract=blk["contract"],
                node_values=partial,
                consensus_op="sum",
                label=f"{label} consensus",
            )
            self._scatter_rows(out, blk, res.consensus)
        return out

    def mul_M(self, x):
        return self._forward_block_product(x, use_abs=False, label="mul_M")

    def mul_absM(self, x):
        return self._forward_block_product(x, use_abs=True, label="mul_absM")

    def _edge_dot(self, y, use_abs):
        """Local transpose products: one round delivers each node's row
        values of y to its incident edges, which then dot their columns."""
        columns = []
        for blk in self._blocks:
            ids = blk["cluster_id"]
            nc = blk["n_clusters"]
            member = ids < nc
            for row_of in blk["row_of"]:
                vals = np.zeros(self.n)
                vals[member] = y[row_of[ids[member]]]
                columns.append(vals)
        table = np.stack(columns, axis=1)  # row values known at each node
        res = self.net.run_round(
            node_values=table,
            consensus_op="max",
            edge_value_fn=lambda e, yt, yh: (np.zeros(len(e)), np.zeros(len(e))),
            label="transpose delivery",
        )
        # no contraction, so the delivered endpoint values are the tables
        yt, yh = res.edge_tail_value, res.edge_head_value
        out = np.zeros(self.m)
        col = 0
        for blk in self._blocks:
            same = blk["edge_same"]
            vt = np.abs(blk["edge_val_tail"]) if use_abs else blk["edge_val_tail"]
            vh = np.abs(blk["edge_val_head"]) if use_abs else blk["edge_val_head"]
            for jp in range(len(blk["row_of"])):
                out += vt[:, jp] * yt[:, col]
                out += np.where(same, 0.0, vh[:, jp] * yh[:, col])
                col += 1
        return out

    def mul_MT(self, y):
        return self._edge_dot(np.asarray(y, dtype=np.float64), use_abs=False)

    def mul_absMT(self, y):
        return self._edge_dot(np.asarray(y, dtype=np.float64), use_abs=True)


_PRODUCTS = {
    "R": "mul_R",
    "Rt": "mul_RT",
    "A": "mul_M",
    "At": "mul_MT",
    "absA": "mul_absM",
    "absAt": "mul_absMT",
}


def dist_matvec(core, which, x):
    """Distributed product with one of R, R^T, A, A^T, |A|, |A|^T."""
    if which not in _PRODUCTS:
        raise ValueError(f"unknown product {which!r}; choose from {sorted(_PRODUCTS)}")
    return getattr(core, _PRODUCTS[which])(np.asarray(x, dtype=np.float64))
