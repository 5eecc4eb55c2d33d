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
transshipment and tree approximators, over the block layout of R that
boxflow.approx_common describes: per-node computation of the columns of R
by cluster-containment consensus rounds, and the six matrix-vector
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

from boxflow.approx_common import Block, assemble_R
from boxflow.ts_approx import block_entries


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


@dataclass
class _WiredBlock(Block):
    """A block of R as the core runs it: scaled entries plus edge data."""

    contract: np.ndarray  # per edge: both endpoints in one cluster
    edge_val_tail: np.ndarray  # (m, num_jp) A entry in the tail-side rows
    edge_val_head: np.ndarray  # (m, num_jp) A entry in the head-side rows
    rep: np.ndarray  # a member node per cluster, where products read its sums


class MinorAggCore:
    """Distributed products with R and A = R B W^-1 over a network.

    The rows of R come in the approximator's blocks (see
    boxflow.approx_common): the clusters of a block partition (part of)
    the node set into connected pieces, so contracting the edges inside
    clusters makes each cluster one supernode, and one consensus round
    folds the row sums of the whole block.  For the multi-scale
    transshipment approximator the nodes work out their own columns:
    construction runs one edge-id round, whose votes say which edges
    contract, and one containment consensus round per lower clustering,
    and evaluates the entries with the centralized builder's helper, so
    the columns agree bit for bit.  Tree blocks and the single-scale
    identity come with their entries, scaled here, and take no rounds.
    """

    def __init__(self, net, approx):
        self.net = net
        self.approx = approx
        g = net.g
        self.n, self.m = g.n, g.m
        self.k = approx.R.n_rows
        if approx.norm_kind == "l1" and approx.structures.n_scales > 1:
            columns = self._ts_columns()
        else:
            columns = [
                (b.ids[g.tail] == b.ids[g.head], b.entries * approx.scale)
                for b in approx.blocks
            ]
        self._blocks = [
            self._wire(b, contract, entries)
            for b, (contract, entries) in zip(approx.blocks, columns, strict=True)
        ]

    def _ts_columns(self):
        """Contract votes and scaled entries of every (i, j) block, from
        the nodes' own consensus rounds."""
        ds = self.approx.structures
        structures = ds.structures
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
        # one row of votes per clustering, lower clusterings first: an
        # edge votes to contract when its endpoints' ids agree
        votes = iter((res.edge_tail_value == res.edge_head_value).T.copy())
        columns = []
        for i in range(len(structures) - 1):
            num_hi = structures[i + 1].cover.num_clusterings
            hi_ids = np.stack(
                [cl.ids for cl in structures[i + 1].cover.clusterings], axis=1
            ).astype(np.float64)
            for j in range(structures[i].cover.num_clusterings):
                contract = next(votes)
                # containment of C_{i,j}(v) in C_{i+1,jp}(v): all members
                # agree on the higher cluster id, checked by a (max, -min)
                # consensus over the cluster-contracted minor
                res = self.net.run_round(
                    contract=contract,
                    node_values=np.concatenate([hi_ids, -hi_ids], axis=1),
                    consensus_op="max",
                    label=f"containment i={i} j={j}",
                )
                contained = res.consensus[:, :num_hi] == -res.consensus[:, num_hi:]
                entries = block_entries(ds, i, j, contained) * self.approx.scale
                columns.append((contract, entries))
        return columns

    def _wire(self, blk, contract, entries):
        """Edge-local column data of a block, used by the A products, and
        a representative node per cluster, where the products read its
        sums."""
        g = self.net.g
        inv_w = 1.0 / g.weight
        # A entry of edge e in the rows of its tail-side and head-side
        # clusters (internal edges touch a single row)
        ent_t = entries[g.tail]
        ent_h = entries[g.head]
        return _WiredBlock(
            ids=blk.ids,
            n_clusters=blk.n_clusters,
            rows=blk.rows,
            entries=entries,
            contract=contract,
            edge_val_tail=(ent_t - np.where(contract[:, None], ent_h, 0.0)) * inv_w[:, None],
            edge_val_head=(np.where(contract[:, None], ent_t, 0.0) - ent_h) * inv_w[:, None],
            # every cluster id 0..n_clusters-1 has a member; fillers sort after
            rep=np.unique(blk.ids, return_index=True)[1][: blk.n_clusters],
        )

    @property
    def rounds(self):
        return self.net.round_count

    def r_columns(self):
        """The R matrix the nodes assembled, as a ColSparseMatrix.

        Bit-identical to the centralized scaled matrix because entries go
        through the same arithmetic.
        """
        return assemble_R(self._blocks, self.k, self.n, self.approx.scaled_R().col_bound)

    def _scatter_rows(self, out, blk, consensus):
        """Place each cluster's folded sums, read at its representative
        node, in the cluster's rows."""
        out[blk.rows] = consensus[blk.rep].T

    # -- products ---------------------------------------------------------

    def mul_R(self, x):
        """R x: one consensus round per block, vector payload over jp."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.k)
        for blk in self._blocks:
            res = self.net.run_round(
                contract=blk.contract,
                node_values=blk.entries * x[:, None],
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
            member = blk.ids < blk.n_clusters
            for jp, row_of in enumerate(blk.rows):
                gathered = np.zeros(self.n)
                gathered[member] = y[row_of[blk.ids[member]]]
                out += blk.entries[:, jp] * gathered
        return out

    def _forward_block_product(self, x, use_abs, label):
        """Shared by A x and |A| x: per block an edge-to-node partials
        round then a cluster consensus round."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(self.k)
        for blk in self._blocks:
            vt = blk.edge_val_tail
            vh = blk.edge_val_head
            if use_abs:
                vt, vh = np.abs(vt), np.abs(vh)
            vt = vt * x[:, None]
            vh = vh * x[:, None]
            same = blk.contract

            def edge_fn(alive, yt, yh, vt=vt, vh=vh, same=same):
                # internal edges hand their whole term to the tail side
                zt = vt[alive]
                zh = np.where(same[alive][:, None], 0.0, vh[alive])
                return zt, zh

            partial = self.net.run_round(
                edge_value_fn=edge_fn, aggregate_op="sum", label=f"{label} partials"
            ).aggregate
            res = self.net.run_round(
                contract=blk.contract,
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
            member = blk.ids < blk.n_clusters
            for row_of in blk.rows:
                vals = np.zeros(self.n)
                vals[member] = y[row_of[blk.ids[member]]]
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
            same = blk.contract
            vt = np.abs(blk.edge_val_tail) if use_abs else blk.edge_val_tail
            vh = np.abs(blk.edge_val_head) if use_abs else blk.edge_val_head
            for jp in range(len(blk.rows)):
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
