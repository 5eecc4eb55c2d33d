"""Column-sparse matrices and the four matrix-vector primitives.

Storage is column-major nonzero lists (scipy CSC) with a declared
per-column nonzero bound.  Row-major views are materialized once at
construction because the transpose products are evaluated every solver
iteration.  All products are plain sequential scipy kernels, so results
are deterministic.
"""

import numpy as np
import scipy.sparse as sp


class ColSparseMatrix:
    """Sparse matrix stored by columns with a recorded per-column bound."""

    def __init__(self, csc, col_bound=None):
        if not sp.issparse(csc):
            raise ValueError("expected a scipy sparse matrix")
        csc = sp.csc_matrix(csc)
        csc.sort_indices()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        self._csc = csc
        self._csr = csc.tocsr()
        # CSC(M).T is a CSR view of M^T sharing index arrays.
        self._csrT = csc.T.tocsr()
        self._abs_csr = sp.csr_matrix(
            (np.abs(self._csr.data), self._csr.indices, self._csr.indptr), shape=csc.shape
        )
        self._abs_csrT = sp.csr_matrix(
            (np.abs(self._csrT.data), self._csrT.indices, self._csrT.indptr),
            shape=(csc.shape[1], csc.shape[0]),
        )
        actual = self.max_col_nnz()
        self.col_bound = int(col_bound) if col_bound is not None else actual
        if actual > self.col_bound:
            raise ValueError(
                f"column with {actual} nonzeros exceeds declared bound {self.col_bound}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals, col_bound=None):
        mat = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)
        )
        return cls(mat.tocsc(), col_bound=col_bound)

    @classmethod
    def from_dense(cls, arr, col_bound=None):
        return cls(sp.csc_matrix(np.asarray(arr, dtype=np.float64)), col_bound=col_bound)

    @classmethod
    def identity(cls, n):
        return cls(sp.identity(n, format="csc"), col_bound=1)

    # -- shape and structure --------------------------------------------

    @property
    def shape(self):
        return self._csc.shape

    @property
    def n_rows(self):
        return self._csc.shape[0]

    @property
    def n_cols(self):
        return self._csc.shape[1]

    @property
    def nnz(self):
        return self._csc.nnz

    def max_col_nnz(self):
        if self._csc.shape[1] == 0 or self._csc.nnz == 0:
            return 0
        return int(np.diff(self._csc.indptr).max())

    def to_dense(self):
        return self._csc.toarray()

    def to_csc(self):
        return self._csc

    # -- products --------------------------------------------------------

    def _check_len(self, x, want, what):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (want,):
            raise ValueError(f"{what}: got shape {x.shape}, expected ({want},)")
        return x

    def matvec(self, x):
        """M @ x."""
        x = self._check_len(x, self.n_cols, "matvec")
        return self._csr.dot(x)

    def matvec_T(self, y):
        """M.T @ y."""
        y = self._check_len(y, self.n_rows, "matvec_T")
        return self._csrT.dot(y)

    def abs_matvec(self, x):
        """|M| @ x with entrywise absolute values."""
        x = self._check_len(x, self.n_cols, "abs_matvec")
        return self._abs_csr.dot(x)

    def abs_matvec_T(self, y):
        """|M|.T @ y."""
        y = self._check_len(y, self.n_rows, "abs_matvec_T")
        return self._abs_csrT.dot(y)

    def one_to_one_norm(self):
        """max_v ||Mv||_1 / ||v||_1 = largest column l1 norm."""
        if self.n_cols == 0 or self.nnz == 0:
            return 0.0
        colsums = np.asarray(abs(self._csc).sum(axis=0)).ravel()
        return float(colsums.max())

    def scaled(self, factor):
        """New matrix factor * M with the same declared bound."""
        return ColSparseMatrix(self._csc * float(factor), col_bound=self.col_bound)

    # -- debug dump format ------------------------------------------------

    def dump_triplets(self):
        """Text dump, one "row col value" line per nonzero (hex floats)."""
        coo = self._csc.tocoo()
        order = np.lexsort((coo.row, coo.col))
        lines = [f"{coo.shape[0]} {coo.shape[1]} {self.col_bound}"]
        for k in order:
            lines.append(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k]).hex()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load_triplets(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n_rows, n_cols, bound = (int(tok) for tok in lines[0].split())
        rows, cols, vals = [], [], []
        for ln in lines[1:]:
            r, c, v = ln.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float.fromhex(v))
        return cls.from_triplets(n_rows, n_cols, rows, cols, vals, col_bound=bound)

    def __repr__(self):
        return (
            f"ColSparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz}, "
            f"col_bound={self.col_bound})"
        )


def compose(m1, m2):
    """Product m1 @ m2; exact cancellation zeros are dropped.

    The declared per-column bound of the product is bound(m1)*bound(m2),
    which is safe because a column of the product touches at most that
    many rows.
    """
    if m1.n_cols != m2.n_rows:
        raise ValueError(f"inner dimensions differ: {m1.shape} @ {m2.shape}")
    prod = m1.to_csc().dot(m2.to_csc())
    prod.eliminate_zeros()
    return ColSparseMatrix(prod, col_bound=max(1, m1.col_bound * m2.col_bound))


def incidence_matrix(g):
    """Node-edge incidence B as a ColSparseMatrix (2 nonzeros per column)."""
    rows = np.concatenate([g.tail, g.head])
    cols = np.concatenate([np.arange(g.m), np.arange(g.m)])
    vals = np.concatenate([np.ones(g.m), -np.ones(g.m)])
    return ColSparseMatrix.from_triplets(g.n, g.m, rows, cols, vals, col_bound=2)


def weight_inverse_matrix(g):
    """Diagonal W^-1 (1/w(e)) as a ColSparseMatrix."""
    idx = np.arange(g.m)
    return ColSparseMatrix.from_triplets(g.m, g.m, idx, idx, 1.0 / g.weight, col_bound=1)
