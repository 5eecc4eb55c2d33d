"""Column-sparse matrices and the four matrix-vector primitives.

A matrix is stored once by columns (scipy CSC) with a declared
per-column nonzero bound, and once by rows (CSR).  The CSC arrays of M
are the CSR arrays of M^T, so these two serve all four products M x,
M^T y, |M| x and |M|^T y; the |M| data arrays are built on first use.
Every product is one call of scipy's sequential CSR kernel, so results
are deterministic and bit-identical to scipy's own M @ x.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


def _csr_matvec(n_out, n_in, indptr, indices, data, x):
    out = np.zeros(n_out)
    _sparsetools.csr_matvec(n_out, n_in, indptr, indices, data, x, out)
    return out


class ColSparseMatrix:
    """Sparse matrix stored by columns with a recorded per-column bound."""

    def __init__(self, csc, col_bound=None):
        if not sp.issparse(csc):
            raise ValueError("expected a scipy sparse matrix")
        csc = sp.csc_matrix(csc, dtype=np.float64)
        csc.sort_indices()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        self._csc = csc
        self._csr = csc.tocsr()
        n_rows, n_cols = csc.shape
        self._fwd = (n_rows, n_cols, self._csr.indptr, self._csr.indices)
        self._bwd = (n_cols, n_rows, csc.indptr, csc.indices)
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
        return self._mul(self._check_len(x, self.n_cols, "matvec"))

    def matvec_T(self, y):
        """M.T @ y."""
        return self._mul_T(self._check_len(y, self.n_rows, "matvec_T"))

    def abs_matvec(self, x):
        """|M| @ x with entrywise absolute values."""
        return self._abs_mul(self._check_len(x, self.n_cols, "abs_matvec"))

    def abs_matvec_T(self, y):
        """|M|.T @ y."""
        return self._abs_mul_T(self._check_len(y, self.n_rows, "abs_matvec_T"))

    # The same four products without the length check, for the solver's
    # inner loop; the caller passes vectors of the right length.

    def _mul(self, x):
        return _csr_matvec(*self._fwd, self._csr.data, x)

    def _mul_T(self, y):
        return _csr_matvec(*self._bwd, self._csc.data, y)

    def _abs_mul(self, x):
        return _csr_matvec(*self._fwd, self._abs_csr_data, x)

    def _abs_mul_T(self, y):
        return _csr_matvec(*self._bwd, self._abs_csc_data, y)

    @cached_property
    def _abs_csr_data(self):
        return np.abs(self._csr.data)

    @cached_property
    def _abs_csc_data(self):
        return np.abs(self._csc.data)

    def one_to_one_norm(self):
        """max_v ||Mv||_1 / ||v||_1 = largest column l1 norm."""
        if self.n_cols == 0 or self.nnz == 0:
            return 0.0
        colsums = np.asarray(abs(self._csc).sum(axis=0)).ravel()
        return float(colsums.max())

    def inf_to_inf_norm(self):
        """max_v ||Mv||_inf / ||v||_inf = largest row l1 norm."""
        if self.n_rows == 0 or self.nnz == 0:
            return 0.0
        rowsums = np.asarray(abs(self._csr).sum(axis=1)).ravel()
        return float(rowsums.max())

    def scaled(self, factor):
        """New matrix factor * M with the same declared bound."""
        return ColSparseMatrix(self._csc * float(factor), col_bound=self.col_bound)

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
