import numpy as np
import pytest

from boxflow.graphs import Graph
from boxflow.sparsemat import (
    ColSparseMatrix,
    compose,
    incidence_matrix,
    weight_inverse_matrix,
)


def random_col_sparse(n_rows, n_cols, s, rng):
    rows, cols, vals = [], [], []
    for j in range(n_cols):
        k = int(rng.integers(0, s + 1))
        picked = rng.choice(n_rows, size=min(k, n_rows), replace=False)
        for r in picked:
            rows.append(int(r))
            cols.append(j)
            vals.append(float(rng.normal()))
    return ColSparseMatrix.from_triplets(n_rows, n_cols, rows, cols, vals, col_bound=s)


def test_identity_matvec():
    I = ColSparseMatrix.identity(5)
    x = np.arange(5.0)
    assert np.array_equal(I.matvec(x), x)
    assert np.array_equal(I.matvec_T(x), x)
    assert np.array_equal(I.abs_matvec(x), x)


def test_single_negative_entry():
    m = ColSparseMatrix.from_triplets(1, 1, [0], [0], [-2.0])
    assert m.matvec(np.array([3.0]))[0] == -6.0
    assert m.abs_matvec(np.array([3.0]))[0] == 6.0
    assert m.abs_matvec_T(np.array([3.0]))[0] == 6.0


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    m = random_col_sparse(10, 10, 3, rng)
    dense = m.to_dense()
    for _ in range(5):
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        assert np.allclose(m.matvec(x), dense @ x, atol=1e-12)
        assert np.allclose(m.matvec_T(y), dense.T @ y, atol=1e-12)
        assert np.allclose(m.abs_matvec(x), np.abs(dense) @ x, atol=1e-12)
        assert np.allclose(m.abs_matvec_T(y), np.abs(dense).T @ y, atol=1e-12)


def test_matvec_dimension_mismatch():
    m = ColSparseMatrix.identity(4)
    with pytest.raises(ValueError):
        m.matvec(np.zeros(5))
    with pytest.raises(ValueError):
        m.matvec_T(np.zeros(3))


def test_adjoint_identity():
    rng = np.random.default_rng(1)
    m = random_col_sparse(12, 7, 4, rng)
    for _ in range(10):
        x = rng.normal(size=7)
        y = rng.normal(size=12)
        lhs = m.matvec(x) @ y
        rhs = x @ m.matvec_T(y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_abs_matvec_dominates():
    rng = np.random.default_rng(2)
    m = random_col_sparse(9, 9, 3, rng)
    for _ in range(10):
        x = np.abs(rng.normal(size=9))
        assert np.all(m.abs_matvec(x) >= np.abs(m.matvec(x)) - 1e-12)


def test_compose_with_identity():
    rng = np.random.default_rng(3)
    m = random_col_sparse(6, 6, 2, rng)
    out = compose(m, ColSparseMatrix.identity(6))
    assert np.allclose(out.to_dense(), m.to_dense())


def test_compose_matches_dense():
    rng = np.random.default_rng(4)
    m1 = random_col_sparse(8, 6, 2, rng)
    m2 = random_col_sparse(6, 5, 2, rng)
    out = compose(m1, m2)
    assert np.allclose(out.to_dense(), m1.to_dense() @ m2.to_dense(), atol=1e-12)
    assert out.col_bound == m1.col_bound * m2.col_bound
    assert out.max_col_nnz() <= out.col_bound


def test_compose_matches_dense_various_sizes():
    rng = np.random.default_rng(5)
    for n in (3, 17, 50):
        m1 = random_col_sparse(n, n, 3, rng)
        m2 = random_col_sparse(n, n, 3, rng)
        assert np.allclose(
            compose(m1, m2).to_dense(), m1.to_dense() @ m2.to_dense(), atol=1e-12
        )


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(ColSparseMatrix.identity(3), ColSparseMatrix.identity(4))


def test_compose_drops_cancellation_zeros():
    # [1 1] @ [1; -1] = [0]: the exact zero is dropped from storage.
    m1 = ColSparseMatrix.from_triplets(1, 2, [0, 0], [0, 1], [1.0, 1.0])
    m2 = ColSparseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, -1.0])
    out = compose(m1, m2)
    assert out.nnz == 0


def test_compose_R_B_Winv_column_bound():
    g = Graph(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0), (3, 0, 1.0)])
    B = incidence_matrix(g)
    Winv = weight_inverse_matrix(g)
    assert B.col_bound == 2
    assert Winv.col_bound == 1
    rng = np.random.default_rng(6)
    r = random_col_sparse(9, 4, 3, rng)
    out = compose(r, compose(B, Winv))
    assert out.col_bound == 2 * r.col_bound


def test_one_to_one_norm_identity():
    assert ColSparseMatrix.identity(4).one_to_one_norm() == 1.0


def test_one_to_one_norm_single_column():
    m = ColSparseMatrix.from_triplets(3, 1, [0, 1, 2], [0, 0, 0], [1.0, -2.0, 3.0])
    assert m.one_to_one_norm() == 6.0
    assert m.inf_to_inf_norm() == 3.0  # largest row l1 norm


def test_one_to_one_norm_bounds_random_sampling():
    rng = np.random.default_rng(7)
    m = random_col_sparse(8, 8, 3, rng)
    norm = m.one_to_one_norm()
    best = 0.0
    for _ in range(10_000):
        v = rng.normal(size=8)
        v /= np.abs(v).sum()
        best = max(best, float(np.abs(m.matvec(v)).sum()))
    assert norm >= best - 1e-9


def test_column_bound_enforced():
    with pytest.raises(ValueError):
        ColSparseMatrix.from_triplets(3, 1, [0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0], col_bound=2)


def test_incidence_matrix_matches_apply_B(eight_cycle):
    from boxflow.graphs import apply_B, apply_BT

    B = incidence_matrix(eight_cycle)
    rng = np.random.default_rng(9)
    f = rng.normal(size=8)
    phi = rng.normal(size=8)
    assert np.allclose(B.matvec(f), apply_B(eight_cycle, f), atol=1e-12)
    assert np.allclose(B.matvec_T(phi), apply_BT(eight_cycle, phi), atol=1e-12)
