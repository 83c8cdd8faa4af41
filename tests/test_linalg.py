"""Randomized truncated SVD, sparse Cholesky and whitening transforms."""

import numpy as np
import pytest
import scipy.sparse as sp

from dictforge.linalg import randomized_svd, sparse_cholesky, spectral_norm, sym_inv_sqrt


def gapped_matrix(rng, n, d, k, tail=1e-5):
    """Matrix with known spectrum: gap >= 2x at index k, tiny tail."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    r = min(n, d)
    head = np.linspace(1.0, 0.4, k)
    sigma = np.concatenate([head, np.full(r - k, tail * head[-1])])
    return (U[:, :r] * sigma) @ V[:, :r].T, sigma


class TestRandomizedSvd:
    def test_matches_exact_svd_on_small_dense(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((30, 12))
        U, s, Vt = randomized_svd(A, k=4, seed=1)
        exact = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(s, exact[:4], rtol=0, atol=1e-6)

    def test_low_rank_approximation_error(self):
        rng = np.random.default_rng(7)
        A, sigma = gapped_matrix(rng, 80, 60, k=5)
        U, s, Vt = randomized_svd(A, k=5, seed=3)
        approx = (U * s) @ Vt
        err = spectral_norm(A - approx)
        assert err / sigma[0] <= 1e-4
        # never more than a hair above the optimal rank-5 error
        assert err - sigma[5] <= 1e-4 * sigma[0]

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((40, 25))
        U, s, Vt = randomized_svd(A, k=6, seed=0)
        np.testing.assert_allclose(U.T @ U, np.eye(6), atol=1e-10)
        np.testing.assert_allclose(Vt @ Vt.T, np.eye(6), atol=1e-10)

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(5)
        _, s, _ = randomized_svd(rng.standard_normal((20, 20)), k=7, seed=2)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-12)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((25, 18))
        out1 = randomized_svd(A, k=3, seed=11)
        out2 = randomized_svd(A, k=3, seed=11)
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a, b)

    def test_sparse_input(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((40, 30))
        A[np.abs(A) < 1.0] = 0.0
        S = sp.csr_matrix(A)
        _, s_sparse, _ = randomized_svd(S, k=4, seed=4)
        _, s_dense, _ = randomized_svd(A, k=4, seed=4)
        np.testing.assert_allclose(s_sparse, s_dense, atol=1e-10)

    def test_reconstructs_exact_low_rank(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 40))
        U, s, Vt = randomized_svd(B, k=3, seed=5)
        np.testing.assert_allclose((U * s) @ Vt, B, atol=1e-9)

    def test_rejects_bad_k(self):
        A = np.eye(5)
        with pytest.raises(ValueError):
            randomized_svd(A, k=0)
        with pytest.raises(ValueError):
            randomized_svd(A, k=6)


class TestSymInvSqrt:
    def test_squares_to_inverse(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        C = M @ M.T
        W = sym_inv_sqrt(C, kappa=0.1)
        np.testing.assert_allclose(
            W @ W, np.linalg.inv(C + 0.1 * np.eye(8)), atol=1e-10
        )

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((6, 6))
        W = sym_inv_sqrt(M @ M.T, kappa=1e-3)
        np.testing.assert_allclose(W, W.T, atol=1e-12)

    def test_handles_singular_input(self):
        C = np.zeros((4, 4))
        W = sym_inv_sqrt(C, kappa=1e-2)
        np.testing.assert_allclose(W, np.eye(4) / np.sqrt(1e-2), atol=1e-12)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            sym_inv_sqrt(np.eye(3), kappa=0.0)


class TestSparseCholesky:
    def test_factors_dense_spd(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((9, 9))
        A = M @ M.T + 0.1 * np.eye(9)
        L = sparse_cholesky(sp.csr_matrix(A))
        assert sp.issparse(L)
        np.testing.assert_allclose(L.toarray(), np.linalg.cholesky(A), atol=1e-12)

    def test_arrowhead_factor_has_no_fill(self):
        rng = np.random.default_rng(6)
        d = 500
        A = sp.lil_matrix((d, d))
        A.setdiag(rng.uniform(1.0, 2.0, d))
        A[d - 1, d - 1] = float(d)
        arrow = rng.uniform(0.0, 0.5, d - 1)
        A[d - 1, : d - 1] = arrow
        A[: d - 1, d - 1] = arrow[:, None]
        L = sparse_cholesky(A)
        assert sp.tril(L).nnz == L.nnz == 2 * d - 1
        np.testing.assert_allclose((L @ L.T).toarray(), A.toarray(), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            sparse_cholesky(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))

    def test_rejects_pivoting(self):
        # a zero leading diagonal forces a row exchange
        with pytest.raises(ValueError, match="permuted"):
            sparse_cholesky(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="positive definite"):
            sparse_cholesky(sp.csr_matrix((3, 3)))
