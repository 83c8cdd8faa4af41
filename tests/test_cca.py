"""CCA: covariance summaries, the whitened-SVD solve, and embeddings."""

import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from dictforge.cca import (
    CcaModel,
    PhraseEmbedding,
    accumulate_covariance,
    embed_phrases,
    read_embeddings,
    solve_cca,
    write_embeddings,
)
from dictforge.views import FeatureIndex, SparseVector, spelling_vector


def gen_eig_correlations(summary, kappa, k):
    """Independent oracle: canonical correlations via the generalized
    symmetric eigenproblem Cxz (Czz+k2 I)^-1 Czx u = rho^2 (Cxx+k1 I) u,
    no whitening square roots and no SVD involved."""
    k1, k2 = (kappa, kappa) if np.isscalar(kappa) else kappa
    cxx = np.asarray(summary.cxx().todense()) if sp.issparse(summary.cxx()) else summary.cxx()
    czz = np.asarray(summary.czz().todense()) if sp.issparse(summary.czz()) else summary.czz()
    cxz = np.asarray(summary.cxz().todense()) if sp.issparse(summary.cxz()) else summary.cxz()
    A = cxz @ np.linalg.solve(czz + k2 * np.eye(summary.d2), cxz.T)
    B = cxx + k1 * np.eye(summary.d1)
    evals = scipy.linalg.eigh(A, B, eigvals_only=True)
    evals = np.clip(evals[::-1], 0, None)
    return np.sqrt(evals[:k])


class TestAccumulate:
    def test_single_row_identity(self):
        s = accumulate_covariance(np.array([[1.0]]), np.array([[1.0]]))
        assert s.cxx().toarray() == [[1.0]]
        assert s.czz().toarray() == [[1.0]]
        assert s.cxz().toarray() == [[1.0]]
        assert s.n == 1

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 8))
        Z = rng.standard_normal((50, 6))
        s = accumulate_covariance(X, Z)
        np.testing.assert_allclose(s.cxx().toarray(), X.T @ X / 50, atol=1e-12)
        np.testing.assert_allclose(s.czz().toarray(), Z.T @ Z / 50, atol=1e-12)
        np.testing.assert_allclose(s.cxz().toarray(), X.T @ Z / 50, atol=1e-12)

    def test_partition_merge_equals_whole(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5))
        Z = rng.standard_normal((40, 7))
        whole = accumulate_covariance(X, Z)
        merged = accumulate_covariance(X[:13], Z[:13]).merge(
            accumulate_covariance(X[13:], Z[13:])
        )
        assert merged.n == whole.n
        np.testing.assert_allclose(
            merged.cxz().toarray(), whole.cxz().toarray(), atol=1e-12
        )
        np.testing.assert_allclose(
            merged.cxx().toarray(), whole.cxx().toarray(), atol=1e-12
        )

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate_covariance(np.ones((3, 2)), np.ones((4, 2)))

    def test_centering(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4)) + 5.0
        Z = rng.standard_normal((30, 3)) - 2.0
        s = accumulate_covariance(X, Z, center=True)
        Xc = X - X.mean(axis=0)
        Zc = Z - Z.mean(axis=0)
        np.testing.assert_allclose(s.cxz(), Xc.T @ Zc / 30, atol=1e-12)

    def test_merge_requires_same_shape(self):
        a = accumulate_covariance(np.ones((2, 2)), np.ones((2, 2)))
        b = accumulate_covariance(np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            a.merge(b)


class TestSolve:
    def test_identical_views_perfect_correlation(self):
        X = np.ones((10, 1))
        s = accumulate_covariance(X, X)
        model = solve_cca(s, k=1, kappa=1e-8)
        np.testing.assert_allclose(model.singular_values[0], 1.0, atol=1e-6)

    def test_independent_views_low_correlation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((2000, 5))
        Z = rng.standard_normal((2000, 5))
        s = accumulate_covariance(X, Z)
        model = solve_cca(s, k=5, kappa=1e-6, seed=1)
        assert np.all(model.singular_values <= 0.15)
        oracle = gen_eig_correlations(s, 1e-6, 5)
        np.testing.assert_allclose(model.singular_values, oracle, atol=1e-6)

    def test_singular_values_match_exact_svd(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 10))
        Z = rng.standard_normal((30, 12))
        s = accumulate_covariance(X, Z)
        model = solve_cca(s, k=4, kappa=1e-3, seed=5)
        from dictforge.linalg import sym_inv_sqrt

        T = (
            sym_inv_sqrt(s.cxx().toarray(), 1e-3)
            @ s.cxz().toarray()
            @ sym_inv_sqrt(s.czz().toarray(), 1e-3)
        )
        exact = np.linalg.svd(T, compute_uv=False)
        np.testing.assert_allclose(model.singular_values, exact[:4], atol=1e-6)

    def test_matches_generalized_eigenvalue_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            d1, d2 = rng.integers(3, 12, size=2)
            n = 50
            X = rng.standard_normal((n, d1))
            Z = X[:, : min(d1, d2)] @ rng.standard_normal((min(d1, d2), d2))
            Z += 0.3 * rng.standard_normal((n, d2))
            s = accumulate_covariance(X, Z)
            k = int(min(d1, d2))
            model = solve_cca(s, k=k, kappa=1e-6, seed=trial)
            oracle = gen_eig_correlations(s, 1e-6, k)
            np.testing.assert_allclose(model.singular_values, oracle, atol=1e-6)

    def test_whitened_orthonormality(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 8))
        Z = rng.standard_normal((60, 9))
        s = accumulate_covariance(X, Z)
        model = solve_cca(s, k=5, kappa=1e-4, seed=2)
        k1, k2 = model.kappa
        g1 = model.phi1.T @ (s.cxx().toarray() + k1 * np.eye(8)) @ model.phi1
        g2 = model.phi2.T @ (s.czz().toarray() + k2 * np.eye(9)) @ model.phi2
        np.testing.assert_allclose(g1, np.eye(5), atol=1e-6)
        np.testing.assert_allclose(g2, np.eye(5), atol=1e-6)

    def test_scale_coupling_exact(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 6))
        Z = rng.standard_normal((40, 5))
        base = solve_cca(accumulate_covariance(X, Z), k=3, kappa=(1e-3, 1e-3), seed=1)
        c = 3.0
        scaled = solve_cca(
            accumulate_covariance(c * X, Z), k=3, kappa=(1e-3 * c * c, 1e-3), seed=1
        )
        np.testing.assert_allclose(
            scaled.singular_values, base.singular_values, atol=1e-8
        )

    def test_scale_drift_bounded_at_fixed_kappa(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((200, 6))
        Z = rng.standard_normal((200, 6)) + 0.5 * X
        base = solve_cca(accumulate_covariance(X, Z), k=3, kappa=1e-6, seed=1)
        for c in (0.5, 2.0):
            other = solve_cca(accumulate_covariance(c * X, Z), k=3, kappa=1e-6, seed=1)
            assert np.max(np.abs(other.singular_values - base.singular_values)) <= 1e-3

    def test_diag_whitening_equals_full_on_diagonal_covariance(self):
        # one-hot rows make both Gram matrices exactly diagonal
        rng = np.random.default_rng(9)
        X = np.zeros((30, 4))
        X[np.arange(30), rng.integers(0, 4, 30)] = 1.0
        Z = np.zeros((30, 4))
        Z[np.arange(30), rng.integers(0, 4, 30)] = 1.0
        s = accumulate_covariance(X, Z)
        full = solve_cca(s, k=2, kappa=1e-3, seed=3, whiten="full")
        diag = solve_cca(s, k=2, kappa=1e-3, seed=3, whiten="diag")
        np.testing.assert_allclose(
            diag.singular_values, full.singular_values, atol=1e-10
        )
        np.testing.assert_allclose(np.abs(diag.phi1), np.abs(full.phi1), atol=1e-8)

    def test_default_kappa_is_trace_scaled(self):
        X = np.eye(4)
        Z = np.eye(4)
        s = accumulate_covariance(X, Z)
        model = solve_cca(s, k=1, seed=0)
        expected = 1e-4 * (4 * 0.25) / 4  # trace(Cxx)=1, d=4
        np.testing.assert_allclose(model.kappa, (expected, expected))

    def test_rejects_oversized_k(self):
        s = accumulate_covariance(np.ones((5, 3)), np.ones((5, 4)))
        with pytest.raises(ValueError):
            solve_cca(s, k=4, kappa=1e-4)

    def test_rejects_nonfinite_summary(self):
        s = accumulate_covariance(np.ones((2, 2)), np.ones((2, 2)))
        s.sxz = sp.csr_matrix(np.array([[np.nan, 0], [0, 1.0]]))
        with pytest.raises(ValueError):
            solve_cca(s, k=1, kappa=1e-4)

    def test_rejects_nonpositive_kappa(self):
        s = accumulate_covariance(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            solve_cca(s, k=1, kappa=0.0)

    def test_model_enforces_sorted_spectrum(self):
        with pytest.raises(ValueError):
            CcaModel(
                phi1=np.eye(2),
                phi2=np.eye(2),
                singular_values=np.array([0.1, 0.9]),
                k=2,
                kappa=(1e-4, 1e-4),
            )


def small_model():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 6))
    Z = rng.standard_normal((40, 5))
    return solve_cca(accumulate_covariance(X, Z), k=3, kappa=1e-3, seed=0)


class TestEmbed:
    def test_zero_vector_embeds_to_zero(self):
        model = small_model()
        np.testing.assert_array_equal(model.embed(SparseVector(())), np.zeros(3))

    def test_one_hot_picks_phi_row(self):
        model = small_model()
        vec = SparseVector(((2, 1.0),))
        np.testing.assert_allclose(model.embed(vec), model.phi1[2], atol=1e-15)

    def test_matches_dense_matvec_oracle(self):
        model = small_model()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(model.embed(x), model.phi1.T @ x, atol=1e-12)

    def test_dense_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.embed(np.ones(7))

    def test_embed_phrases_checks_columns(self):
        model = small_model()
        vecs = {"flu": SparseVector(((0, 1.0),)), "bad": SparseVector(((99, 1.0),))}
        with pytest.raises(ValueError):
            embed_phrases(model, vecs)

    def test_embed_phrases_shares_identity_rows(self):
        model = small_model()
        vecs = {
            "flu": SparseVector(((0, 1.0),)),
            "ebola": SparseVector(((1, 1.0),)),
        }
        embs = embed_phrases(model, vecs)
        assert [e.phrase for e in embs] == ["flu", "ebola"]
        np.testing.assert_allclose(embs[0].vector, model.phi1[0])
        np.testing.assert_allclose(embs[1].vector, model.phi1[1])

    def test_spelling_vector_includes_caps_bit(self):
        idx = FeatureIndex()
        idx.add(("id", "flu"))
        idx.add(("id", "ebola"))
        idx.add(("caps",), reserved=True)
        idx.freeze()
        plain = spelling_vector("flu", idx, {"flu": 0})
        capped = spelling_vector("flu", idx, {"flu": 1})
        assert plain.columns() == [0]
        assert capped.columns() == [0, 2]
        with pytest.raises(KeyError):
            spelling_vector("smallpox", idx, {})

    def test_save_load_roundtrip(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.npz"
        model.save(path)
        back = CcaModel.load(path)
        np.testing.assert_array_equal(back.phi1, model.phi1)
        np.testing.assert_array_equal(back.phi2, model.phi2)
        np.testing.assert_array_equal(back.singular_values, model.singular_values)
        assert back.k == model.k
        assert back.kappa == model.kappa

    def test_embedding_tsv_roundtrip(self, tmp_path):
        embs = [
            PhraseEmbedding("influenza", np.array([0.25, -1.5])),
            PhraseEmbedding("hepatitis b", np.array([1e-9, 3.0])),
        ]
        buf = io.StringIO()
        write_embeddings(embs, buf)
        p = tmp_path / "emb.tsv"
        p.write_text(buf.getvalue(), encoding="utf-8")
        back = read_embeddings(p)
        assert set(back) == {"influenza", "hepatitis b"}
        np.testing.assert_array_equal(back["hepatitis b"], embs[1].vector)
