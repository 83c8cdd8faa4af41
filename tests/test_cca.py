"""CCA: covariance summaries, the whitened-SVD solve, and embeddings."""

import io
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dictforge.cca
from dictforge.cca import (
    CcaModel,
    accumulate_covariance,
    embed_phrases,
    read_embeddings,
    solve_cca,
    write_embeddings,
)
from dictforge.linalg import sparse_cholesky, sym_inv_sqrt


def gen_eig_correlations(summary, kappa, k):
    """Independent oracle: canonical correlations via the generalized
    symmetric eigenproblem Cxz (Czz+k2 I)^-1 Czx u = rho^2 (Cxx+k1 I) u,
    no whitening square roots and no SVD involved."""
    k1, k2 = (kappa, kappa) if np.isscalar(kappa) else kappa
    cxx, czz, cxz = summary.cxx().toarray(), summary.czz().toarray(), summary.cxz().toarray()
    A = cxz @ np.linalg.solve(czz + k2 * np.eye(summary.d2), cxz.T)
    B = cxx + k1 * np.eye(summary.d1)
    evals = scipy.linalg.eigh(A, B, eigvals_only=True)
    evals = np.clip(evals[::-1], 0, None)
    return np.sqrt(evals[:k])


def spelling_summary(rng, n, d1, d2):
    """Covariance summary shaped like the pipeline's views: each spelling
    row is one phrase-identity column plus the caps column, ordered last;
    each context row has three active columns, one tied to the phrase."""
    phrase = rng.integers(0, d1 - 1, n)
    capped = rng.random(n) < np.where(phrase % 3 == 0, 0.8, 0.1)
    rows = np.concatenate([np.arange(n), np.flatnonzero(capped)])
    cols = np.concatenate([phrase, np.full(int(capped.sum()), d1 - 1)])
    X = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, d1))
    zcols = np.stack(
        [phrase % d2, rng.integers(0, d2, n), (phrase * 7 + rng.integers(0, 2, n)) % d2], axis=1
    )
    Z = sp.csr_matrix((np.ones(3 * n), (np.repeat(np.arange(n), 3), zcols.ravel())), shape=(n, d2))
    return accumulate_covariance(X, Z)


def phi1_signs(phi1):
    """The solve's sign rule: each column's largest-magnitude entry is positive."""
    peak = phi1[np.argmax(np.abs(phi1), axis=0), np.arange(phi1.shape[1])]
    return phi1 * np.where(peak < 0, -1.0, 1.0)


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

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accumulate_covariance(np.ones((3, 2)), np.ones((4, 2)))

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

    @pytest.mark.parametrize("kappa", [np.inf, np.nan, (1e-4, np.inf), (np.nan, 1e-4)])
    def test_rejects_nonfinite_kappa(self, kappa):
        s = accumulate_covariance(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="finite"):
            solve_cca(s, k=1, kappa=kappa)

    def test_model_enforces_sorted_spectrum(self):
        with pytest.raises(ValueError):
            CcaModel(
                phi1=np.eye(2),
                phi2=np.eye(2),
                singular_values=np.array([0.1, 0.9]),
                k=2,
                kappa=(1e-4, 1e-4),
            )


class TestSpellingWhitening:
    """The spelling view is whitened by its sparse Cholesky factor; no
    d1×d1 matrix is densified."""

    KAPPA = 1e-4

    def test_dense_whitening_only_for_context_view(self, monkeypatch):
        s = spelling_summary(np.random.default_rng(0), n=3000, d1=301, d2=12)
        shapes = []

        def counting(C, kappa):
            shapes.append(np.shape(C))
            return sym_inv_sqrt(C, kappa)

        monkeypatch.setattr(dictforge.cca, "sym_inv_sqrt", counting)
        solve_cca(s, k=4, kappa=self.KAPPA, seed=0)
        assert shapes == [(s.d2, s.d2)]

    def test_matches_dense_oracles(self):
        s = spelling_summary(np.random.default_rng(1), n=3000, d1=301, d2=12)
        k = 4
        # the sketch (k + oversample columns) spans all d2 = 12 columns of T,
        # so the truncated SVD is exact and only the whitening is compared
        model = solve_cca(s, k=k, kappa=self.KAPPA, seed=0)
        np.testing.assert_allclose(
            model.singular_values, gen_eig_correlations(s, self.KAPPA, k), rtol=0, atol=1e-10
        )
        cxx = s.cxx().toarray() + self.KAPPA * np.eye(s.d1)
        w1 = sym_inv_sqrt(s.cxx().toarray(), self.KAPPA)
        w2 = sym_inv_sqrt(s.czz().toarray(), self.KAPPA)
        U, sigma, _ = np.linalg.svd(w1 @ s.cxz().toarray() @ w2)
        oracle = phi1_signs(w1 @ U[:, :k])
        np.testing.assert_allclose(model.phi1, oracle, rtol=0, atol=1e-8)
        np.testing.assert_allclose(model.phi1.T @ cxx @ model.phi1, np.eye(k), atol=1e-10)
        L1 = sparse_cholesky(s.cxx() + self.KAPPA * sp.identity(s.d1))
        assert L1.nnz <= 2 * s.d1

    def test_solver_report(self, cca_residual_oracle):
        # k + oversample = 14 sketch columns span all d2 = 12 columns of T,
        # so the singular pairs are exact and their residuals vanish
        s = spelling_summary(np.random.default_rng(2), n=2000, d1=101, d2=12)
        model = solve_cca(s, k=4, kappa=self.KAPPA, seed=0)
        assert model.solver["whitening"] == {"spelling": "cholesky", "context": "full"}
        assert len(model.solver["svd_residuals"]) == 4
        assert max(model.solver["svd_residuals"]) <= 1e-12
        assert max(cca_residual_oracle(s, model)) <= 1e-10

    def test_residuals_of_unconverged_sketch(self, cca_residual_oracle):
        # 14 sketch columns for d2 = 60 and no power iterations: the
        # singular pairs are approximate, and the residual says by how much
        s = spelling_summary(np.random.default_rng(5), n=3000, d1=301, d2=60)
        model = solve_cca(s, k=4, kappa=self.KAPPA, seed=0, power_iters=0)
        residuals = np.array(model.solver["svd_residuals"])
        assert residuals.min() > 1e-6
        np.testing.assert_allclose(
            residuals, cca_residual_oracle(s, model), rtol=1e-6, atol=1e-9
        )

    def test_sign_rule_on_phi1(self):
        s = spelling_summary(np.random.default_rng(3), n=2000, d1=101, d2=12)
        model = solve_cca(s, k=4, kappa=self.KAPPA, seed=0)
        np.testing.assert_array_equal(model.phi1, phi1_signs(model.phi1))

    def test_large_candidate_set_stays_exact(self):
        # 25,001 spelling columns: the sparse factor whitens them exactly,
        # no d1×d1 matrix is formed and nothing warns
        s = spelling_summary(np.random.default_rng(4), n=60_000, d1=25_001, d2=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = solve_cca(s, k=10, kappa=self.KAPPA, seed=0)
        A = s.cxx() + self.KAPPA * sp.identity(s.d1)
        np.testing.assert_allclose(model.phi1.T @ (A @ model.phi1), np.eye(10), atol=1e-10)


def small_model():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 6))
    Z = rng.standard_normal((40, 5))
    return solve_cca(accumulate_covariance(X, Z), k=3, kappa=1e-3, seed=0)


class TestEmbed:
    def test_zero_vector_embeds_to_zero(self):
        model = small_model()
        np.testing.assert_array_equal(embed_phrases(model, sp.csr_matrix((1, 6))), np.zeros((1, 3)))

    def test_one_hot_picks_phi_row(self):
        model = small_model()
        rows = sp.csr_matrix(np.eye(6)[[2, 5]])
        np.testing.assert_array_equal(embed_phrases(model, rows), model.phi1[[2, 5]])

    def test_matches_dense_matvec_oracle(self):
        model = small_model()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        got = embed_phrases(model, sp.csr_matrix(x))
        np.testing.assert_allclose(got, np.stack([model.phi1.T @ v for v in x]), atol=1e-12)

    def test_dense_dimension_mismatch(self):
        model = small_model()
        with pytest.raises(ValueError):
            embed_phrases(model, np.ones((1, 7)))

    def test_embed_phrases_checks_columns(self):
        model = small_model()
        with pytest.raises(ValueError, match="100 columns"):
            embed_phrases(model, sp.csr_matrix((2, 100)))

    def test_embed_phrases_shares_identity_rows(self):
        model = small_model()
        # rows 0 and 2 are two instances of the phrase with identity column 1
        rows = sp.csr_matrix(np.eye(6)[[1, 0, 1]])
        embs = embed_phrases(model, rows)
        np.testing.assert_array_equal(embs[0], embs[2])
        np.testing.assert_array_equal(embs[0], model.phi1[1])
        np.testing.assert_array_equal(embs[1], model.phi1[0])

    def test_spelling_vector_includes_caps_bit(self):
        # the caps column (last) adds its projection to the identity's
        model = small_model()
        plain = np.zeros((1, 6))
        plain[0, 0] = 1.0
        capped = plain.copy()
        capped[0, 5] = 1.0
        embs = embed_phrases(model, sp.csr_matrix(np.vstack([plain, capped])))
        np.testing.assert_array_equal(embs[0], model.phi1[0])
        np.testing.assert_array_equal(embs[1], model.phi1[0] + model.phi1[5])

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

    def test_load_names_file_for_missing_array(self, tmp_path):
        path = tmp_path / "model.npz"
        with open(path, "wb") as fh:
            np.savez(fh, phi1=small_model().phi1)
        with pytest.raises(ValueError) as err:
            CcaModel.load(path)
        assert str(err.value) == f"{path}: missing array(s) phi2, singular_values, k, kappa"

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("phi1", lambda m: m.phi1[:, :1], "phi1 does not have k columns"),
            ("phi2", lambda m: np.hstack([m.phi2, m.phi2[:, :1]]), "phi2 does not have k columns"),
            ("phi2", lambda m: m.phi2[:, 0], "phi2 does not have k columns"),
            ("singular_values", lambda m: m.singular_values[:1], "singular_values does not hold k values"),
            ("kappa", lambda m: np.array([1e-4, 1e-4, 1e-4]), "kappa is not two values"),
            # the model's own check, named by the file too
            ("singular_values", lambda m: m.singular_values[::-1],
             "singular values must be non-increasing"),
            ("k", lambda m: np.array([m.k, m.k]), "k is not one count"),
        ],
    )
    def test_load_names_file_for_disagreeing_arrays(self, tmp_path, field, value, problem):
        model = small_model()
        arrays = {
            "phi1": model.phi1,
            "phi2": model.phi2,
            "singular_values": model.singular_values,
            "k": np.array(model.k),
            "kappa": np.array(model.kappa),
        }
        arrays[field] = value(model)
        path = tmp_path / "model.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError) as err:
            CcaModel.load(path)
        assert str(err.value) == f"{path}: {problem}"

    def test_embedding_tsv_roundtrip(self, tmp_path):
        vectors = np.array([[0.25, -1.5], [1e-9, 3.0]])
        buf = io.StringIO()
        write_embeddings(["influenza", "hepatitis b"], vectors, buf)
        p = tmp_path / "emb.tsv"
        p.write_text(buf.getvalue(), encoding="utf-8")
        back = read_embeddings(p)
        assert set(back) == {"influenza", "hepatitis b"}
        np.testing.assert_array_equal(back["hepatitis b"], vectors[1])

    @settings(max_examples=100, deadline=None)
    @given(
        matrix=arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 8)),
            elements=st.floats(allow_nan=False, allow_subnormal=True),
        ),
        prefix=st.integers(1, 8),
    )
    @example(matrix=np.array([[-0.0, 1e-9, 1e16, 5e-324, 0.0, -2.5e-310]]), prefix=6)
    def test_embedding_text_is_repr_of_each_component(self, matrix, prefix):
        # the writer formats tolist() rows; the text is repr of each
        # component as a Python float, for a column-prefix view too
        vectors = matrix[:, :prefix]
        names = [f"p{i}" for i in range(len(vectors))]
        buf = io.StringIO()
        write_embeddings(names, vectors, buf)
        expected = "".join(
            name + "".join("\t" + repr(float(v)) for v in row) + "\n"
            for name, row in zip(names, vectors)
        )
        assert buf.getvalue() == expected

    def test_embedding_rows_must_match_phrases(self):
        with pytest.raises(ValueError, match="2 phrases but 1 vector rows"):
            write_embeddings(["a", "b"], np.zeros((1, 3)), io.StringIO())

    def test_embedding_without_components_rejected(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("flu\t0.5\t1.0\n\nebola\nzika\t1\t2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.tsv, line 3: 'ebola' has no vector"):
            read_embeddings(p)

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("flu\t0.1\t0.2\n\nzika\t1\t2\nebola\t0.3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"emb\.tsv, line 4: 'ebola' has 1 components, expected 2"):
            read_embeddings(p)

    @pytest.mark.parametrize(
        "row, problem",
        [("flu\t3\t4", "duplicate phrase 'flu'"),
         ("Zika\t3\t4", "embedding phrase 'Zika' is not lowercase"),
         ("yellow  fever\t3\t4",
          "embedding phrase 'yellow  fever' is not words joined by single spaces"),
         ("\t3\t4", "empty embedding phrase ''"),
         ("zika\tnan\t4", "'zika' has a non-finite component"),
         ("zika\t3\t-inf", "'zika' has a non-finite component")],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, problem):
        # a repeated phrase is not merged, and a table the CRF would reject
        # is rejected where the file shows it
        p = tmp_path / "emb.tsv"
        p.write_text(f"flu\t1\t2\n\nebola\t0.5\t1\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_embeddings(p)
        assert str(err.value) == f"{p}, line 4: {problem}"

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "emb.tsv"
        p.write_text("\nflu\t0.5\t1.0\n\nzika\t1\t2\n", encoding="utf-8")
        back = read_embeddings(p)
        assert list(back) == ["flu", "zika"]
        np.testing.assert_array_equal(back["zika"], [1.0, 2.0])
