"""Seed handling and the linear margin classifier."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dictforge.classifier import (
    SeedSet,
    SvmModel,
    _fit,
    build_dictionary,
    read_seeds,
    resolve_seeds,
    svm_objective,
    train_svm,
)
from oracles import dual_cd_fit, signed_sweep_fit


def separable_embeddings():
    return {
        "a": np.array([1.0, 0.0]),
        "b": np.array([2.0, 0.0]),
        "c": np.array([-1.0, 0.0]),
        "d": np.array([-2.0, 0.0]),
    }


SEEDS = SeedSet.make(["a", "b"], ["c", "d"])


def rows(emb, names):
    """The embeddings of ``names`` as a matrix, one row per name."""
    return np.array([emb[p] for p in names], dtype=np.float64)


def non_separable():
    """Positives on both sides of the negatives on one axis: no line
    separates them."""
    emb = {"a": np.array([1.0]), "c": np.array([-1.0]),
           "b": np.array([0.5]), "d": np.array([-0.5])}
    return emb, SeedSet.make(["a", "c"], ["b", "d"])


class TestSeedSet:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SeedSet.make(["flu", "ebola"], ["mutant", "flu"])

    def test_duplicate_within_class_rejected(self):
        with pytest.raises(ValueError):
            SeedSet.make(["flu", "Flu"], ["mutant"])

    def test_file_roundtrip(self, tmp_path):
        seeds = SeedSet.make(["human immunodeficiency", "influenza"], ["mutant"])
        p = tmp_path / "seeds.txt"
        p.write_text(
            "[positive]\nhuman immunodeficiency\ninfluenza\n[negative]\nmutant\n",
            encoding="utf-8",
        )
        assert read_seeds(p) == seeds

    def test_file_with_comments(self, tmp_path):
        p = tmp_path / "seeds.txt"
        p.write_text(
            "# example seeds\n[positive]\nflu  # common\n\n[negative]\nmutant\n",
            encoding="utf-8",
        )
        seeds = read_seeds(p)
        assert seeds.positives == ("flu",)
        assert seeds.negatives == ("mutant",)

    def test_phrase_before_section_rejected(self, tmp_path):
        p = tmp_path / "seeds.txt"
        p.write_text("flu\n[positive]\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_seeds(p)

    def test_error_names_file_and_line(self, tmp_path):
        p = tmp_path / "seeds.txt"
        p.write_text("# seeds\noops\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_seeds(p)
        assert str(err.value) == f"{p}, line 2: phrase before any section header"

    @pytest.mark.parametrize("seed, why", [
        ("minoce  baho", "is not words joined by single spaces"),
        ("minoce\xa0baho", "is not words joined by single spaces"),
    ])
    def test_seed_that_can_never_match_names_file_and_line(self, tmp_path, seed, why):
        # a seed is matched as lowercase words joined by single spaces
        p = tmp_path / "seeds.txt"
        p.write_text(f"[positive]\nflu\n{seed}  # edited\n[negative]\nmutant\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_seeds(p)
        assert str(err.value) == f"{p}, line 3: seed phrase {seed.lower()!r} {why}"

    def test_seed_in_both_classes_names_file(self, tmp_path):
        p = tmp_path / "seeds.txt"
        p.write_text("[positive]\nflu\n[negative]\nflu\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_seeds(p)
        assert str(err.value) == f"{p}: seeds in both classes: ['flu']"

    def test_duplicate_seed_names_file(self, tmp_path):
        p = tmp_path / "seeds.txt"
        p.write_text("[positive]\nflu\nFlu\n[negative]\nmutant\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_seeds(p)
        assert str(err.value) == f"{p}: duplicate seed within a class"

    def test_resolution_reports_missing(self):
        pos, neg, missing = resolve_seeds(SEEDS, {"a": np.zeros(2), "c": np.zeros(2)})
        assert pos == ["a"]
        assert neg == ["c"]
        assert missing == ["b", "d"]


class TestTraining:
    def test_separable_example(self):
        model = train_svm(separable_embeddings(), SEEDS, C=1.0)
        assert model.weights[0] > 0
        for phrase in ("a", "b"):
            assert model.predict(separable_embeddings()[phrase])[0] == "entity"
        for phrase in ("c", "d"):
            assert model.predict(separable_embeddings()[phrase])[0] == "not_entity"

    def test_matches_convex_oracle(self, svm_oracles):
        rng = np.random.default_rng(0)
        for trial in range(3):
            n, d = 12, 4
            w_true = rng.standard_normal(d)
            X = rng.standard_normal((n, d))
            y = np.where(X @ w_true >= 0, 1.0, -1.0)
            X += 0.6 * y[:, None] * w_true / np.linalg.norm(w_true)  # margin
            C = [0.1, 1.0, 10.0][trial]

            emb = {f"p{i}": X[i] for i in range(n)}
            seeds = SeedSet.make(
                [f"p{i}" for i in range(n) if y[i] > 0],
                [f"p{i}" for i in range(n) if y[i] < 0],
            )
            model = train_svm(emb, seeds, C=C)
            ours = svm_objective(model.weights, model.bias, X, y, C)
            for name, optimum in svm_oracles(X, y, C).items():
                assert abs(ours - optimum) <= 1e-4, name

    def test_objective_beats_zero_and_random(self):
        rng = np.random.default_rng(1)
        emb = {f"p{i}": rng.standard_normal(3) for i in range(10)}
        seeds = SeedSet.make([f"p{i}" for i in range(5)], [f"p{i}" for i in range(5, 10)])
        model = train_svm(emb, seeds, C=0.5)
        X = np.vstack([emb[f"p{i}"] for i in range(10)])
        y = np.array([1.0] * 5 + [-1.0] * 5)
        best = svm_objective(model.weights, model.bias, X, y, 0.5)
        assert best <= svm_objective(np.zeros(3), 0.0, X, y, 0.5) + 1e-8
        for _ in range(5):
            w = rng.standard_normal(3)
            assert best <= svm_objective(w, rng.standard_normal(), X, y, 0.5) + 1e-8

    def test_seeds_classified_on_separable_data(self):
        model = train_svm(separable_embeddings(), SEEDS, C=10.0)
        emb = separable_embeddings()
        for p in SEEDS.positives:
            assert model.decision(emb[p]) > 0
        for n in SEEDS.negatives:
            assert model.decision(emb[n]) < 0

    def test_deterministic(self):
        m1 = train_svm(separable_embeddings(), SEEDS, C=1.0)
        m2 = train_svm(separable_embeddings(), SEEDS, C=1.0)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_missing_seed_warns_but_trains(self):
        emb = separable_embeddings()
        seeds = SeedSet.make(["a", "b", "ghost"], ["c", "d"])
        with pytest.warns(UserWarning, match="ghost"):
            model = train_svm(emb, seeds, C=1.0)
        assert model.weights.shape == (2,)

    def test_one_class_fails(self):
        emb = separable_embeddings()
        with pytest.raises(ValueError), pytest.warns(UserWarning, match="seeds without embeddings"):
            train_svm({"a": emb["a"], "b": emb["b"]}, SeedSet.make(["a", "b"], ["c"]), C=1.0)

    def test_dimension_mismatch_fails(self):
        emb = {"a": np.ones(2), "c": np.ones(3)}
        with pytest.raises(ValueError):
            train_svm(emb, SeedSet.make(["a"], ["c"]), C=1.0)

    def test_nonpositive_c_fails(self):
        with pytest.raises(ValueError):
            train_svm(separable_embeddings(), SEEDS, C=0.0)

    @pytest.mark.parametrize("C", [np.inf, np.nan])
    def test_nonfinite_c_fails(self, C):
        with pytest.raises(ValueError, match="finite"):
            train_svm(separable_embeddings(), SEEDS, C=C)


class TestSolverReport:
    def test_converged_fit_reports_its_gap(self):
        model = train_svm(separable_embeddings(), SEEDS, C=1.0, tol=1e-6)
        emb = separable_embeddings()
        X = np.vstack([emb[p] for p in "abcd"])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        primal = svm_objective(model.weights, model.bias, X, y, 1.0)
        assert set(model.solver) == {"epochs", "gap", "converged"}
        assert model.solver["converged"] is True
        assert 1 <= model.solver["epochs"] < 100_000
        assert model.solver["gap"] <= 1e-6 * max(1.0, primal)

    def test_epoch_cap_reports_no_convergence(self):
        emb, seeds = non_separable()
        model = train_svm(emb, seeds, C=1.0, max_epochs=1)
        assert model.solver["converged"] is False
        assert model.solver["epochs"] == 1
        assert 0.0 < model.solver["gap"] < np.inf

    def test_report_is_not_part_of_the_model(self):
        m1 = train_svm(*non_separable(), C=1.0)
        m2 = train_svm(*non_separable(), C=1.0, max_epochs=1)
        assert m1.solver["converged"] is True and m1.solver["epochs"] > 1
        assert m1.solver != m2.solver
        m2.weights, m2.bias = m1.weights, m1.bias
        assert m1 == m2


class TestPredict:
    def test_sign_and_score(self):
        model = SvmModel(weights=np.array([1.0, 0.0]), bias=0.0, C=1.0, dims_used=2)
        label, score = model.predict(np.array([0.3, 9.0]))
        assert label == "entity"
        assert score == pytest.approx(0.3)

    def test_boundary_counts_as_entity(self):
        model = SvmModel(weights=np.array([1.0, 0.0]), bias=0.0, C=1.0, dims_used=2)
        label, score = model.predict(np.array([0.0, 5.0]))
        assert label == "entity"
        assert score == 0.0

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(4)
        model = SvmModel(weights=w, bias=0.25, C=1.0, dims_used=4)
        for _ in range(20):
            x = rng.standard_normal(4)
            assert model.decision(x) == pytest.approx(w @ x + 0.25)

    def test_dimension_check(self):
        model = SvmModel(weights=np.ones(2), bias=0.0, C=1.0, dims_used=2)
        with pytest.raises(ValueError):
            model.decision(np.ones(3))

    def test_nonfinite_model_rejected(self):
        with pytest.raises(ValueError):
            SvmModel(weights=np.array([np.inf]), bias=0.0, C=1.0, dims_used=1)


class TestBuildDictionary:
    def test_ranked_by_margin(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        emb = {"x": np.array([0.5]), "y": np.array([2.0]), "z": np.array([-1.0])}
        d = build_dictionary(["x", "y", "z"], rows(emb, ["x", "y", "z"]), model)
        assert list(d.scores) == ["y", "x"]
        assert d.provenance == "cca"
        assert d.metadata["C"] == "1.0"

    def test_all_negative_warns_empty(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        emb = {"x": np.array([-0.5])}
        with pytest.warns(UserWarning):
            d = build_dictionary(["x"], rows(emb, ["x"]), model)
        assert len(d) == 0

    def test_missing_embedding_fails(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        with pytest.raises(ValueError, match="1 candidates but 0 embedding rows"):
            build_dictionary(["nope"], np.empty((0, 1)), model)

    def test_threshold_monotonicity(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        rng = np.random.default_rng(3)
        emb = {f"p{i}": rng.standard_normal(1) for i in range(50)}
        prev = None
        for t in np.linspace(0.0, 2.0, 9):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                d = build_dictionary(sorted(emb), rows(emb, sorted(emb)), model, threshold=float(t))
            got = set(d.scores)
            if prev is not None:
                assert got <= prev
            prev = got

    def test_threshold_keeps_boundary_score(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        emb = {"edge": np.array([0.5]), "below": np.array([0.499])}
        d = build_dictionary(["edge", "below"], rows(emb, ["edge", "below"]), model, threshold=0.5)
        assert list(d.scores) == ["edge"]
        assert d.metadata["threshold"] == "0.5"

    def test_default_threshold_matches_classifier(self):
        model = SvmModel(weights=np.array([1.0]), bias=-0.2, C=1.0, dims_used=1)
        rng = np.random.default_rng(11)
        emb = {f"p{i}": rng.standard_normal(1) for i in range(30)}
        d = build_dictionary(sorted(emb), rows(emb, sorted(emb)), model)
        accepted = {p for p, v in emb.items() if model.predict(v)[0] == "entity"}
        assert set(d.scores) == accepted

    def test_negative_threshold_rejected(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        with pytest.raises(ValueError):
            build_dictionary([], np.empty((0, 1)), model, threshold=-0.1)


    @pytest.mark.parametrize("layout", ["own", "prefix", "element-strided"])
    @pytest.mark.parametrize("k", [1, 2, 7, 30])
    def test_scores_equal_decision_bit_for_bit(self, layout, k):
        # one product over the candidates' matrix scores each row exactly as
        # ``decision`` scores it.  "prefix" is the pipeline's column prefix
        # ``E[:, :k]`` of a wider embedding matrix (a strided 2-D view).  An
        # element-strided matrix is scored as its contiguous copy, while
        # ``decision`` on a strided row takes BLAS's strided path
        rng = np.random.default_rng(k)
        M = rng.standard_normal((400, 60))
        matrix = {
            "own": M[:, :k].copy(),
            "prefix": M[:, :k],
            "element-strided": M[:, ::2][:, :k],
        }[layout]
        names = [f"p{i:03d}" for i in range(len(M))]
        model = SvmModel(weights=rng.standard_normal(k), bias=0.1, C=1.0, dims_used=k)
        d = build_dictionary(names, matrix, model)
        decisions = {p: model.decision(np.ascontiguousarray(v)) for p, v in zip(names, matrix)}
        expected = sorted(
            ((p, s) for p, s in decisions.items() if s >= 0), key=lambda ps: (-ps[1], ps[0])
        )
        assert list(d.scores.items()) == expected

    @pytest.mark.parametrize("phrase", ["Flu", "a  b"])
    def test_phrase_that_can_never_match_rejected(self, phrase):
        # tokens are lowercased and hold no whitespace, so no text matches it
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        with pytest.raises(ValueError, match=re.escape(repr(phrase))):
            build_dictionary(["flu", phrase], np.array([[1.0], [2.0]]), model)

    def test_embedding_of_the_wrong_dimension_fails(self):
        model = SvmModel(weights=np.array([1.0]), bias=0.0, C=1.0, dims_used=1)
        with pytest.raises(ValueError, match="expected dim 1"):
            build_dictionary(["x"], np.array([[1.0, 2.0]]), model)


def _numpy_scalar_fit(X, y, C, tol, max_epochs):
    """The dual coordinate sweep on NumPy scalars and arrays, as ``_fit``
    ran it before its sweep moved to Python floats: the oracle its result
    must equal bit for bit."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])  # bias column
    q = np.einsum("ij,ij->i", Xa, Xa)  # always >= 1
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    epochs, gap, converged = 0, float("inf"), False
    while epochs < max_epochs and not converged:
        epochs += 1
        for i in range(n):
            g = y[i] * (Xa[i] @ w) - 1.0
            a_new = min(max(alpha[i] - g / q[i], 0.0), C)
            delta = a_new - alpha[i]
            if delta != 0.0:
                w += delta * y[i] * Xa[i]
                alpha[i] = a_new
        margins = y * (Xa @ w)
        primal = 0.5 * (w @ w) + C * np.sum(np.maximum(0.0, 1.0 - margins))
        dual = np.sum(alpha) - 0.5 * (w @ w)
        gap = float(primal - dual)
        converged = bool(gap <= tol * max(1.0, abs(primal)))
    return w[:d], float(w[d]), {"epochs": epochs, "gap": gap, "converged": converged}


@st.composite
def svm_problems(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 25))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-8.0, 8.0, width=64)))
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    C = draw(st.floats(1e-3, 1e3))
    return X, y, C


class TestFitOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=svm_problems(), max_epochs=st.integers(1, 400))
    def test_fit_equals_numpy_scalar_sweep_bit_for_bit(self, problem, max_epochs):
        X, y, C = problem
        w, b, report = _fit(X, y, C, 1e-6, max_epochs)
        w0, b0, report0 = _numpy_scalar_fit(X, y, C, 1e-6, max_epochs)
        assert w.tobytes() == w0.tobytes()
        assert np.float64(b).tobytes() == np.float64(b0).tobytes()
        assert report["epochs"] == report0["epochs"]
        assert report["converged"] is report0["converged"]
        assert repr(report["gap"]) == repr(report0["gap"])

    def test_unconverged_fit_equals_the_oracle(self):
        # an epoch cap that stops the fit short of the gap tolerance
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 25))
        y = np.where(rng.standard_normal(30) > 0, 1.0, -1.0)
        w, b, report = _fit(X, y, 50.0, 1e-12, 2)
        w0, b0, report0 = _numpy_scalar_fit(X, y, 50.0, 1e-12, 2)
        assert report == report0 and report["converged"] is False
        assert w.tobytes() == w0.tobytes() and b == b0


@st.composite
def seed_problems(draw):
    """Seed embeddings with both classes, some rows repeated and some zero,
    and their (X, y) in ``train_svm``'s row order: positives first."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 25))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-8.0, 8.0, width=64)))
    for i in range(n):
        kind = draw(st.sampled_from(["own", "own", "zero", "repeat"]))
        if kind == "zero":
            X[i] = 0.0
        elif kind == "repeat":
            X[i] = X[draw(st.integers(0, n - 1))]
    n_pos = draw(st.integers(1, n - 1))
    y = np.array([1.0] * n_pos + [-1.0] * (n - n_pos))
    names = [f"p{i}" for i in range(n)]
    seeds = SeedSet.make(names[:n_pos], names[n_pos:])
    return dict(zip(names, X)), seeds, X, y


class TestSweepOracle:
    @settings(max_examples=150, deadline=None)
    @given(problem=seed_problems(), C=st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    def test_train_svm_equals_the_unsigned_sweep_bit_for_bit(self, problem, C):
        # an epoch cap keeps the slowest draws short and leaves some fits
        # unconverged, whose report must match too
        embeddings, seeds, X, y = problem
        model = train_svm(embeddings, seeds, C=C, max_epochs=1000)
        w, b, report = dual_cd_fit(X, y, C, 1e-6, 1000)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()
        assert model.solver["epochs"] == report["epochs"]
        assert model.solver["converged"] is report["converged"]
        assert np.float64(model.solver["gap"]).tobytes() == np.float64(report["gap"]).tobytes()


    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 39),
        d=st.integers(1, 24),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 100.0]),
        C=st.sampled_from([0.01, 0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_equals_the_expression_gap_check_bit_for_bit(self, n, d, scale, C, seed):
        # the gap check's one gemv over the signed rows and its in-place
        # hinge reproduce y * (Xa @ w) and NumPy's temporaries to the bit
        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        w, b, report = _fit(X, y, C, 1e-6, 500)
        w0, b0, report0 = signed_sweep_fit(X, y, C, 1e-6, 500)
        assert w.tobytes() == w0.tobytes()
        assert np.float64(b).tobytes() == np.float64(b0).tobytes()
        assert report["epochs"] == report0["epochs"]
        assert report["converged"] is report0["converged"]
        assert np.float64(report["gap"]).tobytes() == np.float64(report0["gap"]).tobytes()


# score ties are common when entries, weights and bias come from few values
_TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])


@st.composite
def rankings(draw):
    n = draw(st.integers(0, 25))
    k = draw(st.integers(1, 6))
    names = draw(
        st.lists(st.text("abc", min_size=1, max_size=4), min_size=n, max_size=n, unique=True)
    )
    M = draw(
        arrays(np.float64, (n, 2 * k + 1), elements=st.one_of(_TIE_VALUES, st.floats(-4.0, 4.0)))
    )
    layout = draw(st.sampled_from(["own", "prefix", "element-strided"]))
    matrix = {
        "own": M[:, :k].copy(),
        "prefix": M[:, :k],
        "element-strided": M[:, ::2][:, :k],
    }[layout]
    weights = draw(arrays(np.float64, (k,), elements=_TIE_VALUES))
    bias = draw(_TIE_VALUES)
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return names, matrix, SvmModel(weights=weights, bias=bias, C=1.0, dims_used=k), threshold


class TestRankingOracle:
    @staticmethod
    def expected(names, matrix, model, threshold):
        # HEAD's ranking: a Python key sort of each candidate's decision
        scores = [model.decision(np.ascontiguousarray(row)) for row in matrix]
        ranked = sorted(zip(names, scores), key=lambda ps: (-ps[1], ps[0]))
        return [(p, repr(s)) for p, s in ranked if s >= threshold]

    @settings(max_examples=200, deadline=None)
    @given(case=rankings())
    def test_ranking_equals_key_sort(self, case):
        names, matrix, model, threshold = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = build_dictionary(names, matrix, model, threshold=threshold)
        got = [(p, repr(s)) for p, s in d.scores.items()]
        assert got == self.expected(names, matrix, model, threshold)

    def test_signed_zero_scores_tie_in_phrase_order(self):
        # signed-zero entries and bias score zero (negated, -0.0, for the
        # descending sort): unsorted candidates with equal scores rank by phrase
        names = ["d", "b", "c", "a"]
        matrix = np.array([[-0.0], [0.0], [1.0], [-0.0]])
        model = SvmModel(weights=np.array([1.0]), bias=-0.0, C=1.0, dims_used=1)
        d = build_dictionary(names, matrix, model)
        assert [(p, repr(s)) for p, s in d.scores.items()] == self.expected(
            names, matrix, model, 0.0
        )
        assert list(d.scores) == ["c", "a", "b", "d"]
