"""End-to-end gate: one test per shipping criterion, each with its stated
tolerance and time budget, reported as a single pass/fail line."""

import math
import os
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.special import logsumexp

from dictforge.cca import (
    accumulate_covariance,
    embed_phrases,
    solve_cca,
)
from dictforge.classifier import (
    SeedSet,
    build_dictionary,
    read_seeds,
    resolve_seeds,
    svm_objective,
    train_svm,
)
from dictforge.corpus import iter_sentences
from dictforge.cotrain import dictionary_from_rules, dl_cotrain
from dictforge.crf import (
    LABELS,
    START,
    FeatureConfig,
    SentinelEmbeddings,
    build_model,
    extract_features,
    learning_curve,
    log_likelihood_and_gradient,
    viterbi_decode,
)
from dictforge.extraction import extract_candidates, load_patterns
from dictforge.linalg import randomized_svd, spectral_norm
from dictforge.synth import SynthSpec, generate
from dictforge.tagging import (
    Dictionary,
    evaluate,
    read_conll,
    tag_with_dictionary,
)
from dictforge.views import build_design_matrices, collect_occurrences, spelling_vector


# --- independent oracles -------------------------------------------------


def gen_eig_correlations(summary, kappa, k):
    """Canonical correlations via the generalized symmetric eigenproblem;
    no whitening square roots, no SVD."""
    k1, k2 = (kappa, kappa) if np.isscalar(kappa) else kappa
    dense = lambda M: np.asarray(M.todense()) if sp.issparse(M) else np.asarray(M)
    cxx, czz, cxz = dense(summary.cxx()), dense(summary.czz()), dense(summary.cxz())
    A = cxz @ np.linalg.solve(czz + k2 * np.eye(summary.d2), cxz.T)
    B = cxx + k1 * np.eye(summary.d1)
    evals = scipy.linalg.eigh(A, B, eigvals_only=True)
    return np.sqrt(np.clip(evals[::-1], 0, None)[:k])


def path_score(model, tokens, labels):
    total = 0.0
    hist = (START, START) if model.config.prev2 else START
    for i, lab in enumerate(labels):
        feats = extract_features(
            tokens, i, hist, lab, model.config, model.dictionaries, model.embeddings
        )
        total += model.score_step(feats)
        hist = (hist[1], lab) if model.config.prev2 else lab
    return total


def model_log_z(model, tokens):
    gold = ["O"] * len(tokens)
    ll, _ = log_likelihood_and_gradient(model, [(tokens, gold)])
    ll += model.regularizer * float(model.weights @ model.weights)
    return path_score(model, tokens, gold) - ll


# --- synthetic benchmark helpers ----------------------------------------


def set_f1(got, want):
    got, want = set(got), set(want)
    tp = len(got & want)
    p = tp / len(got) if got else 0.0
    r = tp / len(want) if want else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def dev_f1(dictionary, dev):
    pred = [tag_with_dictionary(toks, dictionary) for toks, _ in dev]
    return evaluate(pred, [tags for _, tags in dev]).f1


def benchmark_routes(seed, outdir, run_cotrain=False):
    """Generate one benchmark corpus and run both dictionary routes,
    selecting thresholds on the dev split. Returns truth F1 per route."""
    sc = generate(SynthSpec(seed=seed))
    paths = sc.write(outdir)
    sentences = list(iter_sentences(paths["corpus"]))
    patterns = load_patterns(paths["patterns"])
    candidates = extract_candidates(sentences, patterns)
    occurrences = list(collect_occurrences(sentences, candidates))
    views = build_design_matrices(occurrences)
    model = solve_cca(
        accumulate_covariance(views.X, views.Z), k=20, kappa=1e-4, seed=0
    )
    vectors = {
        c.lower: spelling_vector(c.lower, views.spelling_index, views.caps_bit)
        for c in candidates
    }
    embeddings = {e.phrase: e.vector for e in embed_phrases(model, vectors)}
    seeds = read_seeds(paths["seeds"])
    pos, neg, missing = resolve_seeds(seeds, embeddings)
    assert not missing
    svm = train_svm(embeddings, SeedSet.make(pos, neg), C=1.0)
    dev = read_conll(paths["dev"], strict=True)

    best = None
    for thr in np.linspace(0.0, 1.0, 21):
        d = build_dictionary(sorted(embeddings), embeddings, svm, threshold=float(thr))
        f = dev_f1(d, dev)
        if best is None or f > best[0]:
            best = (f, d)
    out = {"sc": sc, "cca": set_f1(best[1].scores, sc.entities)}

    if run_cotrain:
        state = dl_cotrain(occurrences, seeds, m=5, epsilon=0.95)
        best = None
        for theta in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            d = dictionary_from_rules(state, theta)
            f = dev_f1(d, dev)
            if best is None or f > best[0]:
                best = (f, d)
        out["cotrain"] = set_f1(best[1].scores, sc.entities)
    return out


# --- the criteria --------------------------------------------------------


class TestAcceptance:
    def test_criterion_01_cca_matches_generalized_eigenvalue_oracle(self, acceptance):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(25):
            n = int(rng.integers(20, 201))
            d1, d2 = (int(v) for v in rng.integers(2, 13, size=2))
            X = rng.standard_normal((n, d1))
            if trial % 2:
                r = min(d1, d2)
                Z = X[:, :r] @ rng.standard_normal((r, d2))
                Z += 0.3 * rng.standard_normal((n, d2))
            else:
                Z = rng.standard_normal((n, d2))
            summary = accumulate_covariance(X, Z)
            k = min(d1, d2)
            model = solve_cca(summary, k=k, kappa=1e-6, seed=trial)
            oracle = gen_eig_correlations(summary, 1e-6, k)
            worst = max(worst, float(np.max(np.abs(model.singular_values - oracle))))
        elapsed = time.perf_counter() - start
        acceptance(
            1,
            worst <= 1e-6 and elapsed < 10,
            f"25 instances, max |corr - oracle| = {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_02_randomized_svd_rank_k_accuracy(self, acceptance):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for trial in range(20):
            n = int(rng.integers(40, 121))
            d = int(rng.integers(30, 81))
            k = int(rng.integers(3, 9))
            r = min(n, d)
            U, _ = np.linalg.qr(rng.standard_normal((n, r)))
            V, _ = np.linalg.qr(rng.standard_normal((d, r)))
            head = np.linspace(1.0, 0.4, k)
            # tail well below head[-1] / 2 keeps the gap at index k over 2x
            tail = head[-1] * 1e-5 * np.linspace(1.0, 0.1, r - k)
            sigma = np.concatenate([head, tail])
            A = (U * sigma) @ V.T
            Uk, s, Vt = randomized_svd(A, k=k, oversample=10, power_iters=4, seed=trial)
            err = spectral_norm(A - (Uk * s) @ Vt)
            worst = max(worst, err / sigma[0])
        elapsed = time.perf_counter() - start
        acceptance(
            2,
            worst <= 1e-4 and elapsed < 10,
            f"20 instances, max rel spectral error = {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_03_correlation_extremes(self, acceptance):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((2000, 5))
        dup = accumulate_covariance(X, X.copy())
        dup_model = solve_cca(dup, k=5, kappa=1e-8, seed=0)
        dup_oracle = gen_eig_correlations(dup, 1e-8, 5)

        Z = rng.standard_normal((2000, 5))
        ind = accumulate_covariance(X, Z)
        ind_model = solve_cca(ind, k=5, kappa=1e-6, seed=0)
        ind_oracle = gen_eig_correlations(ind, 1e-6, 5)

        top_dup = float(dup_model.singular_values[0])
        top_ind = float(ind_model.singular_values[0])
        ok = (
            top_dup >= 1 - 1e-6
            and top_ind <= 0.15
            and np.max(np.abs(dup_model.singular_values - dup_oracle)) <= 1e-6
            and np.max(np.abs(ind_model.singular_values - ind_oracle)) <= 1e-6
        )
        acceptance(
            3,
            ok,
            f"duplicated top corr = {top_dup:.8f}, independent = {top_ind:.3f}, both oracle-matched",
        )

    def test_criterion_04_crf_numerical_suite(self, acceptance):
        start = time.perf_counter()
        fixture = [
            (["The", "flu", "spread", "fast"], ["O", "B", "O", "O"]),
            (["Ebola", "and", "yellow", "fever", "hit"], ["B", "O", "B", "I", "O"]),
            (["nothing", "happened"], ["O", "O"]),
        ]
        dicts = [Dictionary({"flu": 1.0, "yellow fever": 0.5}, provenance="manual")]
        emb = SentinelEmbeddings(
            {"flu": np.array([0.3, -0.2]), "ebola": np.array([0.1, 0.4])}
        )
        config = FeatureConfig(prev2=True, dict_match=True, embedding=True)
        model = build_model(
            fixture, config, dictionaries=dicts, embeddings=emb, regularizer=0.1
        )
        w = np.random.default_rng(11).normal(0.0, 0.5, size=model.weights.shape)
        model = replace(model, weights=w)
        _, grad = log_likelihood_and_gradient(model, fixture)
        h = 1e-5
        fd = np.empty_like(grad)
        for j in range(grad.size):
            shift = np.zeros_like(grad)
            shift[j] = h
            up, _ = log_likelihood_and_gradient(
                replace(model, weights=model.weights + shift), fixture
            )
            dn, _ = log_likelihood_and_gradient(
                replace(model, weights=model.weights - shift), fixture
            )
            fd[j] = (up - dn) / (2 * h)
        grad_rel = float(np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))))

        viterbi_ok = True
        for prev2 in (False, True):
            pick = np.random.default_rng(2)
            rng = np.random.default_rng(17 if prev2 else 7)
            pool = ["flu", "hit", "the", "coast", "Ebola", "teams", "ran"]
            sentences = [
                [pool[int(j)] for j in pick.integers(0, len(pool), int(pick.integers(1, 7)))]
                for _ in range(8)
            ]
            m = build_model(
                [(s, ["O"] * len(s)) for s in sentences],
                FeatureConfig(prev2=prev2),
                regularizer=0.0,
            )
            m = replace(m, weights=rng.normal(0.0, 0.5, size=m.weights.shape))
            for tokens in sentences:
                best = min(
                    product(LABELS, repeat=len(tokens)),
                    key=lambda labs: (
                        -path_score(m, tokens, labs),
                        tuple(LABELS.index(l) for l in reversed(labs)),
                    ),
                )
                viterbi_ok &= viterbi_decode(m, tokens) == list(best)

        norm_err = 0.0
        for prev2 in (False, True):
            tokens = ["Ebola", "hit", "two", "towns", "hard"]
            m = build_model(
                [(tokens, ["O"] * 5)], FeatureConfig(prev2=prev2), regularizer=0.7
            )
            m = replace(
                m,
                weights=np.random.default_rng(5).normal(0.0, 0.5, size=m.weights.shape),
            )
            log_z = model_log_z(m, tokens)
            scores = [path_score(m, tokens, labs) for labs in product(LABELS, repeat=5)]
            total = sum(math.exp(s - log_z) for s in scores)
            norm_err = max(norm_err, abs(total - 1.0), abs(logsumexp(scores) - log_z))
        elapsed = time.perf_counter() - start
        acceptance(
            4,
            grad_rel <= 1e-4 and viterbi_ok and norm_err <= 1e-10 and elapsed < 30,
            f"grad rel err {grad_rel:.2e}, viterbi==enumeration, |sum p - 1| <= {norm_err:.1e}, {elapsed:.1f}s",
        )

    def test_criterion_05_svm_matches_convex_solver(self, acceptance):
        cp = pytest.importorskip("cvxpy", reason="convex-solver oracle unavailable")
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(10):
            n, d = 12, int(rng.integers(3, 6))
            w_true = rng.standard_normal(d)
            X = rng.standard_normal((n, d))
            y = np.where(X @ w_true >= 0, 1.0, -1.0)
            X += 0.6 * y[:, None] * w_true / np.linalg.norm(w_true)
            C = [0.1, 1.0, 10.0][trial % 3]

            emb = {f"p{i}": X[i] for i in range(n)}
            seeds = SeedSet.make(
                [f"p{i}" for i in range(n) if y[i] > 0],
                [f"p{i}" for i in range(n) if y[i] < 0],
            )
            model = train_svm(emb, seeds, C=C)
            ours = svm_objective(model.weights, model.bias, X, y, C)

            w = cp.Variable(d)
            b = cp.Variable()
            obj = 0.5 * (cp.sum_squares(w) + cp.square(b)) + C * cp.sum(
                cp.pos(1 - cp.multiply(y, X @ w + b))
            )
            problem = cp.Problem(cp.Minimize(obj))
            problem.solve()
            worst = max(worst, abs(ours - problem.value))
        elapsed = time.perf_counter() - start
        acceptance(
            5,
            worst <= 1e-4 and elapsed < 5,
            f"10 separable instances, max |obj - oracle| = {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_06_synthetic_dictionary_recovery(self, acceptance, tmp_path):
        start = time.perf_counter()
        result = benchmark_routes(seed=0, outdir=tmp_path)
        sc = result["sc"]
        elapsed = time.perf_counter() - start
        scale_ok = (
            len(sc.entities) >= 50
            and len(sc.distractors) >= 200
            and len(sc.sentences) == 20000
        )
        acceptance(
            6,
            scale_ok and result["cca"] >= 0.90 and elapsed < 120,
            f"dictionary F1 = {result['cca']:.3f} vs planted truth "
            f"({len(sc.entities)} entities, {len(sc.distractors)} distractors, "
            f"{len(sc.sentences)} sentences), {elapsed:.1f}s",
        )

    def test_criterion_07_cca_beats_cotrain_over_seeds(self, acceptance, tmp_path):
        cca, cotrain = [], []
        for seed in range(5):
            result = benchmark_routes(seed, tmp_path / str(seed), run_cotrain=True)
            cca.append(result["cca"])
            cotrain.append(result["cotrain"])
        mean_cca = float(np.mean(cca))
        mean_cot = float(np.mean(cotrain))
        acceptance(
            7,
            mean_cca >= mean_cot,
            f"mean F1 over 5 seeds: cca {mean_cca:.3f} >= cotrain {mean_cot:.3f}",
        )

    def test_criterion_08_dictionary_feature_lift(self, acceptance, tmp_path):
        sc = generate(SynthSpec(n_sentences=4000, seed=0))
        paths = sc.write(tmp_path)
        train = read_conll(paths["train"], strict=True)
        test = read_conll(paths["test"], strict=True)
        oracle = Dictionary({e: 1.0 for e in sc.entities}, provenance="manual")
        from dictforge.crf import CurveVariant

        variants = [
            CurveVariant("baseline", FeatureConfig()),
            CurveVariant(
                "dict-oracle", FeatureConfig(dict_match=True), dictionaries=(oracle,)
            ),
        ]
        rows = learning_curve(
            train, test, [10, 50, 200], variants, regularizer=0.05, max_iters=200
        )
        by = {(r["size"], r["variant"]): r["f1"] for r in rows}
        pairs = [(by[(s, "dict-oracle")], by[(s, "baseline")]) for s in (10, 50, 200)]
        ok = all(d >= b for d, b in pairs)
        detail = ", ".join(
            f"n={s}: {by[(s, 'dict-oracle')]:.3f} vs {by[(s, 'baseline')]:.3f}"
            for s in (10, 50, 200)
        )
        acceptance(8, ok, f"oracle-dictionary F1 vs baseline at every size ({detail})")

    def test_criterion_09_sentinel_fixture_bit_exact(self, acceptance):
        table = SentinelEmbeddings({"human immunodeficiency": np.array([0.5, -0.25])})
        cfg = FeatureConfig(embedding=True)
        tokens = ["the", "virus", "called", "human", "immunodeficiency", "spreads"]
        feats = lambda i, lab: extract_features(tokens, i, "O", lab, cfg, (), table)
        first = feats(3, "B")
        inside = feats(4, "I")
        outside = feats(0, "O")
        ok = (
            table.x == 0.5
            and first["emb0|y=B"] == 0.5
            and first["emb1|y=B"] == -0.25
            and inside["emb0|y=I"] == 2 * 0.5
            and inside["emb1|y=I"] == 2 * 0.5
            and outside["emb0|y=O"] == 4 * 0.5
            and outside["emb1|y=O"] == 4 * 0.5
        )
        acceptance(
            9,
            ok,
            "first token carries e, continuation 2*x, non-candidate 4*x, bit-exact",
        )

    def test_criterion_10_user_data_pipeline(self, acceptance, tmp_path):
        data_dir = os.environ.get("DICTFORGE_DATA_DIR")
        if not data_dir:
            acceptance(
                10, None, "optional: set DICTFORGE_DATA_DIR to run on user-supplied data"
            )
        root = Path(data_dir)
        from dictforge.pipeline import run_pipeline, validate_config

        lines = [
            "[inputs]",
            f"corpus = {root / 'corpus.txt'}",
            f"patterns = {root / 'patterns.txt'}",
            f"seeds = {root / 'seeds.txt'}",
        ]
        for split in ("train", "dev", "test"):
            if (root / f"{split}.conll").is_file():
                lines.append(f"{split} = {root / f'{split}.conll'}")
        lines += ["[output]", f"dir = {tmp_path / 'out'}"]
        cfg_path = tmp_path / "user.cfg"
        cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = validate_config(cfg_path)
        manifest = run_pipeline(config)
        report = config.outdir / "report.json"
        done = (config.outdir / "dict.cca.tsv").is_file() and (
            config.test is None or report.is_file()
        )
        acceptance(
            10,
            done,
            f"pipeline completed on user data ({len(manifest.stages)} stages recorded)",
        )
