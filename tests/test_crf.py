"""Linear-chain tagger: features, likelihood, training, decoding."""

import math
import random
import re
from dataclasses import replace
from io import StringIO
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from dictforge import crf
from dictforge.crf import (
    LABELS,
    CrfModel,
    CurveVariant,
    FeatureConfig,
    SentinelEmbeddings,
    build_model,
    compile_tagger,
    extract_features,
    learning_curve,
    log_likelihood_and_gradient,
    standard_variants,
    tag_sentences,
    train_crf,
    train_crf_grid,
    viterbi_decode,
    write_curve_tsv,
)
from dictforge.crf import _FLAGS, START, _Chain, _compile, _named_dicts
from dictforge.tagging import Dictionary, evaluate
from oracles import fit_weights, observations

# chain orders, named by prev2: first order, label trigrams, and None for
# no transitions at all (the chain that crf.features = dict builds)
ORDERS = [False, True, None]


def order_config(prev2, extras=False):
    """Config of one chain order; extras adds the dict and emb families
    to the orders that have transitions."""
    if prev2 is None:
        return FeatureConfig(baseline=False, dict_match=True)
    return FeatureConfig(prev2=prev2, dict_match=extras, embedding=extras)


def path_score(model, tokens, labels):
    """Score a full label path through the public feature interface."""
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
    """Partition function recovered from the public likelihood."""
    gold = ["O"] * len(tokens)
    lam = model.regularizer
    ll, _ = log_likelihood_and_gradient(model, [(tokens, gold)])
    ll += lam * float(model.weights @ model.weights)
    return path_score(model, tokens, gold) - ll


def memo_path_scorer(model, tokens):
    """path_score with each (position, history, label) step scored once,
    so enumerating every path of a 7-token sentence stays cheap."""
    steps = {}

    def score(labels):
        total = 0.0
        hist = (START, START) if model.config.prev2 else START
        for i, lab in enumerate(labels):
            if (i, hist, lab) not in steps:
                feats = extract_features(
                    tokens, i, hist, lab, model.config, model.dictionaries, model.embeddings
                )
                steps[i, hist, lab] = model.score_step(feats)
            total += steps[i, hist, lab]
            hist = (hist[1], lab) if model.config.prev2 else lab
        return total

    return score


def randomized(model, rng, scale=0.5):
    w = rng.normal(0.0, scale, size=model.weights.shape)
    return replace(model, weights=w)


class TestExtractFeatures:
    def test_all_families_disabled_is_empty(self):
        cfg = FeatureConfig(**{f: False for f in FeatureConfig.__dataclass_fields__})
        out = extract_features(["flu", "season"], 0, START, "B", cfg)
        assert out == {}

    def test_word_and_window(self):
        cfg = FeatureConfig()
        out = extract_features(["The", "flu", "spread"], 1, "O", "B", cfg)
        assert out["w=flu|y=B"] == 1.0
        assert out["win-1=the|y=B"] == 1.0
        assert out["win+2=⊥|y=B"] == 1.0
        assert out["t|O>B"] == 1.0

    def test_prefix_suffix_bounded_by_length(self):
        cfg = FeatureConfig()
        out = extract_features(["flu"], 0, START, "O", cfg)
        assert "pre3=flu|y=O" in out
        assert "pre4=flu|y=O" not in out

    def test_caps_features(self):
        cfg = FeatureConfig()
        out = extract_features(["Geneva", "says"], 0, START, "B", cfg)
        assert out["caps=initCap|y=B"] == 1.0
        pattern = [k for k in out if k.startswith("wshape=")]
        assert pattern == ["wshape=⊥|⊥|initCap|allLower|⊥|y=B"]

    def test_dictionary_prepass_tag(self):
        cfg = FeatureConfig(dict_match=True)
        d = Dictionary({"hiv": 1.0}, provenance="manual")
        out = extract_features(["contracted", "HIV"], 1, "O", "O", cfg, [d])
        assert out["dict:manual=B|y=O"] == 1.0

    def test_dictionary_multiword_inside_tag(self):
        cfg = FeatureConfig(dict_match=True)
        d = Dictionary({"yellow fever": 1.0}, provenance="manual")
        out = extract_features(["yellow", "fever"], 1, "B", "I", cfg, [d])
        assert out["dict:manual=I|y=I"] == 1.0

    def test_embedding_sentinels(self):
        table = SentinelEmbeddings(
            {"human immunodeficiency": np.array([0.5, -0.25])}
        )
        assert table.x == 0.5
        cfg = FeatureConfig(embedding=True)
        tokens = ["the", "virus", "called", "human", "immunodeficiency", "spreads"]
        at = lambda i, lab: extract_features(
            tokens, i, "O", lab, cfg, (), table
        )
        first = at(3, "B")
        assert first["emb0|y=B"] == 0.5
        assert first["emb1|y=B"] == -0.25
        inside = at(4, "I")
        assert inside["emb0|y=I"] == 1.0
        assert inside["emb1|y=I"] == 1.0
        outside = at(0, "O")
        assert outside["emb0|y=O"] == 2.0
        assert outside["emb1|y=O"] == 2.0

    def test_sentinel_uses_absolute_maximum(self):
        table = SentinelEmbeddings({"a": np.array([-3.0, 1.0])})
        assert table.x == 3.0

    def test_empty_embedding_table_rejected(self):
        with pytest.raises(ValueError):
            SentinelEmbeddings({})

    @pytest.mark.parametrize("phrase", ["", " ", "Flu", "yellow Fever"])
    def test_empty_or_cased_phrase_rejected(self, phrase):
        # tokens are lowercased before lookup, so such a row never matches
        with pytest.raises(ValueError, match=re.escape(repr(phrase))):
            SentinelEmbeddings({"flu": np.array([1.0]), phrase: np.array([2.0])})

    def test_prev2_trigram_from_second_position(self):
        cfg = FeatureConfig(prev2=True)
        first = extract_features(["a", "b"], 0, (START, START), "B", cfg)
        assert f"t|{START}>B" in first
        assert not any(k.startswith("t2|") for k in first)
        second = extract_features(["a", "b"], 1, (START, "B"), "I", cfg)
        assert f"t2|{START}>B>I" in second
        assert "t|B>I" in second

    def test_position_bounds(self):
        with pytest.raises(IndexError):
            extract_features(["a"], 1, START, "B", FeatureConfig())

    def test_flag_parsing(self):
        cfg = FeatureConfig.from_flags("baseline,dict,emb")
        assert cfg == FeatureConfig(dict_match=True, embedding=True)
        assert FeatureConfig.from_flags(" dict, ,") == FeatureConfig(baseline=False, dict_match=True)
        with pytest.raises(ValueError):
            FeatureConfig.from_flags("baseline,turbo")
        # a list without flags would train a model with no features
        for flags in ("", " , "):
            with pytest.raises(ValueError, match="no feature flag"):
                FeatureConfig.from_flags(flags)
        # without baseline's label bigrams a prev2 chain has no transitions
        for flags in ("prev2", "dict,prev2"):
            with pytest.raises(ValueError, match="'prev2' needs 'baseline'"):
                FeatureConfig.from_flags(flags)
            assert FeatureConfig.from_flags("baseline," + flags).prev2
        # the rule holds however the config is built, e.g. from a model file
        with pytest.raises(ValueError, match="'prev2' needs 'baseline'"):
            FeatureConfig(baseline=False, prev2=True)

    def test_readme_lists_every_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        row = re.search(r"^\| `crf\.features` \|.*\|$", readme, flags=re.M).group()
        listed = re.findall(r"`(\w+)`", row.rsplit("|", 2)[1])
        assert listed == list(_FLAGS)


FIXTURE = [
    (["The", "flu", "spread", "fast"], ["O", "B", "O", "O"]),
    (["Ebola", "and", "yellow", "fever", "hit"], ["B", "O", "B", "I", "O"]),
    (["nothing", "happened"], ["O", "O"]),
]


class TestLikelihood:
    def test_uniform_single_token(self):
        model = build_model([(["a"], ["O"])], regularizer=0.0)
        ll, _ = log_likelihood_and_gradient(model, [(["a"], ["O"])])
        assert ll == pytest.approx(-math.log(3), abs=1e-12)

    def test_additive_over_duplicated_sentences(self):
        model = build_model(FIXTURE, regularizer=0.0)
        model = randomized(model, np.random.default_rng(3))
        one, _ = log_likelihood_and_gradient(model, [FIXTURE[0]])
        two, _ = log_likelihood_and_gradient(model, [FIXTURE[0], FIXTURE[0]])
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_malformed_gold_rejected(self):
        model = build_model(FIXTURE)
        with pytest.raises(ValueError):
            log_likelihood_and_gradient(model, [(["a", "b"], ["O", "I"])])

    @pytest.mark.parametrize(
        "config,lam",
        [
            (FeatureConfig(), 0.5),
            (FeatureConfig(prev2=True, dict_match=True, embedding=True), 0.1),
            (FeatureConfig(baseline=False, dict_match=True), 0.0),
        ],
    )
    def test_gradient_matches_central_differences(self, config, lam):
        dicts = [Dictionary({"flu": 1.0, "yellow fever": 0.5}, provenance="manual")]
        emb = SentinelEmbeddings({"flu": np.array([0.3, -0.2]), "ebola": np.array([0.1, 0.4])})
        model = build_model(
            FIXTURE,
            config,
            dictionaries=dicts if config.dict_match else (),
            embeddings=emb if config.embedding else None,
            regularizer=lam,
        )
        model = randomized(model, np.random.default_rng(11))
        _, grad = log_likelihood_and_gradient(model, FIXTURE)
        h = 1e-5
        fd = np.empty_like(grad)
        for j in range(grad.size):
            shift = np.zeros_like(grad)
            shift[j] = h
            up, _ = log_likelihood_and_gradient(
                replace(model, weights=model.weights + shift), FIXTURE
            )
            dn, _ = log_likelihood_and_gradient(
                replace(model, weights=model.weights - shift), FIXTURE
            )
            fd[j] = (up - dn) / (2 * h)
        rel = np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad)))
        assert rel <= 1e-4

    @pytest.mark.parametrize("prev2", [False, True])
    def test_distribution_normalizes_by_enumeration(self, prev2):
        tokens = ["Ebola", "hit", "two", "towns", "hard"][: 5 if not prev2 else 4]
        model = build_model(
            [(tokens, ["O"] * len(tokens))],
            FeatureConfig(prev2=prev2),
            regularizer=0.7,
        )
        model = randomized(model, np.random.default_rng(5))
        log_z = model_log_z(model, tokens)
        scores = [
            path_score(model, tokens, labs)
            for labs in product(LABELS, repeat=len(tokens))
        ]
        assert logsumexp(scores) == pytest.approx(log_z, abs=1e-10)
        total = sum(math.exp(s - log_z) for s in scores)
        assert total == pytest.approx(1.0, abs=1e-10)


def trigger_corpus(n, rng, entities):
    """Sentences where an entity phrase always follows the word
    "pathogen"; everything else is filler."""
    fillers = [
        "the", "clinic", "reported", "cases", "today", "officials",
        "said", "teams", "arrived", "quickly", "samples", "were", "sent",
    ]
    sentences = []
    for _ in range(n):
        toks = [rng.choice(fillers) for _ in range(rng.randint(3, 6))]
        tags = ["O"] * len(toks)
        if rng.random() < 0.8:
            ent = [w.capitalize() for w in rng.choice(entities).split(" ")]
            pos = rng.randrange(len(toks) + 1)
            toks[pos:pos] = ["pathogen"] + ent
            tags[pos:pos] = ["O", "B"] + ["I"] * (len(ent) - 1)
        sentences.append((toks, tags))
    return sentences


TRAIN_ENTITIES = ["ebola", "zika", "lassa", "rift valley", "nipah"]
TEST_ENTITIES = ["marburg", "hendra", "yellow fever", "mpox"]


def oracle_matrix(model, sentences):
    """X built row by row from the observations oracle, the specification
    that _compile reproduces entry for entry."""
    cols, vals, indptr = [], [], [0]
    for tokens in sentences:
        for feats in observations(tokens, model.config, model.dictionaries, model.embeddings):
            for name, v in feats.items():
                if name in model.obs_index:
                    cols.append(model.obs_index[name])
                    vals.append(v)
            indptr.append(len(cols))
    return sp.csr_matrix(
        (np.array(vals, dtype=float), np.array(cols, dtype=np.int64), np.array(indptr)),
        shape=(len(indptr) - 1, len(model.obs_names)),
    )


# one word in several casings, all-caps, mixed, non-alpha and one-letter
# tokens; UNSEEN never occur in training sentences, and among them "İ"
# lowercases to two characters and "⊥" is the BOUNDARY word itself
SEEN = ["flu", "Flu", "FLU", "fLu", "yellow", "fever", "Yellow", "a", "A", "42", "-", "hit"]
UNSEEN = ["FEVER", "e.g", "x1", "Ebola", "İstanbul", "⊥"]
# two dictionaries share a provenance, and a third takes the name the
# second is given; phrases are multiword and nested
COMPILE_DICTS = [
    Dictionary({"yellow fever": 1.0, "fever": 0.5, "flu": 0.2}, provenance="manual"),
    Dictionary({"yellow": 1.0, "a": 0.5, "flu hit": 0.2}, provenance="manual"),
    ("manual#2", Dictionary({"fever": 1.0, "42": 0.5}, provenance="manual")),
]
COMPILE_EMB = SentinelEmbeddings(
    {
        "flu": np.array([-0.5, 0.25]),
        "yellow fever": np.array([0.3, -0.75]),
        "fever": np.array([0.125, 0.0]),
        "a": np.array([0.0, -1.5]),
    }
)


def sentences_of(words):
    return st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=6), min_size=1, max_size=5)


def observation_names(sentences, config, dictionaries, embeddings):
    """Every name the observations oracle gives the sentences, in
    first-seen order: the index build_model must freeze."""
    named = _named_dicts(dictionaries)
    obs_index = {}
    for tokens, _ in sentences:
        for feats in observations(tokens, config, named, embeddings):
            for name in feats:
                if name not in obs_index:
                    obs_index[name] = len(obs_index)
    return list(obs_index)


class TestCompile:
    """The per-type assembly of X against the observations oracle."""

    def test_duplicate_names_get_distinct_suffixes(self):
        names = [name for name, _ in _named_dicts(COMPILE_DICTS)]
        assert names == ["manual", "manual#2", "manual#2#2"]

    @settings(max_examples=80, deadline=None)
    @given(
        baseline=st.booleans(),
        prev2=st.booleans(),
        dict_match=st.booleans(),
        embedding=st.booleans(),
        train=sentences_of(SEEN),
        test=sentences_of(SEEN + UNSEEN),
    )
    def test_matches_observations(self, baseline, prev2, dict_match, embedding, train, test):
        config = FeatureConfig(baseline, prev2 and baseline, dict_match, embedding)
        model = build_model(
            [(tokens, ["O"] * len(tokens)) for tokens in train],
            config,
            dictionaries=COMPILE_DICTS,
            embeddings=COMPILE_EMB,
        )
        X = _compile(model, _Chain(model), [(tokens, None) for tokens in test], False).X
        oracle = oracle_matrix(model, test)
        assert X.shape == oracle.shape
        for got, want in [(X.indptr, oracle.indptr), (X.indices, oracle.indices), (X.data, oracle.data)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        baseline=st.booleans(),
        prev2=st.booleans(),
        dict_match=st.booleans(),
        embedding=st.booleans(),
        train=sentences_of(SEEN + UNSEEN),
    )
    def test_index_in_observations_first_seen_order(
        self, baseline, prev2, dict_match, embedding, train
    ):
        config = FeatureConfig(baseline, prev2 and baseline, dict_match, embedding)
        sentences = [(tokens, ["O"] * len(tokens)) for tokens in train]
        model = build_model(sentences, config, dictionaries=COMPILE_DICTS, embeddings=COMPILE_EMB)
        assert model.obs_names == observation_names(sentences, config, COMPILE_DICTS, COMPILE_EMB)

    def test_embedding_rows_past_int8(self):
        # 300 phrases: a token's role indexes rows beyond any small dtype
        words = [f"w{i}" for i in range(300)]
        table = {w: np.array([i / 300.0, -1.0]) for i, w in enumerate(words)}
        table["w298 w299"] = np.array([0.5, 0.5])
        model = build_model(
            [(["w0", "x"], ["B", "O"])],
            FeatureConfig(embedding=True),
            embeddings=SentinelEmbeddings(table),
        )
        test = [["w299", "x", "W298", "w299"], ["w150"]]
        X = _compile(model, _Chain(model), [(tokens, None) for tokens in test], False).X
        oracle = oracle_matrix(model, test)
        assert X.data.tobytes() == oracle.data.tobytes()
        assert X.indices.tobytes() == oracle.indices.tobytes()

    def test_fit_from_oracle_matrix_is_bit_identical(self, monkeypatch):
        model = build_model(
            FIXTURE,
            FeatureConfig(dict_match=True, embedding=True),
            dictionaries=COMPILE_DICTS,
            embeddings=COMPILE_EMB,
            regularizer=0.1,
        )
        fast = fit_weights(model, FIXTURE)

        def with_oracle_matrix(model, chain, sentences, with_gold):
            comp = _compile(model, chain, sentences, with_gold)
            return replace(comp, X=oracle_matrix(model, [tokens for tokens, _ in sentences]))

        monkeypatch.setattr(crf, "_compile", with_oracle_matrix)
        slow = fit_weights(model, FIXTURE)
        assert fast.weights.tobytes() == slow.weights.tobytes()
        assert fast.solver == slow.solver


def oracle_features(tokens, position, prev_label, label, config, dictionaries, embeddings):
    """The features of one step read from the observations oracle, plus
    the label bigram and trigram indicators."""
    obs = observations(tokens, config, _named_dicts(dictionaries), embeddings)
    out = {f"{name}|y={label}": v for name, v in obs[position].items()}
    if config.baseline:
        if config.prev2:
            two_back, prev_label = prev_label
            if position >= 1:
                out[f"t2|{two_back}>{prev_label}>{label}"] = 1.0
        out[f"t|{prev_label}>{label}"] = 1.0
    return out


def assert_features_equal_oracle(tokens, config, dictionaries, embeddings, history=(START, START)):
    """extract_features equals the oracle at every position and label: the
    same names in the same order, and bit-identical values."""
    prev = history if config.prev2 else history[1]
    for position, label in product(range(len(tokens)), LABELS):
        args = (tokens, position, prev, label, config, dictionaries, embeddings)
        got, want = extract_features(*args), oracle_features(*args)
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


# every FeatureConfig: prev2 needs baseline
ALL_CONFIGS = [
    FeatureConfig(baseline, prev2, dict_match, embedding)
    for baseline, prev2, dict_match, embedding in product((False, True), repeat=4)
    if baseline or not prev2
]


class TestExtractFeaturesOracle:
    """extract_features, read from one featurizer pass over the sentence,
    against the observations oracle."""

    @pytest.mark.parametrize("config", ALL_CONFIGS)
    @settings(max_examples=25, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(SEEN + UNSEEN), min_size=1, max_size=7),
        history=st.tuples(*[st.sampled_from((START,) + LABELS)] * 2),
    )
    def test_equals_oracle_at_every_position_and_label(self, config, tokens, history):
        assert_features_equal_oracle(tokens, config, COMPILE_DICTS, COMPILE_EMB, history)

    def test_no_stale_row_is_served(self):
        # the last sentence's rows are kept: each call below changes one
        # part of the key that the one before it featurized
        a, b = ["Yellow", "fever", "hit", "flu"], ["a", "FLU", "42"]
        config = FeatureConfig(dict_match=True, embedding=True)
        # a different dictionary under the first one's name, "manual"
        other_dicts = [Dictionary({"flu": 1.0, "hit": 0.5}, provenance="manual"), *COMPILE_DICTS[1:]]
        # the same phrases with other vectors
        other_emb = SentinelEmbeddings({p: -2.0 * v for p, v in zip(COMPILE_EMB.phrases, COMPILE_EMB.matrix)})
        calls = [
            (a, config, COMPILE_DICTS, COMPILE_EMB),
            (b, config, COMPILE_DICTS, COMPILE_EMB),
            (a, config, COMPILE_DICTS, COMPILE_EMB),
            (a, FeatureConfig(prev2=True, dict_match=True), COMPILE_DICTS, COMPILE_EMB),
            (a, config, COMPILE_DICTS, COMPILE_EMB),
            (a, config, other_dicts, COMPILE_EMB),
            (a, config, other_dicts, other_emb),
            (a, config, COMPILE_DICTS, COMPILE_EMB),
        ]
        for tokens, cfg, dictionaries, embeddings in calls:
            assert_features_equal_oracle(tokens, cfg, dictionaries, embeddings)
        # a token list edited in place is another sentence
        tokens = ["flu", "fever", "hit"]
        assert_features_equal_oracle(tokens, config, COMPILE_DICTS, COMPILE_EMB)
        tokens[1] = "FEVER"
        assert_features_equal_oracle(tokens, config, COMPILE_DICTS, COMPILE_EMB)

    def test_one_featurizer_pass_per_sentence(self, monkeypatch):
        passes = []
        real = crf._columns
        monkeypatch.setattr(crf, "_columns", lambda *a: passes.append(1) or real(*a))
        config = FeatureConfig(prev2=True, dict_match=True, embedding=True)
        for tokens in (["flu", "hit", "a"], ["Yellow", "fever"]):
            for position, label in product(range(len(tokens)), LABELS):
                extract_features(
                    tokens, position, (START, "O"), label, config, COMPILE_DICTS, COMPILE_EMB
                )
        assert len(passes) == 2


class TestTraining:
    def test_memorizes_single_sentence(self):
        sent = (["The", "flu", "spread"], ["O", "B", "O"])
        model = train_crf([sent], regularizer=1e-4)
        assert viterbi_decode(model, sent[0]) == sent[1]

    def test_huge_regularizer_kills_weights(self):
        model = train_crf(FIXTURE, regularizer=1e6)
        assert np.linalg.norm(model.weights) <= 1e-3

    def test_generalizes_to_unseen_entities(self):
        rng = random.Random(13)
        train = trigger_corpus(120, rng, TRAIN_ENTITIES)
        test = trigger_corpus(40, rng, TEST_ENTITIES)
        model = train_crf(train, regularizer=0.01)
        predicted = tag_sentences(model, (t for t, _ in test))
        report = evaluate(predicted, [tags for _, tags in test])
        assert report.f1 >= 0.95

    def test_deterministic(self):
        a = train_crf(FIXTURE, regularizer=0.1)
        b = train_crf(FIXTURE, regularizer=0.1)
        assert np.array_equal(a.weights, b.weights)

    def test_objective_invariant_to_initialization(self):
        model = build_model(FIXTURE, regularizer=0.5)
        rng = np.random.default_rng(21)
        finals = []
        for _ in range(2):
            init = rng.normal(0.0, 1.0, size=model.weights.shape)
            fitted = fit_weights(model, FIXTURE, init=init)
            ll, _ = log_likelihood_and_gradient(fitted, FIXTURE)
            finals.append(ll)
        assert finals[0] == pytest.approx(finals[1], abs=1e-6)

    def test_grid_equals_train_crf_at_each_lambda(self, monkeypatch):
        config = FeatureConfig(dict_match=True, embedding=True)
        extras = dict(dictionaries=COMPILE_DICTS, embeddings=COMPILE_EMB)
        # one featurizer pass over the training set builds the index and X
        passes = []
        real = crf._columns
        monkeypatch.setattr(crf, "_columns", lambda *a: passes.append(1) or real(*a))
        lambdas = [0.01, 0.1, 1.0]
        grid = list(train_crf_grid(FIXTURE, config, lambdas, max_iters=60, **extras))
        assert len(passes) == 1
        for lam, model in zip(lambdas, grid, strict=True):
            one = train_crf(FIXTURE, config, regularizer=lam, max_iters=60, **extras)
            # X compiled through the frozen index fits the same weights
            refit = fit_weights(
                build_model(FIXTURE, config, regularizer=lam, **extras), FIXTURE, max_iters=60
            )
            assert model.regularizer == lam
            for other in (one, refit):
                assert model.weights.tobytes() == other.weights.tobytes()
                assert model.solver == other.solver
                assert model.obs_names == other.obs_names

    def test_one_compile_decodes_every_fit_of_a_grid(self):
        extras = dict(dictionaries=COMPILE_DICTS, embeddings=COMPILE_EMB)
        config = FeatureConfig(prev2=True, dict_match=True, embedding=True)
        grid = list(train_crf_grid(FIXTURE, config, [1e-3, 10.0], max_iters=60, **extras))
        texts = [tokens for tokens, _ in FIXTURE] + [[], ["yellow", "fever", "hit", "Ebola"]]
        decode = compile_tagger(grid[0], texts)
        decoded = [decode(model.weights) for model in grid]
        assert decoded == [tag_sentences(model, texts) for model in grid]
        assert decoded[0] != decoded[1]

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_crf([])

    def test_unindexed_features_ignored_at_inference(self):
        model = train_crf(FIXTURE, regularizer=0.1)
        tags = viterbi_decode(model, ["completely", "novel", "words"])
        assert len(tags) == 3


class TestViterbi:
    def test_strong_emission_wins(self):
        model = build_model(FIXTURE)
        w = model.weights.copy()
        w[model.feature_id("w=flu|y=B")] = 5.0
        model = replace(model, weights=w)
        assert viterbi_decode(model, ["The", "flu", "spread", "fast"])[1] == "B"

    def test_zero_weights_tie_breaks_to_b(self):
        model = build_model(FIXTURE)
        assert viterbi_decode(model, ["a", "b", "c"]) == ["B", "B", "B"]

    def test_zero_weights_tie_breaks_to_b_composite(self):
        model = build_model(FIXTURE, FeatureConfig(prev2=True))
        assert viterbi_decode(model, ["a", "b", "c"]) == ["B", "B", "B"]

    def test_partial_tie_prefers_late_positions_first(self):
        model = build_model([(["x", "a"], ["O", "O"])])
        w = model.weights.copy()
        w[model.feature_id("w=a|y=O")] = 1.0
        model = replace(model, weights=w)
        assert viterbi_decode(model, ["x", "a"]) == ["B", "O"]

    def test_empty_sentence(self):
        model = build_model(FIXTURE)
        assert viterbi_decode(model, []) == []

    @pytest.mark.parametrize("prev2", ORDERS)
    def test_matches_enumeration_oracle(self, prev2):
        rng = np.random.default_rng(17 if prev2 else 7)
        pool = ["flu", "hit", "the", "coast", "Ebola", "teams", "ran"]
        sentences = []
        pick = np.random.default_rng(2)
        for _ in range(8):
            k = int(pick.integers(1, 7))
            sentences.append([pool[int(j)] for j in pick.integers(0, len(pool), k)])
        model = build_model(
            [(s, ["O"] * len(s)) for s in sentences],
            order_config(prev2),
            dictionaries=[Dictionary({"flu": 1.0, "the coast": 0.5}, provenance="manual")],
            regularizer=0.0,
        )
        model = randomized(model, rng)
        for tokens in sentences:
            best = min(
                product(LABELS, repeat=len(tokens)),
                key=lambda labs: (
                    -path_score(model, tokens, labs),
                    tuple(LABELS.index(l) for l in reversed(labs)),
                ),
            )
            assert viterbi_decode(model, tokens) == list(best)


class TestBatching:
    """Batched likelihood and decoding against one-sentence calls, which
    exposes padding, masking and re-ordering between sentences."""

    LENGTHS = (3, 1, 7, 2, 5, 1, 6, 4, 7, 2)

    def mixed_model(self, prev2):
        rng = np.random.default_rng(41 if prev2 else 43)
        pool = ["flu", "hit", "the", "coast", "Ebola", "yellow", "fever", "ran"]
        sentences = []
        for n in self.LENGTHS:
            tokens = [pool[int(j)] for j in rng.integers(0, len(pool), n)]
            tags, prev = [], "O"
            for _ in range(n):
                prev = str(rng.choice(["B", "O"] if prev == "O" else list(LABELS)))
                tags.append(prev)
            sentences.append((tokens, tags))
        model = build_model(
            sentences,
            order_config(prev2, extras=True),
            dictionaries=[Dictionary({"flu": 1.0, "yellow fever": 0.5}, provenance="manual")],
            embeddings=SentinelEmbeddings(
                {"flu": np.array([0.3, -0.2]), "ebola": np.array([0.1, 0.4])}
            ),
            regularizer=0.0,
        )
        return randomized(model, rng), sentences

    @pytest.mark.parametrize("prev2", ORDERS)
    def test_likelihood_is_sum_of_single_sentences(self, prev2):
        model, sentences = self.mixed_model(prev2)
        ll, grad = log_likelihood_and_gradient(model, sentences)
        singles = [log_likelihood_and_gradient(model, [s]) for s in sentences]
        ll_sum = sum(v for v, _ in singles)
        grad_sum = np.sum([g for _, g in singles], axis=0)
        assert abs(ll - ll_sum) <= 1e-12 * abs(ll_sum)
        assert np.max(np.abs(grad - grad_sum)) <= 1e-12 * np.max(np.abs(grad_sum))

    @pytest.mark.parametrize("prev2", [False, True])
    def test_batch_decode_matches_enumerated_singles(self, prev2):
        model, sentences = self.mixed_model(prev2)
        batch = [tokens for tokens, _ in sentences]
        np.random.default_rng(5).shuffle(batch)
        batch.insert(4, [])
        singles = [viterbi_decode(model, tokens) for tokens in batch]
        assert tag_sentences(model, batch) == singles
        for tokens, tags in zip(batch, singles):
            score = memo_path_scorer(model, tokens)
            best = min(
                product(LABELS, repeat=len(tokens)),
                key=lambda labs: (
                    -score(labs),
                    tuple(LABELS.index(l) for l in reversed(labs)),
                ),
            )
            assert tags == list(best)

    def test_prev2_chain_raises_no_floating_point_error(self):
        # the composite chain has -inf start and transition entries; the
        # recursions must mask them rather than produce or hide nan
        model, sentences = self.mixed_model(prev2=True)
        with np.errstate(all="raise"):
            ll, grad = log_likelihood_and_gradient(model, sentences)
            tags = tag_sentences(model, [tokens for tokens, _ in sentences])
        assert np.isfinite(ll) and np.all(np.isfinite(grad))
        assert [len(t) for t in tags] == list(self.LENGTHS)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        d = Dictionary({"flu": 1.0}, provenance="manual")
        emb = SentinelEmbeddings({"flu": np.array([0.2, -0.1])})
        model = train_crf(
            FIXTURE,
            FeatureConfig(dict_match=True, embedding=True),
            dictionaries=[d],
            embeddings=emb,
            regularizer=0.1,
        )
        path = tmp_path / "crf.model.npz"
        model.save(path)
        loaded = CrfModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.config == model.config
        assert loaded.embeddings.x == emb.x
        tokens = ["The", "flu", "spread"]
        assert viterbi_decode(loaded, tokens) == viterbi_decode(model, tokens)

    def test_solver_status_kept_in_memory_only(self, tmp_path):
        model = fit_weights(build_model(FIXTURE, regularizer=0.1), FIXTURE, max_iters=1)
        assert model.solver["converged"] is False
        assert model.solver["nit"] == 1
        path = tmp_path / "capped.model.npz"
        model.save(path)
        assert CrfModel.load(path).solver is None

    def test_roundtrip_without_extras(self, tmp_path):
        model = train_crf(FIXTURE, regularizer=0.1)
        path = tmp_path / "lean.model.npz"
        model.save(path)
        loaded = CrfModel.load(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.embeddings is None

    @staticmethod
    def rewritten(path, drop=(), **arrays):
        """The model file at path with the arrays ``drop`` left out and
        ``arrays`` replaced, written next to it."""
        with np.load(path, allow_pickle=False) as data:
            kept = {key: data[key] for key in data.files if key not in drop}
        out = path.with_name("edited.npz")
        with open(out, "wb") as fh:
            np.savez_compressed(fh, **{**kept, **arrays})
        return out

    @pytest.mark.parametrize("missing", ["meta", "weights", "emb_matrix"])
    def test_missing_array_names_the_file(self, tmp_path, missing):
        emb = SentinelEmbeddings({"flu": np.array([0.2, -0.1])})
        model = train_crf(FIXTURE, FeatureConfig(embedding=True), embeddings=emb, regularizer=0.1)
        model.save(tmp_path / "crf.model.npz")
        path = self.rewritten(tmp_path / "crf.model.npz", drop=(missing,))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing array\\(s\\) {missing}$"):
            CrfModel.load(path)

    def test_weights_disagreeing_with_the_index_name_the_file(self, tmp_path):
        model = train_crf(FIXTURE, regularizer=0.1)
        model.save(tmp_path / "crf.model.npz")
        path = self.rewritten(tmp_path / "crf.model.npz", weights=model.weights[:-1])
        want = f"weight vector has ({model.weights.size - 1},), expected ({model.weights.size},)"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(want)}$"):
            CrfModel.load(path)


class TestLearningCurve:
    def oracle_dictionary(self):
        phrases = {p: 1.0 for p in TRAIN_ENTITIES + TEST_ENTITIES}
        return Dictionary(phrases, provenance="manual")

    def test_monotone_within_noise_band(self):
        rng = random.Random(29)
        train = trigger_corpus(100, rng, TRAIN_ENTITIES)
        test = trigger_corpus(30, rng, TEST_ENTITIES)
        rows = learning_curve(
            train, test, [10, 100], [CurveVariant("baseline", FeatureConfig())],
            regularizer=0.01,
        )
        by_size = {r["size"]: r["f1"] for r in rows}
        assert by_size[100] >= by_size[10] - 0.02

    def test_oracle_dictionary_lifts_every_size(self):
        rng = random.Random(31)
        train = trigger_corpus(60, rng, TRAIN_ENTITIES)
        test = trigger_corpus(30, rng, TEST_ENTITIES)
        variants = [
            CurveVariant("baseline", FeatureConfig()),
            CurveVariant(
                "dict-manual",
                FeatureConfig(dict_match=True),
                (("manual", self.oracle_dictionary()),),
            ),
        ]
        rows = learning_curve(train, test, [10, 50], variants, regularizer=0.01)
        f1 = {(r["size"], r["variant"]): r["f1"] for r in rows}
        for size in (10, 50):
            assert f1[(size, "dict-manual")] >= f1[(size, "baseline")]

    def test_standard_variant_names(self):
        emb = SentinelEmbeddings({"flu": np.array([0.1])})
        variants = standard_variants(
            FeatureConfig(),
            [self.oracle_dictionary()],
            word_embeddings=emb,
            phrase_embeddings=emb,
        )
        assert [v.name for v in variants] == [
            "baseline",
            "dict-manual",
            "cca-word",
            "cca-phrase",
        ]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            learning_curve(FIXTURE, FIXTURE, [2, 1], [CurveVariant("b", FeatureConfig())])
        with pytest.raises(ValueError):
            learning_curve(FIXTURE, FIXTURE, [99], [CurveVariant("b", FeatureConfig())])
        # a negative size would slice from the end of the training set
        for sizes in ([-20, 2], [0, 1]):
            with pytest.raises(ValueError, match=f"size {sizes[0]} is below 1"):
                learning_curve(FIXTURE, FIXTURE, sizes, [CurveVariant("b", FeatureConfig())])

    def test_tsv_output(self):
        rows = [
            {"size": 10, "variant": "baseline", "tp": 1, "fp": 2, "fn": 3,
             "precision": 1 / 3, "recall": 0.25, "f1": 2 / 7},
        ]
        out = StringIO()
        write_curve_tsv(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("size\tvariant")
        assert lines[1].split("\t")[:2] == ["10", "baseline"]
