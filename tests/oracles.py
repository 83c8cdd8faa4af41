"""Reference implementations the tests compare the program against, and
per-sentence helpers only tests call.

The program runs each rule below over a whole interned corpus at once; the
versions here state it one sentence at a time, on token strings, so a test
can check the program against an independent reading of the rule.

* :func:`bio_spans` turns one sentence's tags into its entities, the
  specification of the one entity rule ``tagging._entity_spans`` runs over
  a whole split for ``evaluate`` and ``dictionary_scorer``.
* :class:`PhraseSet` and :func:`match_phrase_spans` are the longest-leftmost,
  non-overlapping phrase matcher on token strings, the specification of
  ``PhraseTrie.match``; :func:`string_tags` tags one sentence with it.
* :func:`observations` names each token's label-independent CRF
  observations, the specification of the rows ``crf._columns`` builds.
* :func:`fit_weights` fits a model's weights on sentences compiled here.
* :func:`neg_objective` is the CRF training objective with one NumPy
  expression per forward and backward step, each step's log-sum-exp in a
  helper, the specification ``crf._neg_objective`` must equal bit for bit.
* :func:`extract_between` and :func:`extract_after_trigger` run one
  extraction pattern over one sentence; :func:`span_texts` joins each span's
  lowercase text and :func:`aggregate_candidates` counts the texts with a
  ``Counter``, and :func:`string_candidates` runs both over every pattern:
  the specification of ``extraction.extract_candidates``, which counts id
  rows.
* :class:`DictTrie` is ``PhraseTrie`` built by a Python loop over every
  word of every phrase, one dict edge at a time, the specification of the
  level-by-level build.
* :class:`NumpyDraws` makes ``synth._Draws``'s draws by the ``Generator``'s
  own calls, the specification of what ``synth.generate`` draws.
* :func:`dual_cd_fit` is the SVM's dual coordinate sweep on Python floats,
  with each step's label product, ``min``/``max`` clip and temporary update
  written out, the reference ``classifier._fit`` must equal bit for bit;
  :func:`signed_sweep_fit` is the signed sweep with the gap check's margins
  taken over the unsigned rows, as one NumPy expression.
* :func:`string_scorer` scores a :class:`Dictionary` on a labeled split by
  its phrase strings, :func:`ranked_cut` builds a classifier dictionary by
  a Python sort on (−score, phrase) and a ``takewhile`` cut, and
  :func:`classify_grid` and :func:`theta_grid` build and score a dictionary
  at every grid point: the specification the classify and cotrain grids,
  which score phrase-id masks, must equal.
"""

from __future__ import annotations

import warnings
from collections import Counter
from itertools import takewhile
from typing import Callable, Iterable, Sequence

import numpy as np

from dictforge import crf
from dictforge.classifier import SeedSet, SvmModel, train_svm
from dictforge.corpus import Corpus, PhraseTrie, Sentence, longest_first, word_shape
from dictforge.cotrain import DecisionListState, dictionary_from_rules
from dictforge.crf import CrfModel, FeatureConfig, SentinelEmbeddings
from dictforge.extraction import (
    CandidatePhrase,
    ExtractionPattern,
    _after_trigger,
    _between,
    _flags,
)
from dictforge.tagging import Dictionary, EvalReport
from dictforge.views import BOUNDARY


class PhraseSet(frozenset):
    """Phrases as token tuples, with the longest phrase length and the first
    tokens computed once: matching never rescans the set or tries lengths
    at a position where no phrase starts."""

    max_len: int
    starts: frozenset[str]

    def __new__(cls, phrases: Iterable[Sequence[str]] = ()):
        self = super().__new__(cls, map(tuple, phrases))
        self.max_len = max(map(len, self), default=0)
        self.starts = frozenset(p[0] for p in self if p)
        return self


def match_phrase_spans(
    tokens: Sequence[str], phrases: PhraseSet
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Exact phrase occurrences as (start, end, matched key) triples.

    Longest match wins at each position, scanning left to right, and
    matches never overlap.  Tokens are compared lowercased.
    """
    max_len = phrases.max_len
    if not max_len:
        return []
    starts = phrases.starts
    words = [t.lower() for t in tokens]
    spans: list[tuple[int, int, tuple[str, ...]]] = []
    i = 0
    n = len(words)
    while i < n:
        hit = 0
        if words[i] in starts:
            for length in range(min(max_len, n - i), 0, -1):
                key = tuple(words[i : i + length])
                if key in phrases:
                    spans.append((i, i + length, key))
                    hit = length
                    break
        i += hit if hit else 1
    return spans


def bio_spans(tags: Sequence[str]) -> set[tuple[int, int]]:
    """Entity spans as (start, end) token indices, end exclusive.

    An entity opens at B, or at an I while none is open, and closes at O, at
    B or at the sentence end; any other tag leaves it as it was.  So an
    ill-formed sequence is scored as it stands.
    """
    spans = set()
    start = None
    for i, t in enumerate(tags):
        if t == "B" or (t == "I" and start is None):
            if start is not None:
                spans.add((start, i))
            start = i
        elif t == "O":
            if start is not None:
                spans.add((start, i))
                start = None
    if start is not None:
        spans.add((start, len(tags)))
    return spans


def phrase_set(phrases: Iterable[str]) -> PhraseSet:
    """Lowercase space-joined phrases as a :class:`PhraseSet`."""
    return PhraseSet(p.split(" ") for p in phrases)


def string_tags(tokens: Sequence[str], dictionary: Dictionary) -> list[str]:
    """BIO tags for one sentence by :func:`match_phrase_spans`."""
    tags = ["O"] * len(tokens)
    for start, end, _ in match_phrase_spans(tokens, phrase_set(dictionary.scores)):
        tags[start] = "B"
        for j in range(start + 1, end):
            tags[j] = "I"
    return tags


def observations(
    tokens: Sequence[str],
    config: FeatureConfig,
    dictionaries: tuple[tuple[str, Dictionary], ...],
    embeddings: SentinelEmbeddings | None,
) -> list[dict[str, float]]:
    """Label-independent feature values, one mapping per token, in the
    order the featurizer must give them, so that build_model indexes them
    in first-seen order.  ``dictionaries`` are named as ``crf._named_dicts``
    names them."""
    n = len(tokens)
    rows: list[dict[str, float]] = [{} for _ in range(n)]
    if config.baseline:
        lowers = [t.lower() for t in tokens]
        shapes = [word_shape(t) for t in tokens]
        for i, (low, feats) in enumerate(zip(lowers, rows)):
            feats[f"w={low}"] = 1.0
            feats[f"caps={shapes[i]}"] = 1.0
            for length in range(1, min(4, len(low)) + 1):
                feats[f"pre{length}={low[:length]}"] = 1.0
                feats[f"suf{length}={low[-length:]}"] = 1.0
            for off in (-2, -1, 1, 2):
                j = i + off
                feats[f"win{off:+d}={lowers[j] if 0 <= j < n else BOUNDARY}"] = 1.0
            pattern = "|".join(
                shapes[j] if 0 <= j < n else BOUNDARY for j in range(i - 2, i + 3)
            )
            feats[f"wshape={pattern}"] = 1.0
    if config.dict_match:
        for name, dictionary in dictionaries:
            tags = string_tags(tokens, dictionary)
            for i in range(n):
                rows[i][f"dict:{name}={tags[i]}"] = 1.0
    if config.embedding:
        if embeddings is None:
            raise ValueError("embedding features enabled without a table")
        row = {p: i for i, p in enumerate(embeddings.phrases)}
        starts: dict[int, tuple[str, ...]] = {}
        inside: set[int] = set()
        for s, e, key in match_phrase_spans(tokens, phrase_set(embeddings.phrases)):
            starts[s] = key
            inside.update(range(s + 1, e))
        for i in range(n):
            if i in starts:
                vec = embeddings.matrix[row[" ".join(starts[i])]]
            elif i in inside:
                vec = np.full(embeddings.k, 2.0 * embeddings.x)
            else:
                vec = np.full(embeddings.k, 4.0 * embeddings.x)
            for j, v in enumerate(vec):
                rows[i][f"emb{j}"] = float(v)
    return rows


def fit_weights(
    model: CrfModel,
    sentences: Sequence[tuple[Sequence[str], Sequence[str]]],
    max_iters: int = 500,
) -> CrfModel:
    """Quasi-Newton fit of the model's weights on the sentences, compiled
    through the model's frozen index; returns a new model carrying the
    solver status.  ``crf._compile`` is looked up at each call, so a test
    may replace it."""
    if not sentences:
        raise ValueError("empty training set")
    chain = crf._Chain(model)
    compiled = crf._compile(model, chain, sentences, with_gold=True)
    return crf._fit(model, chain, compiled, max_iters)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis; an all -inf slice gives -inf without a
    floating-point warning."""
    peak = np.max(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    total = np.exp(x - peak).sum(axis=axis)
    out = np.full_like(total, -np.inf)
    np.log(total, out=out, where=total > 0)
    return out + np.squeeze(peak, axis=axis)


def neg_objective(
    weights: np.ndarray,
    model: CrfModel,
    chain: crf._Chain,
    comp: crf._Compiled,
) -> tuple[float, np.ndarray]:
    """Negative (log-likelihood - lambda * ||w||^2) and its gradient.

    Forward and backward run over the whole batch at once, one step per
    position, on the prefix of sentences still active at that step."""
    n_lab = len(crf.LABELS)
    w_obs = weights[: chain.offset].reshape(chain.n_obs, n_lab)
    start, trans = chain.scores(weights)
    E = comp.X @ w_obs
    estate = E[:, chain.state_label]
    S = comp.padded(estate)
    T, B, m = S.shape
    alpha = np.full_like(S, -np.inf)
    beta = np.zeros_like(S)
    alpha[0] = start + S[0]
    for t in range(1, T):
        a = comp.active[t]
        alpha[t, :a] = _logsumexp(alpha[t - 1, :a, :, None] + trans, axis=1) + S[t, :a]
    log_z = _logsumexp(alpha[comp.lengths[comp.order] - 1, np.arange(B)], axis=1)
    pair_expect = np.zeros((m, m))
    for t in range(T - 1, 0, -1):
        a = comp.active[t]
        ahead = trans + (S[t, :a] + beta[t, :a])[:, None, :]
        beta[t - 1, :a] = _logsumexp(ahead, axis=2)
        pair_expect += np.exp(
            alpha[t - 1, :a, :, None] + ahead - log_z[:a, None, None]
        ).sum(axis=0)
    start_expect = np.exp(alpha[0] + beta[0] - log_z[:, None]).sum(axis=0)
    # state marginals of every token, in token order
    node = np.exp(
        alpha.reshape(T * B, m)[comp.slot]
        + beta.reshape(T * B, m)[comp.slot]
        - log_z[comp.slot % B, None]
    )

    gold_onehot = np.zeros((E.shape[0], n_lab))
    gold_onehot[np.arange(E.shape[0]), comp.gold] = 1.0
    grad = np.zeros_like(weights)
    grad[: chain.offset] = (comp.X.T @ (node @ chain.to_label - gold_onehot)).ravel()
    gold_score = float(E[np.arange(E.shape[0]), comp.gold].sum())
    gold_score += float(weights[comp.gold_fids].sum())
    ll = gold_score - float(log_z.sum())
    np.subtract.at(grad, comp.gold_fids, 1.0)
    if chain.pair_fids.size:
        np.add.at(
            grad,
            chain.pair_fids,
            pair_expect[chain.pair_rows, chain.pair_cols],
        )
    for si, fids in enumerate(chain.start_fids):
        for fid in fids:
            grad[fid] += start_expect[si]
    lam = model.regularizer
    value = -(ll - lam * float(weights @ weights))
    grad += 2.0 * lam * weights
    if not np.isfinite(value):
        raise ValueError(
            f"objective diverged: value={value}, |w|={np.linalg.norm(weights):.3g}"
        )
    return value, grad


def span_texts(corpus: Corpus, spans: np.ndarray) -> list[str]:
    """The lowercase text of each (start, end) span."""
    lowers = list(corpus.lowers)
    words = corpus.lower_ids.tolist()
    return [" ".join(lowers[i] for i in words[s:e]) for s, e in spans.tolist()]


def aggregate_candidates(matches: Iterable[str]) -> list[CandidatePhrase]:
    """Count matches by lowercase form, sorted by frequency descending,
    then form."""
    counts = Counter(matches)
    return sorted(
        (CandidatePhrase(lower, freq) for lower, freq in counts.items()),
        key=lambda c: (-c.freq, c.lower),
    )


def string_candidates(
    corpus: Corpus, patterns: Sequence[ExtractionPattern]
) -> list[CandidatePhrase]:
    """``extraction.extract_candidates`` of an interned corpus, counting
    each pattern's span texts as strings."""
    flags = _flags(corpus)
    return aggregate_candidates(
        text
        for p in patterns
        for text in span_texts(
            corpus, (_between if p.kind == "between" else _after_trigger)(corpus, p, flags)
        )
    )


def extract_between(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase phrases of one sentence that ``extraction._between`` finds."""
    if pattern.kind != "between":
        raise ValueError("extract_between needs a 'between' pattern")
    corpus = Corpus.of([sentence])
    return span_texts(corpus, _between(corpus, pattern, _flags(corpus)))


def extract_after_trigger(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase candidates of one sentence that ``extraction._after_trigger``
    finds."""
    if pattern.kind != "after_trigger":
        raise ValueError("extract_after_trigger needs an 'after_trigger' pattern")
    corpus = Corpus.of([sentence])
    return span_texts(corpus, _after_trigger(corpus, pattern, _flags(corpus)))


class DictTrie(PhraseTrie):
    """:class:`PhraseTrie` with its arrays built one word at a time: node
    ids in order of creation, each edge a dict entry."""

    def __init__(self, phrases: Iterable[str]):
        self.words: dict[str, int] = {}
        edges: dict[tuple[int, int], int] = {}  # (node, word id) -> child node
        ends_at = [-1]  # node -> the first phrase it completes, or -1
        for p, phrase in enumerate(phrases):
            node = 0
            for word in phrase.split(" "):
                w = self.words.setdefault(word, len(self.words))
                node = edges.setdefault((node, w), len(ends_at))
                if node == len(ends_at):
                    ends_at.append(-1)
            if ends_at[node] < 0:
                ends_at[node] = p
        self.width = width = len(self.words) + 1
        edge_keys = {node * width + w: child for (node, w), child in edges.items()}
        self.keys = np.array([-1, *sorted(edge_keys)], dtype=np.int64)
        self.children = np.array([-1, *map(edge_keys.__getitem__, self.keys[1:].tolist())])
        self.ends_at = np.array(ends_at)
        self.root = np.full(width, -1, dtype=np.int64)
        for (node, w), child in edges.items():
            if node == 0:
                self.root[w] = child


class NumpyDraws:
    """``synth._Draws`` with each draw one call on the ``Generator``."""

    def __init__(self, rng: np.random.Generator):
        self.integers = lambda n: int(rng.integers(n))
        self.random = lambda: float(rng.random())
        self.settle = lambda: None


def dual_cd_fit(X: np.ndarray, y: np.ndarray, C: float, tol: float, max_epochs: int):
    """``classifier._fit``'s sweep over unsigned rows, each step multiplying
    by its label: the same weights, bias and report {epochs, gap,
    converged}."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])  # bias column
    rows = list(Xa)
    q = np.einsum("ij,ij->i", Xa, Xa).tolist()  # always >= 1
    labels = y.tolist()
    alpha = [0.0] * n
    w = np.zeros(d + 1)
    epochs, gap, converged = 0, float("inf"), False
    while epochs < max_epochs and not converged:
        epochs += 1
        for i, (x_i, y_i, q_i) in enumerate(zip(rows, labels, q)):
            a_i = alpha[i]
            g = y_i * float(x_i.dot(w)) - 1.0
            a_new = min(max(a_i - g / q_i, 0.0), C)
            delta = a_new - a_i
            if delta != 0.0:
                w += delta * y_i * x_i
                alpha[i] = a_new
        margins = y * (Xa @ w)
        primal = 0.5 * (w @ w) + C * np.sum(np.maximum(0.0, 1.0 - margins))
        dual = np.sum(alpha) - 0.5 * (w @ w)
        gap = float(primal - dual)
        converged = bool(gap <= tol * max(1.0, abs(primal)))
    return w[:d], float(w[d]), {"epochs": epochs, "gap": gap, "converged": converged}


def signed_sweep_fit(X: np.ndarray, y: np.ndarray, C: float, tol: float, max_epochs: int):
    """``classifier._fit`` with its gap check written as one expression:
    margins as ``y * (Xa @ w)`` over the unsigned rows and the hinge through
    NumPy temporaries.  The same weights, bias and report {epochs, gap,
    converged}."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])  # bias column
    rows = list(Xa * y[:, None])
    q = np.einsum("ij,ij->i", Xa, Xa).tolist()  # always >= 1
    alpha = [0.0] * n
    w = np.zeros(d + 1)
    step = np.empty(d + 1)
    epochs, gap, converged = 0, float("inf"), False
    while epochs < max_epochs and not converged:
        epochs += 1
        for i, (yx_i, q_i) in enumerate(zip(rows, q)):
            a_i = alpha[i]
            a_new = min(max(a_i - (float(yx_i.dot(w)) - 1.0) / q_i, 0.0), C)
            delta = a_new - a_i
            if delta != 0.0:
                np.add(w, np.multiply(yx_i, delta, out=step), out=w)
                alpha[i] = a_new
        ww = w @ w
        primal = 0.5 * ww + C * np.maximum(0.0, 1.0 - y * (Xa @ w)).sum()
        dual = np.add.reduce(alpha) - 0.5 * ww
        gap = float(primal - dual)
        converged = bool(gap <= tol * max(1.0, abs(primal)))
    return w[:d], float(w[d]), {"epochs": epochs, "gap": gap, "converged": converged}


def string_scorer(
    labeled: Sequence[tuple[Sequence[str], Sequence[str]]], phrases: Iterable[str]
) -> Callable[[Dictionary], EvalReport]:
    """The score over a labeled split of a dictionary drawn from ``phrases``:
    of every occurrence of ``phrases``, those whose phrase string the
    dictionary holds, and the longest-first, non-overlapping matches among
    them."""
    universe = dict.fromkeys(phrases)
    corpus = Corpus.of_tokens([tokens for tokens, _ in labeled])
    start, end, phrase = PhraseTrie(universe).occurrences(corpus)
    gold = {
        (first + s, first + e)
        for first, (_, tags) in zip(corpus.starts.tolist(), labeled)
        for s, e in bio_spans(tags)
    }
    names = list(universe)
    found = [names[p] for p in phrase.tolist()]
    hit = np.array([span in gold for span in zip(start.tolist(), end.tolist())], dtype=bool)

    def score(dictionary: Dictionary) -> EvalReport:
        if outside := dictionary.scores.keys() - universe.keys():
            raise ValueError(f"dictionary phrase {min(outside)!r} is not among the scored phrases")
        own = np.flatnonzero([p in dictionary.scores for p in found])
        kept = own[longest_first(start[own], end[own])]
        tp = int(hit[kept].sum())
        return EvalReport.from_counts(tp, len(kept) - tp, len(gold) - tp)

    return score


def ranked_cut(
    names: Sequence[str], embeddings: np.ndarray, model: SvmModel, threshold: float
) -> Dictionary:
    """``classifier.build_dictionary``: each row's margin as ``np.vecdot``
    of the contiguous row and the weights, plus the bias; the phrases sorted
    by (−margin, phrase) in Python, which holds ``-0.0`` equal to ``0.0``;
    then the prefix scoring at least ``threshold``, warned about when
    empty."""
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    E = np.ascontiguousarray(embeddings, dtype=np.float64)
    margins = (np.vecdot(E, model.weights) + model.bias).tolist()
    order = sorted(range(len(names)), key=lambda i: (-margins[i], names[i]))
    scores = dict(takewhile(lambda ps: ps[1] >= threshold,
                            ((names[i], margins[i]) for i in order)))
    if not scores:
        warnings.warn("classifier accepted no candidates; dictionary is empty")
    meta = {"C": repr(model.C), "dims": str(model.dims_used), "threshold": repr(threshold)}
    return Dictionary(scores, "cca", meta)


def classify_grid(
    names: Sequence[str],
    embeddings: np.ndarray,
    seeds: SeedSet,
    k_grid: Sequence[int],
    c_grid: Sequence[float],
    thresholds: Sequence[float],
    score: Callable[[Dictionary], float],
) -> tuple[list[dict], dict]:
    """Each classify grid point's report, built and scored as a dictionary,
    and the SVM fit of each (k, C).  Each (k, C) builds the ranking of its
    fit at the lowest threshold, and each threshold cuts it; an empty
    ranking and each empty cut warn, as the cut does."""
    row_of = {p: i for i, p in enumerate(names)}
    lowest = min(thresholds)
    reports, fitted = [], {}
    for k in k_grid:
        seed_rows = {p: embeddings[row_of[p], :k] for p in (*seeds.positives, *seeds.negatives)}
        for C in c_grid:
            svm = fitted[k, C] = train_svm(seed_rows, seeds, C=C)
            ranking = ranked_cut(names, embeddings[:, :k], svm, lowest)
            for thr in thresholds:
                cut = dict(takewhile(lambda ps: ps[1] >= thr, ranking.scores.items()))
                if not cut:
                    warnings.warn("classifier accepted no candidates; dictionary is empty")
                f1 = score(Dictionary(cut, "cca", {**ranking.metadata, "threshold": repr(thr)}))
                reports.append({"k": k, "C": C, "threshold": thr, "f1": f1})
    return reports, fitted


def theta_grid(
    state: DecisionListState, thetas: Sequence[float], score: Callable[[Dictionary], float]
) -> list[dict]:
    """Each co-training theta's report: ``dictionary_from_rules`` at the
    theta, scored."""
    return [{"theta": t, "f1": score(dictionary_from_rules(state, theta=t))} for t in thetas]
