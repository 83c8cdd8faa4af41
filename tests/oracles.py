"""Reference implementations the tests compare the program against, and
per-sentence helpers only tests call.

The program runs each rule below over a whole interned corpus at once; the
versions here state it one sentence at a time, on token strings, so a test
can check the program against an independent reading of the rule.

* :class:`PhraseSet` and :func:`match_phrase_spans` are the longest-leftmost,
  non-overlapping phrase matcher on token strings, the specification of
  ``PhraseTrie.match``; :func:`string_tags` tags one sentence with it.
* :func:`observations` names each token's label-independent CRF
  observations, the specification of the rows ``crf._columns`` builds.
* :func:`fit_weights` fits a model's weights on sentences compiled here.
* :func:`extract_between` and :func:`extract_after_trigger` run one
  extraction pattern over one sentence.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from dictforge import crf
from dictforge.corpus import Corpus, Sentence, word_shape
from dictforge.crf import CrfModel, FeatureConfig, SentinelEmbeddings
from dictforge.extraction import ExtractionPattern, _after_trigger, _between, _flags, _phrases
from dictforge.tagging import Dictionary
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
    init: np.ndarray | None = None,
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
    return crf._fit(model, chain, compiled, init, max_iters)


def extract_between(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase phrases of one sentence that ``extraction._between`` finds."""
    if pattern.kind != "between":
        raise ValueError("extract_between needs a 'between' pattern")
    corpus = Corpus.of([sentence])
    return _phrases(corpus, _between(corpus, pattern, _flags(corpus)))


def extract_after_trigger(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase candidates of one sentence that ``extraction._after_trigger``
    finds."""
    if pattern.kind != "after_trigger":
        raise ValueError("extract_after_trigger needs an 'after_trigger' pattern")
    corpus = Corpus.of([sentence])
    return _phrases(corpus, _after_trigger(corpus, pattern, _flags(corpus)))
