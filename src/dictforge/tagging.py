"""Dictionary-based tagging and phrase-level evaluation.

A dictionary tagger marks every exact, non-overlapping dictionary match in
a sentence as one entity (B I ... I) and everything else O.
:func:`dictionary_codes` tags a whole interned corpus with the dictionary's
:class:`~dictforge.corpus.PhraseTrie`, :func:`tag_with_dictionary` tags one
sentence through it, and :func:`conll_text` formats its tags as
:func:`write_conll` would.  The string matcher that specifies the trie's
longest-leftmost rule token by token lives in ``tests/oracles.py``.  Evaluation is phrase-level: a predicted
entity counts only when both boundaries match a gold entity exactly.
:func:`dictionary_scorer` scores many dictionaries against one labeled split
without tagging it again for each.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, PhraseTrie, longest_first

__all__ = [
    "BIO",
    "Dictionary",
    "EvalReport",
    "tag_with_dictionary",
    "dictionary_codes",
    "span_codes",
    "check_phrases",
    "bio_spans",
    "validate_bio",
    "evaluate",
    "dictionary_scorer",
    "read_dictionary",
    "write_dictionary",
    "read_conll",
    "write_conll",
    "conll_text",
]

PROVENANCES = ("cca", "cotrain", "manual", "candidate-list")

# the tags, in the order of their codes
BIO = ("B", "I", "O")


@dataclass
class Dictionary:
    """Entity phrase list with scores and provenance metadata.

    ``scores`` maps the lowercase space-joined phrase to a ranking score
    (margin, rule strength, or frequency depending on provenance); its
    insertion order is the ranked order.  Phrases are nonempty and unique
    by construction of the mapping.
    """

    scores: dict[str, float]
    provenance: str = "manual"
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        check_phrases(self.scores, "dictionary")

    def __len__(self) -> int:
        return len(self.scores)

    def __contains__(self, phrase) -> bool:
        if isinstance(phrase, tuple):
            phrase = " ".join(phrase)
        return phrase.lower() in self.scores

    @cached_property
    def trie(self) -> PhraseTrie:
        return PhraseTrie(self.scores)


def check_phrases(phrases: Iterable[str], kind: str) -> None:
    """Raise ``ValueError`` naming the first empty phrase or phrase with
    capitals: tokens are lowercased before lookup, so it would never match."""
    for p in phrases:
        if not p.strip():
            raise ValueError(f"empty {kind} phrase {p!r}")
        if p != p.lower():
            raise ValueError(f"{kind} phrase {p!r} is not lowercase")


def write_dictionary(dictionary: Dictionary, fh) -> None:
    """Metadata header (``# key: value`` lines, provenance first), then one
    ``phrase TAB score`` row per entry in ranked order."""
    fh.write(f"# provenance: {dictionary.provenance}\n")
    for key in sorted(dictionary.metadata):
        fh.write(f"# {key}: {dictionary.metadata[key]}\n")
    for phrase, score in dictionary.scores.items():
        fh.write(f"{phrase}\t{float(score)!r}\n")


def read_dictionary(path: str | Path) -> Dictionary:
    scores: dict[str, float] = {}
    metadata: dict[str, str] = {}
    provenance = "manual"
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition(":")
                if key.strip() == "provenance":
                    provenance = value.strip()
                elif key.strip():
                    metadata[key.strip()] = value.strip()
                continue
            try:
                phrase, score = line.split("\t")
                scores[phrase] = float(score)
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: expected phrase TAB score, got {line!r}"
                ) from None
            try:
                check_phrases((phrase,), "dictionary")
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return Dictionary(scores=scores, provenance=provenance, metadata=metadata)


def tag_with_dictionary(tokens: Sequence[str], dictionary: Dictionary) -> list[str]:
    """BIO tags for one sentence by exact dictionary matching: the
    :func:`dictionary_codes` of the sentence alone."""
    return [BIO[c] for c in dictionary_codes(Corpus.of_tokens([tokens]), dictionary).tolist()]


def dictionary_codes(corpus: Corpus, dictionary: Dictionary) -> np.ndarray:
    """The dictionary tags of every sentence of an interned corpus, one code
    into :data:`BIO` per token in corpus order: the trie's kept matches
    (:meth:`~dictforge.corpus.PhraseTrie.match`) as entities."""
    start, end, _ = dictionary.trie.match(corpus)
    return span_codes(len(corpus.ids), start, end)


def span_codes(n: int, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Codes into :data:`BIO` of ``n`` tokens holding the non-overlapping
    entities ``start[r]:end[r]``."""
    # how many entities hold each position: 1 inside one, 0 outside
    depth = np.cumsum(np.bincount(start, minlength=n + 1) - np.bincount(end, minlength=n + 1))
    codes = np.where(depth[:n] > 0, 1, 2).astype(np.int8)
    codes[start] = 0
    return codes


def validate_bio(tags: Sequence[str]) -> None:
    """Raise unless the sequence is well-formed: tags in {B, I, O} and no
    entity starting with I."""
    if (error := _bio_error(tags)) is not None:
        raise ValueError(error[1])


def _bio_error(tags: Sequence[str]) -> tuple[int, str] | None:
    """The position of the first tag that makes the sequence ill-formed and
    why, or None."""
    prev = "O"
    for i, t in enumerate(tags):
        if t not in ("B", "I", "O"):
            return i, f"unknown tag {t!r}"
        if t == "I" and prev == "O":
            return i, "I tag without a preceding B or I"
        prev = t
    return None


def bio_spans(tags: Sequence[str]) -> set[tuple[int, int]]:
    """Entity spans as (start, end) token indices, end exclusive.

    Tolerates ill-formed input (an I after O opens a new entity) so
    arbitrary model output can be scored; gold data should be validated
    separately with :func:`validate_bio`.
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


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        return cls(tp, fp, fn, p, r, f1)

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(
    predicted: Sequence[Sequence[str]], gold: Sequence[Sequence[str]]
) -> EvalReport:
    """Exact-extent phrase evaluation over aligned tag sequences."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"sentence count mismatch: {len(predicted)} predicted vs {len(gold)} gold"
        )
    tp = fp = fn = 0
    for idx, (p, g) in enumerate(zip(predicted, gold)):
        if len(p) != len(g):
            raise ValueError(f"token count mismatch in sentence {idx}")
        pred, spans = bio_spans(p), bio_spans(g)
        tp += len(pred & spans)
        fp += len(pred - spans)
        fn += len(spans - pred)
    return EvalReport.from_counts(tp, fp, fn)


def dictionary_scorer(
    labeled: Sequence[tuple[Sequence[str], Sequence[str]]], phrases: Iterable[str]
) -> Callable[[Dictionary], EvalReport]:
    """The score over a labeled split of any dictionary drawn from
    ``phrases``, equal to :func:`evaluate` of :func:`tag_with_dictionary`.

    The split is interned once, its gold entities are taken once as corpus
    positions, and the occurrences of all of ``phrases`` are found once.  A
    dictionary keeps its own phrases' occurrences and the longest-first,
    non-overlapping matches among them.  A dictionary phrase outside
    ``phrases`` raises ``ValueError``.
    """
    universe = dict.fromkeys(phrases)
    corpus = Corpus.of_tokens([tokens for tokens, _ in labeled])
    start, end, phrase = PhraseTrie(universe).occurrences(corpus)
    gold = {
        (first + s, first + e)
        for first, (_, tags) in zip(corpus.starts.tolist(), labeled)
        for s, e in bio_spans(tags)
    }
    # each occurrence's phrase, and whether it is a gold entity
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


def read_conll(path: str | Path, strict: bool = False) -> list[tuple[list[str], list[str]]]:
    """CoNLL-style file: ``token TAB tag`` rows, blank line between
    sentences.  With strict=True every sentence must be well-formed BIO.
    A row without exactly one tab, and under strict an unknown tag or an I
    after O, raises ValueError naming the file and line."""
    sentences: list[tuple[list[str], list[str]]] = []
    tokens: list[str] = []
    tags: list[str] = []
    first = 0  # the line of the sentence's first token

    def flush():
        if tokens:
            if strict and (error := _bio_error(tags)) is not None:
                raise ValueError(f"{path}, line {first + error[0]}: {error[1]}")
            sentences.append((list(tokens), list(tags)))
            tokens.clear()
            tags.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
                continue
            try:
                token, tag = line.split("\t")
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: expected token TAB tag, got {line!r}"
                ) from None
            if not tokens:
                first = lineno
            tokens.append(token)
            tags.append(tag)
    flush()
    return sentences


def write_conll(sentences: Iterable[tuple[Sequence[str], Sequence[str]]], fh) -> None:
    for tokens, tags in sentences:
        for token, tag in zip(tokens, tags):
            fh.write(f"{token}\t{tag}\n")
        fh.write("\n")


# what follows a token on its CoNLL line, by tag code, then by tag code + 3
# for the last token of a sentence (the blank line that ends it)
_LINE_ENDS = [f"\t{t}\n" for t in BIO] + [f"\t{t}\n\n" for t in BIO]


def conll_text(corpus: Corpus, codes: np.ndarray) -> str:
    """What :func:`write_conll` writes for the sentences of ``corpus`` with
    tag codes into :data:`BIO`, as one string.  A line is a token type's
    text and its ending, built once for each such pair that occurs."""
    width = len(_LINE_ENDS)
    ends = codes.astype(np.int64)
    ends[corpus.starts[1:] - 1] += len(BIO)
    key = corpus.ids * width + ends
    texts = list(corpus.vocab)
    lines = np.empty(len(texts) * width, dtype=object)
    used = np.zeros(len(lines), dtype=bool)
    used[key] = True
    pairs = np.flatnonzero(used).tolist()
    lines[pairs] = [texts[k // width] + _LINE_ENDS[k % width] for k in pairs]
    return "".join(lines[key].tolist())
