"""Dictionary-based tagging and phrase-level evaluation.

A dictionary tagger marks every exact, non-overlapping dictionary match in
a sentence as one entity (B I ... I) and everything else O.
:func:`dictionary_codes` tags a whole interned corpus with the dictionary's
:class:`~dictforge.corpus.PhraseTrie`, :func:`tag_with_dictionary` tags one
sentence through it, and :func:`conll_text` formats its tags as
:func:`write_conll` would.  The string matcher that specifies the trie's
longest-leftmost rule token by token lives in ``tests/oracles.py``.

Evaluation is phrase-level, the CoNLL convention: a predicted entity counts
only when both boundaries match a gold entity exactly.  One rule turns tags
into entities, ``_entity_spans`` over a whole split at once; :func:`evaluate`
applies it to predicted and gold tags, and :class:`PhraseMatches` to gold
tags: it holds every occurrence of a phrase list in a split with its gold
hit, and scores many dictionaries drawn from the list against that split
without tagging it again for each, each one a boolean mask over the
phrases.  :func:`dictionary_scorer` maps a :class:`Dictionary` to its mask.
The matches can be saved, so a pipeline run finds them once per phrase list
and split.  The rule's statement one sentence at a time is a test oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import Corpus, PhraseTrie, longest_first

__all__ = [
    "BIO",
    "BIO_CODES",
    "Dictionary",
    "EvalReport",
    "tag_with_dictionary",
    "dictionary_codes",
    "span_codes",
    "check_phrases",
    "validate_bio",
    "evaluate",
    "dictionary_scorer",
    "PhraseMatches",
    "read_dictionary",
    "write_dictionary",
    "read_conll",
    "write_conll",
    "conll_text",
]

PROVENANCES = ("cca", "cotrain", "manual", "candidate-list")

# the tags, in the order of their codes, and each tag's code
BIO = ("B", "I", "O")
BIO_CODES = {tag: code for code, tag in enumerate(BIO)}


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
    """Raise ``ValueError`` naming the first phrase that could never match:
    an empty one, one with capitals (tokens are lowercased before lookup) or
    one whose words are not joined by single spaces (tokens hold no
    whitespace, and a phrase is its tokens joined by one space)."""
    for p in phrases:
        if not p.strip():
            raise ValueError(f"empty {kind} phrase {p!r}")
        if p != " ".join(p.split()):
            raise ValueError(f"{kind} phrase {p!r} is not words joined by single spaces")
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
    """What :func:`write_dictionary` writes.  A row that is not ``phrase
    TAB score``, a phrase that could never match and a phrase listed twice
    raise ``ValueError`` naming the file and line of the first of them."""
    scores: dict[str, float] = {}
    lines: list[int] = []  # the line of each phrase of ``scores``
    metadata: dict[str, str] = {}
    provenance = "manual"

    def error(lineno: int, message: str) -> ValueError:
        # the phrases are checked once, by the constructor, so a bad phrase
        # before this line is found here
        _locate_bad_phrase(path, scores, lines)
        return ValueError(f"{path}, line {lineno}: {message}")

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
                score = float(score)
            except ValueError:
                raise error(lineno, f"expected phrase TAB score, got {line!r}") from None
            if phrase in scores:
                raise error(lineno, f"duplicate phrase {phrase!r}")
            scores[phrase] = score
            lines.append(lineno)
    try:
        return Dictionary(scores=scores, provenance=provenance, metadata=metadata)
    except ValueError:
        _locate_bad_phrase(path, scores, lines)
        raise


def _locate_bad_phrase(path: str | Path, phrases: Iterable[str], lines: Sequence[int]) -> None:
    """Raise :func:`check_phrases`'s error for the first bad one of
    ``phrases``, naming its line of ``path``; return if all pass."""
    for phrase, lineno in zip(phrases, lines):
        try:
            check_phrases((phrase,), "dictionary")
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None


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
    """Exact-extent phrase evaluation over aligned tag sequences.  The
    entities of both are taken by ``_entity_spans`` as positions in the gold
    sentences laid end to end; a hit is a predicted entity that is also a
    gold one."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"sentence count mismatch: {len(predicted)} predicted vs {len(gold)} gold"
        )
    starts = np.cumsum([0, *map(len, gold)])
    gold_start, gold_end = _entity_spans(starts, gold)
    start, end = _entity_spans(starts, predicted)
    # a span start:end coded as start * width + end
    width = starts[-1] + 1
    tp = int(np.isin(start * width + end, gold_start * width + gold_end).sum())
    return EvalReport.from_counts(tp, len(start) - tp, len(gold_start) - tp)


def dictionary_scorer(
    labeled: Sequence[tuple[Sequence[str], Sequence[str]]], phrases: Iterable[str]
) -> Callable[[Dictionary | np.ndarray], EvalReport]:
    """The score over a labeled split of any dictionary drawn from
    ``phrases``, equal to :func:`evaluate` of :func:`tag_with_dictionary`.

    The split's :class:`PhraseMatches` of the distinct ``phrases`` are found
    once.  A dictionary is given as a boolean mask over the distinct
    ``phrases`` in their first-listed order, or as a :class:`Dictionary`,
    whose phrases are mapped to that mask; a dictionary phrase outside
    ``phrases`` raises ``ValueError``.
    """
    index = {p: i for i, p in enumerate(dict.fromkeys(phrases))}
    matches = PhraseMatches.find(labeled, index)

    def score(dictionary: Dictionary | np.ndarray) -> EvalReport:
        if not isinstance(dictionary, Dictionary):
            return matches.score(dictionary)
        try:
            ids = [index[p] for p in dictionary.scores]
        except KeyError:
            outside = min(dictionary.scores.keys() - index.keys())
            raise ValueError(
                f"dictionary phrase {outside!r} is not among the scored phrases"
            ) from None
        mask = np.zeros(len(index), dtype=bool)
        mask[ids] = True
        return matches.score(mask)

    return score


@dataclass(frozen=True, eq=False)
class PhraseMatches:
    """Every occurrence of a list's phrases in a labeled split, and whether
    each is a gold entity: all that scoring a dictionary drawn from the list
    needs of the split.

    Occurrence r is phrase ``phrase[r]`` (its index in the list) at tokens
    ``start[r]:end[r]`` of the split's sentences laid end to end, in the
    order :meth:`~dictforge.corpus.PhraseTrie.occurrences` gives them: by
    start, then longest first.  ``hit[r]`` says whether it is a gold
    entity, ``gold`` counts the split's gold entities and ``n_phrases`` the
    list's phrases.
    """

    start: np.ndarray
    end: np.ndarray
    phrase: np.ndarray
    hit: np.ndarray
    gold: int
    n_phrases: int

    @classmethod
    def find(
        cls, labeled: Sequence[tuple[Sequence[str], Sequence[str]]], phrases: Iterable[str]
    ) -> "PhraseMatches":
        """The matches of the distinct ``phrases`` in ``labeled``: the split
        is interned once, its gold entities are taken once as positions and
        the occurrences of all the phrases are found in one trie walk."""
        phrases = list(phrases)
        corpus = Corpus.of_tokens([tokens for tokens, _ in labeled])
        start, end, phrase = PhraseTrie(phrases).occurrences(corpus)
        gold_start, gold_end = _entity_spans(corpus.starts, [tags for _, tags in labeled])
        # a span start:end coded as start * width + end
        width = len(corpus.ids) + 1
        hit = np.isin(start * width + end, gold_start * width + gold_end)
        return cls(start, end, phrase, hit, len(gold_start), len(phrases))

    def score(self, mask: np.ndarray) -> EvalReport:
        """The score of the dictionary holding the phrases ``mask`` sets: its
        own phrases' occurrences, the longest-first, non-overlapping ones
        among them kept."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.n_phrases,):
            raise ValueError(f"expected a boolean mask over {self.n_phrases} phrases")
        own = np.flatnonzero(mask[self.phrase])
        kept = own[longest_first(self.start[own], self.end[own])]
        tp = int(self.hit[kept].sum())
        return EvalReport.from_counts(tp, len(kept) - tp, self.gold - tp)

    def save(self, path: str | Path) -> None:
        """An ``.npz`` of int32 positions and ids, the hit bits and the two
        counts; nothing pickled."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                start=self.start.astype(np.int32),
                end=self.end.astype(np.int32),
                phrase=self.phrase.astype(np.int32),
                hit=self.hit,
                gold=np.array(self.gold),
                n_phrases=np.array(self.n_phrases),
            )

    @classmethod
    def load(cls, path: str | Path) -> "PhraseMatches":
        """A :meth:`save` file, positions and ids widened to int64.  A
        missing array, arrays that disagree or a phrase id out of range
        raise ``ValueError`` naming the file."""
        keys = ("start", "end", "phrase", "hit", "gold", "n_phrases")
        with np.load(path, allow_pickle=False) as data:
            if missing := [key for key in keys if key not in data.files]:
                raise ValueError(f"{path}: missing array(s) {', '.join(missing)}")
            start, end, phrase, hit, gold, n_phrases = (data[key] for key in keys)
        checks = {
            "start, end, phrase and hit are not one row each":
                start.ndim == 1 and start.shape == end.shape == phrase.shape == hit.shape,
            "gold and n_phrases are not single counts": gold.shape == n_phrases.shape == (),
            "a phrase id is out of range":
                n_phrases.shape == () and np.all((phrase >= 0) & (phrase < n_phrases)),
        }
        if problems := [problem for problem, ok in checks.items() if not ok]:
            raise ValueError(f"{path}: {'; '.join(problems)}")
        return cls(
            start=start.astype(np.int64),
            end=end.astype(np.int64),
            phrase=phrase.astype(np.int64),
            hit=hit.astype(bool),
            gold=int(gold),
            n_phrases=int(n_phrases),
        )


def _entity_spans(
    starts: np.ndarray, tags: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """The entities of the sentences ``starts[k]:starts[k + 1]`` holding
    ``tags[k]``, as positions ``start[r]:end[r]`` in order: the one rule
    that turns tags into entities.

    An entity opens at B, or at an I while none is open; it closes at O, at
    B or at the sentence end.  An open entity stays open over I and over an
    unknown tag, which opens none.  So ill-formed output is scored as it
    stands; gold data is checked apart, by :func:`validate_bio`.
    """
    sizes = np.diff(starts).tolist()
    if (lengths := [len(t) for t in tags]) != sizes:
        k = next(k for k, (a, b) in enumerate(zip(lengths, sizes)) if a != b)
        raise ValueError(f"token count mismatch in sentence {k}: expected one tag per token")
    n = int(starts[-1])
    # each tag's code into BIO; any other tag is 3
    code = np.fromiter(map(BIO_CODES.get, chain.from_iterable(tags), repeat(3)), np.int8, n)
    first = np.zeros(n + 1, dtype=bool)
    first[starts] = True
    # whether an entity is open after each position: B and I open or keep
    # one, O closes it, and an unknown tag leaves it as it was, so the state
    # is carried from the sentence's last known tag (none: closed)
    known = (code < 3) | first[:n]
    state = known & (code < 2)
    last = np.maximum.accumulate(np.where(known, np.arange(n), 0))
    open_after = state[last]
    open_before = np.zeros(n, dtype=bool)
    open_before[1:] = open_after[:-1] & ~first[1:n]
    opens = (code == 0) | ((code == 1) & ~open_before)
    closes = open_before & ((code == 0) | (code == 2))
    # a sentence's last position, where an entity open after it ends
    last_token = starts[1:][starts[1:] > starts[:-1]] - 1
    ends = np.concatenate((np.flatnonzero(closes), last_token[open_after[last_token]] + 1))
    return np.flatnonzero(opens), np.sort(ends)


def read_conll(path: str | Path, strict: bool = False) -> list[tuple[list[str], list[str]]]:
    """CoNLL-style file: ``token TAB tag`` rows, blank line between
    sentences.  With strict=True every sentence must be well-formed BIO.
    A row without exactly one tab, an empty token or one holding
    whitespace (the corpus reader yields neither), and under strict an
    unknown tag or an I after O, raises ValueError naming the file and
    line."""
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
            # the only printable whitespace is the space, so a printable
            # token without one needs no split
            clean = token and token.isprintable() and " " not in token
            if not clean and token.split() != [token]:
                what = "empty token" if not token else f"token {token!r} holds whitespace"
                raise ValueError(f"{path}, line {lineno}: {what}")
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
