"""Candidate phrase extraction from lexical patterns.

Two pattern kinds produce the high-recall, low-precision candidate list:

* ``between``: phrases occurring between two literal token sequences,
  e.g. between "the" and "virus".
* ``after_trigger``: noun-phrase-like spans following a trigger sequence,
  e.g. after "diagnosed with", with coordinated lists split into one
  candidate per conjunct.

Matching runs on the interned corpus: literals are found as id sequences,
one numpy pass per literal word, and never across a sentence boundary.
Aggregation merges matches by lowercase form and is independent of stream
order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sentence, tokenize

__all__ = [
    "ExtractionPattern",
    "CandidatePhrase",
    "STOPWORDS",
    "extract_candidates",
    "aggregate_candidates",
    "parse_patterns",
    "load_patterns",
    "write_candidates",
    "read_candidates",
]

# Closed-class words that never start or extend a candidate noun phrase.
STOPWORDS = frozenset("""
    a an the this that these those each every some any no all both either
    neither such same own other another
    i you he she it we they me him her us them my your his its our their
    mine yours hers ours theirs himself herself itself themselves myself
    yourself ourselves yourselves who whom whose which what
    of in on at by for with from to into onto upon about over under between
    among during before after above below through across against within
    without along around behind beyond near since until toward towards per
    via off out up down
    and or but nor so yet if because although though while whereas when
    whenever where wherever unless than as
    am is are was were be been being have has had having do does did done
    doing can could may might must shall should will would
    not only also very too just then there here now even still ever never
    more most less least much many few little
""".split())

_COORDINATORS = frozenset({",", "and", "or"})


@dataclass(frozen=True)
class ExtractionPattern:
    """One declarative lexical pattern.

    ``kind`` is "between" (uses ``left``/``right`` literals) or
    "after_trigger" (uses ``trigger``).  Literals are nonempty token
    sequences.  Unless ``case_sensitive``, they are lowercased on
    construction and matched against the lowercased sentence.
    """

    kind: str
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()
    trigger: tuple[str, ...] = ()
    max_phrase_len: int = 5
    case_sensitive: bool = False

    def __post_init__(self):
        if self.kind not in ("between", "after_trigger"):
            raise ValueError(f"unknown pattern kind: {self.kind!r}")
        if self.max_phrase_len < 1:
            raise ValueError("max_phrase_len must be >= 1")
        if self.kind == "between" and (not self.left or not self.right):
            raise ValueError("between pattern needs left and right literals")
        if self.kind == "after_trigger" and not self.trigger:
            raise ValueError("after_trigger pattern needs a trigger")
        if not self.case_sensitive:
            for name in ("left", "right", "trigger"):
                object.__setattr__(self, name, tuple(w.lower() for w in getattr(self, name)))


class CandidatePhrase(NamedTuple):
    """A candidate phrase, lowercased, with its corpus frequency: one
    ``candidates.tsv`` row."""

    lower: str
    freq: int


def _is_punct(text: str) -> bool:
    return not any(c.isalnum() for c in text)


# Token flags: bit 0 punctuation, bit 1 stopword, bit 2 coordinator.
_PUNCT, _STOP, _COORD = 1, 2, 4


def _flags(corpus: Corpus) -> np.ndarray:
    """Each token's flags, read from its type and lowercase form."""
    lowers = list(corpus.lowers)
    per_type = np.fromiter(
        (
            _PUNCT * _is_punct(text) + _STOP * (low in STOPWORDS) + _COORD * (low in _COORDINATORS)
            for text, low in zip(corpus.vocab, map(lowers.__getitem__, corpus.lower.tolist()))
        ),
        np.int8,
        len(corpus.vocab),
    )
    return per_type[corpus.ids]


def _find_literal(corpus: Corpus, literal: tuple[str, ...], case_sensitive: bool) -> np.ndarray:
    """Start of every occurrence of ``literal`` within a sentence,
    overlapping ones included: type ids are compared when
    ``case_sensitive``, lowercase ids otherwise."""
    words, ids = (corpus.ids, corpus.vocab) if case_sensitive else (corpus.lower_ids, corpus.lowers)
    hits = np.flatnonzero(words == ids.get(literal[0], -1))
    for k, word in enumerate(literal[1:], start=1):
        hits = hits[hits + k < len(words)]
        hits = hits[words[hits + k] == ids.get(word, -1)]
    return hits[hits + len(literal) <= corpus.sentence_end(hits)]


def _between(corpus: Corpus, pattern: ExtractionPattern, flags: np.ndarray) -> np.ndarray:
    """(start, end) token spans strictly between the left and right
    literals.  Each left-literal occurrence pairs with the nearest right
    literal starting after its end; the gap must be 1..max_phrase_len tokens
    of the same sentence and hold no punctuation token, otherwise the
    occurrence yields nothing."""
    left = _find_literal(corpus, pattern.left, pattern.case_sensitive)
    right = _find_literal(corpus, pattern.right, pattern.case_sensitive)
    gap = left + len(pattern.left)
    j = np.append(right, np.iinfo(np.int64).max)[np.searchsorted(right, gap, side="right")]
    punct = np.concatenate(([0], np.cumsum(flags & _PUNCT)))
    ok = (j - gap <= pattern.max_phrase_len) & (j < corpus.sentence_end(left))
    ok[ok] = punct[j[ok]] == punct[gap[ok]]
    return np.stack((gap[ok], j[ok]), axis=1)


def _after_trigger(corpus: Corpus, pattern: ExtractionPattern, flags: np.ndarray) -> np.ndarray:
    """(start, end) noun-phrase-like spans after each trigger occurrence.

    From the end of the trigger, skip stopwords other than coordinators,
    take up to ``max_phrase_len`` non-stopword non-punctuation tokens as a
    span, and continue past a following "," / "and" / "or", so a
    coordinated list yields one span per conjunct.  Every trigger
    occurrence advances one conjunct per round; spans come out in trigger,
    then position order.
    """
    trigger = _find_literal(corpus, pattern.trigger, pattern.case_sensitive)
    end = corpus.sentence_end(trigger)
    pos = trigger + len(pattern.trigger)
    owner = np.arange(len(trigger))
    kept = np.append(np.flatnonzero(flags & (_STOP | _COORD) != _STOP), len(flags))
    stops = np.append(np.flatnonzero(flags & (_PUNCT | _STOP)), len(flags))
    found = []
    while len(pos):
        s = np.minimum(kept[np.searchsorted(kept, pos)], end)
        e = np.minimum(np.minimum(stops[np.searchsorted(stops, s)], end), s + pattern.max_phrase_len)
        found.append(np.stack((owner, s, e), axis=1)[e > s])
        more = e < end
        more[more] = flags[e[more]] & _COORD != 0
        pos, end, owner = e[more] + 1, end[more], owner[more]
    spans = np.concatenate(found) if found else np.zeros((0, 3), np.int64)
    return spans[np.lexsort((spans[:, 1], spans[:, 0])), 1:]


def _phrases(corpus: Corpus, spans: np.ndarray) -> list[str]:
    """The lowercase text of each (start, end) span, joined once per
    distinct id sequence."""
    lowers = list(corpus.lowers)
    at = spans[:, :1] + np.arange(np.max(spans[:, 1] - spans[:, 0], initial=0))
    keys = np.where(at < spans[:, 1:], corpus.lower_ids[np.minimum(at, len(corpus.ids) - 1)], -1)
    texts: dict[tuple[int, ...], str] = {}
    return [
        texts[key] if key in texts else texts.setdefault(key, " ".join(lowers[i] for i in key if i >= 0))
        for key in map(tuple, keys.tolist())
    ]


def aggregate_candidates(matches: Iterable[str]) -> list[CandidatePhrase]:
    """Count matches by lowercase form, sorted by frequency descending,
    then form, so the result is independent of stream order."""
    counts = Counter(matches)
    return sorted(
        (CandidatePhrase(lower, freq) for lower, freq in counts.items()),
        key=lambda c: (-c.freq, c.lower),
    )


def extract_candidates(
    corpus: Corpus | Iterable[Sentence], patterns: Sequence[ExtractionPattern]
) -> list[CandidatePhrase]:
    """Run every pattern over an interned corpus (or sentences, interned
    first) and aggregate."""
    if not isinstance(corpus, Corpus):
        corpus = Corpus.of(corpus)
    flags = _flags(corpus)
    return aggregate_candidates(
        phrase
        for p in patterns
        for phrase in _phrases(
            corpus, (_between if p.kind == "between" else _after_trigger)(corpus, p, flags)
        )
    )


def parse_patterns(lines: Iterable[str]) -> list[ExtractionPattern]:
    """Parse the pattern declaration format, one pattern per line.

        between the ... virus
        after diagnosed with | max_len=4
        between the ... virus | case_sensitive

    "between" splits its literals at the one "..." placeholder it must
    hold; "after" (or "after_trigger") takes the rest of the line as the
    trigger.  Each literal is tokenized like the corpus, so punctuation at
    a word's edge is a token of its own: "after viruses, e.g." matches the
    sentence tokens "viruses , e.g .".  Options follow a "|": ``max_len=N``
    and ``case_sensitive``.  Blank lines and ``#`` comments are ignored.  A
    malformed line raises ``ValueError`` prefixed with ``line N:``.
    """
    patterns = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                patterns.append(_parse_line(line))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    if not patterns:
        raise ValueError("no patterns declared")
    return patterns


def _parse_line(line: str) -> ExtractionPattern:
    body, _, opts = line.partition("|")
    fields = body.split()
    if not fields:
        raise ValueError("missing pattern kind")
    kind, rest = fields[0], fields[1:]
    max_len = 5
    case_sensitive = False
    for opt in opts.split():
        if opt.startswith("max_len="):
            value = opt.split("=", 1)[1]
            try:
                max_len = int(value)
            except ValueError:
                raise ValueError(f"max_len needs an integer, got {value!r}") from None
        elif opt == "case_sensitive":
            case_sensitive = True
        else:
            raise ValueError(f"unknown option {opt!r}")
    if kind == "between":
        if rest.count("...") != 1:
            raise ValueError("between pattern needs exactly one '...'")
        cut = rest.index("...")
        return ExtractionPattern(
            "between",
            left=_literal(rest[:cut]),
            right=_literal(rest[cut + 1 :]),
            max_phrase_len=max_len,
            case_sensitive=case_sensitive,
        )
    if kind in ("after", "after_trigger"):
        return ExtractionPattern(
            "after_trigger",
            trigger=_literal(rest),
            max_phrase_len=max_len,
            case_sensitive=case_sensitive,
        )
    raise ValueError(f"unknown pattern kind {kind!r}")


def _literal(words: Sequence[str]) -> tuple[str, ...]:
    return tuple(tokenize(" ".join(words)))


def load_patterns(path: str | Path) -> list[ExtractionPattern]:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_patterns(fh)
        except ValueError as exc:
            sep = ", " if str(exc).startswith("line ") else ": "  # no line: the whole file
            raise ValueError(f"{path}{sep}{exc}") from None


def write_candidates(candidates: Sequence[CandidatePhrase], fh) -> None:
    """One record per line: lowercase form TAB frequency."""
    for c in candidates:
        fh.write(f"{c.lower}\t{c.freq}\n")


def read_candidates(path: str | Path) -> list[CandidatePhrase]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                lower, freq = line.split("\t")
                out.append(CandidatePhrase(lower, int(freq)))
            except ValueError:
                raise ValueError(
                    f"{path}, line {lineno}: expected phrase TAB frequency, got {line!r}"
                ) from None
    return out
