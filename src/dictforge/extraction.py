"""Candidate phrase extraction from lexical patterns.

Two pattern kinds produce the high-recall, low-precision candidate list:

* ``between``: phrases occurring between two literal token sequences,
  e.g. between "the" and "virus".
* ``after_trigger``: noun-phrase-like spans following a trigger sequence,
  e.g. after "diagnosed with", with coordinated lists split into one
  candidate per conjunct.

Matching is per sentence and pure; aggregation merges matches by
lowercase form and is independent of stream order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import Sentence, tokenize

__all__ = [
    "ExtractionPattern",
    "CandidatePhrase",
    "STOPWORDS",
    "extract_between",
    "extract_after_trigger",
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


def _find_literal(words: Sequence[str], literal: tuple[str, ...]) -> Iterator[int]:
    """Start of every occurrence of ``literal``, overlapping ones included."""
    m = len(literal)
    first = literal[0]
    for i in range(len(words) - m + 1):
        if words[i] == first and tuple(words[i : i + m]) == literal:
            yield i


def extract_between(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase phrases strictly between the left and right literals.

    Each left-literal occurrence pairs with the nearest following right
    literal; the gap must be 1..max_phrase_len tokens and contain no
    punctuation tokens, otherwise the occurrence yields nothing.
    """
    if pattern.kind != "between":
        raise ValueError("extract_between needs a 'between' pattern")
    return _between(sentence.tokens, sentence.lowers(), pattern)


def _between(
    tokens: Sequence[str], lower: Sequence[str], pattern: ExtractionPattern
) -> list[str]:
    words = tokens if pattern.case_sensitive else lower
    left, right = pattern.left, pattern.right
    out = []
    for i in _find_literal(words, left):
        gap_start = i + len(left)
        for gap in range(1, pattern.max_phrase_len + 1):
            j = gap_start + gap
            if j + len(right) > len(words):
                break
            if words[j] == right[0] and tuple(words[j : j + len(right)]) == right:
                if not any(_is_punct(t) for t in tokens[gap_start:j]):
                    out.append(" ".join(lower[gap_start:j]))
                break  # nearest right literal decides; farther ones ignored
    return out


def _conjunct_spans(
    tokens: Sequence[str], lower: Sequence[str], start: int, max_len: int
) -> list[tuple[int, int]]:
    """Noun-phrase-like spans after position ``start``.

    Skips leading stopwords, collects non-stopword non-punctuation tokens
    up to ``max_len``, and continues across "," / "and" / "or" so a
    coordinated list yields one span per conjunct.
    """
    n = len(lower)
    spans = []
    i = start
    while i < n:
        while i < n and lower[i] in STOPWORDS and lower[i] not in _COORDINATORS:
            i += 1
        s = i
        while i < n and lower[i] not in STOPWORDS and not _is_punct(tokens[i]) and i - s < max_len:
            i += 1
        if i > s:
            spans.append((s, i))
        if i < n and lower[i] in _COORDINATORS:
            i += 1
            continue
        break
    return spans


def extract_after_trigger(sentence: Sentence, pattern: ExtractionPattern) -> list[str]:
    """Lowercase noun-phrase-like candidates following each trigger occurrence."""
    if pattern.kind != "after_trigger":
        raise ValueError("extract_after_trigger needs an 'after_trigger' pattern")
    return _after_trigger(sentence.tokens, sentence.lowers(), pattern)


def _after_trigger(
    tokens: Sequence[str], lower: Sequence[str], pattern: ExtractionPattern
) -> list[str]:
    trigger = pattern.trigger
    words = tokens if pattern.case_sensitive else lower
    return [
        " ".join(lower[s:e])
        for i in _find_literal(words, trigger)
        for s, e in _conjunct_spans(tokens, lower, i + len(trigger), pattern.max_phrase_len)
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
    sentences: Iterable[Sentence], patterns: Sequence[ExtractionPattern]
) -> list[CandidatePhrase]:
    """Run every pattern over the sentence stream and aggregate; each
    sentence is lowercased once for all patterns."""

    def matches() -> Iterator[str]:
        for sentence in sentences:
            tokens, lower = sentence.tokens, sentence.lowers()
            for p in patterns:
                yield from (_between if p.kind == "between" else _after_trigger)(tokens, lower, p)

    return aggregate_candidates(matches())


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
        return parse_patterns(fh)


def write_candidates(candidates: Sequence[CandidatePhrase], fh) -> None:
    """One record per line: lowercase form TAB frequency."""
    for c in candidates:
        fh.write(f"{c.lower}\t{c.freq}\n")


def read_candidates(path: str | Path) -> list[CandidatePhrase]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            lower, freq = line.split("\t")
            out.append(CandidatePhrase(lower, int(freq)))
    return out
