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

from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Sentence, VocabStats

__all__ = [
    "ExtractionPattern",
    "CandidatePhrase",
    "STOPWORDS",
    "extract_between",
    "extract_after_trigger",
    "extract_candidates",
    "aggregate_candidates",
    "candidates_from_vocab",
    "parse_patterns",
    "load_patterns",
    "load_chunks",
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
    sequences; matching lowercases both sides unless ``case_sensitive``.
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


@dataclass(frozen=True)
class CandidatePhrase:
    """A candidate phrase: surface tokens plus corpus frequency.

    Per-sentence extraction emits freq=1 matches with the surface form at
    the match site; aggregation sums frequencies and keeps the most common
    casing as the representative surface.
    """

    tokens: tuple[str, ...]
    lower: str
    freq: int = 1

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], freq: int = 1) -> "CandidatePhrase":
        toks = tuple(tokens)
        return cls(toks, " ".join(t.lower() for t in toks), freq)

    @property
    def rare(self) -> bool:
        return self.freq < 2


def _is_punct(text: str) -> bool:
    return not any(c.isalnum() for c in text)


def _match_words(sentence: Sentence, pattern: ExtractionPattern) -> Sequence[str]:
    if pattern.case_sensitive:
        return sentence.tokens
    return sentence.lowers()


def _literal(words: Sequence[str], pattern: ExtractionPattern) -> tuple[str, ...]:
    if pattern.case_sensitive:
        return tuple(words)
    return tuple(w.lower() for w in words)


def _find_literal(words: Sequence[str], literal: tuple[str, ...], start: int = 0) -> Iterator[int]:
    m = len(literal)
    for i in range(start, len(words) - m + 1):
        if tuple(words[i : i + m]) == literal:
            yield i


def extract_between(sentence: Sentence, pattern: ExtractionPattern) -> list[CandidatePhrase]:
    """Phrases strictly between the left and right literals.

    Each left-literal occurrence pairs with the nearest following right
    literal; the gap must be 1..max_phrase_len tokens and contain no
    punctuation tokens, otherwise the occurrence yields nothing.
    """
    if pattern.kind != "between":
        raise ValueError("extract_between needs a 'between' pattern")
    words = _match_words(sentence, pattern)
    left = _literal(pattern.left, pattern)
    right = _literal(pattern.right, pattern)
    out = []
    for i in _find_literal(words, left):
        gap_start = i + len(left)
        for gap in range(1, pattern.max_phrase_len + 1):
            j = gap_start + gap
            if j + len(right) > len(words):
                break
            if tuple(words[j : j + len(right)]) == right:
                span = sentence.tokens[gap_start:j]
                if not any(_is_punct(t) for t in span):
                    out.append(CandidatePhrase.from_tokens(span))
                break  # nearest right literal decides; farther ones ignored
    return out


def _conjunct_spans(sentence: Sentence, start: int, pattern: ExtractionPattern) -> list[tuple[int, int]]:
    """Noun-phrase-like spans after position ``start``.

    Skips leading stopwords, collects non-stopword non-punctuation tokens
    up to max_phrase_len, and continues across "," / "and" / "or" so a
    coordinated list yields one span per conjunct.
    """
    lower = sentence.lowers()
    n = len(lower)
    spans = []
    i = start
    while i < n:
        while i < n and lower[i] in STOPWORDS and lower[i] not in _COORDINATORS:
            i += 1
        s = i
        while (
            i < n
            and lower[i] not in STOPWORDS
            and not _is_punct(sentence.tokens[i])
            and i - s < pattern.max_phrase_len
        ):
            i += 1
        if i > s:
            spans.append((s, i))
        if i < n and lower[i] in _COORDINATORS:
            i += 1
            continue
        break
    return spans


def extract_after_trigger(
    sentence: Sentence,
    pattern: ExtractionPattern,
    chunks: dict[tuple[str, int], list[tuple[int, int]]] | None = None,
) -> list[CandidatePhrase]:
    """Noun-phrase-like candidates following each trigger occurrence.

    When ``chunks`` provides externally annotated chunk spans for this
    sentence (keyed by (doc_id, sentence index)), spans starting right
    after the trigger override the built-in heuristic: the chunk at the
    trigger end is taken, and further chunks separated only by
    coordinators continue the list.
    """
    if pattern.kind != "after_trigger":
        raise ValueError("extract_after_trigger needs an 'after_trigger' pattern")
    words = _match_words(sentence, pattern)
    trigger = _literal(pattern.trigger, pattern)
    out = []
    sentence_chunks = None
    if chunks is not None:
        sentence_chunks = chunks.get((sentence.doc_id, sentence.index))
    for i in _find_literal(words, trigger):
        after = i + len(trigger)
        if sentence_chunks is not None:
            spans = _chunk_spans(sentence, after, sentence_chunks)
        else:
            spans = _conjunct_spans(sentence, after, pattern)
        for s, e in spans:
            if e - s <= pattern.max_phrase_len:
                out.append(CandidatePhrase.from_tokens(sentence.tokens[s:e]))
    return out


def _chunk_spans(sentence: Sentence, start: int, chunk_list: list[tuple[int, int]]) -> list[tuple[int, int]]:
    lower = sentence.lowers()
    by_start = {s: (s, e) for s, e in chunk_list}
    spans = []
    pos = start
    while pos in by_start:
        span = by_start[pos]
        spans.append(span)
        pos = span[1]
        # continue only across a coordinated list
        while pos < len(lower) and lower[pos] in _COORDINATORS:
            pos += 1
        if pos == span[1]:
            break
    return spans


def aggregate_candidates(matches: Iterable[CandidatePhrase]) -> list[CandidatePhrase]:
    """Merge matches by lowercase form.

    Frequencies are summed; the representative surface is the most common
    casing (ties broken lexicographically), so the result is independent
    of stream order.  Sorted by frequency descending, then lowercase form.
    """
    freq: dict[str, int] = defaultdict(int)
    casings: dict[str, Counter] = defaultdict(Counter)
    for m in matches:
        freq[m.lower] += m.freq
        casings[m.lower][m.tokens] += m.freq
    out = []
    for lower, f in freq.items():
        surface = min(casings[lower].items(), key=lambda kv: (-kv[1], kv[0]))[0]
        out.append(CandidatePhrase(surface, lower, f))
    out.sort(key=lambda c: (-c.freq, c.lower))
    return out


def extract_candidates(
    sentences: Iterable[Sentence],
    patterns: Sequence[ExtractionPattern],
    chunks: dict[tuple[str, int], list[tuple[int, int]]] | None = None,
) -> list[CandidatePhrase]:
    """Run every pattern over the sentence stream and aggregate."""

    def matches() -> Iterator[CandidatePhrase]:
        for sentence in sentences:
            for p in patterns:
                if p.kind == "between":
                    yield from extract_between(sentence, p)
                else:
                    yield from extract_after_trigger(sentence, p, chunks)

    return aggregate_candidates(matches())


def candidates_from_vocab(vocab: VocabStats) -> list[CandidatePhrase]:
    """Single-word candidates from vocabulary types (word-embedding mode).

    Types without any alphabetic character (bare punctuation, numbers) are
    skipped.  Sorted like :func:`aggregate_candidates`.
    """
    out = [
        CandidatePhrase((w,), w, c)
        for w, c in vocab.counts.items()
        if any(ch.isalpha() for ch in w)
    ]
    out.sort(key=lambda c: (-c.freq, c.lower))
    return out


def parse_patterns(lines: Iterable[str]) -> list[ExtractionPattern]:
    """Parse the pattern declaration format, one pattern per line.

        between the ... virus
        after diagnosed with | max_len=4
        between the ... virus | case_sensitive

    "between" splits its literals at the "..." placeholder; "after" (or
    "after_trigger") takes the rest of the line as the trigger.  Options
    follow a "|": ``max_len=N`` and ``case_sensitive``.  Blank lines and
    ``#`` comments are ignored.
    """
    patterns = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        body, _, opts = line.partition("|")
        fields = body.split()
        kind, rest = fields[0], fields[1:]
        max_len = 5
        case_sensitive = False
        for opt in opts.split():
            if opt.startswith("max_len="):
                max_len = int(opt.split("=", 1)[1])
            elif opt == "case_sensitive":
                case_sensitive = True
            else:
                raise ValueError(f"line {lineno}: unknown option {opt!r}")
        if kind == "between":
            if "..." not in rest:
                raise ValueError(f"line {lineno}: between pattern needs '...'")
            cut = rest.index("...")
            patterns.append(
                ExtractionPattern(
                    "between",
                    left=tuple(rest[:cut]),
                    right=tuple(rest[cut + 1 :]),
                    max_phrase_len=max_len,
                    case_sensitive=case_sensitive,
                )
            )
        elif kind in ("after", "after_trigger"):
            patterns.append(
                ExtractionPattern(
                    "after_trigger",
                    trigger=tuple(rest),
                    max_phrase_len=max_len,
                    case_sensitive=case_sensitive,
                )
            )
        else:
            raise ValueError(f"line {lineno}: unknown pattern kind {kind!r}")
    if not patterns:
        raise ValueError("no patterns declared")
    return patterns


def load_patterns(path: str | Path) -> list[ExtractionPattern]:
    with open(path, encoding="utf-8") as fh:
        return parse_patterns(fh)


def load_chunks(path: str | Path) -> dict[tuple[str, int], list[tuple[int, int]]]:
    """Sidecar chunk annotations: ``doc_id TAB sentence_index TAB start TAB end``
    per line (token span, end exclusive), overriding the NP heuristic."""
    chunks: dict[tuple[str, int], list[tuple[int, int]]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            doc_id, idx, s, e = line.split("\t")
            chunks[(doc_id, int(idx))].append((int(s), int(e)))
    return dict(chunks)


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
            out.append(CandidatePhrase(tuple(lower.split(" ")), lower, int(freq)))
    return out
