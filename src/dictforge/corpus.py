"""Corpus ingestion: sentence segmentation, tokenization, vocabulary counts.

Documents are streamed one at a time; nothing here ever needs the whole
corpus in memory.  Segmentation and tokenization are deterministic,
rule-based approximations; a token is a plain string, traced back to its
source through its sentence's doc id and index and its position in the
sentence.
"""

from __future__ import annotations

import re
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Sentence",
    "VocabStats",
    "word_shape",
    "tokenize",
    "segment_sentences",
    "build_vocab",
    "read_corpus",
    "iter_sentences",
    "write_token_stream",
    "DEFAULT_ABBREVIATIONS",
]

# Shape classes for a token's capitalization pattern.
SHAPE_ALL_LOWER = "allLower"
SHAPE_INIT_CAP = "initCap"
SHAPE_ALL_CAPS = "allCaps"
SHAPE_MIXED = "mixed"
SHAPE_NON_ALPHA = "nonAlpha"


def word_shape(text: str) -> str:
    """Capitalization shape of ``text``; a pure function of the string."""
    letters = [c for c in text if c.isalpha()]
    if not letters:
        return SHAPE_NON_ALPHA
    if all(c.islower() for c in letters):
        return SHAPE_ALL_LOWER
    if all(c.isupper() for c in letters):
        return SHAPE_ALL_CAPS
    if text[0].isupper() and all(c.islower() for c in letters[1:]):
        return SHAPE_INIT_CAP
    return SHAPE_MIXED


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    index: int
    tokens: tuple[str, ...]

    def lowers(self) -> list[str]:
        return [t.lower() for t in self.tokens]


# A run of non-whitespace from its first to its last alphanumeric character,
# or one other non-whitespace character.  ``[^\W_]`` is exactly
# ``str.isalnum`` and ``\s`` exactly ``str.isspace``.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?|\S")


def tokenize(sentence_text: str) -> list[str]:
    """Whitespace tokenization with edge-punctuation detachment.

    Leading and trailing non-alphanumeric characters of each whitespace
    chunk become single-character tokens; interior punctuation is kept, so
    hyphenated words ("Epstein-Barr") and decimals ("3.5") stay whole.
    """
    return _TOKEN.findall(sentence_text)


def _default_abbreviations() -> frozenset[str]:
    common = {
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
        "fig.", "figs.", "eq.", "eqs.", "ref.", "refs.", "no.", "nos.",
        "e.g.", "i.e.", "al.", "etc.", "vs.", "cf.", "ca.", "approx.",
        "spp.", "sp.", "var.",
    }
    # Single initials ("J. Smith") never end a sentence.
    common.update(f"{c}." for c in string.ascii_lowercase)
    return frozenset(common)


DEFAULT_ABBREVIATIONS = _default_abbreviations()

# A run of terminators followed by whitespace; group 1 is the character
# after the whitespace.
_TERMINATOR_RUN = re.compile(r"[.?!]+(?=\s+(\S))")


def _word_before(document: str, pos: int) -> str:
    """The whitespace-delimited chunk ending at ``pos`` (exclusive)."""
    i = pos
    while i > 0 and not document[i - 1].isspace():
        i -= 1
    return document[i:pos]


def segment_sentences(
    document: str,
    doc_id: str = "",
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
) -> list[Sentence]:
    """Split a document at ``[.?!]`` runs followed by whitespace and an
    uppercase letter or digit, then tokenize each sentence.

    A trailing-period split is suppressed when the chunk ending at the
    period (lowercased, period included) is in the abbreviation stoplist.
    Empty or whitespace-only input yields an empty list.
    """
    boundaries = [0]
    for m in _TERMINATOR_RUN.finditer(document):
        after = m.group(1)
        if not (after.isupper() or after.isdigit()):
            continue
        run = m.group()
        if "?" in run or "!" in run or _word_before(document, m.end()).lower() not in abbreviations:
            boundaries.append(m.end())
    boundaries.append(len(document))

    sentences = []
    for start, end in zip(boundaries, boundaries[1:]):
        tokens = tuple(_TOKEN.findall(document, start, end))
        if tokens:
            sentences.append(Sentence(doc_id, len(sentences), tokens))
    return sentences


@dataclass
class VocabStats:
    """Lowercased token-type counts.

    ``total_tokens`` is always the sum of the retained counts, so the
    identity survives :meth:`top` truncation; merging partial stats from
    parallel workers is associative and commutative.
    """

    counts: dict[str, int]
    total_tokens: int

    @classmethod
    def empty(cls) -> "VocabStats":
        return cls({}, 0)

    def add_sentence(self, sentence: Sentence) -> None:
        for tok in sentence.lowers():
            self.counts[tok] = self.counts.get(tok, 0) + 1
        self.total_tokens += len(sentence.tokens)

    def merge(self, other: "VocabStats") -> "VocabStats":
        merged = Counter(self.counts)
        merged.update(other.counts)
        return VocabStats(dict(merged), self.total_tokens + other.total_tokens)

    def top(self, k: int) -> "VocabStats":
        """The ``k`` most frequent types; cutoff ties break lexicographically."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return VocabStats(dict(ranked), sum(c for _, c in ranked))


def build_vocab(sentences: Iterable[Sentence], top_k: int) -> VocabStats:
    """Count lowercased token types over a sentence stream and keep the
    ``top_k`` most frequent (fewer if the stream has fewer types)."""
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    stats = VocabStats.empty()
    for sentence in sentences:
        stats.add_sentence(sentence)
    return stats.top(top_k)


def read_corpus(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ``(doc_id, text)`` pairs from a corpus location.

    A directory is read as one document per file (sorted by name); a single
    file as one document per line.  Text is NFC-normalized on ingest.
    """
    path = Path(path)
    if path.is_dir():
        for p in sorted(path.iterdir()):
            if p.is_file():
                yield p.name, unicodedata.normalize("NFC", p.read_text(encoding="utf-8"))
    elif path.is_file():
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.rstrip("\n")
                if text.strip():
                    yield f"{path.name}:{lineno}", unicodedata.normalize("NFC", text)
    else:
        raise FileNotFoundError(f"corpus path does not exist: {path}")


def iter_sentences(
    path: str | Path,
    abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS,
) -> Iterator[Sentence]:
    """Stream sentences from a corpus location, document by document."""
    for doc_id, text in read_corpus(path):
        yield from segment_sentences(text, doc_id=doc_id, abbreviations=abbreviations)


def write_token_stream(sentences: Iterable[Sentence], fh) -> int:
    """Write one line per sentence: doc_id, sentence index, then one token
    per tab-separated field.  Returns the number of sentences written."""
    count = 0
    for s in sentences:
        fh.write("\t".join([s.doc_id, str(s.index), *s.tokens]) + "\n")
        count += 1
    return count
