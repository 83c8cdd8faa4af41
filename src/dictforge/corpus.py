"""Corpus ingestion: sentence segmentation and tokenization.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "Sentence",
    "word_shape",
    "tokenize",
    "segment_sentences",
    "read_corpus",
    "iter_sentences",
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


# Chunks (lowercased, period included) after which a period never ends a
# sentence; single initials ("J. Smith") among them.
_ABBREVIATIONS = frozenset(
    {
        "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
        "fig.", "figs.", "eq.", "eqs.", "ref.", "refs.", "no.", "nos.",
        "e.g.", "i.e.", "al.", "etc.", "vs.", "cf.", "ca.", "approx.",
        "spp.", "sp.", "var.",
    }
    | {f"{c}." for c in string.ascii_lowercase}
)

# A run of terminators followed by whitespace; group 1 is the character
# after the whitespace.
_TERMINATOR_RUN = re.compile(r"[.?!]+(?=\s+(\S))")


def _word_before(document: str, pos: int) -> str:
    """The whitespace-delimited chunk ending at ``pos`` (exclusive)."""
    i = pos
    while i > 0 and not document[i - 1].isspace():
        i -= 1
    return document[i:pos]


def segment_sentences(document: str, doc_id: str = "") -> list[Sentence]:
    """Split a document at ``[.?!]`` runs followed by whitespace and an
    uppercase letter or digit, then tokenize each sentence.

    A trailing-period split is suppressed when the chunk ending at the
    period (lowercased, period included) is in ``_ABBREVIATIONS``.
    Empty or whitespace-only input yields an empty list.
    """
    boundaries = [0]
    for m in _TERMINATOR_RUN.finditer(document):
        after = m.group(1)
        if not (after.isupper() or after.isdigit()):
            continue
        run = m.group()
        if "?" in run or "!" in run or _word_before(document, m.end()).lower() not in _ABBREVIATIONS:
            boundaries.append(m.end())
    boundaries.append(len(document))

    sentences = []
    for start, end in zip(boundaries, boundaries[1:]):
        tokens = tuple(_TOKEN.findall(document, start, end))
        if tokens:
            sentences.append(Sentence(doc_id, len(sentences), tokens))
    return sentences


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


def iter_sentences(path: str | Path) -> Iterator[Sentence]:
    """Stream sentences from a corpus location, document by document."""
    for doc_id, text in read_corpus(path):
        yield from segment_sentences(text, doc_id=doc_id)
