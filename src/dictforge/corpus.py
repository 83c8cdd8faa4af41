"""Corpus ingestion: sentence segmentation, tokenization and interning.

A corpus file holds one document per line and is streamed in chunks of whole
lines (about ``_CHUNK_CHARS`` characters each); a corpus directory holds one
document per file and is streamed a file at a time.  Each chunk is
NFC-normalized once and split by one pass of the terminator regex and one of
the token regex over the whole chunk, so memory is bounded by one chunk plus
what the caller keeps.  :func:`intern_corpus` keeps int32 token ids, one
lowercase id per token type, sentence offsets and each sentence's document
and index within it; :func:`iter_sentences` yields :class:`Sentence` objects
instead.  Segmentation and tokenization are deterministic, rule-based
approximations; a token is traced back to its source through its sentence's
doc id and index and its position in the sentence.
"""

from __future__ import annotations

import re
import string
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "Corpus",
    "Sentence",
    "word_shape",
    "tokenize",
    "segment_sentences",
    "intern_corpus",
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


# A run of non-whitespace from its first to its last alphanumeric character
# (the greedy run backs off until the lookbehind sees one), or one other
# non-whitespace character.  ``[^\W_]`` is exactly ``str.isalnum`` and
# ``\s`` exactly ``str.isspace``.
_TOKEN = re.compile(r"[^\W_]\S*(?<=[^\W_])|\S")

# ``str.isspace`` by code point up to U+3000, the last whitespace character;
# the final False stands for every code point above it.
_SPACE = np.array([chr(c).isspace() for c in range(0x3001)] + [False])


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
# after the whitespace.  (A lone first class scans faster than ``[.?!]+``.)
_TERMINATOR_RUN = re.compile(r"[.?!][.?!]*(?=\s+(\S))")

# readlines size hint: a chunk is the whole lines that first reach it
_CHUNK_CHARS = 1 << 20


def _word_before(document: str, pos: int) -> str:
    """The whitespace-delimited chunk ending at ``pos`` (exclusive)."""
    i = pos
    while i > 0 and not document[i - 1].isspace():
        i -= 1
    return document[i:pos]


def _sentence_ends(text: str) -> list[int]:
    """Positions just past each ``[.?!]`` run that ends a sentence: one
    followed by whitespace and an uppercase letter or digit, unless the run
    is periods only and the chunk ending with it (lowercased, period
    included) is in ``_ABBREVIATIONS``."""
    ends = []
    for m in _TERMINATOR_RUN.finditer(text):
        after = m.group(1)
        if not (after.isupper() or after.isdigit()):
            continue
        run = m.group()
        if "?" in run or "!" in run or _word_before(text, m.end()).lower() not in _ABBREVIATIONS:
            ends.append(m.end())
    return ends


class _Chunk(NamedTuple):
    """The sentences of whole documents, not yet interned: sentence k is
    ``tokens[starts[k]:starts[k + 1]]``, ``doc[k]`` numbers its document and
    ``index[k]`` is its position among the document's sentences."""

    tokens: list[str]
    starts: np.ndarray
    doc: np.ndarray
    index: np.ndarray


def _split(text: str, lines: bool, first: int = 0) -> _Chunk:
    """Segment and tokenize ``text``: document ``first``, or with ``lines``
    one document per line from ``first`` on, where a newline also ends a
    sentence.  Sentences without tokens are dropped.

    Tokens never hold whitespace and every boundary is at a whitespace
    edge, so both are placed by their count of non-whitespace characters
    before them: tokens and boundaries come from one regex pass each over
    the whole text.
    """
    tokens = _TOKEN.findall(text)
    lengths = np.fromiter(map(len, tokens), np.int64, len(tokens))
    at = np.cumsum(lengths) - lengths
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    spaces = np.flatnonzero(_SPACE[np.minimum(codes, len(_SPACE) - 1)])
    newlines = np.flatnonzero(codes == 10) if lines else spaces[:0]
    newlines -= np.searchsorted(spaces, newlines)
    ends = np.array(_sentence_ends(text), dtype=np.int64)
    bounds = np.sort(np.concatenate((ends - np.searchsorted(spaces, ends), newlines)))
    segment = np.searchsorted(bounds, at, side="right")
    starts = np.flatnonzero(np.diff(segment, prepend=-1))
    doc = first + np.searchsorted(newlines, at[starts], side="right")
    index = np.arange(len(starts)) - np.searchsorted(doc, doc)
    return _Chunk(tokens, np.append(starts, len(tokens)), doc, index)


def _sentences(doc_id: Callable[[int], str], chunk: _Chunk) -> Iterator[Sentence]:
    tokens, starts, doc, index = chunk
    for d, k, a, b in zip(doc.tolist(), index.tolist(), starts.tolist(), starts[1:].tolist()):
        yield Sentence(doc_id(d), k, tuple(tokens[a:b]))


def segment_sentences(document: str, doc_id: str = "") -> list[Sentence]:
    """Split a document at ``[.?!]`` runs followed by whitespace and an
    uppercase letter or digit, then tokenize each sentence.

    A trailing-period split is suppressed when the chunk ending at the
    period (lowercased, period included) is in ``_ABBREVIATIONS``.
    Empty or whitespace-only input yields an empty list.
    """
    return list(_sentences(lambda d: doc_id, _split(document, False)))


def _read(path: str | Path) -> tuple[Callable[[int], str], Iterator[_Chunk]]:
    """The doc id of each document number, and the corpus's chunks.

    A directory is one document per file, numbered in name order, with the
    file name as its doc id; a file is one document per line, numbered
    from 1, with doc id ``<file name>:<line>``.  A line is what text-mode
    iteration yields, so ``\\r\\n`` and a lone ``\\r`` end one but ``\\x1c``
    or ``\\u2028`` do not.  Text is NFC-normalized on ingest.
    """
    path = Path(path)
    if path.is_dir():
        files = [p for p in sorted(path.iterdir()) if p.is_file()]
        chunks = (
            _split(unicodedata.normalize("NFC", p.read_text(encoding="utf-8")), False, i)
            for i, p in enumerate(files)
        )
        return [p.name for p in files].__getitem__, chunks
    if path.is_file():
        return f"{path.name}:{{}}".format, _lines(path)
    raise FileNotFoundError(f"corpus path does not exist: {path}")


def _lines(path: Path) -> Iterator[_Chunk]:
    with path.open(encoding="utf-8") as fh:
        first = 1
        while lines := fh.readlines(_CHUNK_CHARS):
            # NFC never composes across a newline, so one call covers the lines
            yield _split(unicodedata.normalize("NFC", "".join(lines)), True, first)
            first += len(lines)


def iter_sentences(path: str | Path) -> Iterator[Sentence]:
    """Stream sentences from a corpus location, chunk by chunk."""
    doc_id, chunks = _read(path)
    for chunk in chunks:
        yield from _sentences(doc_id, chunk)


@dataclass(eq=False)
class Corpus:
    """Sentences as interned token ids.

    Sentence k is ``ids[starts[k]:starts[k + 1]]``, of the document numbered
    ``doc[k]`` (doc id ``doc_id(doc[k])``), at position ``index[k]`` among its
    sentences.  ``vocab`` maps each token type's text to its id and
    ``lowers`` each lowercase form to its id, both in id order; ``lower[t]``
    is the lowercase id of type t.
    """

    ids: np.ndarray
    starts: np.ndarray
    doc: np.ndarray
    index: np.ndarray
    vocab: dict[str, int]
    lower: np.ndarray
    lowers: dict[str, int]
    doc_id: Callable[[int], str]

    @cached_property
    def lower_ids(self) -> np.ndarray:
        return self.lower[self.ids]

    def sentence_end(self, positions: np.ndarray) -> np.ndarray:
        """End of the sentence holding each token position."""
        return self.starts[np.searchsorted(self.starts, positions, side="right")]

    @classmethod
    def of(cls, sentences: Iterable[Sentence]) -> "Corpus":
        """In-memory sentences, interned; doc ids are numbered in order of
        first appearance."""
        sentences = list(sentences)
        names: dict[str, int] = {}
        chunk = _Chunk(
            [t for s in sentences for t in s.tokens],
            np.cumsum([0] + [len(s.tokens) for s in sentences]),
            np.array([names.setdefault(s.doc_id, len(names)) for s in sentences], dtype=np.int64),
            np.array([s.index for s in sentences], dtype=np.int64),
        )
        return _intern(list(names).__getitem__, [chunk])


def _intern(doc_id: Callable[[int], str], chunks: Iterable[_Chunk]) -> Corpus:
    """Intern chunk after chunk, so only one chunk's token strings are held."""
    vocab: dict[str, int] = {}
    ids, starts, docs, index = [np.zeros(0, np.int32)], [], [], []
    size = 0
    for chunk in chunks:
        new = [t for t in dict.fromkeys(chunk.tokens) if t not in vocab]
        vocab.update(zip(new, range(len(vocab), len(vocab) + len(new))))
        ids.append(np.fromiter(map(vocab.__getitem__, chunk.tokens), np.int32, len(chunk.tokens)))
        starts.append(chunk.starts[:-1] + size)
        docs.append(chunk.doc)
        index.append(chunk.index)
        size += len(chunk.tokens)
    lowers: dict[str, int] = {}
    lower = [lowers.setdefault(t.lower(), len(lowers)) for t in vocab]
    return Corpus(
        ids=np.concatenate(ids),
        starts=np.concatenate([*starts, [size]]).astype(np.int64),
        doc=np.concatenate([*docs, []]).astype(np.int64),
        index=np.concatenate([*index, []]).astype(np.int64),
        vocab=vocab,
        lower=np.array(lower, dtype=np.int32),
        lowers=lowers,
        doc_id=doc_id,
    )


def intern_corpus(path: str | Path) -> Corpus:
    """Read and intern a corpus location in one streaming pass."""
    return _intern(*_read(path))
