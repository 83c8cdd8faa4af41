"""Corpus ingestion: sentence segmentation, tokenization, interning and
phrase matching.

A corpus file holds one document per line and is streamed in chunks of whole
lines (about ``_CHUNK_CHARS`` characters each); a corpus directory holds one
document per file and is streamed a file at a time.  Each chunk is
NFC-normalized once and split into whitespace pieces, line by line for a
file so that the lines' piece counts place the document ends.  The pieces
are interned as each line is split, so only the distinct ones are kept, and
each distinct piece is judged once: whether a sentence may end after it
(``[.?!]`` last, no abbreviation), whether one may start with it (uppercase
or digit first) and its tokens (the piece whole when it starts and ends
alphanumeric, the token regex otherwise).  Numpy then copies these to every
occurrence, so a repeated word costs one dict lookup.
Memory is bounded by one chunk plus what the caller keeps.
:func:`intern_corpus` keeps int32 token ids, one lowercase id per token type,
sentence offsets and each sentence's document and index within it;
:func:`iter_chunks` interns each chunk on its own and :func:`iter_sentences`
yields :class:`Sentence` objects instead; :meth:`Corpus.of` and
:meth:`Corpus.of_tokens` intern tokens given in memory as they stand.
:class:`PhraseTrie`, built level by level with one ``np.unique`` of (node,
word) keys per depth, finds every occurrence of lowercase phrases in an
interned corpus, and :func:`longest_first` keeps the longest-first,
non-overlapping matches among them, for the views, dictionary tagging and
scoring, and the CRF; :func:`check_phrases` rejects a listed phrase that
could never match.  :func:`open_text` opens every text file the package
reads, so a file that is not UTF-8 is named (inside a corpus directory,
the file itself), and :func:`load_npz` reads the package's ``.npz``
artifacts, nothing unpickled.
Segmentation and tokenization are deterministic, rule-based approximations;
a token is traced back to its source through its sentence's doc id and
index and its position in the sentence.
"""

from __future__ import annotations

import re
import string
import unicodedata
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

__all__ = [
    "Corpus",
    "PhraseTrie",
    "longest_first",
    "Sentence",
    "word_shape",
    "tokenize",
    "segment_sentences",
    "intern_corpus",
    "iter_chunks",
    "iter_sentences",
]

# Shape classes for a token's capitalization pattern.
SHAPE_ALL_LOWER = "allLower"
SHAPE_INIT_CAP = "initCap"
SHAPE_ALL_CAPS = "allCaps"
SHAPE_MIXED = "mixed"
SHAPE_NON_ALPHA = "nonAlpha"

# Distinguished symbol for context slots that fall outside the sentence.
BOUNDARY = "⊥"


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


def _piece_tokens(piece: str) -> list[str]:
    """The tokens of one whitespace piece: ``_TOKEN.findall``, but a piece
    that starts and ends alphanumeric is the regex's first alternative whole."""
    if piece[0].isalnum() and piece[-1].isalnum():
        return [piece]
    return _TOKEN.findall(piece)


def tokenize(sentence_text: str) -> list[str]:
    """Whitespace tokenization with edge-punctuation detachment.

    Leading and trailing non-alphanumeric characters of each whitespace
    piece become single-character tokens; interior punctuation is kept, so
    hyphenated words ("Epstein-Barr") and decimals ("3.5") stay whole.
    The reader applies the same rule once to each distinct piece.
    """
    return [t for piece in sentence_text.split() for t in _piece_tokens(piece)]


# Pieces (lowercased, period included) after which a period never ends a
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

# readlines size hint: a chunk is the whole lines that first reach it
_CHUNK_CHARS = 1 << 20


def _ends_sentence(piece: str) -> bool:
    """Whether a sentence ends after ``piece`` when the next piece starts
    with an uppercase letter or a digit: ``piece`` ends in ``[.?!]`` and,
    lowercased, is no abbreviation (none holds ``?`` or ``!``)."""
    return piece[-1] in ".?!" and piece.lower() not in _ABBREVIATIONS


class _Ids(dict):
    """Ids in order of first lookup: a missing key gets the next one."""

    def __missing__(self, key: str) -> int:
        self[key] = value = len(self)
        return value


def _first_appearance(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in order of first appearance, and each code's
    position among them."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


class _Chunk(NamedTuple):
    """The sentences of whole documents as interned whitespace pieces, not
    yet tokenized: the i-th piece is ``pieces[piece[i]]``, the distinct
    pieces being in order of first appearance; sentence k is pieces
    ``starts[k]:starts[k + 1]``, ``doc[k]`` numbers its document and
    ``index[k]`` is its position among the document's sentences."""

    pieces: list[str]
    piece: np.ndarray
    starts: np.ndarray
    doc: np.ndarray
    index: np.ndarray


def _segment(text: str, lines: bool, first: int = 0) -> _Chunk:
    """Split ``text`` into interned whitespace pieces and sentences:
    document ``first``, or with ``lines`` one document per
    ``\\n``-separated line from ``first`` on, where a line end also ends a
    sentence.  Sentences without pieces are dropped.

    Each line's pieces are interned as it is split, so only the distinct
    ones are kept, and the line ends are placed by the lines' piece counts.
    A sentence also ends after piece i when :func:`_ends_sentence` holds
    for it and piece i + 1 starts uppercase or with a digit; both are
    decided once per distinct piece.
    """
    distinct = _Ids()
    piece, counts, piece_id = [], [], distinct.__getitem__
    for row in text.split("\n") if lines else [text]:
        row_pieces = row.split()
        counts.append(len(row_pieces))
        piece += map(piece_id, row_pieces)
    pieces, piece = list(distinct), np.array(piece, np.int64)
    ends = np.fromiter(map(_ends_sentence, pieces), bool, len(pieces))
    opens = np.fromiter((p[0].isupper() or p[0].isdigit() for p in pieces), bool, len(pieces))
    after = np.flatnonzero(ends[piece[:-1]] & opens[piece[1:]]) + 1
    row_ends = np.cumsum(counts)
    size = len(piece)
    starts = np.unique(np.concatenate(([0], row_ends, after)))
    starts = starts[starts < size]
    doc = first + np.searchsorted(row_ends, starts, side="right")
    index = np.arange(len(starts)) - np.searchsorted(doc, doc)
    return _Chunk(pieces, piece, np.append(starts, size), doc, index)


def _sentences(corpus: Corpus) -> Iterator[Sentence]:
    types = list(corpus.vocab)
    tokens = list(map(types.__getitem__, corpus.ids.tolist()))
    starts = corpus.starts.tolist()
    for d, k, a, b in zip(corpus.doc.tolist(), corpus.index.tolist(), starts, starts[1:]):
        yield Sentence(corpus.doc_id(d), k, tuple(tokens[a:b]))


def segment_sentences(document: str, doc_id: str = "") -> list[Sentence]:
    """Split a document at ``[.?!]`` runs followed by whitespace and an
    uppercase letter or digit, then tokenize each sentence.

    A trailing-period split is suppressed when the piece ending at the
    period (lowercased, period included) is in ``_ABBREVIATIONS``.
    Empty or whitespace-only input yields an empty list.
    """
    return list(_sentences(_intern([doc_id].__getitem__, [_segment(document, False)])))


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
        return [p.name for p in files].__getitem__, _files(files)
    if path.is_file():
        return _LineIds(path.name), _lines(path)
    raise FileNotFoundError(f"corpus path does not exist: {path}")


class _LineIds(NamedTuple):
    """Doc ids of a corpus file: ``<file name>:<line>``."""

    name: str

    def __call__(self, line: int) -> str:
        return f"{self.name}:{line}"


def _files(files: Sequence[Path]) -> Iterator[_Chunk]:
    for i, path in enumerate(files):
        with open_text(path) as fh:
            chunk = _segment(unicodedata.normalize("NFC", fh.read()), False, i)
        yield chunk


def _lines(path: Path) -> Iterator[_Chunk]:
    with open_text(path) as fh:
        first = 1
        while lines := fh.readlines(_CHUNK_CHARS):
            # text mode ends every line with "\n" alone, and NFC never
            # composes across one, so one call covers the lines
            count, text = len(lines), unicodedata.normalize("NFC", "".join(lines))
            del lines  # only the text is held while it is split
            chunk = _segment(text, True, first)
            del text  # and only the chunk while the caller has it
            yield chunk
            first += count


def iter_sentences(path: str | Path) -> Iterator[Sentence]:
    """Stream sentences from a corpus location, chunk by chunk."""
    for corpus in iter_chunks(path):
        yield from _sentences(corpus)


def iter_chunks(path: str | Path) -> Iterator[Corpus]:
    """Stream a corpus location chunk by chunk, each chunk interned on its
    own (positions and ids start at 0 in each)."""
    doc_id, chunks = _read(path)
    for chunk in chunks:
        yield _intern(doc_id, [chunk])


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

    def doc_ranks(self, docs: np.ndarray) -> np.ndarray:
        """Rank of each of the distinct document numbers ``docs`` among them
        when their doc ids are compared as strings, so "c:10" precedes "c:2"."""
        if isinstance(self.doc_id, _LineIds):
            # every doc id is "<file name>:<line>": the lines' decimal strings decide
            order = np.argsort(docs.astype(str), kind="stable")
        else:
            names = [self.doc_id(d) for d in docs.tolist()]
            order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(docs), dtype=np.int64)
        rank[order] = np.arange(len(docs))
        return rank

    @classmethod
    def of(cls, sentences: Iterable[Sentence]) -> "Corpus":
        """In-memory sentences, interned with their tokens as given; doc ids
        are numbered in order of first appearance."""
        sentences = list(sentences)
        names: dict[str, int] = {}
        chunk = _token_chunk(
            [s.tokens for s in sentences],
            np.array([names.setdefault(s.doc_id, len(names)) for s in sentences], dtype=np.int64),
            np.array([s.index for s in sentences], dtype=np.int64),
        )
        return _intern(list(names).__getitem__, [chunk], split=False)

    @classmethod
    def of_tokens(cls, texts: Sequence[Sequence[str]]) -> "Corpus":
        """Token lists as the sentences of one document with doc id ``""``,
        interned with their tokens as given."""
        chunk = _token_chunk(
            texts, np.zeros(len(texts), dtype=np.int64), np.arange(len(texts), dtype=np.int64)
        )
        return _intern([""].__getitem__, [chunk], split=False)


def _token_chunk(texts: Sequence[Sequence[str]], doc: np.ndarray, index: np.ndarray) -> _Chunk:
    """Token lists as the sentences of a chunk, each token one piece."""
    starts = np.cumsum([0] + [len(tokens) for tokens in texts])
    distinct = _Ids()
    piece = np.fromiter(map(distinct.__getitem__, chain.from_iterable(texts)), np.int64, starts[-1])
    return _Chunk(list(distinct), piece, starts, doc, index)


def _intern(doc_id: Callable[[int], str], chunks: Iterable[_Chunk], split: bool = True) -> Corpus:
    """Intern chunk after chunk, so only one chunk's pieces are held.

    Each distinct piece of a chunk is tokenized once (with ``split``;
    otherwise it is one token as given), in order of first appearance, so
    type ids follow first appearance too, and numpy copies its type ids to
    every occurrence.
    """
    vocab = _Ids()
    ids, starts, docs, index = [np.zeros(0, np.int32)], [], [], []
    size = 0
    for chunk in chunks:
        piece = chunk.piece
        if split:
            piece_types = [list(map(vocab.__getitem__, _piece_tokens(p))) for p in chunk.pieces]
            # the type ids of the distinct pieces, one after another
            width = np.fromiter(map(len, piece_types), np.int64, len(piece_types))
            flat = np.fromiter(chain.from_iterable(piece_types), np.int32, int(width.sum()))
        else:  # each piece is one token, as given
            width = np.ones(len(chunk.pieces), np.int64)
            flat = np.fromiter(map(vocab.__getitem__, chunk.pieces), np.int32, len(chunk.pieces))
        # token offset of each piece, and of the chunk's end
        count = width[piece]
        at = np.concatenate(([0], np.cumsum(count)))
        if len(flat) == len(width):  # one token per piece, as for given tokens
            ids.append(flat[piece])
        else:
            offset = np.cumsum(width) - width
            ids.append(flat[np.repeat(offset[piece] - at[:-1], count) + np.arange(at[-1])])
        starts.append(at[chunk.starts[:-1]] + size)
        docs.append(chunk.doc)
        index.append(chunk.index)
        size += int(at[-1])
    lowers: dict[str, int] = {}
    lower = [lowers.setdefault(t.lower(), len(lowers)) for t in vocab]
    return Corpus(
        ids=np.concatenate(ids),
        starts=np.concatenate([*starts, [size]]).astype(np.int64),
        doc=np.concatenate([*docs, []]).astype(np.int64),
        index=np.concatenate([*index, []]).astype(np.int64),
        vocab=dict(vocab),  # a plain dict: looking up an unknown text adds nothing
        lower=np.array(lower, dtype=np.int32),
        lowers=lowers,
        doc_id=doc_id,
    )


def intern_corpus(path: str | Path) -> Corpus:
    """Read and intern a corpus location in one streaming pass."""
    return _intern(*_read(path))


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


class PhraseTrie:
    """Lowercase space-joined phrases as a trie over the phrases' own word
    ids, built once and matched in any number of interned corpora."""

    def __init__(self, phrases: Iterable[str]):
        """Word ids follow first listing.  The trie is built level by
        level: at each depth one ``np.unique`` over the phrases longer than
        it interns the level's edges (node, word), so the nodes of a depth
        are numbered after those above it, in edge-key order."""
        phrases = list(phrases)
        listed = " ".join(phrases).split(" ") if phrases else []  # every word, in order
        self.words = words = dict(zip(dict.fromkeys(listed), range(len(listed))))
        # word id len(words) stands for every word no phrase holds
        self.width = width = len(words) + 1
        flat = np.fromiter(map(words.__getitem__, listed), np.int64, len(listed))
        size = np.fromiter(map(str.count, phrases, repeat(" ")), np.int64, len(phrases)) + 1
        first = np.cumsum(size) - size  # each phrase's first word in ``flat``
        node = np.zeros(len(phrases), np.int64)  # each phrase's node at the current depth
        live = np.arange(len(phrases))  # the phrases longer than the depth
        keys, children, nodes = [np.array([-1])], [np.array([-1])], 1  # -1: no key equals it
        depth = 0
        while len(live := live[size[live] > depth]):
            edge = node[live] * width + flat[first[live] + depth]
            level, child = np.unique(edge, return_inverse=True)
            keys.append(level)
            children.append(nodes + np.arange(len(level)))
            node[live] = nodes + child
            nodes += len(level)
            depth += 1
        self.keys = np.concatenate(keys)
        self.children = np.concatenate(children)
        # node -> the first phrase it completes, or -1
        first_end = np.full(nodes, len(phrases), np.int64)
        np.minimum.at(first_end, node, np.arange(len(phrases)))
        self.ends_at = np.where(first_end < len(phrases), first_end, -1)
        self.root = np.full(width, -1, dtype=np.int64)  # the root's children, by word id
        at_root = self.keys[1:] < width  # the root's edges come first
        self.root[self.keys[1:][at_root]] = self.children[1:][at_root]

    def occurrences(self, corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every occurrence of a phrase inside a sentence of ``corpus``,
        ordered by start and then longest first: occurrence r is phrase
        ``phrase[r]`` (the index of its first listing) at tokens
        ``start[r]:end[r]``.

        Each lowercase type of the corpus is looked up once; every position
        where a phrase's first word occurs then walks the trie, one array
        step per word for all positions at once.
        """
        unknown = self.width - 1
        word_of = np.fromiter(
            map(self.words.get, corpus.lowers, repeat(unknown)), np.int64, len(corpus.lowers)
        )
        words = word_of[corpus.lower][corpus.ids]
        # each live start position stands at a trie node, ``depth`` words in
        start = np.flatnonzero(self.root[words] >= 0)
        stop = corpus.sentence_end(start)
        node = self.root[words[start]]
        hits = [(start[:0],) * 3]  # (start, end, phrase) completed at each depth
        depth = 1
        while len(start):
            done = self.ends_at[node] >= 0
            hits.append((start[done], start[done] + depth, self.ends_at[node[done]]))
            more = start + depth < stop
            start, stop, node = start[more], stop[more], node[more]
            key = node * self.width + words[start + depth]
            k = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
            found = self.keys[k] == key
            start, stop, node = start[found], stop[found], self.children[k[found]]
            depth += 1
        start, end, phrase = map(np.concatenate, zip(*hits))
        order = np.lexsort((start - end, start))
        return start[order], end[order], phrase[order]

    def match(self, corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Kept matches in corpus order: match r is phrase ``phrase[r]`` (its
        index in the phrase list) at tokens ``start[r]:end[r]``.

        The rule is longest-leftmost, non-overlapping matching of
        lowercased tokens, one sentence at a time: :func:`longest_first`
        over :meth:`occurrences`.  ``tests/oracles.py`` keeps the rule's
        token-string matcher, against which this is tested.
        """
        start, end, phrase = self.occurrences(corpus)
        kept = longest_first(start, end)
        return start[kept], end[kept], phrase[kept]


def longest_first(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Indices of the occurrences ``start[r]:end[r]``, ordered by start and
    then longest first, that the longest-first, non-overlapping rule keeps:
    each one starting at or past the end of the last one kept, so the
    longest wins at each position and ties resolve leftmost."""
    kept, reached = [], 0
    for r, (i, e) in enumerate(zip(start.tolist(), end.tolist())):
        if i >= reached:
            kept.append(r)
            reached = e
    return np.array(kept, dtype=np.int64)


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; a ``UnicodeDecodeError`` raised while
    the block reads it becomes a ``ValueError`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_npz(
    path: str | Path, keys: Sequence[str], optional: Sequence[str] = ()
) -> list[np.ndarray | None]:
    """The arrays ``keys``, then ``optional`` (None where absent), of the
    ``.npz`` file at ``path``, nothing unpickled.  A file that is not a
    readable ``.npz``, an array that does not load (an object array among
    them) and a missing one of ``keys`` raise ``ValueError`` naming the
    file; so should the caller's checks of the arrays."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:
            if missing := [key for key in keys if key not in data.files]:
                raise ValueError(f"missing array(s) {', '.join(missing)}")
            return [data[key] if key in data.files else None for key in (*keys, *optional)]
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npz file ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
