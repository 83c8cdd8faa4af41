"""Two-view featurization of candidate occurrences.

Every corpus occurrence of a candidate phrase becomes one paired
observation: a *spelling* view (phrase identity + capitalization bit) and
a *context* view (position-conjoined words from a three-token window on
each side).  Occurrences are matched on the interned corpus by
:class:`~dictforge.corpus.PhraseTrie`, the matcher dictionary tagging also
uses, and their context windows, capitalization bits and locator order are
array operations (doc ids are ranked as strings by
:meth:`~dictforge.corpus.Corpus.doc_ranks`).  Both design matrices are
built from one interned occurrence table, a phrase id and six (position,
word) ids per row, so their rows are aligned by construction; Z has one
column per (position, word) slot of the table and none held in reserve.
A pipeline run stores the table, not the matrices, as ``views.table.npz``,
which cca, classify, embed and cotrain load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import BOUNDARY, Corpus, PhraseTrie, _first_appearance

__all__ = [
    "BOUNDARY",
    "CONTEXT_POSITIONS",
    "Occurrences",
    "OccurrenceTable",
    "ViewMatrices",
    "collect_occurrences",
    "intern_occurrences",
    "build_design_matrices",
    "write_triplets",
    "read_triplets",
]

CONTEXT_POSITIONS = (-3, -2, -1, 1, 2, 3)


@dataclass(eq=False)
class Occurrences:
    """Maximal non-overlapping candidate matches in an interned corpus, in
    corpus order: match r is candidate ``names[phrase[r]]`` at tokens
    ``start[r]:end[r]``, in sentence ``sentence[r]``.  Iterating yields one
    row per match: doc_id, sentence index, token span in the sentence,
    phrase, space-joined surface, then the six context words."""

    corpus: Corpus
    sentence: np.ndarray
    start: np.ndarray
    end: np.ndarray
    phrase: np.ndarray
    names: list[str]

    def __len__(self) -> int:
        return len(self.start)

    def windows(self) -> np.ndarray:
        """Lowercase ids of each match's six context slots, three tokens on
        each side within the sentence; a slot outside it holds the id that
        names :data:`BOUNDARY`, ``len(corpus.lowers)`` unless the corpus has
        that token."""
        corpus = self.corpus
        offsets = np.array(CONTEXT_POSITIONS)
        slots = np.where(offsets < 0, self.start[:, None] + offsets, self.end[:, None] + offsets - 1)
        inside = (slots >= corpus.starts[self.sentence, None]) & (
            slots < corpus.starts[self.sentence + 1, None]
        )
        boundary = corpus.lowers.get(BOUNDARY, len(corpus.lowers))
        return np.where(inside, corpus.lower_ids[np.where(inside, slots, 0)], boundary)

    def __iter__(self) -> Iterator[tuple]:
        corpus = self.corpus
        types, words = list(corpus.vocab), [*corpus.lowers, BOUNDARY]
        first = corpus.starts[self.sentence]
        for k, s, e, i, j, p, window in zip(
            self.sentence.tolist(), self.start.tolist(), self.end.tolist(),
            (self.start - first).tolist(), (self.end - first).tolist(),
            self.phrase.tolist(), self.windows().tolist(),
        ):
            yield (
                corpus.doc_id(int(corpus.doc[k])), int(corpus.index[k]), i, j, self.names[p],
                " ".join(types[t] for t in corpus.ids[s:e].tolist()),
                *map(words.__getitem__, window),
            )

    def table(self) -> OccurrenceTable:
        """The interned table, rows in locator (doc_id, sentence index,
        span) order; doc ids compare as strings, so "c:10" precedes "c:2"."""
        corpus = self.corpus
        docs, doc_of = np.unique(corpus.doc[self.sentence], return_inverse=True)
        rank = corpus.doc_ranks(docs)
        first = corpus.starts[self.sentence]
        order = np.lexsort(
            (self.end - first, self.start - first, corpus.index[self.sentence], rank[doc_of])
        )
        # a surface's caps bit is its first token's, a flag of that token's type
        types = list(corpus.vocab)
        heads, head_of = np.unique(corpus.ids[self.start[order]], return_inverse=True)
        upper = np.array([types[t][:1].isupper() for t in heads.tolist()], dtype=bool)
        width = len(corpus.lowers) + 1
        words = [*corpus.lowers, BOUNDARY]
        return _table(
            self.phrase[order],
            self.names.__getitem__,
            self.windows()[order] + width * np.arange(len(CONTEXT_POSITIONS)),
            lambda code: (CONTEXT_POSITIONS[code // width], words[code % width]),
            upper[head_of],
        )


def collect_occurrences(corpus: Corpus | Iterable, candidates: Sequence) -> Occurrences:
    """Maximal non-overlapping candidate matches of an interned corpus (or
    of :class:`~dictforge.corpus.Sentence` objects, interned first), found
    by :meth:`~dictforge.corpus.PhraseTrie.match`: the longest candidate wins
    at each position, and scanning left to right makes ties resolve
    leftmost.  Each candidate is matched by its ``lower`` phrase, as a
    :class:`~dictforge.extraction.CandidatePhrase` row holds it."""
    if not candidates:
        raise ValueError("candidate list is empty")
    if not isinstance(corpus, Corpus):
        corpus = Corpus.of(corpus)
    names = [c.lower for c in candidates]
    start, end, phrase = PhraseTrie(names).match(corpus)
    return Occurrences(
        corpus=corpus,
        sentence=np.searchsorted(corpus.starts, start, side="right") - 1,
        start=start,
        end=end,
        phrase=phrase,
        names=names,
    )


def _indicators(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64)


@dataclass(eq=False)
class OccurrenceTable:
    """Occurrences as interned integer columns, in X/Z row order.

    ``phrase_ids[r]`` indexes ``phrases``; ``context_ids[r, j]`` indexes
    ``contexts``, the (position, word) slot at ``CONTEXT_POSITIONS[j]``.
    Both name lists are in order of first appearance over the rows.
    ``caps[p]`` is phrase p's capitalization bit: its surface starts
    uppercase in a strict majority of its occurrences (ties give 0).
    """

    phrase_ids: np.ndarray
    context_ids: np.ndarray
    phrases: list[str]
    contexts: list[tuple[int, str]]
    caps: np.ndarray

    @property
    def n(self) -> int:
        return len(self.phrase_ids)

    @cached_property
    def ascending(self) -> np.ndarray:
        """Phrase ids in ascending phrase order, sorted once per table: the
        row order of the classify grid and of ``embeddings.tsv``."""
        return np.array(sorted(range(len(self.phrases)), key=self.phrases.__getitem__),
                        dtype=np.int64)

    def first_rows(self) -> dict[str, int]:
        """Row of each phrase's first occurrence."""
        _, rows = np.unique(self.phrase_ids, return_index=True)
        return dict(zip(self.phrases, rows.tolist()))

    def spelling_rows(self, ids: np.ndarray) -> sp.csr_matrix:
        """Spelling-view rows of phrase ids: the identity column, plus the
        last (caps) column where the phrase's caps bit is set.  Every
        occurrence of a phrase shares its one spelling row."""
        r = np.arange(len(ids))
        capped = self.caps[ids]
        d1 = len(self.phrases) + 1
        return _indicators(
            np.concatenate([r, r[capped]]),
            np.concatenate([ids, np.full(capped.sum(), d1 - 1)]),
            (len(ids), d1),
        )

    def design_matrices(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Row-aligned X (a spelling row per occurrence) and Z (its six
        context slots, one column per slot of the table)."""
        Z = _indicators(
            np.repeat(np.arange(self.n), len(CONTEXT_POSITIONS)),
            self.context_ids.ravel(),
            (self.n, len(self.contexts)),
        )
        return self.spelling_rows(self.phrase_ids), Z

    def save(self, path: str | Path) -> None:
        """An ``.npz`` of int32 ids, the caps bits and the names; nothing pickled."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                phrase_ids=self.phrase_ids.astype(np.int32),
                context_ids=self.context_ids.astype(np.int32),
                caps=self.caps,
                phrases=np.array(self.phrases),
                positions=np.array([pos for pos, _ in self.contexts], dtype=np.int32),
                words=np.array([word for _, word in self.contexts]),
            )

    @classmethod
    def load(cls, path: str | Path) -> "OccurrenceTable":
        """A :meth:`save` file, ids widened to int64 (NumPy keeps int32
        arithmetic in int32, where cotrain's context bigram codes would
        wrap).  A missing array, or arrays that disagree, raise
        ``ValueError`` naming the file."""
        keys = ("phrase_ids", "context_ids", "caps", "phrases", "positions", "words")
        with np.load(path, allow_pickle=False) as data:
            if missing := [key for key in keys if key not in data.files]:
                raise ValueError(f"{path}: missing array(s) {', '.join(missing)}")
            ids, ctx, caps, phrases, positions, words = (data[key] for key in keys)
        checks = {
            "context_ids is not six per row": ctx.shape == (len(ids), len(CONTEXT_POSITIONS)),
            "caps and phrases differ in length": caps.shape == phrases.shape,
            "positions and words differ in length": positions.shape == words.shape,
            "a phrase id is out of range": np.all((ids >= 0) & (ids < len(phrases))),
            "a context id is out of range": np.all((ctx >= 0) & (ctx < len(words))),
        }
        if problems := [problem for problem, ok in checks.items() if not ok]:
            raise ValueError(f"{path}: {'; '.join(problems)}")
        return cls(
            phrase_ids=ids.astype(np.int64),
            context_ids=ctx.astype(np.int64),
            phrases=phrases.tolist(),
            contexts=list(zip(positions.tolist(), words.tolist())),
            caps=caps.astype(bool),
        )


def _table(
    phrases: np.ndarray,
    phrase_name: Callable[[int], str],
    contexts: np.ndarray,
    context_name: Callable[[int], tuple[int, str]],
    upper: Sequence[bool],
) -> OccurrenceTable:
    """The table of rows given as integer codes, a phrase code and six
    context-slot codes per row, with each row's surface capitalization;
    both id spaces number codes in order of first appearance."""
    phrase_codes, phrase_ids = _first_appearance(phrases)
    context_codes, context_ids = _first_appearance(contexts.ravel())
    votes = np.bincount(phrase_ids, weights=upper, minlength=len(phrase_codes))
    return OccurrenceTable(
        phrase_ids=phrase_ids,
        context_ids=context_ids.reshape(len(phrases), len(CONTEXT_POSITIONS)),
        phrases=list(map(phrase_name, phrase_codes.tolist())),
        contexts=list(map(context_name, context_codes.tolist())),
        caps=2 * votes > np.bincount(phrase_ids, minlength=len(phrase_codes)),
    )


def intern_occurrences(rows: Sequence[tuple]) -> OccurrenceTable:
    """The table of :class:`Occurrences` rows, in their order."""
    phrase_of: dict[str, int] = {}
    context_of: dict[tuple[int, str], int] = {}
    phrases = [phrase_of.setdefault(row[4], len(phrase_of)) for row in rows]
    contexts = [
        context_of.setdefault(item, len(context_of))
        for row in rows
        for item in zip(CONTEXT_POSITIONS, row[6:], strict=True)
    ]
    return _table(
        np.array(phrases, dtype=np.int64),
        list(phrase_of).__getitem__,
        np.array(contexts, dtype=np.int64),
        list(context_of).__getitem__,
        [row[5][:1].isupper() for row in rows],
    )


@dataclass
class ViewMatrices:
    """An occurrence table and its aligned sparse design matrices, built on
    first access (:meth:`OccurrenceTable.design_matrices`)."""

    table: OccurrenceTable

    @cached_property
    def _matrices(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        return self.table.design_matrices()

    X = property(lambda self: self._matrices[0])
    Z = property(lambda self: self._matrices[1])
    n = property(lambda self: self.table.n)


def build_design_matrices(occurrences: Occurrences | Iterable[tuple]) -> ViewMatrices:
    """The views of occurrences, or of their rows, ordered by locator
    (doc_id, sentence index, span) so the result is independent of stream
    order.

    Spelling columns are the phrase identities, then the caps column;
    context columns are the (position, word) slots that occur in this
    build, so every context column is set by some row.  Identity and slot
    columns are in order of first appearance.  An empty stream is an error
    (downstream decompositions are undefined on zero observations).
    """
    if not isinstance(occurrences, Occurrences):
        occurrences = sorted(occurrences, key=lambda row: row[:4])
    if not len(occurrences):
        raise ValueError("no candidate occurrences: design matrices are empty")
    if isinstance(occurrences, Occurrences):
        return ViewMatrices(occurrences.table())
    return ViewMatrices(intern_occurrences(occurrences))


def write_triplets(matrix: sp.spmatrix, fh) -> None:
    """(row, col, value) triplets as an ``.npz`` archive into a binary file."""
    sp.save_npz(fh, matrix.tocoo())


def read_triplets(path: str | Path) -> sp.csr_matrix:
    return sp.load_npz(path).tocsr()
