"""Two-view featurization of candidate occurrences.

Every corpus occurrence of a candidate phrase becomes one paired
observation: a *spelling* view (phrase identity + capitalization bit) and
a *context* view (position-conjoined words from a three-token window on
each side).  Both design matrices are built from one interned occurrence
table, a phrase id and six (position, word) ids per row, so their rows are
aligned by construction; Z has one column per (position, word) slot of the
table and none held in reserve.  A pipeline run stores the table, not the
matrices, as ``views.table.npz``, which cca, classify and cotrain load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Sentence
from .extraction import CandidatePhrase
from .tagging import PhraseSet, match_phrase_spans

__all__ = [
    "BOUNDARY",
    "CONTEXT_POSITIONS",
    "OccurrenceTable",
    "ViewMatrices",
    "collect_occurrences",
    "intern_occurrences",
    "build_design_matrices",
    "write_triplets",
    "read_triplets",
]

# Distinguished symbol for context slots that fall outside the sentence.
BOUNDARY = "⊥"

CONTEXT_POSITIONS = (-3, -2, -1, 1, 2, 3)


def collect_occurrences(
    sentences: Iterable[Sentence],
    candidates: Sequence[CandidatePhrase],
) -> Iterator[tuple]:
    """Maximal non-overlapping candidate matches with their contexts, as
    rows: doc_id, sentence index, token span, phrase, space-joined surface,
    then the six context words.

    Matching is :func:`~dictforge.tagging.match_phrase_spans` on lowercased
    tokens: the longest candidate wins at each position, and scanning left
    to right makes ties resolve leftmost.  Context windows are lowercased,
    never cross the sentence boundary, and are padded with
    :data:`BOUNDARY` to exactly three tokens per side.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    phrases = PhraseSet(c.lower.split(" ") for c in candidates)
    for sentence in sentences:
        low = sentence.lowers()
        n = len(low)
        for i, j, key in match_phrase_spans(low, phrases, case_sensitive=True):
            yield (
                sentence.doc_id, sentence.index, i, j,
                " ".join(key), " ".join(sentence.tokens[i:j]),
                *[BOUNDARY] * (3 - min(3, i)), *low[max(0, i - 3) : i],
                *low[j : j + 3], *[BOUNDARY] * (3 - min(3, n - j)),
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
        wrap).  Arrays that disagree raise ``ValueError`` naming the file."""
        with np.load(path, allow_pickle=False) as data:
            ids, ctx, caps, phrases, positions, words = (
                data[key]
                for key in ("phrase_ids", "context_ids", "caps", "phrases", "positions", "words")
            )
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


def intern_occurrences(rows: Sequence[tuple]) -> OccurrenceTable:
    """The table of :func:`collect_occurrences` rows, in their order."""
    phrase_of: dict[str, int] = {}
    context_of: dict[tuple[int, str], int] = {}
    phrase_ids = np.array(
        [phrase_of.setdefault(row[4], len(phrase_of)) for row in rows], dtype=np.int64
    )
    context_ids = [
        context_of.setdefault(item, len(context_of))
        for row in rows
        for item in zip(CONTEXT_POSITIONS, row[6:], strict=True)
    ]
    upper = [row[5][:1].isupper() for row in rows]
    votes = np.bincount(phrase_ids, weights=upper, minlength=len(phrase_of))
    return OccurrenceTable(
        phrase_ids=phrase_ids,
        context_ids=np.array(context_ids, dtype=np.int64).reshape(
            len(rows), len(CONTEXT_POSITIONS)
        ),
        phrases=list(phrase_of),
        contexts=list(context_of),
        caps=2 * votes > np.bincount(phrase_ids, minlength=len(phrase_of)),
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


def build_design_matrices(rows: Iterable[tuple]) -> ViewMatrices:
    """The views of :func:`collect_occurrences` rows, ordered by locator
    (doc_id, sentence index, span) so the result is independent of stream
    order.

    Spelling columns are the phrase identities, then the caps column;
    context columns are the (position, word) slots that occur in this
    build, so every context column is set by some row.  Identity and slot
    columns are in order of first appearance.  An empty stream is an error
    (downstream decompositions are undefined on zero observations).
    """
    rows = sorted(rows, key=lambda row: row[:4])
    if not rows:
        raise ValueError("no candidate occurrences: design matrices are empty")
    return ViewMatrices(intern_occurrences(rows))


def write_triplets(matrix: sp.spmatrix, fh) -> None:
    """(row, col, value) triplets as an ``.npz`` archive into a binary file."""
    sp.save_npz(fh, matrix.tocoo())


def read_triplets(path: str | Path) -> sp.csr_matrix:
    return sp.load_npz(path).tocsr()
