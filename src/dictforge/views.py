"""Two-view featurization of candidate occurrences.

Every corpus occurrence of a candidate phrase becomes one paired
observation: a *spelling* view (phrase identity + capitalization bit) and
a *context* view (position-conjoined words from a three-token window on
each side).  Both design matrices are built from one interned occurrence
table, a phrase id and six (position, word) ids per row, so their rows are
aligned by construction; Z has one column per (position, word) slot of the
table and none held in reserve.  They are saved as ``.npz`` triplets beside an
occurrence table file in the same row order.  In a pipeline run only the
extract and views stages read the corpus; cca, classify and cotrain read
these artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "audit_dense_columns",
    "write_triplets",
    "read_triplets",
    "write_occurrences",
    "read_occurrences",
]

# Distinguished symbol for context slots that fall outside the sentence.
BOUNDARY = "⊥"

CONTEXT_POSITIONS = (-3, -2, -1, 1, 2, 3)


def collect_occurrences(
    sentences: Iterable[Sentence],
    candidates: Sequence[CandidatePhrase],
) -> Iterator[tuple]:
    """Maximal non-overlapping candidate matches with their contexts, as
    ``views.occurrences.tsv`` rows: doc_id, sentence index, token span,
    phrase, space-joined surface, then the six context words.

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


@dataclass(eq=False)
class OccurrenceTable:
    """Occurrences as interned integer columns, in X/Z row order.

    ``phrase_ids[r]`` indexes ``phrases``; ``context_ids[r, j]`` indexes
    ``contexts``, the (position, word) slot at ``CONTEXT_POSITIONS[j]``.
    Both name lists are in order of first appearance over the rows.
    """

    phrase_ids: np.ndarray
    context_ids: np.ndarray
    phrases: list[str]
    contexts: list[tuple[int, str]]

    @property
    def n(self) -> int:
        return len(self.phrase_ids)

    def first_rows(self) -> dict[str, int]:
        """Row of each phrase's first occurrence."""
        _, rows = np.unique(self.phrase_ids, return_index=True)
        return dict(zip(self.phrases, rows.tolist()))


def intern_occurrences(
    phrases: Iterable[str], windows: Iterable[Sequence[str]]
) -> OccurrenceTable:
    """The table of a phrase column and a column of six-word context
    windows (left to right, boundary-padded)."""
    phrase_of: dict[str, int] = {}
    context_of: dict[tuple[int, str], int] = {}
    phrase_ids = [phrase_of.setdefault(p, len(phrase_of)) for p in phrases]
    context_ids = [
        context_of.setdefault(item, len(context_of))
        for window in windows
        for item in zip(CONTEXT_POSITIONS, window, strict=True)
    ]
    return OccurrenceTable(
        phrase_ids=np.array(phrase_ids, dtype=np.int64),
        context_ids=np.array(context_ids, dtype=np.int64).reshape(
            len(phrase_ids), len(CONTEXT_POSITIONS)
        ),
        phrases=list(phrase_of),
        contexts=list(context_of),
    )


@dataclass
class ViewMatrices:
    """Aligned sparse design matrices, the interned table they index and
    the :func:`collect_occurrences` rows in row order."""

    X: sp.csr_matrix
    Z: sp.csr_matrix
    table: OccurrenceTable
    rows: list[tuple]

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _indicators(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64)


def build_design_matrices(rows: Iterable[tuple]) -> ViewMatrices:
    """One aligned row pair per :func:`collect_occurrences` row, ordered
    by locator (doc_id, sentence index, span) so the result is independent
    of stream order.

    Spelling columns are the phrase identities, then one capitalization
    column set on every row of a phrase whose surface starts uppercase in
    a strict majority of its occurrences (ties give 0), so every instance
    of a phrase shares one spelling row.  Context columns are the
    (position, word) slots that occur in this build, so every context
    column is set by some row.  Identity and slot columns are in order of
    first appearance.  An empty stream is an error (downstream
    decompositions are undefined on zero observations).
    """
    rows = sorted(rows, key=lambda row: row[:4])
    if not rows:
        raise ValueError("no candidate occurrences: design matrices are empty")
    table = intern_occurrences((row[4] for row in rows), (row[6:] for row in rows))
    upper = np.array([row[5][:1].isupper() for row in rows], dtype=np.float64)
    d1 = len(table.phrases) + 1
    votes = np.bincount(table.phrase_ids, weights=upper, minlength=d1 - 1)
    totals = np.bincount(table.phrase_ids, minlength=d1 - 1)
    capped = (2 * votes > totals)[table.phrase_ids]
    r = np.arange(table.n)
    X = _indicators(
        np.concatenate([r, r[capped]]),
        np.concatenate([table.phrase_ids, np.full(capped.sum(), d1 - 1)]),
        (table.n, d1),
    )
    Z = _indicators(
        np.repeat(r, len(CONTEXT_POSITIONS)),
        table.context_ids.ravel(),
        (table.n, len(table.contexts)),
    )
    return ViewMatrices(X=X, Z=Z, table=table, rows=rows)


def audit_dense_columns(matrix: sp.spmatrix, exempt: set[int] = frozenset()) -> list[int]:
    """Columns no row touches, minus exempt ones (such as a caps column no
    phrase sets).  A healthy build returns []."""
    counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    return [int(c) for c in np.flatnonzero(counts == 0) if int(c) not in exempt]


def write_triplets(matrix: sp.spmatrix, fh) -> None:
    """(row, col, value) triplets as an ``.npz`` archive into a binary file."""
    sp.save_npz(fh, matrix.tocoo())


def read_triplets(path: str | Path) -> sp.csr_matrix:
    return sp.load_npz(path).tocsr()


def write_occurrences(rows: Iterable[tuple], fh) -> None:
    """One tab-joined line per :func:`collect_occurrences` row.  Tokens
    never contain whitespace, so the joins are lossless."""
    for row in rows:
        fh.write("\t".join(map(str, row)) + "\n")


def read_occurrences(path: str | Path) -> OccurrenceTable:
    """The phrase and context columns of a :func:`write_occurrences`
    table, interned in row order."""
    phrases, windows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 6 + len(CONTEXT_POSITIONS):
                raise ValueError(f"{path}: malformed occurrence row {line!r}")
            phrases.append(fields[4])
            windows.append(fields[6:])
    return intern_occurrences(phrases, windows)
