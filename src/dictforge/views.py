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
    "Locator",
    "CandidateOccurrence",
    "OccurrenceTable",
    "ViewMatrices",
    "collect_occurrences",
    "majority_caps_bits",
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


@dataclass(frozen=True, order=True)
class Locator:
    doc_id: str
    sentence_index: int
    start: int
    end: int


@dataclass(frozen=True)
class CandidateOccurrence:
    """One corpus instance of a candidate phrase.

    Context windows are lowercased, never cross the sentence boundary, and
    are padded with :data:`BOUNDARY` to exactly three tokens per side.
    """

    phrase_lower: str
    surface: tuple[str, ...]
    left_context: tuple[str, str, str]
    right_context: tuple[str, str, str]
    locator: Locator


def collect_occurrences(
    sentences: Iterable[Sentence],
    candidates: Sequence[CandidatePhrase],
) -> Iterator[CandidateOccurrence]:
    """Maximal non-overlapping candidate matches with their contexts.

    Matching is :func:`~dictforge.tagging.match_phrase_spans` on lowercased
    tokens: the longest candidate wins at each position, and scanning left
    to right makes ties resolve leftmost.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    phrases = PhraseSet(c.lower.split(" ") for c in candidates)
    for sentence in sentences:
        low = sentence.lowers()
        n = len(low)
        for i, j, key in match_phrase_spans(low, phrases, case_sensitive=True):
            yield CandidateOccurrence(
                phrase_lower=" ".join(key),
                surface=sentence.tokens[i:j],
                left_context=tuple([BOUNDARY] * (3 - min(3, i)) + low[max(0, i - 3) : i]),
                right_context=tuple(low[j : j + 3] + [BOUNDARY] * (3 - min(3, n - j))),
                locator=Locator(sentence.doc_id, sentence.index, i, j),
            )


def majority_caps_bits(occurrences: Iterable[CandidateOccurrence]) -> dict[str, int]:
    """Capitalization bit per phrase: 1 iff a strict majority of its
    occurrences start with an uppercase character (ties give 0), so every
    instance of a phrase shares one spelling row."""
    upper: dict[str, int] = {}
    total: dict[str, int] = {}
    for occ in occurrences:
        key = occ.phrase_lower
        total[key] = total.get(key, 0) + 1
        if occ.surface and occ.surface[0][:1].isupper():
            upper[key] = upper.get(key, 0) + 1
    return {k: int(2 * upper.get(k, 0) > total[k]) for k in total}


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
    the occurrences in row order."""

    X: sp.csr_matrix
    Z: sp.csr_matrix
    table: OccurrenceTable
    occurrences: list[CandidateOccurrence]

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _indicators(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape, dtype=np.float64)


def build_design_matrices(occurrences: Iterable[CandidateOccurrence]) -> ViewMatrices:
    """One aligned row pair per occurrence, rows ordered by locator so the
    result is independent of stream order.

    Spelling columns are the phrase identities, then one capitalization
    column set on every row of a phrase with a majority-capitalized
    surface, so every instance of a phrase shares one spelling row.
    Context columns are the (position, word) slots that occur in this
    build, so every context column is set by some row.  Identity and slot
    columns are in order of first appearance.  An empty stream is an error
    (downstream decompositions are undefined on zero observations).
    """
    occs = sorted(occurrences, key=lambda o: o.locator)
    if not occs:
        raise ValueError("no candidate occurrences: design matrices are empty")
    table = intern_occurrences(
        (o.phrase_lower for o in occs), (o.left_context + o.right_context for o in occs)
    )
    caps_bit = majority_caps_bits(occs)
    capped = np.array([caps_bit[p] for p in table.phrases], dtype=bool)[table.phrase_ids]
    rows = np.arange(table.n)
    d1 = len(table.phrases) + 1
    X = _indicators(
        np.concatenate([rows, rows[capped]]),
        np.concatenate([table.phrase_ids, np.full(capped.sum(), d1 - 1)]),
        (table.n, d1),
    )
    Z = _indicators(
        np.repeat(rows, len(CONTEXT_POSITIONS)),
        table.context_ids.ravel(),
        (table.n, len(table.contexts)),
    )
    return ViewMatrices(X=X, Z=Z, table=table, occurrences=occs)


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


def write_occurrences(occurrences: Sequence[CandidateOccurrence], fh) -> None:
    """One row per occurrence: doc_id, sentence index, token span, phrase,
    space-joined surface, then the six context words.  Tokens never contain
    whitespace, so the joins are lossless."""
    for occ in occurrences:
        loc = occ.locator
        fields = [loc.doc_id, str(loc.sentence_index), str(loc.start), str(loc.end),
                  occ.phrase_lower, " ".join(occ.surface), *occ.left_context, *occ.right_context]
        fh.write("\t".join(fields) + "\n")


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
