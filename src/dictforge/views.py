"""Two-view featurization of candidate occurrences.

Every corpus occurrence of a candidate phrase becomes one paired
observation: a *spelling* view (phrase identity + capitalization bit) and
a *context* view (position-conjoined words from a three-token window on
each side).  Rows of the two design matrices are aligned by construction,
saved as ``.npz`` triplets and traceable through a locator audit in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Sentence
from .extraction import CandidatePhrase

__all__ = [
    "BOUNDARY",
    "CONTEXT_POSITIONS",
    "Locator",
    "CandidateOccurrence",
    "FeatureIndex",
    "SparseVector",
    "ViewMatrices",
    "collect_occurrences",
    "majority_caps_bits",
    "featurize_spelling",
    "featurize_context",
    "build_design_matrices",
    "audit_dense_columns",
    "write_triplets",
    "read_triplets",
    "write_locators",
    "read_locators",
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


@dataclass(frozen=True)
class SparseVector:
    """Entries as (column, value) with strictly increasing columns and no
    explicit zeros."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        cols = [c for c, _ in self.entries]
        if any(b <= a for a, b in zip(cols, cols[1:])):
            raise ValueError("columns must be strictly increasing")
        if any(v == 0.0 for _, v in self.entries):
            raise ValueError("explicit zeros are not allowed")

    def columns(self) -> list[int]:
        return [c for c, _ in self.entries]


class FeatureIndex:
    """Bidirectional feature-name/column map for one view.

    Grows while unfrozen; after :meth:`freeze` unseen names raise
    ``KeyError`` so silent feature drift is impossible.  ``reserved``
    marks columns (OOV slots, the caps bit) that may legitimately stay
    unrealized in a given corpus.
    """

    def __init__(self):
        self._name_to_col: dict = {}
        self._col_to_name: list = []
        self.reserved: set[int] = set()
        self.frozen = False

    def __len__(self) -> int:
        return len(self._col_to_name)

    def add(self, name, reserved: bool = False) -> int:
        col = self._name_to_col.get(name)
        if col is not None:
            return col
        if self.frozen:
            raise KeyError(f"feature index is frozen; unseen feature {name!r}")
        col = len(self._col_to_name)
        self._name_to_col[name] = col
        self._col_to_name.append(name)
        if reserved:
            self.reserved.add(col)
        return col

    def col(self, name) -> int:
        try:
            return self._name_to_col[name]
        except KeyError:
            raise KeyError(f"unknown feature {name!r}") from None

    def name(self, col: int):
        return self._col_to_name[col]

    def __contains__(self, name) -> bool:
        return name in self._name_to_col

    def freeze(self) -> "FeatureIndex":
        self.frozen = True
        return self


def collect_occurrences(
    sentences: Iterable[Sentence],
    candidates: Sequence[CandidatePhrase],
) -> Iterator[CandidateOccurrence]:
    """Maximal non-overlapping candidate matches with their contexts.

    At each position the longest matching candidate wins; scanning left to
    right makes ties resolve leftmost.  Matching is on lowercased tokens.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    phrase_set = {tuple(c.lower.split(" ")) for c in candidates}
    max_len = max(len(p) for p in phrase_set)
    for sentence in sentences:
        low = sentence.lowers()
        n = len(low)
        i = 0
        while i < n:
            hit = 0
            for length in range(min(max_len, n - i), 0, -1):
                if tuple(low[i : i + length]) in phrase_set:
                    hit = length
                    break
            if hit == 0:
                i += 1
                continue
            j = i + hit
            left = tuple([BOUNDARY] * (3 - min(3, i)) + low[max(0, i - 3) : i])
            right = tuple(low[j : j + 3] + [BOUNDARY] * (3 - min(3, n - j)))
            yield CandidateOccurrence(
                phrase_lower=" ".join(low[i:j]),
                surface=tuple(t.text for t in sentence.tokens[i:j]),
                left_context=left,
                right_context=right,
                locator=Locator(sentence.doc_id, sentence.index, i, j),
            )
            i = j


def majority_caps_bits(occurrences: Iterable[CandidateOccurrence]) -> dict[str, int]:
    """Capitalization bit per phrase: 1 iff a strict majority of its
    occurrences start with an uppercase character (ties give 0), so every
    instance of a phrase shares one spelling vector."""
    upper: dict[str, int] = {}
    total: dict[str, int] = {}
    for occ in occurrences:
        key = occ.phrase_lower
        total[key] = total.get(key, 0) + 1
        if occ.surface and occ.surface[0][:1].isupper():
            upper[key] = upper.get(key, 0) + 1
    return {k: int(2 * upper.get(k, 0) > total[k]) for k in total}


def featurize_spelling(
    occ: CandidateOccurrence, index: FeatureIndex, caps_bit: Mapping[str, int]
) -> SparseVector:
    """Identity feature plus the phrase's majority-casing bit, both 1.0.

    Unknown phrases raise ``KeyError``: the spelling view has no OOV
    fallback because an unseen phrase has no meaningful identity column.
    """
    entries = [(index.col(("id", occ.phrase_lower)), 1.0)]
    if caps_bit.get(occ.phrase_lower, 0):
        entries.append((index.col(("caps",)), 1.0))
    entries.sort()
    return SparseVector(tuple(entries))


def featurize_context(occ: CandidateOccurrence, index: FeatureIndex) -> SparseVector:
    """One indicator per (position, word) with boundary padding; words the
    frozen index has never seen fall back to that position's OOV column."""
    cols = set()
    window = list(zip((-3, -2, -1), occ.left_context)) + list(
        zip((1, 2, 3), occ.right_context)
    )
    for pos, word in window:
        name = ("ctx", pos, word)
        if name in index:
            cols.add(index.col(name))
        else:
            cols.add(index.col(("oov", pos)))
    return SparseVector(tuple((c, 1.0) for c in sorted(cols)))


@dataclass
class ViewMatrices:
    """Aligned sparse design matrices plus everything needed to featurize
    new occurrences consistently."""

    X: sp.csr_matrix
    Z: sp.csr_matrix
    spelling_index: FeatureIndex
    context_index: FeatureIndex
    caps_bit: dict[str, int]
    occurrences: list[CandidateOccurrence]

    @property
    def n(self) -> int:
        return self.X.shape[0]


def build_design_matrices(occurrences: Iterable[CandidateOccurrence]) -> ViewMatrices:
    """Freeze feature indices over the occurrence stream, then emit one
    aligned row pair per occurrence.

    Rows are ordered by locator so the result is independent of stream
    order.  An empty stream is an error (downstream decompositions are
    undefined on zero observations).
    """
    occs = sorted(occurrences, key=lambda o: o.locator)
    if not occs:
        raise ValueError("no candidate occurrences: design matrices are empty")

    caps_bit = majority_caps_bits(occs)
    spelling = FeatureIndex()
    context = FeatureIndex()
    for occ in occs:
        spelling.add(("id", occ.phrase_lower))
        for pos, word in zip((-3, -2, -1), occ.left_context):
            context.add(("ctx", pos, word))
        for pos, word in zip((1, 2, 3), occ.right_context):
            context.add(("ctx", pos, word))
    spelling.add(("caps",), reserved=True)
    for pos in CONTEXT_POSITIONS:
        context.add(("oov", pos), reserved=True)
    spelling.freeze()
    context.freeze()

    def assemble(vectors: list[SparseVector], d: int) -> sp.csr_matrix:
        rows, cols, vals = [], [], []
        for r, vec in enumerate(vectors):
            for c, v in vec.entries:
                rows.append(r)
                cols.append(c)
                vals.append(v)
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(vectors), d), dtype=np.float64
        )

    xs = [featurize_spelling(o, spelling, caps_bit) for o in occs]
    zs = [featurize_context(o, context) for o in occs]
    return ViewMatrices(
        X=assemble(xs, len(spelling)),
        Z=assemble(zs, len(context)),
        spelling_index=spelling,
        context_index=context,
        caps_bit=caps_bit,
        occurrences=occs,
    )


def audit_dense_columns(matrix: sp.spmatrix, exempt: set[int] = frozenset()) -> list[int]:
    """Columns no row touches, minus exempt (reserved) ones.  A healthy
    build returns []."""
    counts = np.asarray((matrix != 0).sum(axis=0)).ravel()
    return [int(c) for c in np.flatnonzero(counts == 0) if int(c) not in exempt]


def write_triplets(matrix: sp.spmatrix, fh) -> None:
    """(row, col, value) triplets as an ``.npz`` archive into a binary file."""
    sp.save_npz(fh, matrix.tocoo())


def read_triplets(path: str | Path) -> sp.csr_matrix:
    return sp.load_npz(path).tocsr()


def write_locators(occurrences: Sequence[CandidateOccurrence], fh) -> None:
    """Row-order audit: doc_id, sentence index, token span, phrase."""
    for occ in occurrences:
        loc = occ.locator
        fh.write(
            f"{loc.doc_id}\t{loc.sentence_index}\t{loc.start}\t{loc.end}\t{occ.phrase_lower}\n"
        )


def read_locators(path: str | Path) -> list[tuple[Locator, str]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc_id, idx, s, e, phrase = line.rstrip("\n").split("\t")
            out.append((Locator(doc_id, int(idx), int(s), int(e)), phrase))
    return out
