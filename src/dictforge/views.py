"""Two-view featurization of candidate occurrences.

Every corpus occurrence of a candidate phrase becomes one paired
observation: a *spelling* view (phrase identity + capitalization bit) and
a *context* view (position-conjoined words from a three-token window on
each side).  Rows of the two design matrices are aligned by construction
and saved as ``.npz`` triplets beside an occurrence table in the same row
order.  In a pipeline run only the extract and views stages read the
corpus; cca, classify and cotrain read these artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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
    "FeatureIndex",
    "SparseVector",
    "ViewMatrices",
    "collect_occurrences",
    "majority_caps_bits",
    "spelling_vector",
    "featurize_spelling",
    "featurize_context",
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

    def context_items(self) -> tuple[tuple[int, str], ...]:
        """The six (position, word) slots of the window, left to right."""
        return tuple(zip(CONTEXT_POSITIONS, self.left_context + self.right_context))


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
    instance of a phrase shares one spelling vector."""
    upper: dict[str, int] = {}
    total: dict[str, int] = {}
    for occ in occurrences:
        key = occ.phrase_lower
        total[key] = total.get(key, 0) + 1
        if occ.surface and occ.surface[0][:1].isupper():
            upper[key] = upper.get(key, 0) + 1
    return {k: int(2 * upper.get(k, 0) > total[k]) for k in total}


def spelling_vector(
    phrase_lower: str, index: FeatureIndex, caps_bit: Mapping[str, int]
) -> SparseVector:
    """Identity feature plus the phrase's majority-casing bit, both 1.0.

    Unknown phrases raise ``KeyError``: the spelling view has no OOV
    fallback because an unseen phrase has no meaningful identity column.
    """
    entries = [(index.col(("id", phrase_lower)), 1.0)]
    if caps_bit.get(phrase_lower, 0):
        entries.append((index.col(("caps",)), 1.0))
    entries.sort()
    return SparseVector(tuple(entries))


def featurize_spelling(
    occ: CandidateOccurrence, index: FeatureIndex, caps_bit: Mapping[str, int]
) -> SparseVector:
    """The spelling vector of the occurrence's phrase."""
    return spelling_vector(occ.phrase_lower, index, caps_bit)


def featurize_context(occ: CandidateOccurrence, index: FeatureIndex) -> SparseVector:
    """One indicator per (position, word) with boundary padding; words the
    frozen index has never seen fall back to that position's OOV column."""
    cols = set()
    for pos, word in occ.context_items():
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
        for item in occ.context_items():
            context.add(("ctx", *item))
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


def write_occurrences(occurrences: Sequence[CandidateOccurrence], fh) -> None:
    """One row per occurrence: doc_id, sentence index, token span, phrase,
    space-joined surface, then the six context words.  Tokens never contain
    whitespace, so the joins are lossless."""
    for occ in occurrences:
        loc = occ.locator
        fields = [loc.doc_id, str(loc.sentence_index), str(loc.start), str(loc.end),
                  occ.phrase_lower, " ".join(occ.surface), *occ.left_context, *occ.right_context]
        fh.write("\t".join(fields) + "\n")


def read_occurrences(path: str | Path) -> list[CandidateOccurrence]:
    """The occurrences of a :func:`write_occurrences` table, in row order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc_id, idx, s, e, phrase, surface, *window = line.rstrip("\n").split("\t")
            if len(window) != len(CONTEXT_POSITIONS):
                raise ValueError(f"{path}: malformed occurrence row {line!r}")
            out.append(CandidateOccurrence(
                phrase_lower=phrase,
                surface=tuple(surface.split(" ")),
                left_context=tuple(window[:3]),
                right_context=tuple(window[3:]),
                locator=Locator(doc_id, int(idx), int(s), int(e)),
            ))
    return out
