"""Decision-list co-training over (spelling, context) pairs.

Two rule lists bootstrap each other from a few seed phrases: spelling
rules test the full phrase string, context rules test a bigram of two
(position, word) items from the six-slot context window.  Each iteration
labels the collection with one list, then adds the strongest rules of the
other view, growing both lists until nothing new qualifies.  A final
threshold over positive spelling rules yields the comparison dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classifier import SeedSet
from .tagging import Dictionary
from .views import CONTEXT_POSITIONS, OccurrenceTable

__all__ = [
    "Rule",
    "DecisionListState",
    "dl_cotrain",
    "dictionary_from_rules",
]

_UNLABELED = -1
_NEG = 0
_POS = 1
_LABEL_NAMES = {_POS: "positive", _NEG: "negative"}


@dataclass(frozen=True)
class Rule:
    """One decision-list rule with the counts it was admitted on.

    ``condition`` is ("full-string", phrase) for spelling rules or
    ("bigram", (pos1, word1), (pos2, word2)) for context rules.  Seed
    rules carry strength 1.0 with zero counts (given, not estimated).
    """

    view: str
    condition: tuple
    label: str
    count_match: int
    count_total: int
    strength: float

    def as_dict(self) -> dict:
        return {
            "view": self.view,
            "condition": self.condition,
            "label": self.label,
            "count_match": self.count_match,
            "count_total": self.count_total,
            "strength": self.strength,
        }


@dataclass
class DecisionListState:
    """Both rule lists, the final labeling, and the iteration trace."""

    spelling_rules: list[Rule]
    context_rules: list[Rule]
    labeled: dict[int, str]
    iteration: int
    m: int
    epsilon: float
    trace: list[dict] = field(default_factory=list)


class _Indexed:
    """Phrase ids and the 15 context-bigram ids of each occurrence row,
    and each view's condition keys ranked in lexicographic order."""

    def __init__(self, table: OccurrenceTable):
        self.n = table.n
        self.phrase_ids = table.phrase_ids
        self.phrases = table.phrases
        self.phrase_of = {p: i for i, p in enumerate(table.phrases)}
        # a bigram is a pair of context ids at two distinct positions,
        # coded as first * d + second
        first, second = np.triu_indices(len(CONTEXT_POSITIONS), k=1)
        d = len(table.contexts)
        codes = table.context_ids[:, first] * d + table.context_ids[:, second]
        unique, inverse = np.unique(codes, return_inverse=True)
        self.bigram_ids = inverse.reshape(self.n, len(first))
        self.bigrams = [
            (table.contexts[c // d], table.contexts[c % d]) for c in unique.tolist()
        ]
        self.phrase_rank = _ranks(sorted(range(len(self.phrases)), key=self.phrases.__getitem__))
        # contexts are distinct, so bigram keys order as their pairs of
        # context ranks do
        context_rank = _ranks(sorted(range(d), key=table.contexts.__getitem__))
        self.bigram_rank = _ranks(np.lexsort((context_rank[unique % d], context_rank[unique // d])))


def _ranks(order) -> np.ndarray:
    """rank[i] = position of item i in ``order``, a permutation of 0..n-1."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


class _RuleArrays:
    """Per-condition label/strength/insertion arrays for one view."""

    def __init__(self, size: int):
        self.label = np.full(size, _UNLABELED, dtype=np.int8)
        self.strength = np.full(size, -np.inf)
        self.order = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)

    def add(self, cid: int, label: int, strength: float, order: int) -> None:
        self.label[cid] = label
        self.strength[cid] = strength
        self.order[cid] = order


def _label_by_spelling(idx: _Indexed, arrays: _RuleArrays) -> np.ndarray:
    return arrays.label[idx.phrase_ids].astype(np.int64)


def _label_by_context(idx: _Indexed, arrays: _RuleArrays) -> np.ndarray:
    """Strongest matching rule decides; ties go to the earlier addition."""
    admitted = np.flatnonzero(arrays.label != _UNLABELED)
    ranked = admitted[np.lexsort((arrays.order[admitted], -arrays.strength[admitted]))]
    # rank of each condition's rule; conditions without one rank last
    rank = np.full(len(arrays.label), len(ranked), dtype=np.int64)
    rank[ranked] = np.arange(len(ranked))
    best = rank[idx.bigram_ids].min(axis=1)
    return np.append(arrays.label[ranked], _UNLABELED).astype(np.int64)[best]


def _count(ids, labels, size: int):
    """Totals and per-label match counts over labeled occurrences."""
    mask = labels != _UNLABELED
    rows, y = ids[mask], labels[mask]
    # one count per (condition, label); the labels are 0 and 1
    codes = rows * 2 + y.reshape((-1,) + (1,) * (rows.ndim - 1))
    counts = np.bincount(codes.ravel(), minlength=2 * size).reshape(size, 2)
    return counts.sum(axis=1), {_NEG: counts[:, _NEG], _POS: counts[:, _POS]}


def _select_rules(
    total: np.ndarray,
    matches: dict[int, np.ndarray],
    arrays: _RuleArrays,
    key_rank: np.ndarray,
    label: int,
    limit: int,
    epsilon: float,
) -> list[tuple[int, int, int, float]]:
    """Top ``limit`` new rules for one label: strength strictly above
    epsilon, ranked by count_match desc, ties by strength desc then by
    lexicographic condition (``key_rank``)."""
    match = matches[label]
    strength = np.where(total >= 1, match / np.maximum(total, 1), -1.0)
    qualifying = np.flatnonzero(
        (total >= 1) & (strength > epsilon) & (arrays.label == _UNLABELED)
    )
    order = np.lexsort((key_rank[qualifying], -strength[qualifying], -match[qualifying]))
    return [
        (cid, int(match[cid]), int(total[cid]), float(strength[cid]))
        for cid in qualifying[order[:limit]].tolist()
    ]


def dl_cotrain(
    table: OccurrenceTable,
    seeds: SeedSet,
    m: int = 5,
    epsilon: float = 0.95,
    max_iters: int | None = None,
) -> DecisionListState:
    """Run the alternating decision-list algorithm to a fixed point.

    Iteration i adds up to i*m new context rules per label from the
    spelling-labeled data, then up to i*m new spelling rules per label
    from the context-labeled data; the loop ends when an iteration adds
    nothing (or at ``max_iters``).  Occurrences the current list cannot
    label are excluded from rule counts, not treated as negatives.  The
    final ``labeled`` map is keyed by row of ``table``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    idx = _Indexed(table)

    missing = [
        s for s in (*seeds.positives, *seeds.negatives) if s not in idx.phrase_of
    ]
    if missing:
        raise ValueError(f"seeds never occur in the collection: {missing}")

    spelling = _RuleArrays(len(idx.phrases))
    context = _RuleArrays(len(idx.bigrams))
    spelling_rules: list[Rule] = []
    context_rules: list[Rule] = []
    insertion = 0

    def admit_spelling(phrase: str, label: int, cm: int, ct: int, strength: float):
        nonlocal insertion
        spelling.add(idx.phrase_of[phrase], label, strength, insertion)
        insertion += 1
        rule = Rule(
            "spelling", ("full-string", phrase), _LABEL_NAMES[label], cm, ct, strength
        )
        spelling_rules.append(rule)
        return rule

    def admit_context(cid: int, label: int, cm: int, ct: int, strength: float):
        nonlocal insertion
        context.add(cid, label, strength, insertion)
        insertion += 1
        rule = Rule(
            "context", ("bigram",) + idx.bigrams[cid], _LABEL_NAMES[label], cm, ct, strength
        )
        context_rules.append(rule)
        return rule

    for phrase in seeds.positives:
        admit_spelling(phrase, _POS, 0, 0, 1.0)
    for phrase in seeds.negatives:
        admit_spelling(phrase, _NEG, 0, 0, 1.0)

    trace: list[dict] = []
    i = 1
    while True:
        added_this_iteration = []

        y = _label_by_spelling(idx, spelling)
        total, matches = _count(idx.bigram_ids, y, len(idx.bigrams))
        added_ctx = []
        for label in (_POS, _NEG):
            for cid, cm, ct, strength in _select_rules(
                total, matches, context, idx.bigram_rank, label, i * m, epsilon
            ):
                added_ctx.append(admit_context(cid, label, cm, ct, strength))

        y = _label_by_context(idx, context)
        total, matches = _count(idx.phrase_ids, y, len(idx.phrases))
        added_sp = []
        for label in (_POS, _NEG):
            for cid, cm, ct, strength in _select_rules(
                total, matches, spelling, idx.phrase_rank, label, i * m, epsilon
            ):
                added_sp.append(
                    admit_spelling(idx.phrases[cid], label, cm, ct, strength)
                )

        added_this_iteration = added_ctx + added_sp
        trace.append(
            {
                "iteration": i,
                "added_context": [r.as_dict() for r in added_ctx],
                "added_spelling": [r.as_dict() for r in added_sp],
                "spelling_rules": len(spelling_rules),
                "context_rules": len(context_rules),
            }
        )
        if not added_this_iteration:
            break
        if max_iters is not None and i >= max_iters:
            break
        i += 1

    # Final labeling: the spelling list where it fires, the context list
    # where spelling is silent.
    y_sp = _label_by_spelling(idx, spelling)
    y_ctx = _label_by_context(idx, context)
    final = np.where(y_sp != _UNLABELED, y_sp, y_ctx)
    labeled = {
        r: _LABEL_NAMES[int(v)] for r, v in enumerate(final) if v != _UNLABELED
    }
    return DecisionListState(
        spelling_rules=spelling_rules,
        context_rules=context_rules,
        labeled=labeled,
        iteration=i,
        m=m,
        epsilon=epsilon,
        trace=trace,
    )


def dictionary_from_rules(state: DecisionListState, theta: float) -> Dictionary:
    """Phrases of positive spelling rules at or above strength theta.

    theta = 1.0 keeps only perfect-precision rules (seeds included, since
    they carry strength 1.0 by definition).
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    kept = [
        r
        for r in state.spelling_rules
        if r.label == "positive" and r.strength >= theta
    ]
    kept.sort(key=lambda r: (-r.strength, r.condition[1]))
    return Dictionary(
        scores={r.condition[1]: r.strength for r in kept},
        provenance="cotrain",
        metadata={
            "theta": repr(theta),
            "m": str(state.m),
            "epsilon": repr(state.epsilon),
            "iterations": str(state.iteration),
        },
    )
