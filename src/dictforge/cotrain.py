"""Decision-list co-training over (spelling, context) pairs.

Two rule lists bootstrap each other from a few seed phrases: spelling
rules test the full phrase string, context rules test a bigram of two
(position, word) items from the six-slot context window.  Each iteration
labels the collection with one list, then adds the strongest rules of the
other view, growing both lists until nothing new qualifies.  A final
threshold over positive spelling rules yields the comparison dictionary.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .classifier import SeedSet
from .tagging import Dictionary
from .views import CandidateOccurrence

__all__ = [
    "Rule",
    "DecisionListState",
    "rule_strength",
    "dl_cotrain",
    "dictionary_from_rules",
]

_UNLABELED = -1
_NEG = 0
_POS = 1
_LABEL_NAMES = {_POS: "positive", _NEG: "negative"}


def rule_strength(
    count_match: int, count_total: int, smoothing: str = "none", alpha: float = 0.1
) -> float:
    """Precision estimate of a rule.  Unsmoothed by default; the add-alpha
    variant shrinks one-off rules away from certainty."""
    if count_total < 1:
        raise ValueError("strength undefined for count_total = 0")
    if smoothing == "none":
        return count_match / count_total
    if smoothing == "add-alpha":
        return (count_match + alpha) / (count_total + 2 * alpha)
    raise ValueError(f"unknown smoothing {smoothing!r}")


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


def _bigrams(occ: CandidateOccurrence):
    return list(combinations(occ.context_items(), 2))


class _Indexed:
    """Occurrences mapped to integer ids for vectorized counting."""

    def __init__(self, occurrences: Sequence[CandidateOccurrence]):
        self.n = len(occurrences)
        self.phrase_of: dict[str, int] = {}
        self.bigram_of: dict[tuple, int] = {}
        phrase_rows = np.empty(self.n, dtype=np.int64)
        bigram_rows = np.empty((self.n, 15), dtype=np.int64)
        for r, occ in enumerate(occurrences):
            phrase_rows[r] = self.phrase_of.setdefault(
                occ.phrase_lower, len(self.phrase_of)
            )
            for j, bg in enumerate(_bigrams(occ)):
                bigram_rows[r, j] = self.bigram_of.setdefault(bg, len(self.bigram_of))
        self.phrase_ids = phrase_rows
        self.bigram_ids = bigram_rows
        self.phrases = list(self.phrase_of)
        self.bigrams = list(self.bigram_of)


class _RuleArrays:
    """Per-condition label/strength/insertion arrays for one view."""

    def __init__(self, size: int):
        self.label = np.full(size, _UNLABELED, dtype=np.int8)
        self.strength = np.full(size, -np.inf)
        self.order = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)

    def has(self, cid: int) -> bool:
        return self.label[cid] != _UNLABELED

    def add(self, cid: int, label: int, strength: float, order: int) -> None:
        self.label[cid] = label
        self.strength[cid] = strength
        self.order[cid] = order


def _label_by_spelling(idx: _Indexed, arrays: _RuleArrays) -> np.ndarray:
    return arrays.label[idx.phrase_ids].astype(np.int64)


def _label_by_context(idx: _Indexed, arrays: _RuleArrays) -> np.ndarray:
    """Strongest matching rule decides; ties go to the earlier addition."""
    s = arrays.strength[idx.bigram_ids]
    best = s.max(axis=1)
    labels = np.full(idx.n, _UNLABELED, dtype=np.int64)
    hit = np.isfinite(best)
    if not hit.any():
        return labels
    order = arrays.order[idx.bigram_ids].astype(np.float64)
    order[s < best[:, None]] = np.inf
    pick = order.argmin(axis=1)
    chosen = idx.bigram_ids[np.arange(idx.n), pick]
    labels[hit] = arrays.label[chosen[hit]]
    return labels


def _count(ids, labels, size: int):
    """Totals and per-label match counts over labeled occurrences."""
    mask = labels != _UNLABELED
    if ids.ndim == 1:
        flat = ids[mask]
        flat_y = labels[mask]
    else:
        flat = ids[mask].ravel()
        flat_y = np.repeat(labels[mask], ids.shape[1])
    total = np.bincount(flat, minlength=size)
    pos = np.bincount(flat[flat_y == _POS], minlength=size)
    neg = np.bincount(flat[flat_y == _NEG], minlength=size)
    return total, {_POS: pos, _NEG: neg}


def _select_rules(
    total: np.ndarray,
    matches: dict[int, np.ndarray],
    arrays: _RuleArrays,
    keys: list,
    label: int,
    limit: int,
    epsilon: float,
    smoothing: str,
    alpha: float,
) -> list[tuple[int, int, int, float]]:
    """Top ``limit`` new rules for one label: strength strictly above
    epsilon, ranked by count_match desc, ties by strength desc then by
    lexicographic condition."""
    match = matches[label]
    with np.errstate(divide="ignore", invalid="ignore"):
        if smoothing == "none":
            strength = np.where(total >= 1, match / np.maximum(total, 1), -1.0)
        else:
            strength = np.where(
                total >= 1, (match + alpha) / (np.maximum(total, 1) + 2 * alpha), -1.0
            )
    qualifying = np.flatnonzero(
        (total >= 1) & (strength > epsilon) & (arrays.label == _UNLABELED)
    )
    picked = [
        (-int(match[cid]), -float(strength[cid]), keys[cid], int(cid))
        for cid in qualifying
    ]
    top = heapq.nsmallest(limit, picked)
    return [(cid, -nm, int(total[cid]), -ns) for nm, ns, _, cid in top]


def dl_cotrain(
    occurrences: Sequence[CandidateOccurrence],
    seeds: SeedSet,
    m: int = 5,
    epsilon: float = 0.95,
    smoothing: str = "none",
    alpha: float = 0.1,
    max_iters: int | None = None,
) -> DecisionListState:
    """Run the alternating decision-list algorithm to a fixed point.

    Iteration i adds up to i*m new context rules per label from the
    spelling-labeled data, then up to i*m new spelling rules per label
    from the context-labeled data; the loop ends when an iteration adds
    nothing (or at ``max_iters``).  Occurrences the current list cannot
    label are excluded from rule counts, not treated as negatives.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    occs = list(occurrences)
    idx = _Indexed(occs)

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
                total, matches, context, idx.bigrams, label, i * m, epsilon, smoothing, alpha
            ):
                added_ctx.append(admit_context(cid, label, cm, ct, strength))

        y = _label_by_context(idx, context)
        total, matches = _count(idx.phrase_ids, y, len(idx.phrases))
        added_sp = []
        for label in (_POS, _NEG):
            for cid, cm, ct, strength in _select_rules(
                total, matches, spelling, idx.phrases, label, i * m, epsilon, smoothing, alpha
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
