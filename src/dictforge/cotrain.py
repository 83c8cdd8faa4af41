"""Decision-list co-training over (spelling, context) pairs.

Two rule lists bootstrap each other from a few seed phrases: spelling
rules test the full phrase string, context rules test a bigram of two
(position, word) items from the six-slot context window.  Both lists are
one type over a matrix of each occurrence's condition ids: one column for
spelling (its phrase), fifteen for context (its bigrams).
Bigrams of the table's d contexts are interned through a d²-long presence
array when d² is at most the number of bigram codes, by ``np.unique``'s
sort otherwise.
Each iteration labels the collection with one list, then adds the
strongest rules of the other view, growing both lists until nothing new
qualifies.  The spelling list labels its rows by one gather of its
conditions' labels, the context list by each row's strongest rule.  Each
list keeps its (condition, label) counts from one selection to the next
and recounts only the rows whose label moved; it admits each label's
chosen rules in one batch, and a :class:`Rule` is a record (a named
tuple), which the iteration trace holds as admitted.  A final threshold
over positive spelling rules yields the comparison dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


class Rule(NamedTuple):
    """One decision-list rule with the counts it was admitted on.

    ``condition`` is ("full-string", phrase) for spelling rules or
    ("bigram", (pos1, word1), (pos2, word2)) for context rules.  Seed
    rules carry strength 1.0 with zero counts (given, not estimated).
    A record, since a run admits thousands of rules and a tuple is the
    cheapest immutable object to build.
    """

    view: str
    condition: tuple
    label: str
    count_match: int
    count_total: int
    strength: float


@dataclass
class DecisionListState:
    """Both rule lists, the final label of each table row (1 positive,
    0 negative, -1 unlabeled; an array, so left out of ``==``), and the
    iteration trace: per iteration, the :class:`Rule` records each list
    admitted and both lists' sizes after it."""

    spelling_rules: list[Rule]
    context_rules: list[Rule]
    labels: np.ndarray = field(compare=False)
    iteration: int
    m: int
    epsilon: float
    trace: list[dict] = field(default_factory=list)


class _DecisionList:
    """One view's decision list over a c×n matrix of condition ids.

    ``ids[:, r]`` holds the c conditions occurrence row r satisfies: its
    phrase (c = 1) in the spelling view, its fifteen context bigrams in
    the context view.  Condition-major, so that finding each row's
    strongest rule is a minimum across c contiguous rows.  ``rank``
    orders ``conditions`` lexicographically.  Each condition carries the
    label, strength and admission order of its rule, if it has one.
    ``counts`` holds each (condition, label) count over the row labels
    ``counted``, the ones the last selection counted.
    """

    def __init__(self, view: str, ids: np.ndarray, conditions: list[tuple], rank: np.ndarray):
        self.view = view
        self.ids = ids
        self.conditions = conditions
        self.rank = rank
        self.label = np.full(len(conditions), _UNLABELED, dtype=np.int8)
        self.strength = np.full(len(conditions), -np.inf)
        self.order = np.full(len(conditions), np.iinfo(np.int64).max, dtype=np.int64)
        self.rules: list[Rule] = []
        self.counts = np.zeros((len(conditions), 2), dtype=np.int64)
        self.counted = np.full(ids.shape[1], _UNLABELED, dtype=np.int64)

    def admit(self, cid: int, label: int, cm: int, ct: int, strength: float) -> Rule:
        self.label[cid] = label
        self.strength[cid] = strength
        self.order[cid] = len(self.rules)
        rule = Rule(self.view, self.conditions[cid], _LABEL_NAMES[label], cm, ct, strength)
        self.rules.append(rule)
        return rule

    def label_rows(self) -> np.ndarray:
        """Each row's label: its strongest matching rule decides, ties go
        to the earlier addition; rows no rule matches are unlabeled.  A row
        of a one-column list matches one condition, whose label it takes."""
        if len(self.ids) == 1:
            return self.label[self.ids[0]].astype(np.int64)
        admitted = np.flatnonzero(self.label != _UNLABELED)
        ranked = admitted[np.lexsort((self.order[admitted], -self.strength[admitted]))]
        # rank of each condition's rule; conditions without one rank last
        rank = np.full(len(self.label), len(ranked), dtype=np.int64)
        rank[ranked] = np.arange(len(ranked))
        best = rank[self.ids].min(axis=0)
        return np.append(self.label[ranked], _UNLABELED).astype(np.int64)[best]

    def _count(self, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The (condition, label) counts of ``rows`` labeled ``labels``."""
        codes = self.ids[:, rows] * 2 + labels
        return np.bincount(codes.ravel(), minlength=self.counts.size).reshape(-1, 2)

    def select(self, labels: np.ndarray, limit: int, epsilon: float) -> list[Rule]:
        """Admit up to ``limit`` new rules per label, positive first, counted
        over the rows ``labels`` labels: strength strictly above epsilon,
        ranked by count_match desc, ties by strength desc then by condition."""
        # rows whose label moved since the last count leave their old
        # (condition, label) counts and join their new ones
        moved = np.flatnonzero(labels != self.counted)
        for row_labels, sign in ((self.counted[moved], -1), (labels[moved], 1)):
            labeled = row_labels != _UNLABELED
            if labeled.any():
                self.counts += sign * self._count(moved[labeled], row_labels[labeled])
        self.counted = labels.copy()
        total = self.counts.sum(axis=1)
        added = []
        for label in (_POS, _NEG):
            match = self.counts[:, label]
            strength = np.where(total >= 1, match / np.maximum(total, 1), -1.0)
            qualifying = np.flatnonzero(
                (total >= 1) & (strength > epsilon) & (self.label == _UNLABELED)
            )
            order = np.lexsort((self.rank[qualifying], -strength[qualifying], -match[qualifying]))
            chosen = qualifying[order[:limit]]
            self.label[chosen] = label
            self.strength[chosen] = strength[chosen]
            self.order[chosen] = np.arange(len(self.rules), len(self.rules) + len(chosen))
            name = _LABEL_NAMES[label]
            new_rules = [
                Rule(self.view, self.conditions[cid], name, cm, ct, s)
                for cid, cm, ct, s in zip(
                    chosen.tolist(),
                    match[chosen].tolist(),
                    total[chosen].tolist(),
                    strength[chosen].tolist(),
                )
            ]
            self.rules += new_rules
            added += new_rules
        return added


def _intern(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` of codes in [0, size), the
    inverse shaped as ``codes``.  When ``size`` is at most the number of
    codes, a size-long presence array gives both (``flatnonzero``, then
    ``cumsum``) in time and memory linear in the codes; a larger code
    space falls back to ``np.unique``'s sort."""
    if size > codes.size:
        unique, inverse = np.unique(codes, return_inverse=True)
        return unique, inverse.reshape(codes.shape)
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    index = np.cumsum(present)
    index -= 1
    return np.flatnonzero(present), index[codes]


def _decision_lists(table: OccurrenceTable) -> tuple[_DecisionList, _DecisionList]:
    """The empty spelling and context lists of ``table``'s rows.  A rank
    is the inverse, by argsort, of the permutation that sorts the keys."""
    spelling = _DecisionList(
        "spelling",
        table.phrase_ids[None, :],
        [("full-string", p) for p in table.phrases],
        np.argsort(sorted(range(len(table.phrases)), key=table.phrases.__getitem__)),
    )
    # a bigram is a pair of context ids at two distinct positions, coded as
    # first * d + second
    first, second = np.triu_indices(len(CONTEXT_POSITIONS), k=1)
    d = len(table.contexts)
    codes = table.context_ids.T[first] * d + table.context_ids.T[second]
    unique, inverse = _intern(codes, d * d)
    # contexts are distinct, so bigrams order as their pairs of context ranks do
    context_rank = np.argsort(sorted(range(d), key=table.contexts.__getitem__))
    context = _DecisionList(
        "context",
        inverse,
        [("bigram", table.contexts[c // d], table.contexts[c % d]) for c in unique.tolist()],
        np.argsort(np.lexsort((context_rank[unique % d], context_rank[unique // d]))),
    )
    return spelling, context


def dl_cotrain(
    table: OccurrenceTable,
    seeds: SeedSet,
    m: int = 5,
    epsilon: float = 0.95,
) -> DecisionListState:
    """Run the alternating decision-list algorithm to a fixed point.

    Iteration i adds up to i*m new context rules per label from the
    spelling-labeled data, then up to i*m new spelling rules per label
    from the context-labeled data; the loop ends when an iteration adds
    nothing.  Occurrences the current list cannot label are excluded from
    rule counts, not treated as negatives.  The final ``labels`` are
    indexed by row of ``table``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    phrase_of = {p: i for i, p in enumerate(table.phrases)}
    missing = [s for s in (*seeds.positives, *seeds.negatives) if s not in phrase_of]
    if missing:
        raise ValueError(f"seeds never occur in the collection: {missing}")

    spelling, context = _decision_lists(table)
    for label, phrases in ((_POS, seeds.positives), (_NEG, seeds.negatives)):
        for phrase in phrases:
            spelling.admit(phrase_of[phrase], label, 0, 0, 1.0)

    trace: list[dict] = []
    i = 1
    while True:
        added = {}
        for grown, labeler in ((context, spelling), (spelling, context)):
            added[grown.view] = grown.select(labeler.label_rows(), i * m, epsilon)
        trace.append(
            {
                "iteration": i,
                "added_context": added["context"],
                "added_spelling": added["spelling"],
                "spelling_rules": len(spelling.rules),
                "context_rules": len(context.rules),
            }
        )
        if not (added["context"] or added["spelling"]):
            break
        i += 1

    # Final labeling: the spelling list where it fires, the context list
    # where spelling is silent.
    y_sp = spelling.label_rows()
    return DecisionListState(
        spelling_rules=spelling.rules,
        context_rules=context.rules,
        labels=np.where(y_sp != _UNLABELED, y_sp, context.label_rows()).astype(np.int8),
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
