"""Seed sets and the linear classifier over phrase embeddings.

A binary soft-margin SVM separates entity from non-entity candidates
using only a handful of labeled seed phrases.  The solver is a
deterministic dual coordinate descent on the bias-augmented objective

    min_{w,b}  0.5 (||w||^2 + b^2) + C * sum_i hinge(y_i (w.x_i + b))

so no external optimizer is involved and retraining is bit-reproducible.
The sweep runs on Python floats over rows signed by their labels, which
keeps every step bit-identical to the plain sweep (see ``_fit``).
:func:`build_dictionary` cuts the margin ranking at a threshold into a
:class:`~dictforge.tagging.Dictionary`, built, and so checked, as any
other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable, Mapping, Sequence

import numpy as np

from .tagging import Dictionary, check_phrases

__all__ = [
    "SeedSet",
    "SvmModel",
    "read_seeds",
    "resolve_seeds",
    "train_svm",
    "svm_objective",
    "rank_candidates",
    "threshold_prefix",
    "build_dictionary",
]


@dataclass(frozen=True)
class SeedSet:
    """Positive and negative seed phrases (lowercase forms)."""

    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise ValueError(f"seeds in both classes: {sorted(overlap)}")
        if len(set(self.positives)) != len(self.positives) or len(
            set(self.negatives)
        ) != len(self.negatives):
            raise ValueError("duplicate seed within a class")

    @classmethod
    def make(cls, positives: Iterable[str], negatives: Iterable[str]) -> "SeedSet":
        return cls(
            tuple(p.lower() for p in positives), tuple(n.lower() for n in negatives)
        )


def read_seeds(path: str | Path) -> SeedSet:
    """Seed file: one phrase per line under ``[positive]`` / ``[negative]``
    section headers; ``#`` comments and blank lines ignored.  A seed that
    could never match (:func:`~dictforge.tagging.check_phrases`) raises
    ``ValueError`` naming the file and line."""
    positives: list[str] = []
    negatives: list[str] = []
    target: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.lower() == "[positive]":
                target = positives
            elif line.lower() == "[negative]":
                target = negatives
            elif target is None:
                raise ValueError(f"{path}, line {lineno}: phrase before any section header")
            else:
                try:
                    check_phrases((line.lower(),), "seed")
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
                target.append(line.lower())
    try:
        return SeedSet.make(positives, negatives)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_seeds(
    seeds: SeedSet, embeddings: Container[str]
) -> tuple[list[str], list[str], list[str]]:
    """Split seeds into (resolved positives, resolved negatives, missing),
    a seed resolving when it is in ``embeddings`` (a phrase collection).

    Missing seeds are returned, never silently dropped; callers decide
    whether to warn or fail.
    """
    pos = [p for p in seeds.positives if p in embeddings]
    neg = [n for n in seeds.negatives if n in embeddings]
    missing = [s for s in (*seeds.positives, *seeds.negatives) if s not in embeddings]
    return pos, neg, missing


@dataclass
class SvmModel:
    """Trained separator: score(x) = weights.x + bias.  solver holds the
    fit's report (epochs, gap, converged) and takes no part in equality."""

    weights: np.ndarray
    bias: float
    C: float
    dims_used: int
    solver: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.weights).all() or not np.isfinite(self.bias):
            raise ValueError("model has non-finite parameters")

    def decision(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dims_used,):
            raise ValueError(f"expected dim {self.dims_used}, got {x.shape}")
        return float(self.weights @ x + self.bias)

    def predict(self, x: np.ndarray) -> tuple[str, float]:
        """Label and margin score; a score of exactly 0 counts as entity."""
        score = self.decision(x)
        return ("entity" if score >= 0 else "not_entity"), score


def svm_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Primal objective with the bias regularized alongside the weights."""
    margins = y * (X @ w + b)
    return 0.5 * (w @ w + b * b) + C * np.sum(np.maximum(0.0, 1.0 - margins))


def _fit(X: np.ndarray, y: np.ndarray, C: float, tol: float, max_epochs: int):
    """Dual coordinate descent with a fixed 0..n-1 sweep order.

    Stops when the duality gap drops below tol * max(1, primal); the gap
    is exact because the dual objective is available in closed form from
    the maintained w = sum_i alpha_i y_i x_i.  Returns the weights, the
    bias and the report {epochs, gap, converged} of the last sweep.

    A coordinate step is a handful of scalar operations, which cost less
    on Python floats than on NumPy scalars, so the sweep keeps q and alpha
    as lists and each row as a contiguous 1-D array.  Each row is signed
    by its label (y_i = ±1) before the sweep: a sign flip is exact, so
    ``y_i x_i . w`` is ``y_i * (x_i . w)`` and ``delta * (y_i x_i)`` is
    ``(delta * y_i) * x_i`` to the bit.  ``.dot`` is the BLAS ``ddot``
    that ``@`` calls, with less dispatch; the clip compares as ``min`` and
    ``max`` do, and ``w`` is updated through one scratch buffer with the
    same two roundings as ``w += delta * y_i * x_i``.  The gap check takes
    the margins ``y_i (x_i . w)`` as one gemv over the signed rows, exact by
    the same sign flip, and the hinge in one preallocated buffer; it
    computes ``w . w`` once and reduces without ``np.sum``'s wrapper.  So
    every fit is bit-identical to the same sweep on NumPy scalars.
    """
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])  # bias column
    signed = Xa * y[:, None]
    rows = list(signed)
    q = np.einsum("ij,ij->i", Xa, Xa).tolist()  # always >= 1
    alpha = [0.0] * n
    w = np.zeros(d + 1)
    step = np.empty(d + 1)
    hinge = np.empty(n)
    multiply, add = np.multiply, np.add
    epochs, gap, converged = 0, float("inf"), False
    while epochs < max_epochs and not converged:
        epochs += 1
        for i, (yx_i, q_i) in enumerate(zip(rows, q)):
            a_i = alpha[i]
            a_new = a_i - (float(yx_i.dot(w)) - 1.0) / q_i
            if a_new < 0.0:
                a_new = 0.0
            if a_new > C:
                a_new = C
            delta = a_new - a_i
            if delta != 0.0:
                add(w, multiply(yx_i, delta, out=step), out=w)
                alpha[i] = a_new
        ww = w.dot(w)
        np.maximum(np.subtract(1.0, signed.dot(w, out=hinge), out=hinge), 0.0, out=hinge)
        primal = 0.5 * ww + C * add.reduce(hinge)
        dual = add.reduce(alpha) - 0.5 * ww
        gap = float(primal - dual)
        converged = bool(gap <= tol * max(1.0, abs(primal)))
    return w[:d], float(w[d]), {"epochs": epochs, "gap": gap, "converged": converged}


def train_svm(
    embeddings: Mapping[str, np.ndarray],
    seeds: SeedSet,
    C: float,
    tol: float = 1e-6,
    max_epochs: int = 100_000,
) -> SvmModel:
    """Train on the seed phrases' embeddings.

    Seeds without an embedding are reported via a warning and skipped; if
    either class ends up empty, training fails.
    """
    if not (np.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C}")
    pos, neg, missing = resolve_seeds(seeds, embeddings)
    if missing:
        warnings.warn(f"seeds without embeddings skipped: {missing}")
    if not pos or not neg:
        raise ValueError(
            f"need at least one resolvable seed per class "
            f"(got {len(pos)} positive, {len(neg)} negative)"
        )
    vecs = [np.asarray(embeddings[p], dtype=np.float64) for p in (*pos, *neg)]
    dims = {v.shape for v in vecs}
    if len(dims) != 1 or len(dims.pop()) != 1:
        raise ValueError("seed embeddings disagree in dimension")
    X = np.vstack(vecs)
    y = np.array([1.0] * len(pos) + [-1.0] * len(neg))
    w, b, solver = _fit(X, y, C, tol, max_epochs)
    return SvmModel(weights=w, bias=b, C=C, dims_used=X.shape[1], solver=solver)


def rank_candidates(
    candidates: Sequence[str],
    embeddings: np.ndarray,
    model: SvmModel,
    threshold: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates scoring at least ``threshold`` as (order, scores):
    their row indices ranked by margin descending, and their margins in
    that order.

    ``embeddings`` holds one row per candidate, in the candidates' order,
    of the model's dimension; a column-prefix view of a wider matrix is
    scored without a copy.  Equal scores rank in ascending phrase order,
    whatever the candidates' order (``-0.0`` and ``0.0`` are equal).  The
    cut is :func:`threshold_prefix` of the full ranking.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    if E.ndim != 2 or E.shape[1] != model.dims_used:
        raise ValueError(f"expected dim {model.dims_used}, got {E.shape[1:]}")
    if len(E) != len(candidates):
        raise ValueError(f"{len(candidates)} candidates but {len(E)} embedding rows")
    # vecdot sums each row as ``decision`` sums a contiguous vector; a
    # matrix product may not, nor a row whose elements are strided, and
    # either would move scores in the last bit
    if E.strides[1] != E.itemsize:
        E = np.ascontiguousarray(E)
    scores = np.vecdot(E, model.weights) + model.bias
    # a stable sort by descending score of the rows in phrase order (the
    # phrase sort is one linear pass over already sorted candidates)
    by_phrase = np.array(sorted(range(len(E)), key=candidates.__getitem__), dtype=np.intp)
    order = by_phrase[np.argsort(-scores[by_phrase], kind="stable")]
    ranked = scores[order]
    kept = threshold_prefix(ranked, threshold)
    return order[:kept], ranked[:kept]


def threshold_prefix(scores: np.ndarray, threshold: float) -> int:
    """How many of the descending ``scores`` are at least ``threshold``
    (``-0.0`` equals ``0.0``).  An empty prefix is valid but warned about,
    since it usually means the classifier or seeds are off."""
    if threshold < 0.0:
        raise ValueError("threshold must be >= 0")
    kept = int(np.searchsorted(-scores, -threshold, side="right"))
    if not kept:
        warnings.warn("classifier accepted no candidates; dictionary is empty")
    return kept


def build_dictionary(
    candidates: Sequence[str],
    embeddings: np.ndarray,
    model: SvmModel,
    threshold: float = 0.0,
) -> Dictionary:
    """The :func:`rank_candidates` ranking as a dictionary: candidates
    scoring at least ``threshold``, ranked by margin descending.

    The dictionary checks its phrases as any :class:`Dictionary` does, so a
    kept candidate that could never match raises ``ValueError``.  The
    default threshold keeps exactly the phrases the classifier accepts;
    raising it trades recall for precision and never grows the dictionary.
    """
    order, scores = rank_candidates(candidates, embeddings, model, threshold)
    ranked = dict(zip([candidates[i] for i in order.tolist()], scores.tolist()))
    meta = {"C": repr(model.C), "dims": str(model.dims_used), "threshold": repr(threshold)}
    return Dictionary(ranked, "cca", meta)
