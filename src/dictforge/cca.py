"""Two-view CCA: covariance accumulation, regularized whitening, and
low-dimensional phrase embeddings.

The projection pair comes from the singular value decomposition of the
whitened cross-covariance

    T = (Cxx + k1*I)^(-1/2) Cxz (Czz + k2*I)^(-1/2)

with the truncated SVD computed by the randomized method.  Projections
are mapped back through the whitening transforms, so columns of Phi1 are
orthonormal in the (Cxx + k1*I) inner product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .linalg import randomized_svd, sym_inv_sqrt
from .views import SparseVector

__all__ = [
    "CovarianceSummary",
    "CcaModel",
    "PhraseEmbedding",
    "accumulate_covariance",
    "solve_cca",
    "embed_phrases",
    "write_embeddings",
    "read_embeddings",
]

# Above this dimension full whitening (a dense eigendecomposition) is
# replaced by a diagonal approximation.
FULL_WHITEN_MAX_DIM = 20_000


@dataclass
class CovarianceSummary:
    """Second-moment sums of two row-aligned views.

    Raw sums (not normalized by n) are stored so merging partial summaries
    from disjoint row sets is plain sparse addition and reproduces the
    whole-matrix computation up to float summation order.  Normalized
    covariances come from the ``cxx``/``czz``/``cxz`` accessors.
    """

    sxx: sp.csr_matrix
    szz: sp.csr_matrix
    sxz: sp.csr_matrix
    sum_x: np.ndarray
    sum_z: np.ndarray
    n: int
    center: bool = False

    @property
    def d1(self) -> int:
        return self.sxx.shape[0]

    @property
    def d2(self) -> int:
        return self.szz.shape[0]

    def merge(self, other: "CovarianceSummary") -> "CovarianceSummary":
        if (self.d1, self.d2, self.center) != (other.d1, other.d2, other.center):
            raise ValueError("summaries have incompatible shapes or centering")
        return CovarianceSummary(
            self.sxx + other.sxx,
            self.szz + other.szz,
            self.sxz + other.sxz,
            self.sum_x + other.sum_x,
            self.sum_z + other.sum_z,
            self.n + other.n,
            self.center,
        )

    def _normalize(self, s: sp.csr_matrix, mean_a: np.ndarray, mean_b: np.ndarray):
        c = s / self.n
        if self.center:
            return np.asarray(c.todense()) - np.outer(mean_a, mean_b)
        return c

    def cxx(self):
        m = self.sum_x / self.n
        return self._normalize(self.sxx, m, m)

    def czz(self):
        m = self.sum_z / self.n
        return self._normalize(self.szz, m, m)

    def cxz(self):
        return self._normalize(self.sxz, self.sum_x / self.n, self.sum_z / self.n)

    def is_finite(self) -> bool:
        return all(
            np.isfinite(m.data if sp.issparse(m) else m).all()
            for m in (self.sxx, self.szz, self.sxz, self.sum_x, self.sum_z)
        )


def accumulate_covariance(X, Z, center: bool = False) -> CovarianceSummary:
    """Covariance summary of row-aligned views X (n×d1) and Z (n×d2)."""
    X = sp.csr_matrix(X, dtype=np.float64)
    Z = sp.csr_matrix(Z, dtype=np.float64)
    if X.shape[0] != Z.shape[0]:
        raise ValueError(f"row mismatch: X has {X.shape[0]} rows, Z has {Z.shape[0]}")
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    return CovarianceSummary(
        sxx=(X.T @ X).tocsr(),
        szz=(Z.T @ Z).tocsr(),
        sxz=(X.T @ Z).tocsr(),
        sum_x=np.asarray(X.sum(axis=0)).ravel(),
        sum_z=np.asarray(Z.sum(axis=0)).ravel(),
        n=X.shape[0],
        center=center,
    )


@dataclass
class CcaModel:
    """Projection pair and spectrum from one CCA solve.

    ``kappa`` records the per-view regularizers actually used.  Canonical
    correlations are non-increasing; values may exceed 1 by no more than
    numerical noise when kappa is tiny.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    singular_values: np.ndarray
    k: int
    kappa: tuple[float, float]

    def __post_init__(self):
        s = self.singular_values
        if np.any(s[1:] > s[:-1] + 1e-12):
            raise ValueError("singular values must be non-increasing")

    @property
    def d1(self) -> int:
        return self.phi1.shape[0]

    @property
    def d2(self) -> int:
        return self.phi2.shape[0]

    def embed(self, x) -> np.ndarray:
        """Spelling-view projection phi1' x of one sparse or dense vector."""
        if isinstance(x, SparseVector):
            out = np.zeros(self.k)
            for c, v in x.entries:
                out += v * self.phi1[c]
            return out
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d1,):
            raise ValueError(f"expected vector of dim {self.d1}, got {x.shape}")
        return self.phi1.T @ x

    def save(self, path: str | Path) -> None:
        # write to the exact path given; np.savez appends .npz to bare names
        with open(path, "wb") as fh:
            np.savez(
                fh,
                phi1=self.phi1,
                phi2=self.phi2,
                singular_values=self.singular_values,
                k=np.array(self.k),
                kappa=np.array(self.kappa),
            )

    @classmethod
    def load(cls, path: str | Path) -> "CcaModel":
        with np.load(path) as data:
            return cls(
                phi1=data["phi1"],
                phi2=data["phi2"],
                singular_values=data["singular_values"],
                k=int(data["k"]),
                kappa=tuple(float(v) for v in data["kappa"]),
            )


def _resolve_kappa(kappa, summary: CovarianceSummary) -> tuple[float, float]:
    if kappa is None:
        tx = float(summary.sxx.diagonal().sum()) / summary.n
        tz = float(summary.szz.diagonal().sum()) / summary.n
        return (1e-4 * tx / summary.d1, 1e-4 * tz / summary.d2)
    if np.isscalar(kappa):
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        return (float(kappa), float(kappa))
    k1, k2 = kappa
    if k1 <= 0 or k2 <= 0:
        raise ValueError("kappa must be positive")
    return (float(k1), float(k2))


def _whitener(cvv, d: int, kappa: float, mode: str):
    """Full inverse square root, or its diagonal approximation for very
    high-dimensional views.  Returns (matvec-ready operator, is_diag)."""
    if mode == "auto":
        mode = "full" if d <= FULL_WHITEN_MAX_DIM else "diag"
        if mode == "diag":
            warnings.warn(
                f"view dimension {d} exceeds {FULL_WHITEN_MAX_DIM}; "
                "falling back to diagonal whitening"
            )
    if mode == "full":
        dense = np.asarray(cvv.todense()) if sp.issparse(cvv) else np.asarray(cvv)
        return sym_inv_sqrt(dense, kappa), False
    if mode == "diag":
        diag = cvv.diagonal() if sp.issparse(cvv) else np.diag(np.asarray(cvv))
        return 1.0 / np.sqrt(diag + kappa), True
    raise ValueError(f"unknown whitening mode {mode!r}")


def solve_cca(
    summary: CovarianceSummary,
    k: int,
    kappa: float | tuple[float, float] | None = None,
    oversample: int = 10,
    power_iters: int = 4,
    seed: int = 0,
    whiten: str = "auto",
) -> CcaModel:
    """Top-``k`` CCA projections from a covariance summary.

    ``kappa`` may be a scalar (used for both views), a per-view pair, or
    None for the default scale-aware choice 1e-4 * trace(Cvv)/d per view.
    """
    if not summary.is_finite():
        raise ValueError("covariance summary contains non-finite values")
    if not 1 <= k <= min(summary.d1, summary.d2):
        raise ValueError(
            f"k must be in [1, {min(summary.d1, summary.d2)}], got {k}"
        )
    k1, k2 = _resolve_kappa(kappa, summary)

    w1, diag1 = _whitener(summary.cxx(), summary.d1, k1, whiten)
    w2, diag2 = _whitener(summary.czz(), summary.d2, k2, whiten)
    cxz = summary.cxz()

    if diag1 or diag2:
        # keep T sparse when either side is a diagonal scaling
        left = sp.diags(w1) if diag1 else sp.csr_matrix(w1)
        right = sp.diags(w2) if diag2 else sp.csr_matrix(w2)
        T = (left @ sp.csr_matrix(cxz) @ right).tocsr()
    else:
        T = w1 @ (sp.csr_matrix(cxz) @ w2)

    U, s, Vt = randomized_svd(T, k, oversample=oversample, power_iters=power_iters, seed=seed)
    phi1 = (w1[:, None] * U) if diag1 else (w1 @ U)
    phi2 = (w2[:, None] * Vt.T) if diag2 else (w2 @ Vt.T)
    return CcaModel(phi1=phi1, phi2=phi2, singular_values=s, k=k, kappa=(k1, k2))


@dataclass(frozen=True)
class PhraseEmbedding:
    phrase: str
    vector: np.ndarray


def embed_phrases(
    model: CcaModel,
    spelling_vectors: Mapping[str, SparseVector],
) -> list[PhraseEmbedding]:
    """One embedding per phrase from its canonical spelling vector, in
    mapping order.  Every instance of a phrase shares this embedding."""
    out = []
    for phrase, vec in spelling_vectors.items():
        cols = vec.columns()
        if cols and cols[-1] >= model.d1:
            raise ValueError(
                f"spelling vector for {phrase!r} has column {cols[-1]} "
                f">= model d1 {model.d1}"
            )
        out.append(PhraseEmbedding(phrase, model.embed(vec)))
    return out


def write_embeddings(embeddings: Iterable[PhraseEmbedding], fh) -> None:
    """TSV: phrase, then the k vector components."""
    for emb in embeddings:
        vals = "\t".join(repr(float(v)) for v in emb.vector)
        fh.write(f"{emb.phrase}\t{vals}\n")


def read_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                continue
            out[parts[0]] = np.array([float(v) for v in parts[1:]])
    return out
