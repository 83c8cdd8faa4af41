"""Two-view CCA: covariance accumulation, regularized whitening, and
low-dimensional phrase embeddings.

The projection pair comes from the singular value decomposition of the
whitened cross-covariance

    T = L1^(-1) Cxz W2,    L1 L1ᵀ = Cxx + k1*I,    W2 = (Czz + k2*I)^(-1/2)

with the truncated SVD computed by the randomized method.  The spelling
view is whitened by the exact sparse Cholesky factor L1 (never a dense
d1×d1 matrix); the context view by its dense inverse square root.  Any
whitening W with Wᵀ(C + k*I)W = I gives the same canonical correlations and
the same projections, so the solve maps back through the whitening (Phi1 =
L1^(-ᵀ) U, Phi2 = W2 V) and fixes column signs on Phi1: its
largest-magnitude entry is positive, and Phi2 flips with it.  Columns of
Phi1 are orthonormal in the (Cxx + k1*I) inner product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .linalg import randomized_svd, sparse_cholesky, sym_inv_sqrt

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

# Above this dimension the context view's full whitening (a dense
# eigendecomposition) is replaced by a diagonal approximation.
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
    numerical noise when kappa is tiny.  ``solver`` reports how the solve
    was done (each view's whitening and the SVD residuals); it is not
    saved.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    singular_values: np.ndarray
    k: int
    kappa: tuple[float, float]
    solver: dict | None = field(default=None, repr=False, compare=False)

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
    """Context-view whitening: the full inverse square root, or its diagonal
    approximation for very high-dimensional views.  Returns (matvec-ready
    operator, is_diag)."""
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

    The spelling view is always whitened by the sparse Cholesky factor of
    Cxx + k1*I.  ``whiten`` ("auto", "full" or "diag") and
    ``FULL_WHITEN_MAX_DIM`` govern only the context view: "auto" is "full"
    up to that dimension and "diag", with a warning, above it.
    """
    if not summary.is_finite():
        raise ValueError("covariance summary contains non-finite values")
    if not 1 <= k <= min(summary.d1, summary.d2):
        raise ValueError(
            f"k must be in [1, {min(summary.d1, summary.d2)}], got {k}"
        )
    k1, k2 = _resolve_kappa(kappa, summary)

    # The spelling covariance is diagonal plus the caps row and column.
    # The caps column being last is what keeps the factor fill-free: an
    # arrowhead matrix pointing down-right has an O(d1) Cholesky factor.
    L1 = sparse_cholesky(summary.cxx() + k1 * sp.identity(summary.d1))
    w2, diag2 = _whitener(summary.czz(), summary.d2, k2, whiten)
    cxz = sp.csr_matrix(summary.cxz())
    cxz_w2 = (cxz @ sp.diags(w2)).toarray() if diag2 else cxz @ w2
    T = spsolve_triangular(L1, cxz_w2, lower=True)

    U, s, Vt = randomized_svd(T, k, oversample=oversample, power_iters=power_iters, seed=seed)
    residuals = np.linalg.norm(T.T @ U - Vt.T * s, axis=0)
    phi1 = spsolve_triangular(L1.T.tocsr(), U, lower=False)
    phi2 = (w2[:, None] * Vt.T) if diag2 else (w2 @ Vt.T)
    # signs on phi1, not U, so the result does not depend on the whitening
    peak = phi1[np.argmax(np.abs(phi1), axis=0), np.arange(k)]
    flip = np.where(peak < 0, -1.0, 1.0)
    solver = {
        "whitening": {"spelling": "cholesky", "context": "diag" if diag2 else "full"},
        "svd_residuals": [float(r) for r in residuals],
    }
    return CcaModel(
        phi1=phi1 * flip, phi2=phi2 * flip, singular_values=s, k=k, kappa=(k1, k2),
        solver=solver,
    )


@dataclass(frozen=True)
class PhraseEmbedding:
    phrase: str
    vector: np.ndarray


def embed_phrases(model: CcaModel, spelling_rows) -> np.ndarray:
    """Spelling-view projections phi1' x, one row per row of a (sparse)
    spelling matrix of width d1."""
    if spelling_rows.shape[1] != model.d1:
        raise ValueError(
            f"spelling rows have {spelling_rows.shape[1]} columns, model d1 is {model.d1}"
        )
    return spelling_rows @ model.phi1


def write_embeddings(embeddings: Iterable[PhraseEmbedding], fh) -> None:
    """TSV: phrase, then the k vector components."""
    for emb in embeddings:
        vals = "\t".join(repr(float(v)) for v in emb.vector)
        fh.write(f"{emb.phrase}\t{vals}\n")


def read_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Phrase vectors of a :func:`write_embeddings` file; blank lines are
    skipped, a phrase without components is an error."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            phrase, _, vector = line.rstrip("\n").partition("\t")
            if not vector:
                raise ValueError(f"{path}, line {lineno}: {phrase!r} has no vector components")
            out[phrase] = np.array([float(v) for v in vector.split("\t")])
    return out
