"""Two-view CCA: covariance accumulation, regularized whitening, and
low-dimensional phrase embeddings.

The projection pair comes from the singular value decomposition of the
whitened cross-covariance

    T = L1^(-1) Cxz W2,    L1 L1ᵀ = Cxx + k1*I,    W2 = (Czz + k2*I)^(-1/2)

with the truncated SVD computed by the randomized method.  Each view has
one exact whitening route: the spelling view its sparse Cholesky factor L1
(never a dense d1×d1 matrix), the context view its dense inverse square
root W2.  Any whitening W with Wᵀ(C + k*I)W = I gives the same canonical
correlations and the same projections, so the solve maps back through the
whitening (Phi1 = L1^(-ᵀ) U, Phi2 = W2 V) and fixes column signs on Phi1:
its largest-magnitude entry is positive, and Phi2 flips with it.  Columns
of Phi1 are orthonormal in the (Cxx + k1*I) inner product.  The solve
records the residual ‖T vⱼ − σⱼ uⱼ‖ of each singular pair, which measures
how far the randomized sketch is from converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .linalg import randomized_svd, sparse_cholesky, sym_inv_sqrt

__all__ = [
    "CovarianceSummary",
    "CcaModel",
    "accumulate_covariance",
    "solve_cca",
    "embed_phrases",
    "write_embeddings",
    "read_embeddings",
]

@dataclass
class CovarianceSummary:
    """Second-moment sums of two row-aligned views and their row count.

    The (uncentered) covariances come from the ``cxx``/``czz``/``cxz``
    accessors, each a sum divided by n.
    """

    sxx: sp.csr_matrix
    szz: sp.csr_matrix
    sxz: sp.csr_matrix
    n: int

    @property
    def d1(self) -> int:
        return self.sxx.shape[0]

    @property
    def d2(self) -> int:
        return self.szz.shape[0]

    def cxx(self) -> sp.csr_matrix:
        return self.sxx / self.n

    def czz(self) -> sp.csr_matrix:
        return self.szz / self.n

    def cxz(self) -> sp.csr_matrix:
        return self.sxz / self.n

    def is_finite(self) -> bool:
        return all(np.isfinite(m.data).all() for m in (self.sxx, self.szz, self.sxz))


def accumulate_covariance(X, Z) -> CovarianceSummary:
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
        n=X.shape[0],
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
        """A :meth:`save` file.  A missing array, or arrays that disagree,
        raise ``ValueError`` naming the file."""
        keys = ("phi1", "phi2", "singular_values", "k", "kappa")
        with np.load(path, allow_pickle=False) as data:
            if missing := [key for key in keys if key not in data.files]:
                raise ValueError(f"{path}: missing {', '.join(missing)}")
            phi1, phi2, s, k, kappa = (data[key] for key in keys)
        k = int(k)
        checks = {
            "phi1 does not have k columns": phi1.ndim == 2 and phi1.shape[1] == k,
            "phi2 does not have k columns": phi2.ndim == 2 and phi2.shape[1] == k,
            "singular_values does not hold k values": s.shape == (k,),
            "kappa is not two values": kappa.shape == (2,),
        }
        if problems := [problem for problem, ok in checks.items() if not ok]:
            raise ValueError(f"{path}: {'; '.join(problems)}")
        return cls(
            phi1=phi1,
            phi2=phi2,
            singular_values=s,
            k=k,
            kappa=tuple(float(v) for v in kappa),
        )


def _resolve_kappa(kappa, summary: CovarianceSummary) -> tuple[float, float]:
    if kappa is None:
        tx = float(summary.sxx.diagonal().sum()) / summary.n
        tz = float(summary.szz.diagonal().sum()) / summary.n
        return (1e-4 * tx / summary.d1, 1e-4 * tz / summary.d2)
    k1, k2 = (kappa, kappa) if np.isscalar(kappa) else kappa
    if not (np.isfinite(k1) and np.isfinite(k2) and k1 > 0 and k2 > 0):
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return (float(k1), float(k2))


def solve_cca(
    summary: CovarianceSummary,
    k: int,
    kappa: float | tuple[float, float] | None = None,
    oversample: int = 10,
    power_iters: int = 4,
    seed: int = 0,
) -> CcaModel:
    """Top-``k`` CCA projections from a covariance summary.

    ``kappa`` may be a scalar (used for both views), a per-view pair, or
    None for the default scale-aware choice 1e-4 * trace(Cvv)/d per view.

    The spelling view is whitened by the sparse Cholesky factor of
    Cxx + k1*I, the context view by the dense (Czz + k2*I)^(-1/2).  The
    solver report records ``svd_residuals``, ‖T vⱼ − σⱼ uⱼ‖ per component;
    it is zero, up to rounding, only when the randomized sketch holds the
    top singular subspace exactly.
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
    w2 = sym_inv_sqrt(summary.czz().toarray(), k2)
    T = spsolve_triangular(L1, summary.cxz() @ w2, lower=True)

    U, s, Vt = randomized_svd(T, k, oversample=oversample, power_iters=power_iters, seed=seed)
    # TᵀU = VS holds by construction of the sketch's SVD, so only TV - US
    # measures how far the sketch is from the true singular pairs
    residuals = np.linalg.norm(T @ Vt.T - U * s, axis=0)
    phi1 = spsolve_triangular(L1.T.tocsr(), U, lower=False)
    phi2 = w2 @ Vt.T
    # signs on phi1, not U, so the result does not depend on the whitening
    peak = phi1[np.argmax(np.abs(phi1), axis=0), np.arange(k)]
    flip = np.where(peak < 0, -1.0, 1.0)
    solver = {
        "whitening": {"spelling": "cholesky", "context": "full"},
        "svd_residuals": [float(r) for r in residuals],
    }
    return CcaModel(
        phi1=phi1 * flip, phi2=phi2 * flip, singular_values=s, k=k, kappa=(k1, k2),
        solver=solver,
    )


def embed_phrases(model: CcaModel, spelling_rows) -> np.ndarray:
    """Spelling-view projections phi1' x, one row per row of a (sparse)
    spelling matrix of width d1."""
    if spelling_rows.shape[1] != model.d1:
        raise ValueError(
            f"spelling rows have {spelling_rows.shape[1]} columns, model d1 is {model.d1}"
        )
    return spelling_rows @ model.phi1


def write_embeddings(phrases: Sequence[str], vectors: np.ndarray, fh) -> None:
    """TSV: each phrase, then the k components of its row of ``vectors``
    (an n×k matrix, row-aligned with ``phrases``)."""
    if len(vectors) != len(phrases):
        raise ValueError(f"{len(phrases)} phrases but {len(vectors)} vector rows")
    # tolist gives Python floats, whose repr is the shortest round-trip text
    for phrase, row in zip(phrases, np.asarray(vectors, dtype=np.float64).tolist()):
        vals = "\t".join(map(repr, row))
        fh.write(f"{phrase}\t{vals}\n")


def read_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Phrase vectors of a :func:`write_embeddings` file; blank lines are
    skipped, and a phrase without components, or with a different number
    of them than the first row, is an error."""
    out: dict[str, np.ndarray] = {}
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            phrase, _, vector = line.rstrip("\n").partition("\t")
            if not vector:
                raise ValueError(f"{path}, line {lineno}: {phrase!r} has no vector components")
            try:
                out[phrase] = row = np.array([float(v) for v in vector.split("\t")])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {phrase!r}: {exc}") from None
            width = width or len(row)
            if len(row) != width:
                raise ValueError(
                    f"{path}, line {lineno}: {phrase!r} has {len(row)} components, expected {width}"
                )
    return out
