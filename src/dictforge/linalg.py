"""Dense/sparse linear algebra helpers: randomized truncated SVD and the
two whitening transforms of CCA.

A view is whitened either by a sparse Cholesky factor L of C + kappa*I
(:func:`sparse_cholesky`; any W with Wᵀ(C + kappa*I)W = I gives the same
canonical correlations, and L⁻ᵀ is such a W) or by the dense symmetric
inverse square root (:func:`sym_inv_sqrt`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["randomized_svd", "sparse_cholesky", "sym_inv_sqrt", "spectral_norm"]


def _fix_signs(U: np.ndarray, Vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic sign convention: largest-magnitude entry of each left
    # singular vector is positive.
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            Vt[j, :] = -Vt[j, :]
    return U, Vt


def randomized_svd(
    A,
    k: int,
    oversample: int = 10,
    power_iters: int = 4,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``k`` singular triples of ``A`` by randomized range finding.

    A Gaussian test matrix with ``k + oversample`` columns sketches the
    range of ``A``; ``power_iters`` rounds of (AᵀA)-multiplication sharpen
    the sketch, re-orthogonalizing with QR after every product so powers
    of the spectrum do not wash out small directions.  ``A`` may be a
    numpy array or any scipy sparse matrix.

    Returns ``(U, s, Vt)`` with ``U`` n×k, ``s`` the k singular values in
    non-increasing order, ``Vt`` k×d.  Deterministic for a fixed seed.
    """
    n, d = A.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k must be in [1, min(n, d)] = [1, {min(n, d)}], got {k}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    width = min(k + oversample, min(n, d))

    G = rng.standard_normal((d, width))
    Q, _ = np.linalg.qr(A @ G)
    for _ in range(power_iters):
        W, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ W)

    B = Q.T @ A
    if sp.issparse(B):
        B = B.toarray()
    Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    U, Vt = _fix_signs(U[:, :k], Vt[:k])
    return U, s[:k], Vt


def sym_inv_sqrt(C: np.ndarray, kappa: float) -> np.ndarray:
    """(C + kappa*I)^(-1/2) for symmetric positive semidefinite ``C``.

    Eigendecomposition route; kappa > 0 keeps the shifted eigenvalues
    bounded away from zero even when C is singular.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    C = np.asarray(C, dtype=np.float64)
    w, V = scipy.linalg.eigh(C)
    shifted = np.maximum(w + kappa, np.finfo(np.float64).tiny)
    return (V / np.sqrt(shifted)) @ V.T


def sparse_cholesky(A) -> sp.csr_matrix:
    """Lower-triangular L with L Lᵀ = A for sparse symmetric positive
    definite ``A``, in A's own row and column order.

    No fill-reducing permutation is applied, so the caller's ordering
    decides the fill: an arrowhead matrix (diagonal plus a last row and
    column) has a factor with at most 2d - 1 nonzeros.  Read off a
    symmetric-mode LU without pivoting, where U = D Lᵤᵀ and L = Lᵤ D^(1/2).
    Raises ``ValueError`` if the LU pivoted or a pivot is not positive,
    i.e. when ``A`` is not positive definite.
    """
    A = sp.csc_matrix(A, dtype=np.float64)
    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly zero pivot
        raise ValueError(f"matrix is not positive definite: {exc}") from None
    order = np.arange(A.shape[0])
    if not (np.array_equal(lu.perm_r, order) and np.array_equal(lu.perm_c, order)):
        raise ValueError("sparse LU permuted rows or columns; matrix is not positive definite")
    pivots = lu.U.diagonal()
    if not np.all(pivots > 0):
        raise ValueError("matrix is not positive definite: a pivot is <= 0")
    return (lu.L @ sp.diags(np.sqrt(pivots))).tocsr()


def spectral_norm(A) -> float:
    """Largest singular value; exact for dense input."""
    if sp.issparse(A):
        A = A.toarray()
    return float(np.linalg.svd(np.asarray(A), compute_uv=False)[0])
