"""Linear algebra between Gram matrices and squared-distance matrices.

The two basic objects are a Gram matrix Y = P P^T of a point configuration
and the matrix D of squared pairwise distances of the same points.  They are
linked by the linear map

    kappa(Y) = diag(Y) e^T + e diag(Y)^T - 2 Y,

which is one-to-one and onto between centered PSD matrices (Y e = 0) and
squared-distance matrices.  ``kappa_pinv`` is its generalized inverse,
``kappa_adjoint`` its adjoint.  Eigenvalue-based helpers for rank decisions
and low-rank PSD projection live here as well; everything operates on small
dense symmetric matrices (clique-sized, at most a few hundred rows).
``kappa_pinv``, ``eigh_descending`` and ``significant_rank`` also take
stacks of them (leading axes), treating each matrix as they would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, RankDeficient

__all__ = [
    "RankTolerance",
    "EigenPair",
    "kappa",
    "kappa_adjoint",
    "kappa_pinv",
    "eigh_descending",
    "full_rank_factor",
]


@dataclass(frozen=True)
class RankTolerance:
    """Relative eigenvalue cutoff used for numerical rank decisions.

    An eigenvalue lambda of a PSD matrix counts toward the rank iff
    lambda > relative_cut * lambda_max.  Exact arithmetic would need no
    cutoff; measured data does.
    """

    relative_cut: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.relative_cut < 1.0:
            raise InvalidConfig(f"relative_cut must be in (0, 1), got {self.relative_cut}")


DEFAULT_TOL = RankTolerance()


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (descending) and the matching column-orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def _check_symmetric(A: np.ndarray, stacked: bool = False) -> None:
    if not (A.ndim == 2 or stacked and A.ndim > 2) or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")


def kappa(Y: np.ndarray) -> np.ndarray:
    """Map a Gram matrix to the squared-distance matrix of its points.

    D_ij = Y_ii + Y_jj - 2 Y_ij.  The result is symmetric with zero diagonal.
    """
    Y = np.asarray(Y, dtype=float)
    _check_symmetric(Y)
    d = np.diag(Y)
    D = d[:, None] + d[None, :] - 2.0 * Y
    np.fill_diagonal(D, 0.0)
    return D


def kappa_adjoint(D: np.ndarray) -> np.ndarray:
    """Adjoint of ``kappa``: D -> 2 (Diag(D e) - D)."""
    D = np.asarray(D, dtype=float)
    _check_symmetric(D)
    return 2.0 * (np.diag(D.sum(axis=1)) - D)


def kappa_pinv(D: np.ndarray) -> np.ndarray:
    """Generalized inverse of ``kappa``: recover a centered Gram matrix.

    Computes B = -1/2 * J offDiag(D) J with J = I - ee^T/n, so B e = 0 and
    kappa(B) = D for every hollow symmetric D.  D may be a stack of matrices.
    """
    D = np.asarray(D, dtype=float)
    _check_symmetric(D, stacked=True)
    H = D.copy()
    diag = np.arange(D.shape[-1])
    H[..., diag, diag] = 0.0
    # J H J expanded: subtract row means, column means, add back grand mean
    row = H.mean(axis=-1, keepdims=True)
    col = H.mean(axis=-2, keepdims=True)
    B = -0.5 * (H - row - col + H.mean(axis=(-2, -1), keepdims=True))
    return 0.5 * (B + np.swapaxes(B, -1, -2))


def eigh_descending(B: np.ndarray) -> EigenPair:
    """Full symmetric eigendecomposition with eigenvalues sorted descending.

    The input, a matrix or a stack of them, is symmetrized first to absorb
    round-off.
    """
    B = np.asarray(B, dtype=float)
    _check_symmetric(B, stacked=True)
    w, V = np.linalg.eigh(0.5 * (B + np.swapaxes(B, -1, -2)))
    return EigenPair(values=w[..., ::-1].copy(), vectors=V[..., ::-1].copy())


def significant_rank(values: np.ndarray, tol: RankTolerance = DEFAULT_TOL):
    """Number of eigenvalues above the relative cutoff (descending input);
    an int for one spectrum, an array of them for a stack."""
    values = np.asarray(values, dtype=float)
    cut = tol.relative_cut * np.maximum(values[..., :1], np.finfo(float).eps)
    ranks = np.count_nonzero(values > cut, axis=-1)
    return int(ranks) if values.ndim == 1 else ranks


def full_rank_factor(
    B: np.ndarray, r: int, tol: RankTolerance = DEFAULT_TOL
) -> np.ndarray:
    """Factor the best rank-r PSD approximation of B as F F^T.

    Returns an n-by-r matrix with mutually orthogonal columns (eigenvectors
    scaled by sqrt eigenvalues).  Raises RankDeficient when fewer than r
    eigenvalues clear the cutoff, which signals a degenerate clique.
    """
    eig = eigh_descending(B)
    if significant_rank(eig.values, tol) < r:
        raise RankDeficient(
            f"matrix has numerical rank {significant_rank(eig.values, tol)} < {r}"
        )
    return eig.vectors[:, :r] * np.sqrt(eig.values[:r])
