"""Face representations of cliques and their structured intersections.

A clique of k nodes with a full set of squared distances pins the centered
Gram matrix of those nodes down to a known rank-r matrix B, so any global
Gram matrix consistent with the data lives in the face of the PSD cone whose
subspace is spanned by the top-r eigenvectors of B together with the all-ones
direction.  A :class:`FaceRep` stores that k-by-(r+1) subspace basis.  We
keep it column-orthonormal with the last column equal to e/sqrt(k) at all
times; every algorithm downstream relies on this normalization.

Merging two cliques reduces to intersecting their (padded) subspaces.  When
the common nodes span r dimensions the intersection again has r+1 columns
and the union is rigid (:func:`intersect_faces_rigid`).  When they span only
r-1 dimensions the intersection picks up one extra column
(:func:`intersect_faces_nonrigid`) and the union has exactly two candidate
realizations, resolved later by a feasibility test.  Both intersections are
computed from closed forms on the row blocks, not from a generic SVD of the
padded subspaces; the generic route serves as a test oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .edm_core import RankTolerance, eigh_descending, kappa_pinv, significant_rank
from .errors import IntersectionRankLoss, RangeMismatch, RankDeficient

__all__ = [
    "Tolerances",
    "FaceRep",
    "ExtendedFaceRep",
    "face_from_clique",
    "face_from_gram",
    "face_from_points",
    "intersect_faces_rigid",
    "intersect_faces_nonrigid",
    "largest_principal_angle",
]


@dataclass(frozen=True)
class Tolerances:
    """All numerical thresholds used while merging cliques.

    rank decides the numerical rank of Gram matrices; middle_cut classifies
    the rank of the common row blocks of two face bases (relative to their
    largest singular value) and so routes a merge to the rigid or singular
    path; range_tol is the largest principal angle, in radians, at which two
    common blocks still count as spanning the same subspace; feas_tol is the
    absolute tolerance on squared distances in the two-candidate feasibility
    test; use_range_bounds additionally rejects candidates that place a
    non-adjacent pair closer than the radio range.

    invert_floor guards accuracy rather than rank: a merge pseudo-inverts
    one common block, which amplifies any error already present in the faces
    by 1 / sigma_min of that block, so merges whose best block falls below
    the floor are deferred until the overlap grows (near-collinear overlaps
    would otherwise inject large errors that compound over long merge
    chains).
    """

    rank: RankTolerance = field(default_factory=RankTolerance)
    middle_cut: float = 1e-8
    range_tol: float = 1e-6
    feas_tol: float = 1e-6
    use_range_bounds: bool = False
    invert_floor: float = 3e-2

    @classmethod
    def for_noise(cls, sigma: float, **overrides) -> "Tolerances":
        """Defaults matched to the measurement noise factor sigma.

        Noisy distances perturb each clique's subspace by O(sigma), so the
        range-equality test and the feasibility test are opened up
        proportionally; exact data keeps the tight defaults.
        """
        if sigma > 0:
            overrides.setdefault("range_tol", max(1e-6, min(0.2, 500.0 * sigma)))
            overrides.setdefault("feas_tol", max(1e-6, 10.0 * sigma))
        return cls(**overrides)


@dataclass(eq=False)
class FaceRep:
    """Subspace basis of the PSD-cone face carried by one clique.

    nodes is the sorted list of node ids; basis is k-by-(r+1) with
    orthonormal columns, the last of which is alpha * e (alpha = 1/sqrt(k)).
    """

    nodes: np.ndarray
    basis: np.ndarray
    alpha: float

    @property
    def width(self) -> int:
        return self.basis.shape[1]

    def rows(self, nodes) -> np.ndarray:
        """Row indices of the given (sorted) member nodes."""
        return np.searchsorted(self.nodes, np.asarray(nodes))


@dataclass(eq=False)
class ExtendedFaceRep:
    """Rank-deficient merge result: one extra basis column, two candidates.

    basis is k-by-(r+2), column-orthonormal, last column e/sqrt(k).
    """

    nodes: np.ndarray
    basis: np.ndarray

    def rows(self, nodes) -> np.ndarray:
        return np.searchsorted(self.nodes, np.asarray(nodes))


def _ones_normalized(k: int) -> np.ndarray:
    return np.full(k, 1.0 / np.sqrt(k))


def face_from_gram(nodes, B: np.ndarray, r: int, tol: Tolerances) -> FaceRep:
    """Face basis from a centered Gram matrix of the clique's nodes.

    B must have numerical rank at least r; its top-r eigenvectors are kept
    (this is also the closest rank-r PSD projection, which is how noisy data
    is handled), and the ones direction is appended.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = nodes.size
    if k == 1:
        return FaceRep(nodes=nodes, basis=np.array([[1.0]]), alpha=1.0)
    eig = eigh_descending(B)
    if significant_rank(eig.values, tol.rank) < r:
        raise RankDeficient(
            f"clique Gram has rank {significant_rank(eig.values, tol.rank)} < {r}"
        )
    U = eig.vectors[:, :r]
    # B is centered so U is orthogonal to e up to round-off; clean it up to
    # keep the normalization exact
    U = U - np.outer(np.full(k, 1.0 / k), U.sum(axis=0))
    U, _ = np.linalg.qr(U)
    basis = np.column_stack([U, _ones_normalized(k)])
    return FaceRep(nodes=nodes, basis=basis, alpha=1.0 / np.sqrt(k))


def face_from_clique(pedm, clique, r: int, tol: Tolerances) -> FaceRep:
    """Face basis of a measured clique of the partial distance matrix."""
    nodes = np.asarray(sorted(clique), dtype=np.int64)
    if nodes.size == 1:
        return FaceRep(nodes=nodes, basis=np.array([[1.0]]), alpha=1.0)
    D = pedm.submatrix(nodes)  # NotAClique when a pair is missing
    return face_from_gram(nodes, kappa_pinv(D), r, tol)


def face_from_points(nodes, P: np.ndarray, tol: Tolerances) -> FaceRep:
    """Face basis of a clique given explicit coordinates for its nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    P = np.asarray(P, dtype=float)
    k, r = P.shape
    if k == 1:
        return FaceRep(nodes=nodes, basis=np.array([[1.0]]), alpha=1.0)
    X = P - P.mean(axis=0)
    Q, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[r - 1] <= tol.middle_cut * max(s[0], np.finfo(float).eps):
        raise RankDeficient("point configuration does not span full dimension")
    basis = np.column_stack([Q[:, :r], _ones_normalized(k)])
    return FaceRep(nodes=nodes, basis=basis, alpha=1.0 / np.sqrt(k))


def largest_principal_angle(A: np.ndarray, B: np.ndarray, rank: int) -> float:
    """Largest principal angle between the top-``rank`` column spaces."""
    QA = np.linalg.svd(A, full_matrices=False)[0][:, :rank]
    QB = np.linalg.svd(B, full_matrices=False)[0][:, :rank]
    s = np.linalg.svd(QA.T @ QB, compute_uv=False)
    return float(np.arccos(np.clip(s[-1], -1.0, 1.0)))


def _split_rows(F1: FaceRep, F2: FaceRep):
    """Node bookkeeping shared by both intersection routines."""
    common = np.intersect1d(F1.nodes, F2.nodes)
    only1 = np.setdiff1d(F1.nodes, common)
    only2 = np.setdiff1d(F2.nodes, common)
    U1p = F1.basis[F1.rows(only1)]
    U1pp = F1.basis[F1.rows(common)]
    U2pp = F2.basis[F2.rows(common)]
    U2p = F2.basis[F2.rows(only2)]
    return common, only1, only2, U1p, U1pp, U2pp, U2p


def _assemble(struct_nodes, struct, r: int):
    """Sort rows by node id, re-orthonormalize, restore the ones column.

    struct carries the raw intersection basis whose column r is a multiple
    of e.  The ones column is replaced by the exact e/sqrt(k) and the other
    columns are orthogonalized against it and each other by a pivoted QR, so
    the output satisfies the normalization invariants exactly while spanning
    the same subspace.
    """
    order = np.argsort(struct_nodes)
    nodes = struct_nodes[order]
    k = nodes.size
    cols = struct.shape[1]
    W = np.delete(struct[order], r, axis=1)  # drop the e-proportional column
    W = W - W.mean(axis=0)
    Q, R, _ = scipy.linalg.qr(W, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size and diag[-1] <= 1e-12 * max(diag[0], np.finfo(float).eps):
        raise IntersectionRankLoss("intersection basis lost column rank")
    basis = np.column_stack([Q, _ones_normalized(k)])
    assert basis.shape[1] == cols
    return nodes, basis


def intersect_faces_rigid(F1: FaceRep, F2: FaceRep, tol: Tolerances) -> FaceRep:
    """Face of the union of two cliques whose overlap spans r dimensions.

    Requires the two common row blocks to have full column rank r+1 and
    equal ranges.  The output basis is U1' and U1'' stacked over
    U2' pinv(U2'') U1'' (or the mirror-image form, whichever inverts the
    better conditioned block), then renormalized.
    """
    if F1.width != F2.width:
        raise ValueError("faces have different basis widths")
    rp1 = F1.width
    r = rp1 - 1
    common, only1, only2, U1p, U1pp, U2pp, U2p = _split_rows(F1, F2)
    if common.size < rp1:
        raise IntersectionRankLoss(
            f"common block has {common.size} nodes, need at least {rp1}"
        )
    s1 = np.linalg.svd(U1pp, compute_uv=False)
    s2 = np.linalg.svd(U2pp, compute_uv=False)
    if s1[rp1 - 1] <= tol.middle_cut * s1[0] or s2[rp1 - 1] <= tol.middle_cut * s2[0]:
        raise IntersectionRankLoss("common block is rank deficient")
    if max(s1[rp1 - 1], s2[rp1 - 1]) <= tol.invert_floor * max(s1[0], s2[0]):
        raise IntersectionRankLoss("common block too ill conditioned to invert")
    angle = largest_principal_angle(U1pp, U2pp, rp1)
    if angle > tol.range_tol:
        raise RangeMismatch(f"common blocks differ by {angle:.3e} rad")
    if s2[rp1 - 1] >= s1[rp1 - 1]:
        # express F2's extra rows in F1's coordinates
        tail = U2p @ (np.linalg.pinv(U2pp) @ U1pp)
        struct = np.vstack([U1p, U1pp, tail])
    else:
        head = U1p @ (np.linalg.pinv(U1pp) @ U2pp)
        struct = np.vstack([head, U2pp, U2p])
    struct_nodes = np.concatenate([only1, common, only2])
    nodes, basis = _assemble(struct_nodes, struct, r)
    return FaceRep(nodes=nodes, basis=basis, alpha=1.0 / np.sqrt(nodes.size))


def intersect_faces_nonrigid(
    F1: FaceRep, F2: FaceRep, tol: Tolerances
) -> ExtendedFaceRep:
    """Intersection of two faces whose overlap spans only r-1 dimensions.

    The common row blocks must have rank exactly r.  The intersection of the
    padded subspaces then has r+2 dimensions: the rigid-form columns plus one
    extra column supported on one side only, built from a null vector of the
    opposite common block.
    """
    if F1.width != F2.width:
        raise ValueError("faces have different basis widths")
    rp1 = F1.width
    r = rp1 - 1
    common, only1, only2, U1p, U1pp, U2pp, U2p = _split_rows(F1, F2)
    if common.size < r:
        raise IntersectionRankLoss(
            f"common block has {common.size} nodes, need at least {r}"
        )
    # full SVDs: the right-singular vectors beyond the rank give null vectors
    _, s1, Vt1 = np.linalg.svd(U1pp)
    _, s2, Vt2 = np.linalg.svd(U2pp)
    if s1[r - 1] <= tol.middle_cut * s1[0] or s2[r - 1] <= tol.middle_cut * s2[0]:
        raise IntersectionRankLoss("common block rank below r")
    if s1.size > r and s1[r] > tol.middle_cut * s1[0]:
        raise IntersectionRankLoss("common block has full rank; merge is rigid")
    if s2.size > r and s2[r] > tol.middle_cut * s2[0]:
        raise IntersectionRankLoss("common block has full rank; merge is rigid")
    if max(s1[r - 1], s2[r - 1]) <= tol.invert_floor * max(s1[0], s2[0]):
        raise IntersectionRankLoss("common block too ill conditioned to invert")
    u1 = Vt1[rp1 - 1]
    u2 = Vt2[rp1 - 1]
    if common.size > r:
        angle = largest_principal_angle(U1pp, U2pp, r)
        if angle > tol.range_tol:
            raise RangeMismatch(f"common blocks differ by {angle:.3e} rad")
    if s2[r - 1] >= s1[r - 1]:
        tail = U2p @ (np.linalg.pinv(U2pp) @ U1pp)
        struct = np.vstack([U1p, U1pp, tail])
        extra = np.concatenate(
            [np.zeros(only1.size + common.size), U2p @ u2]
        )
    else:
        head = U1p @ (np.linalg.pinv(U1pp) @ U2pp)
        struct = np.vstack([head, U2pp, U2p])
        extra = np.concatenate(
            [U1p @ u1, np.zeros(common.size + only2.size)]
        )
    if np.linalg.norm(extra) <= 1e-12:
        raise IntersectionRankLoss("no extra direction; one clique adds no nodes")
    struct = np.column_stack([struct, extra])
    struct_nodes = np.concatenate([only1, common, only2])
    nodes, basis = _assemble(struct_nodes, struct, r)
    return ExtendedFaceRep(nodes=nodes, basis=basis)
