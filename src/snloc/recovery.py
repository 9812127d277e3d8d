"""Turning face representations back into coordinates.

Every coordinate of a clique's nodes is an affine image X = V C + 1 c^T
of the face's stored rows V, and any full-dimensional measured sub-clique
(a "seed", ``_find_rigid_seed``) pins down the frame Gram Z = C C^T of
those rows by one small row-block solve (``_seed_solve``): a squared
distance is then d_ab = (v_a - v_b) Z (v_a - v_b)^T, and X = V Z^{1/2} up
to a rigid motion.  ``frame_gram`` solves Z once per stored frame and
keeps it on the face, which carries it through the merges that keep the
frame; the reducer reads the distances and points it needs from there
(``frame_points``).  The final recovery (``points_from_face``) runs the
same solve afresh on a seed of the final clique.  For a singular merge the
analogous system is underdetermined along a single rank-2 direction and
has exactly two rank-r solutions (``two_completions``).  The final
coordinates are mapped onto the anchors by a least-squares rigid motion
(``align_to_anchors``) and compared against ground truth (``metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .edm_core import eigh_descending, full_rank_factor, kappa_pinv, significant_rank
from .errors import (
    DegenerateAnchors,
    EmptyPositioned,
    NoRealBranch,
    NoRigidSeed,
    RankDeficient,
)
from .faces import ExtendedFaceRep, FaceRep, Tolerances

__all__ = [
    "Completion",
    "SolveReport",
    "two_completions",
    "frame_gram",
    "frame_points",
    "points_from_face",
    "align_to_anchors",
    "metrics",
]


@dataclass(eq=False)
class Completion:
    """Coordinates for the nodes of one face, up to a rigid motion."""

    nodes: np.ndarray
    coords: np.ndarray
    gram_residual: float = 0.0

    def rows(self, nodes) -> np.ndarray:
        return np.searchsorted(self.nodes, np.asarray(nodes))


@dataclass(eq=False)
class SolveReport:
    """Outcome of localizing one instance."""

    positioned: dict[int, np.ndarray]
    success: bool
    max_error: float | None
    rmsd: float | None
    cpu_seconds: float
    step_counts: dict[str, int] = field(default_factory=dict)
    gram_residual: float | None = None


def _z_from_rows(A: np.ndarray, B: np.ndarray, r: int, tol: Tolerances) -> np.ndarray:
    """The unique positive definite Z with A Z A^T = B, for a centered row
    block A of a face (one row per seed node, in any coordinates of the
    face) and the seed's centered Gram B of numerical rank r.

    Z is computed through the full-rank factorization B = F F^T as Z = C C^T
    with A C = F, which is symmetric PSD by construction and equals the
    pseudo-inverse formula A^+ B (A^+)^T.  Raises RankDeficient when A has
    rank below r.
    """
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size < r or sv[r - 1] <= tol.rank.relative_cut * max(sv[0], np.finfo(float).eps):
        raise RankDeficient("face rows on beta do not have full column rank")
    F = full_rank_factor(B, r, tol.rank)
    C, *_ = np.linalg.lstsq(A, F, rcond=None)
    Z = C @ C.T
    return 0.5 * (Z + Z.T)


def _sym_sqrt(Z: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (Z + Z.T))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def _find_rigid_seed(nodes: np.ndarray, pedm, r: int, tol: Tolerances):
    """A measured sub-clique of a face with well-conditioned rank-r Gram.

    Greedily grows a clique of the original graph inside the face's node set
    (nodes, sorted) from a few spread-out start nodes and keeps the
    candidate whose r-th Gram eigenvalue is largest, looking no further
    once a candidate's r-th eigenvalue exceeds 5% of its largest.  The
    first start usually gives one, so the other starts are grown, in one
    take, only when it does not.
    """
    max_size = 3 * (r + 1)
    n_starts = min(nodes.size, 8)
    starts = nodes[np.unique(np.linspace(0, nodes.size - 1, n_starts).astype(int))]
    best = None
    for batch in (starts[:1], starts[1:]):
        for members in _greedy_cliques(nodes, batch, pedm, max_size, r):
            B = kappa_pinv(pedm.submatrix(members))
            vals, _ = eigh_descending(B)
            if significant_rank(vals, tol.rank) < r:
                continue
            score = vals[r - 1]
            if best is None or score > best[0]:
                best = (score, members, B)
            if score > 0.05 * vals[0]:
                return best[1], best[2]
    if best is None:
        raise NoRigidSeed("no measured full-dimensional sub-clique in face")
    return best[1], best[2]


def _greedy_cliques(nodes: np.ndarray, starts: np.ndarray, pedm, max_size: int, r: int):
    """Per start, in order, the sorted greedy clique of it and its measured
    neighbours in nodes (sorted), ascending, when it holds more than r
    nodes; all starts in one take."""
    owner, nbr, _ = pedm.gather(starts)
    inside = nodes[np.minimum(np.searchsorted(nodes, nbr), nodes.size - 1)] == nbr
    owner, taken = pedm.greedy_take(owner[inside], nbr[inside],
                                    np.full(starts.size, max_size - 1))
    bounds = np.searchsorted(owner, np.arange(starts.size + 1)).tolist()
    taken = taken.tolist()
    for k, s in enumerate(starts.tolist()):
        if bounds[k + 1] - bounds[k] >= r:
            yield sorted([s, *taken[bounds[k] : bounds[k + 1]]])


def _seed_solve(face: FaceRep, pedm, tol: Tolerances):
    """(A, B, Z): a measured seed clique's centered stored rows A and
    centered Gram B, and the frame Gram Z with A Z A^T = B.  Raises
    NoRigidSeed or RankDeficient."""
    r = face.width - 1
    beta, B = _find_rigid_seed(face.nodes, pedm, r, tol)
    A = face.stored_rows(beta)
    A = A - A.mean(axis=0)
    return A, B, _z_from_rows(A, B, r, tol)


def points_from_face(face: FaceRep, pedm, tol: Tolerances) -> Completion:
    """Coordinates V Z^{1/2} of all face nodes, rows by sorted node id,
    with Z solved on a measured seed clique of this face; gram_residual is
    the relative error of A Z A^T against the seed's Gram.

    The face's cached frame Gram is not reused: it may come from the seed
    of an earlier, smaller clique whose rows this face kept, and on noisy
    data a Z carried from there moves the coordinates by O(sigma), far
    more than round-off.
    """
    A, B, Z = _seed_solve(face, pedm, tol)
    residual = float(
        np.linalg.norm(A @ Z @ A.T - B) / max(np.linalg.norm(B), np.finfo(float).eps)
    )
    coords = face.stored_rows() @ _sym_sqrt(Z)
    return Completion(nodes=face.nodes, coords=coords, gram_residual=residual)


def frame_gram(face: FaceRep, pedm, tol: Tolerances) -> np.ndarray:
    """The frame Gram Z of a face's stored rows V: the squared distance of
    nodes a and b is (v_a - v_b) Z (v_a - v_b)^T.

    Computed on first use by ``_seed_solve`` and kept on the face, whose
    merges carry it while they keep its frame.  Raises NoRigidSeed or
    RankDeficient as ``points_from_face`` does.
    """
    if face._zgram is None:
        face._zgram = _seed_solve(face, pedm, tol)[2]
    return face._zgram


def frame_points(face: FaceRep, pedm, tol: Tolerances) -> Completion:
    """Coordinates V Z^{1/2} of all face nodes, rows by sorted node id, from
    the face's frame Gram (``frame_gram``), cached or solved."""
    C = _sym_sqrt(frame_gram(face, pedm, tol))
    return Completion(nodes=face.nodes, coords=face.stored_rows() @ C)


def _sym_basis(t: int):
    """Basis of symmetric t-by-t matrices."""
    mats = []
    for a in range(t):
        for b in range(a, t):
            E = np.zeros((t, t))
            E[a, b] = E[b, a] = 1.0
            mats.append(E)
    return mats


def two_completions(
    ext: ExtendedFaceRep,
    pedm,
    delta1,
    delta2,
    tol: Tolerances,
    d1: np.ndarray | None = None,
    d2: np.ndarray | None = None,
) -> list[Completion]:
    """The at-most-two coordinate sets consistent with a singular merge.

    delta1 and delta2 are sorted node subsets of the two merged cliques with
    full-dimensional geometry; their squared-distance matrices come from the
    known data unless supplied explicitly via d1/d2 (the caller does that
    when some entries were derived from a point representation rather than
    measured).

    A particular solution Z of the stacked equations A_i Z A_i^T = B_i is
    found by least squares over symmetric matrices; the one-dimensional
    null direction n_i of each A_i gives the homogeneous term
    dZ = n1 n2^T + n2 n1^T, and the rank-deficient members of the solution
    line Z + s dZ are located through the pencil eigenproblem
    -dZ v = tau Z v, keeping nonzero real tau.
    """
    t = ext.basis.shape[1] - 1  # r + 1
    r = t - 1
    eps = np.finfo(float).eps
    As, Bs, nulls = [], [], []
    for delta, dmat in ((delta1, d1), (delta2, d2)):
        delta = np.asarray(sorted(delta))
        A = ext.basis[ext.rows(delta), :t]
        A = A - A.mean(axis=0)
        D = pedm.submatrix(delta) if dmat is None else np.asarray(dmat, dtype=float)
        B = kappa_pinv(D)
        if significant_rank(eigh_descending(B)[0], tol.rank) != r:
            raise RankDeficient("delta subset does not have embedding dimension r")
        _, sv, Vt = np.linalg.svd(A)
        if sv.size < t - 1 or sv[t - 2] <= tol.rank.relative_cut * max(sv[0], eps):
            raise RankDeficient("face rows on delta have rank below r")
        if sv.size == t and sv[t - 1] > 1e-6 * sv[0]:
            raise RankDeficient("face rows on delta have no null direction")
        As.append(A)
        Bs.append(B)
        nulls.append(Vt[t - 1])
    # particular solution over the symmetric-matrix basis
    basis_mats = _sym_basis(t)
    columns = []
    for E in basis_mats:
        columns.append(
            np.concatenate([(A @ E @ A.T).ravel() for A in As])
        )
    M = np.column_stack(columns)
    rhs = np.concatenate([B.ravel() for B in Bs])
    coeffs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    Zbar = sum(c * E for c, E in zip(coeffs, basis_mats))
    n1, n2 = nulls
    dZ = np.outer(n1, n2) + np.outer(n2, n1)
    # pencil -dZ v = tau Zbar v; at most two nonzero tau since dZ has rank 2
    try:
        if np.linalg.eigvalsh(Zbar)[0] > 0:
            taus = scipy.linalg.eigh(-dZ, Zbar, eigvals_only=True)
        else:
            taus = scipy.linalg.eig(-dZ, Zbar, right=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        raise NoRealBranch("branch eigenproblem failed") from None
    taus = np.atleast_1d(taus)
    real = []
    for tau in taus:
        if not np.isfinite(tau):
            continue
        if abs(np.imag(tau)) > 1e-10 * max(abs(tau), eps):
            continue
        real.append(float(np.real(tau)))
    if not real:
        raise NoRealBranch("no real branch parameter")
    scale = max(abs(x) for x in real)
    if scale <= eps:
        raise NoRealBranch("branch parameters vanish")
    chosen = sorted(
        (x for x in real if abs(x) > 1e-9 * scale), key=abs, reverse=True
    )[:2]
    if not chosen:
        raise NoRealBranch("no nonzero real branch parameter")
    completions = []
    for tau in chosen:
        Zc = Zbar + dZ / tau
        values, vectors = eigh_descending(Zc)
        W = vectors[:, :r] * np.sqrt(np.clip(values[:r], 0.0, None))
        coords = ext.basis[:, :t] @ W
        completions.append(Completion(nodes=ext.nodes, coords=coords))
    return completions


def align_to_anchors(
    comp: Completion, anchors: np.ndarray, anchor_indices
) -> Completion:
    """Rigidly move a completion so its anchor rows match the true anchors.

    Least-squares over translations and orthogonal maps (reflections
    allowed): centroids are matched, then the polar factor of the anchor
    cross-covariance supplies the rotation.  Raises DegenerateAnchors when
    that matrix has rank below r (affinely dependent anchors): the
    reflection across the anchors' flat is then undetermined.
    """
    anchors = np.asarray(anchors, dtype=float)
    anchor_indices = np.asarray(sorted(int(a) for a in anchor_indices))
    rows = comp.rows(anchor_indices)
    X = comp.coords[rows]
    r = X.shape[1]
    cX = X.mean(axis=0)
    cA = anchors.mean(axis=0)
    H = (X - cX).T @ (anchors - cA)
    U, s, Vt = np.linalg.svd(H)
    if s[r - 1] <= 1e-12 * max(s[0], np.finfo(float).eps):
        raise DegenerateAnchors("anchor cross-covariance rank below r")
    Q = U @ Vt
    coords = (comp.coords - cX) @ Q + cA
    return Completion(
        nodes=comp.nodes, coords=coords, gram_residual=comp.gram_residual
    )


def metrics(positioned: dict[int, np.ndarray], truth: np.ndarray) -> tuple[float, float]:
    """Max error and RMSD of positioned sensors against true positions."""
    if not positioned:
        raise EmptyPositioned("no positioned sensors to evaluate")
    sq = [
        float(np.sum((np.asarray(p) - truth[i]) ** 2))
        for i, p in positioned.items()
    ]
    return float(np.sqrt(max(sq))), float(np.sqrt(np.mean(sq)))
