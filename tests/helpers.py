"""Shared constructions and independent oracles for the test suite.

The oracles here deliberately avoid the library's own closed forms: subspace
intersections go through a generic SVD route, distances are recomputed from
point coordinates, and padded face subspaces are materialized explicitly.
"""

import numpy as np

from snloc.faces import FaceRep, Tolerances, face_from_gram
from snloc.edm_core import kappa_pinv
from snloc.instance import PartialEDM

# generic-correctness tests disable the conditioning deferral policy so that
# arbitrary random geometry is accepted whenever the theory allows it
NOGATE = Tolerances(invert_floor=0.0)


def edm_of(P: np.ndarray) -> np.ndarray:
    """Squared-distance matrix straight from coordinates."""
    P = np.asarray(P, dtype=float)
    return ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)


def complete_pedm(P: np.ndarray, m: int = 0, radio_range: float = 10.0) -> PartialEDM:
    """PartialEDM with every pairwise distance known."""
    P = np.asarray(P, dtype=float)
    n, r = P.shape
    pedm = PartialEDM(n=n, m=m, dim=r, radio_range=radio_range)
    D = edm_of(P)
    for i in range(n):
        for j in range(i + 1, n):
            pedm.add_pair(i, j, float(D[i, j]))
    return pedm


def pedm_from_pairs(P: np.ndarray, pairs, m: int = 0, radio_range: float = 10.0) -> PartialEDM:
    """PartialEDM knowing exactly the listed pairs (plus nothing else)."""
    P = np.asarray(P, dtype=float)
    n, r = P.shape
    pedm = PartialEDM(n=n, m=m, dim=r, radio_range=radio_range)
    for i, j in pairs:
        d = P[i] - P[j]
        pedm.add_pair(i, j, float(d @ d))
    return pedm


def face_of_points(nodes, P: np.ndarray, r: int, tol: Tolerances | None = None) -> FaceRep:
    """Face of a clique built from exact coordinates of its nodes."""
    tol = tol or Tolerances()
    nodes = np.asarray(sorted(nodes), dtype=np.int64)
    B = kappa_pinv(edm_of(P))
    return face_from_gram(nodes, B, r, tol)


def check_consistency(family) -> None:
    """Assert that a clique family's membership index inverts its clique map."""
    inverse = [set() for _ in range(family.pedm.n)]
    for cid in family.active:
        for u in family.cliques[cid]:
            inverse[u].add(cid)
    for u in range(family.pedm.n):
        assert family.node_cliques(u) == inverse[u], f"membership broken at {u}"


def orth_columns(A: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column space (SVD, rank by relative cut)."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return U[:, :0]
    return U[:, s > tol * s[0]]


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All principal angles between the column spaces of A and B.

    Uses the sine-based formulation (via scipy) so that angles near zero are
    resolved to machine precision instead of the ~1e-8 floor of arccos.
    """
    import scipy.linalg

    QA, QB = orth_columns(A), orth_columns(B)
    return np.sort(scipy.linalg.subspace_angles(QA, QB))


def svd_subspace_intersection(A: np.ndarray, B: np.ndarray, angle_tol: float = 1e-6) -> np.ndarray:
    """Generic intersection of two column spaces: directions at angle ~0."""
    QA, QB = orth_columns(A), orth_columns(B)
    U, s, _ = np.linalg.svd(QA.T @ QB, full_matrices=False)
    keep = s > np.cos(angle_tol)
    return QA @ U[:, keep]


def padded_face_subspace(face: FaceRep, union_nodes: np.ndarray) -> np.ndarray:
    """The face's subspace embedded in the union: identity on foreign rows."""
    union_nodes = np.asarray(union_nodes)
    K = union_nodes.size
    inside = np.isin(union_nodes, face.nodes)
    extra = np.flatnonzero(~inside)
    M = np.zeros((K, face.basis.shape[1] + extra.size))
    M[np.flatnonzero(inside), : face.basis.shape[1]] = face.basis[
        face.rows(union_nodes[inside])
    ]
    for col, row in enumerate(extra):
        M[row, face.basis.shape[1] + col] = 1.0
    return M


def two_random_cliques(rng, r: int, shared: int, k1: int = None, k2: int = None, spread: float = 0.35):
    """Point sets for two overlapping cliques with a given overlap size.

    Returns (points, nodes1, nodes2); the union nodes are 0..k-1 with the
    shared block in the middle so both cliques are spatially coherent.
    """
    k1 = k1 or (r + 2 + int(rng.integers(0, 3)))
    k2 = k2 or (r + 2 + int(rng.integers(0, 3)))
    only1 = k1 - shared
    k = k1 + k2 - shared
    P = rng.random((k, r)) * spread
    nodes1 = np.arange(0, k1)
    nodes2 = np.arange(only1, k)
    return P, nodes1, nodes2
