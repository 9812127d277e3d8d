"""Shared constructions and independent oracles for the test suite.

The oracles here deliberately avoid the library's own closed forms: subspace
intersections go through a generic SVD route, distances are recomputed from
point coordinates, and padded face subspaces are materialized explicitly.
"""

import numpy as np

from snloc.edm_core import eigh_descending, kappa_pinv, significant_rank
from snloc.errors import InvalidConfig, NoRigidSeed
from snloc.faces import FaceRep, Tolerances, clique_parts, face_of_parts
from snloc.instance import PartialEDM

# generic-correctness tests disable the conditioning deferral policy so that
# arbitrary random geometry is accepted whenever the theory allows it
NOGATE = Tolerances(invert_floor=0.0)


def kappa(Y: np.ndarray) -> np.ndarray:
    """Map a Gram matrix to the squared-distance matrix of its points.

    D_ij = Y_ii + Y_jj - 2 Y_ij.  The result is symmetric with zero diagonal.
    """
    Y = np.asarray(Y, dtype=float)
    assert Y.ndim == 2 and Y.shape[0] == Y.shape[1], Y.shape
    d = np.diag(Y)
    D = d[:, None] + d[None, :] - 2.0 * Y
    np.fill_diagonal(D, 0.0)
    return D


def kappa_adjoint(D: np.ndarray) -> np.ndarray:
    """Adjoint of ``kappa``: D -> 2 (Diag(D e) - D)."""
    D = np.asarray(D, dtype=float)
    assert D.ndim == 2 and D.shape[0] == D.shape[1], D.shape
    return 2.0 * (np.diag(D.sum(axis=1)) - D)


def edm_of(P: np.ndarray) -> np.ndarray:
    """Squared-distance matrix straight from coordinates."""
    P = np.asarray(P, dtype=float)
    return ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)


def complete_pedm(P: np.ndarray, m: int = 0, radio_range: float = 10.0) -> PartialEDM:
    """PartialEDM with every pairwise distance known."""
    P = np.asarray(P, dtype=float)
    n, r = P.shape
    i, j = np.triu_indices(n, 1)
    return PartialEDM(n=n, m=m, dim=r, radio_range=radio_range, i=i, j=j, d2=edm_of(P)[i, j])


def pedm_from_pairs(P: np.ndarray, pairs, m: int = 0, radio_range: float = 10.0,
                    sigma: float = 0.0, rng=None) -> PartialEDM:
    """PartialEDM knowing exactly the listed pairs (plus nothing else); with
    sigma > 0 each distance is scaled by 1 + sigma * N(0, 1), drawn from rng
    in the order of pairs, as ``build_partial_edm`` perturbs them."""
    P = np.asarray(P, dtype=float)
    n, r = P.shape
    pairs = list(pairs)
    d2 = []
    for i, j in pairs:
        d = P[i] - P[j]
        scale = 1.0 + sigma * rng.standard_normal() if sigma > 0 else 1.0
        d2.append(float(d @ d) * scale * scale)
    i, j = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return PartialEDM(n=n, m=m, dim=r, radio_range=radio_range, noise_factor=sigma,
                      i=i, j=j, d2=d2)


PAIR_ARRAYS = ("_keys", "_values", "indices", "d2", "indptr")


def concatenated_pair_arrays(n: int, i, j, d2) -> dict:
    """Reference for the ``PartialEDM`` constructor's arrays (``PAIR_ARRAYS``
    by name): both directions' keys and squared distances concatenated,
    with the sentinel, and sorted by one argsort.  Raises InvalidConfig as
    the constructor does for a self pair or a pair given twice."""
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    d2 = np.asarray(d2, dtype=float)
    if np.any(i == j):
        raise InvalidConfig("self distances are not stored")
    keys = np.concatenate([i * n + j, j * n + i, [n * n]])
    order = np.argsort(keys)
    keys = keys[order]
    values = np.concatenate([d2, d2, [np.nan]])[order]
    repeat = np.flatnonzero(keys[1:] == keys[:-1])
    if repeat.size:
        a, b = divmod(int(keys[repeat[0]]), n)
        raise InvalidConfig(f"pair ({a}, {b}) is given more than once")
    size = keys.size - 1
    return {"_keys": keys, "_values": values, "indices": keys[:size] % n,
            "d2": values[:size], "indptr": np.searchsorted(keys, np.arange(n + 1) * n)}


def adjacency(pedm) -> list[dict]:
    """Brute-force reference of the measured pairs: one dict per node,
    mapping each neighbour to the squared distance, from ``known_pairs``."""
    adj = [{} for _ in range(pedm.n)]
    for i, j, d2 in pedm.known_pairs():
        adj[i][j] = adj[j][i] = d2
    return adj


def face_of_points(nodes, P: np.ndarray, r: int, tol: Tolerances | None = None) -> FaceRep:
    """Face of a clique built from exact coordinates of its nodes, through
    their squared distances, as a seed clique's face is built."""
    tol = tol or Tolerances()
    nodes = np.asarray(sorted(nodes), dtype=np.int64)
    return face_of_parts(*clique_parts(nodes, edm_of(P), r, tol))


def scalar_partial_edm(inst) -> PartialEDM:
    """Reference for ``build_partial_edm``: one pair at a time, one noise
    draw at a time, in lexicographic pair order."""
    from scipy.spatial import cKDTree

    n, m, R, sigma = inst.n, inst.m, inst.radio_range, inst.noise_factor
    # (i, j) -> squared distance, i < j
    known = {}
    pairs = cKDTree(inst.points).query_pairs(R, output_type="ndarray")
    if pairs.size:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    children = np.random.SeedSequence(inst.seed).spawn(2)
    noise_rng = np.random.Generator(np.random.PCG64(children[1]))
    first_anchor = n - m
    for i, j in pairs:
        i, j = int(i), int(j)
        d = float(np.linalg.norm(inst.points[i] - inst.points[j]))
        if d >= R:
            continue
        if sigma > 0 and not (i >= first_anchor and j >= first_anchor):
            x = d * (1.0 + sigma * noise_rng.standard_normal())
            known[i, j] = x * x
        else:
            known[i, j] = d * d
    for a in range(first_anchor, n):
        for b in range(a + 1, n):
            d = float(np.linalg.norm(inst.points[a] - inst.points[b]))
            known[a, b] = d * d
    i, j = np.array(list(known), dtype=np.int64).reshape(-1, 2).T
    return PartialEDM(n=n, m=m, dim=inst.r, radio_range=R, noise_factor=sigma,
                      i=i, j=j, d2=list(known.values()))


def scalar_half_range_cliques(pedm):
    """Reference for ``half_range_cliques``: every node runs the nearest-first
    pass over its near set through the adjacency dictionaries."""
    adj = adjacency(pedm)
    half_sq = (pedm.radio_range / 2.0) ** 2
    seeds = []
    for i in range(pedm.n):
        near = sorted(
            (j for j, d2 in adj[i].items() if d2 <= half_sq),
            key=lambda j: (adj[i][j], j),
        )
        members = [i]
        for j in near:
            row = adj[j]
            if all(u == i or u in row for u in members):
                members.append(j)
        seeds.append(tuple(sorted(members)))
    return seeds


def scalar_greedy_clique(pedm, candidates, limit=None) -> list:
    """Reference for ``PartialEDM.greedy_take`` on one list: the candidates,
    in the given order, each measured to every candidate taken before them,
    up to limit of them (none for a limit below 1)."""
    taken = []
    if limit is not None and limit < 1:
        return taken
    # the nodes measured to every node taken so far
    common = None
    for j in candidates:
        if common is None or j in common:
            taken.append(j)
            if len(taken) == limit:
                break
            row = pedm.row(j)
            common = set(row) if common is None else common.intersection(row)
    return taken


def all_starts_rigid_seed(nodes, pedm, r: int, tol: Tolerances):
    """Reference for ``recovery._find_rigid_seed``: the greedy cliques of
    all starts in one take, then scored in start order as there."""
    max_size = 3 * (r + 1)
    n_starts = min(nodes.size, 8)
    starts = nodes[np.unique(np.linspace(0, nodes.size - 1, n_starts).astype(int))]
    owner, nbr, _ = pedm.gather(starts)
    inside = nodes[np.minimum(np.searchsorted(nodes, nbr), nodes.size - 1)] == nbr
    owner, taken = pedm.greedy_take(owner[inside], nbr[inside],
                                    np.full(starts.size, max_size - 1))
    bounds = np.searchsorted(owner, np.arange(starts.size + 1)).tolist()
    taken = taken.tolist()
    best = None
    for k, s in enumerate(starts.tolist()):
        if bounds[k + 1] - bounds[k] < r:
            continue
        members = sorted([s, *taken[bounds[k] : bounds[k + 1]]])
        B = kappa_pinv(pedm.submatrix(members))
        vals, _ = eigh_descending(B)
        if significant_rank(vals, tol.rank) < r:
            continue
        score = vals[r - 1]
        if best is None or score > best[0]:
            best = (score, members, B)
        if score > 0.05 * vals[0]:
            break
    if best is None:
        raise NoRigidSeed("no measured full-dimensional sub-clique in face")
    return best[1], best[2]


def scalar_grow_cliques(family, max_size: int) -> None:
    """Reference for ``grow_cliques``: one clique at a time, its candidates
    the intersection of its members' rows, taken by ascending id."""
    pedm = family.pedm
    for cid in sorted(family.cliques):
        nodes = family.cliques[cid]
        if len(nodes) >= max_size:
            continue
        # no node is in its own row, so the members drop out
        cand = set.intersection(*[set(pedm.row(u)) for u in nodes])
        for j in scalar_greedy_clique(pedm, sorted(cand), max_size - len(nodes)):
            nodes.add(j)
            family.membership[j].add(cid)


def scalar_known_distances_ok(comp, pedm, tol: Tolerances) -> bool:
    """Reference for ``_is_feasible`` without range bounds: one measured
    edge at a time, as the reducer checked them before vectorizing."""
    idx = {int(u): a for a, u in enumerate(comp.nodes)}
    sigma = pedm.noise_factor
    adj = adjacency(pedm)
    for u, a in idx.items():
        for v, d2 in adj[u].items():
            if v > u and v in idx:
                diff = comp.coords[a] - comp.coords[idx[v]]
                if abs(float(diff @ diff) - d2) > tol.feas_tol + 6.0 * sigma * d2:
                    return False
    return True


def check_consistency(family) -> None:
    """Assert that a clique family's raw membership sets invert its clique
    map, that its anchor clique, when it has one, is live and holds every
    anchor, and that it stores outside counts only for live cliques."""
    n, m = family.pedm.n, family.pedm.m
    inverse = [set() for _ in range(n)]
    for cid, nodes in family.cliques.items():
        for u in nodes:
            inverse[u].add(cid)
    for u in range(n):
        assert family.membership[u] == inverse[u], f"membership broken at {u}"
    cid = family.anchor_clique_id
    if cid is not None:
        assert cid in family.cliques, f"anchor clique {cid} is not live"
        assert family.cliques[cid] >= set(range(n - m, n)), "anchor clique lost an anchor"
    assert family.outside_counts.keys() <= family.cliques.keys(), "counts of a dead clique"


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
        np.searchsorted(face.nodes, union_nodes[inside])
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
