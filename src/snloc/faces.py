"""Face representations of cliques and their structured intersections.

A clique of k nodes with a full set of squared distances pins the centered
Gram matrix of those nodes down to a known rank-r matrix B, so any global
Gram matrix consistent with the data lives in the face of the PSD cone whose
subspace is spanned by the top-r eigenvectors of B together with the all-ones
direction.  A :class:`FaceRep` holds that (r+1)-dimensional subspace in two
forms.  The stored form is r coordinate columns V, one row per node, plus an
implicit all-ones column that is therefore exact, and the Gram matrix of
[V, e]; rows are only appended, in merge order.  The materialized form,
built on first use and cached, is a k-by-(r+1) basis over the sorted node
ids with orthonormal columns, the last equal to e/sqrt(k); the final
recovery reads that form and relies on this normalization.  The reducer's
steps read distances from the stored form and the face's frame Gram, which
the face keeps while its stored frame lasts.

All faces built from a clique's Gram matrix go through one stacked
computation (``_face_coords``): one eigendecomposition, rank cut and QR for
a whole stack of equal-size cliques.  :func:`clique_faces` uses it to build
the seed cliques' faces in chunks before reduction starts, and prepares
each face for merging there too: the Grams of [V, e], their Cholesky
factors and the factors' inverses come from stacked calls as well.
:func:`face_from_clique` and :func:`face_from_gram` are its one-clique case,
bitwise equal to it.

Merging two cliques reduces to intersecting their (padded) subspaces.  When
the common nodes span r dimensions the intersection again has r+1 columns
and the union is rigid (:func:`intersect_faces_rigid`).  When they span only
r-1 dimensions the intersection picks up one extra column
(:func:`intersect_faces_nonrigid`) and the union has exactly two candidate
realizations, resolved later by a feasibility test.  Both intersections are
computed from closed forms on the row blocks, not from a generic SVD of the
padded subspaces; the generic route serves as a test oracle only.  Both work
on the stored form through one front (``_merge``), which splits the rows,
runs the rank, conditioning and range tests once on one thin SVD per
common block, and maps the new rows of the face whose common block is
better conditioned into the stored coordinates of the other face, through
a pseudo-inverse of that better block taken from the same SVD; the face
with the worse conditioned block keeps its rows.  A rigid merge that keeps
the grower's rows costs O(partner * r^2), so a chain of merges into one
growing clique costs time linear in its final size; a singular merge adds
the extra column and materializes its (r+2)-column result once.  Appending
rows re-orthonormalizes a face whose Gram has become ill conditioned; a
determinant bound settles that test in the usual, well conditioned case,
and eigenvalues only the rest.

The temporary clique of a node absorption (the node and its neighbours in
the grower) gets no FaceRep.  :func:`clique_parts` builds its face in one
pass from its squared distances, in the form ``FaceRep._parts`` gives a
face in (node ids, stored coordinates, whitener): the centred top-r
eigenvectors of its centred Gram, with no QR, and the whitener
diag(1, ..., 1, 1/sqrt(k)) that such coordinates have by construction,
with no Gram, Cholesky factor or inverse.  ``_merge`` takes a partner in
that form, and :func:`intersect_parts_rigid` is the rigid union with one;
only a merge that keeps the partner's rows, when the grower's common block
is the better conditioned one, builds a FaceRep for it.

:func:`intersect_faces_wave` runs many rigid merges into one grower at
once, against the grower's rows as they stand: the common blocks of all
partners, padded to one size, share one stacked SVD, and all accepted rows
are appended together.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .edm_core import RankTolerance, eigh_descending, kappa_pinv, significant_rank
from .errors import IntersectionRankLoss, RangeMismatch, RankDeficient

__all__ = [
    "Tolerances",
    "FaceRep",
    "ExtendedFaceRep",
    "FaceStack",
    "clique_faces",
    "clique_parts",
    "face_from_clique",
    "face_from_gram",
    "face_from_points",
    "intersect_faces_rigid",
    "intersect_parts_rigid",
    "intersect_faces_nonrigid",
    "intersect_faces_wave",
]


# singular values of a common block (and of a point configuration) at or
# below this fraction of the largest count as zero; it routes a merge to the
# rigid or the singular kernel
_MIDDLE_CUT = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """All numerical thresholds used while merging cliques.

    rank decides the numerical rank of Gram matrices (the rank of two
    faces' common row blocks, which routes a merge to the rigid or singular
    kernel, uses the fixed relative cut ``_MIDDLE_CUT``); range_tol is the
    largest principal angle, in radians, at which two common blocks still
    count as spanning the same subspace; feas_tol is the absolute tolerance
    on squared distances in the two-candidate feasibility test;
    use_range_bounds additionally rejects candidates that place a
    non-adjacent pair closer than the radio range.

    invert_floor guards accuracy rather than rank: a merge pseudo-inverts
    one common block, which amplifies any error already present in the faces
    by 1 / sigma_min of that block, so merges whose best block falls below
    the floor are deferred until the overlap grows (near-collinear overlaps
    would otherwise inject large errors that compound over long merge
    chains).
    """

    rank: RankTolerance = field(default_factory=RankTolerance)
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


class _RowStore:
    """Append-only coordinate rows shared by the faces of one merge chain.

    Row a holds the r stored coordinates of node ids[a], and index maps a
    node id to its row.  Rows are written once and never changed, so a face
    that owns the first ``size`` rows stays valid while a merged face
    appends behind it.  Capacity doubles as rows arrive.
    """

    __slots__ = ("coords", "ids", "size", "index")

    def __init__(self, coords: np.ndarray, ids: np.ndarray, size: int, index: dict):
        self.coords, self.ids, self.size, self.index = coords, ids, size, index

    @classmethod
    def of(cls, coords: np.ndarray, ids: np.ndarray) -> "_RowStore":
        return cls(coords, ids, ids.size, {u: a for a, u in enumerate(ids.tolist())})

    def _copy(self, k: int, cap: int):
        coords = np.empty((cap, self.coords.shape[1]))
        coords[:k] = self.coords[:k]
        ids = np.empty(cap, dtype=np.int64)
        ids[:k] = self.ids[:k]
        return coords, ids

    def prefix(self, k: int, extra: int) -> "_RowStore":
        """A new store holding a copy of the first k rows, with room for
        ``extra`` more."""
        coords, ids = self._copy(k, k + max(extra, k))
        if k == self.size:
            index = self.index.copy()
        else:
            index = {u: a for a, u in enumerate(ids[:k].tolist())}
        return _RowStore(coords, ids, k, index)

    def append(self, coords: np.ndarray, ids: list) -> None:
        k, n = self.size, len(ids)
        if k + n > self.ids.size:
            self.coords, self.ids = self._copy(k, max(2 * self.ids.size, k + n))
        self.coords[k : k + n] = coords
        self.ids[k : k + n] = ids
        self.index.update(zip(ids, range(k, k + n)))
        self.size = k + n


def _gram(V: np.ndarray) -> np.ndarray:
    """Gram matrix of [V, e], or the stack of them for a stack of V.

    A matrix of a stack is bitwise the Gram of that matrix alone."""
    *c, k, r = V.shape
    G = np.empty((*c, r + 1, r + 1))
    G[..., :r, :r] = np.matmul(np.swapaxes(V, -1, -2), V)
    G[..., :r, r] = G[..., r, :r] = V.sum(axis=-2)
    G[..., r, r] = k
    return G


# a face whose column-scaled Gram is worse conditioned than this is
# re-orthonormalized, as is one that has doubled since it last was
_GRAM_COND_LIMIT = 1e6


def _gram_ill_conditioned(gram: np.ndarray) -> bool:
    """Whether the column-scaled Gram S = D^-1/2 G D^-1/2 (D the diagonal
    of G) has a condition number above ``_GRAM_COND_LIMIT``, by its
    eigenvalues."""
    d = np.sqrt(np.diag(gram))
    ev = np.linalg.eigvalsh(gram / np.outer(d, d))
    return ev[0] * _GRAM_COND_LIMIT < ev[-1]


def _gram_cond_bounded(gram: np.ndarray) -> bool:
    """Whether a determinant bound alone shows that the column-scaled Gram
    S of ``_gram_ill_conditioned`` is well conditioned.

    S is positive definite with a unit diagonal, so its w eigenvalues sum
    to w and none exceeds w; its condition number, the largest eigenvalue
    times the product of all but the smallest over det S, is therefore at
    most w^w / det S, and det S = det G / prod(diag G).  The bound must
    clear the limit by a factor 2, far more than the round-off of either
    computation, so a True here is a False of ``_gram_ill_conditioned``;
    a False decides nothing.
    """
    w = gram.shape[0]
    det = np.linalg.det(gram) / math.prod(gram.diagonal().tolist())
    return 2.0 * w**w < _GRAM_COND_LIMIT * det


class FaceRep:
    """Subspace of the PSD-cone face carried by one clique.

    Stored form: the span of [V, e], where V holds r coordinate columns,
    one row per node, in an append-only row store shared along a merge
    chain, and e is the all-ones column, implicit and therefore exact.  The
    (r+1)-by-(r+1) Gram of [V, e] is kept alongside, so any block of rows
    can be expressed in an orthonormal basis of the face without touching
    the others.

    Materialized form, computed on first use and cached: nodes is the
    sorted array of node ids, and basis is k-by-(r+1) with orthonormal
    columns, the last of which is e/sqrt(k).  Recovery and ``rows`` read
    this form; both intersection kernels read only the stored one.  The
    constructor takes the materialized form.  The whitener of the Gram is
    cached on first use as well, and nodes alone costs a sort, not the
    basis.

    The frame Gram, once known, is kept with the stored form: the r-by-r
    PSD matrix Z with (v_a - v_b) Z (v_a - v_b)^T the squared distance of
    nodes a and b, v their stored rows.  ``recovery.frame_gram`` computes
    it; ``_extend`` carries it, as appended rows are in the same frame, and
    ``_reorthonormalize`` drops it with the frame.
    """

    # _size rows of _store belong to this face; V was last orthonormalized
    # at _orth_size rows; _white caches _whitener; _zgram is the frame Gram
    # of _store's coordinates, or None while unknown
    __slots__ = ("_store", "_size", "_gram", "_orth_size", "_nodes", "_basis", "_white",
                 "_zgram")

    def __init__(self, nodes, basis):
        nodes = np.asarray(nodes, dtype=np.int64)
        basis = np.asarray(basis, dtype=float)
        V = np.array(basis[:, :-1])
        self._store = _RowStore.of(V, nodes.copy())
        self._size = nodes.size
        self._gram = _gram(V)
        self._orth_size = nodes.size
        self._nodes = nodes
        self._basis = basis
        self._white = self._zgram = None

    @classmethod
    def _stored(cls, store: _RowStore, size: int, gram: np.ndarray, orth_size: int) -> "FaceRep":
        face = object.__new__(cls)
        face._store, face._size, face._gram, face._orth_size = store, size, gram, orth_size
        face._nodes = face._basis = face._white = face._zgram = None
        return face

    @property
    def width(self) -> int:
        return self._store.coords.shape[1] + 1

    @property
    def nodes(self) -> np.ndarray:
        if self._nodes is None:
            self._nodes = np.sort(self._store.ids[: self._size])
        return self._nodes

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._materialize()
        return self._basis

    def rows(self, nodes) -> np.ndarray:
        """Row indices of the given (sorted) member nodes in ``basis``."""
        return np.searchsorted(self.nodes, np.asarray(nodes))

    def _materialize(self) -> None:
        k = self._size
        self._nodes, self._basis = _orthonormal(self._store.ids[:k], self._store.coords[:k])

    def stored_rows(self, nodes=None) -> np.ndarray:
        """Stored coordinates V of the given member nodes, in their order;
        by default of every node, in the order of ``nodes``."""
        store = self._store
        if nodes is None:
            k = self._size
            return store.coords[:k][np.argsort(store.ids[:k])]
        return store.coords[[store.index[u] for u in nodes]]

    def _whitener(self):
        """(W, L) with G = L L^T and W = L^-T, so [V, e] W is orthonormal."""
        if self._white is None:
            L = np.linalg.cholesky(self._gram)
            self._white = np.linalg.inv(L).T, L
        return self._white

    def _parts(self):
        """(node ids, stored coordinates V, whitener W) of this face's rows,
        the form :func:`intersect_faces_wave` reads a partner in."""
        k = self._size
        return self._store.ids[:k], self._store.coords[:k], self._whitener()[0]

    def _extend(self, coords: np.ndarray, ids) -> "FaceRep":
        """This face grown by rows ``coords`` for the new node ids.

        The face at the tip of its store appends in place; any other face
        copies the rows first, so this face is unchanged.  The grown face
        is re-orthonormalized when it has doubled since it last was, or
        when its column-scaled Gram is ill conditioned; a determinant bound
        (``_gram_cond_bounded``) settles the second test without
        eigenvalues whenever it can.
        """
        k, n = self._size, len(ids)
        store = self._store
        if store.size != k:
            store = store.prefix(k, n)
        store.append(coords, ids)
        gram = self._gram + _gram(coords)
        face = FaceRep._stored(store, k + n, gram, self._orth_size)
        face._zgram = self._zgram
        if (k + n >= 2 * self._orth_size
                or not _gram_cond_bounded(gram) and _gram_ill_conditioned(gram)):
            face._reorthonormalize()
        return face

    def _reorthonormalize(self) -> None:
        """Replace V by an orthonormal basis of its centered span, in a new
        store (earlier faces keep theirs).  The frame changes, so the frame
        Gram is dropped, to be recomputed in the new frame."""
        k = self._size
        store = self._store.prefix(k, 0)
        V = store.coords[:k]
        Q, _ = np.linalg.qr(V - V.mean(axis=0))
        store.coords[:k] = Q
        self._store, self._gram, self._orth_size = store, _gram(Q), k
        self._white = self._zgram = None


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


def _orthonormal(ids: np.ndarray, V: np.ndarray):
    """Sorted ids and the orthonormal basis [Q, e/sqrt(k)] of span [V, e],
    rows in id order; V must have full column rank modulo e."""
    order = np.argsort(ids)
    V = V[order]
    Q, _ = np.linalg.qr(V - V.mean(axis=0))
    return ids[order], np.column_stack([Q, _ones_normalized(ids.size)])


def _face_coords(B: np.ndarray, r: int, tol: Tolerances):
    """The one Gram-to-face computation, for a stack of centered Grams.

    B has shape (c, k, k).  Returns (Q, ok): Q (c, k, r) holds orthonormal
    columns spanning each B's top-r eigenvectors, made orthogonal to e, and
    ok marks the B of numerical rank at least r (Q means nothing elsewhere).
    A singleton has no coordinates and is always ok.  numpy runs the same
    LAPACK call on each matrix of a stack as on that matrix alone, so a
    face is bitwise the same whichever stack it was built in.
    """
    c, k = B.shape[:2]
    if k == 1:
        return np.empty((c, 1, 0)), np.ones(c, dtype=bool)
    # the top-r eigenvectors are also the closest rank-r PSD projection,
    # which is how noisy data is handled
    eig = eigh_descending(B)
    U = eig.vectors[..., :r]
    # B is centered so U is orthogonal to e up to round-off; clean it up to
    # keep the normalization exact
    U = U - (1.0 / k) * U.sum(axis=-2, keepdims=True)
    Q, _ = np.linalg.qr(U)
    return Q, significant_rank(eig.values, tol.rank) >= r


def face_from_gram(nodes, B: np.ndarray, r: int, tol: Tolerances) -> FaceRep:
    """Face basis from a centered Gram matrix of the clique's nodes.

    B must have numerical rank at least r; its top-r eigenvectors are kept
    and the ones direction is appended.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    Q, ok = _face_coords(np.asarray(B, dtype=float)[None], r, tol)
    if not ok[0]:
        raise RankDeficient(f"clique Gram has rank below {r}")
    return FaceRep(nodes, np.column_stack([Q[0], _ones_normalized(nodes.size)]))


def face_from_clique(pedm, clique, r: int, tol: Tolerances) -> FaceRep:
    """Face basis of a measured clique of the partial distance matrix."""
    nodes = np.asarray(sorted(clique), dtype=np.int64)
    D = pedm.submatrix(nodes)  # NotAClique when a pair is missing
    return face_from_gram(nodes, kappa_pinv(D), r, tol)


def clique_parts(nodes, D: np.ndarray, r: int, tol: Tolerances):
    """A clique's face in the form of ``FaceRep._parts``, built in one pass
    from the hollow, symmetric squared-distance matrix D of its nodes.

    D is centred once, into the Gram B = -J D J / 2, and the stored
    coordinates Q are B's top-r eigenvectors, centred: orthonormal columns
    orthogonal to e, up to round-off, so [Q, e/sqrt(k)] is an orthonormal
    basis of the face and W = diag(1, ..., 1, 1/sqrt(k)) whitens [Q, e].
    That is the face of :func:`face_from_gram` without the QR that cleans
    up round-off, and without a Gram, Cholesky factor or inverse.  Returns
    (node ids, Q, W); raises RankDeficient when B has rank below r.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    k = nodes.size
    # means taken as sums over k, which numpy's mean() computes more slowly
    m = D.sum(axis=0) / k
    # D is symmetric and so is m_a + m_b, to the bit: so is B
    w, U = np.linalg.eigh(0.5 * ((m[:, None] + m) - D - m.sum() / k))
    if not w[-r] > tol.rank.relative_cut * max(w[-1], np.finfo(float).eps):
        raise RankDeficient(f"clique Gram has rank below {r}")
    Q = U[:, : -r - 1 : -1]
    W = np.eye(r + 1)
    W[r, r] = 1.0 / math.sqrt(k)
    return nodes, Q - Q.sum(axis=0) / k, W


# a stack of clique faces built together holds at most this many entries of
# the cliques' squared-distance matrices, which bounds each of its
# temporaries (distances, Grams, eigenvectors) at 128 KiB; stacks that
# size already spread numpy's per-call cost thin
_STACK_ENTRIES = 1 << 14


class FaceStack:
    """Faces of equal-size cliques, built together by :func:`clique_faces`.

    nodes (c, k) holds each clique's sorted node ids and basis (c, k, w)
    its face basis [Q, e/sqrt(k)], Q the face coordinates from
    ``_face_coords``.  The Grams of [Q, e] and their whiteners are computed
    for the whole stack in stacked calls, each bitwise what its face alone
    would give.  ``face(a)`` returns clique a's :class:`FaceRep` in stored
    form over the stack's arrays, with that Gram and whitener in place; it
    is bitwise equal to :func:`face_from_clique`'s.
    """

    __slots__ = ("nodes", "basis", "gram", "white", "chol")

    def __init__(self, nodes: np.ndarray, Q: np.ndarray):
        c, k, r = Q.shape
        self.nodes = nodes
        self.basis = np.empty((c, k, r + 1))
        self.basis[..., :r] = Q
        self.basis[..., r] = _ones_normalized(k)
        self.gram = _gram(Q)
        self.chol = np.linalg.cholesky(self.gram)
        self.white = np.swapaxes(np.linalg.inv(self.chol), 1, 2)

    def face(self, a: int) -> FaceRep:
        nodes, basis = self.nodes[a], self.basis[a]
        # a store filled to capacity copies its rows before it appends, so
        # the stack's arrays are never written
        face = FaceRep._stored(_RowStore.of(basis[:, :-1], nodes), nodes.size,
                               self.gram[a], nodes.size)
        face._nodes, face._basis = nodes, basis
        face._white = self.white[a], self.chol[a]
        return face

    def parts(self, a: int):
        """``self.face(a)._parts()``, read from the stack's arrays without
        building the face."""
        return self.nodes[a], self.basis[a, :, :-1], self.white[a]


def clique_faces(pedm, cliques, r: int, tol: Tolerances) -> list:
    """:func:`face_from_clique` for many cliques, in stacked calls.

    Cliques of equal size are stacked, up to ``_STACK_ENTRIES`` distance
    entries at a time, through one distance lookup, one ``kappa_pinv``, one
    eigendecomposition, one rank cut and one QR.  Returns, per clique,
    (stack, a) with ``stack.face(a)`` its face, or None where
    face_from_clique raises (a pair without a measured distance, or a Gram
    of rank below r).
    """
    out = [None] * len(cliques)
    by_size: dict[int, list] = defaultdict(list)
    for pos, clique in enumerate(cliques):
        by_size[len(clique)].append(pos)
    for k, group in by_size.items():
        iu, ju = np.triu_indices(k, 1)
        step = max(1, _STACK_ENTRIES // (k * k))
        for start in range(0, len(group), step):
            chunk = group[start : start + step]
            nodes = np.fromiter(chain.from_iterable(cliques[pos] for pos in chunk),
                                dtype=np.int64, count=len(chunk) * k).reshape(-1, k)
            nodes.sort(axis=1)
            # the upper triangle of each squared-distance matrix, row by row
            known, d2 = pedm.lookup(nodes[:, iu], nodes[:, ju])
            found = known.all(axis=1)
            if not found.any():
                continue
            D = np.zeros((np.count_nonzero(found), k, k))
            D[:, iu, ju] = d2[found]
            Q, ok = _face_coords(kappa_pinv(D + np.swapaxes(D, 1, 2)), r, tol)
            stack = FaceStack(nodes[found][ok], Q[ok])
            for a, pos in enumerate(np.asarray(chunk)[found][ok].tolist()):
                out[pos] = (stack, a)
    return out


def face_from_points(nodes, P: np.ndarray, tol: Tolerances) -> FaceRep:
    """Face basis of a clique given explicit coordinates for its nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    P = np.asarray(P, dtype=float)
    k, r = P.shape
    if k == 1:
        return FaceRep(nodes, np.array([[1.0]]))
    X = P - P.mean(axis=0)
    Q, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[r - 1] <= _MIDDLE_CUT * max(s[0], np.finfo(float).eps):
        raise RankDeficient("point configuration does not span full dimension")
    basis = np.column_stack([Q[:, :r], _ones_normalized(k)])
    return FaceRep(nodes, basis)


def _pinv(u: np.ndarray, s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """``np.linalg.pinv`` of a matrix, from its thin SVD: the same cutoff
    (1e-15 of the largest singular value) and the same operations."""
    inv = np.divide(1.0, s, where=s > 1e-15 * s.max(), out=np.zeros_like(s))
    return vt.T @ (inv[:, None] * u.T)


def _affine(V: np.ndarray, rows) -> np.ndarray:
    """Rows [V, e] of the given row indices of stored coordinates V."""
    A = np.empty((len(rows), V.shape[1] + 1))
    A[:, :-1] = V[rows]
    A[:, -1] = 1.0
    return A


def _merge(F1: FaceRep, F2, tol: Tolerances, rank: int):
    """Shared front of both intersections: split, test, pick the base.

    F2 is a FaceRep or, for a face that has none (the temporary clique of
    a node absorption), its rows in the form of ``FaceRep._parts``: node
    ids, stored coordinates V and the whitener W of [V, e].  Walks F2's
    rows to find the common nodes, whitens the common rows of each face,
    and requires both common blocks to have rank exactly ``rank`` (r+1
    rigid, r singular), the better one to clear the ``invert_floor``, and,
    when the overlap has more than r nodes, equal ranges.  Both whitened
    blocks get one thin SVD, in one stacked call: its singular values
    decide rank and conditioning, its left singular vectors give the
    principal angle (one more SVD, of their r-by-r or (r+1)-by-(r+1)
    product), and the mapped block's three factors give its pseudo-inverse.
    The face whose common block is better conditioned (larger sigma_min,
    F2 on a tie) is the one mapped: its block U_o'' is pseudo-inverted and
    its new rows go into the stored coordinates of the other face, the
    base, by M = W_o pinv(U_o'') U_b'' L_b^T; the base keeps its rows.  An
    F2 given as parts becomes a FaceRep only when it is the base, with
    L = W^-T.  Returns (base, mapped rows, their node ids, (A_o', W_o,
    U_o'')): the mapped face's new rows [V_o', e], its whitener and its
    whitened common block.
    """
    face2 = F2 if isinstance(F2, FaceRep) else None
    ids2, V2, W2 = F2._parts() if face2 is not None else F2
    r = F1.width - 1
    if V2.shape[1] != r:
        raise ValueError("faces have different basis widths")
    index, k1 = F1._store.index, F1._size
    rows1, rows2, fresh2 = [], [], []
    for b, u in enumerate(ids2.tolist()):
        a = index.get(u, k1)
        if a < k1:
            rows1.append(a)
            rows2.append(b)
        else:
            fresh2.append(b)
    if len(rows1) < rank:
        raise IntersectionRankLoss(
            f"common block has {len(rows1)} nodes, need at least {rank}"
        )
    W1, L1 = F1._whitener()
    U1pp, U2pp = blocks = np.empty((2, len(rows1), r + 1))
    np.matmul(_affine(F1._store.coords, rows1), W1, out=U1pp)
    np.matmul(_affine(V2, rows2), W2, out=U2pp)
    # one thin SVD per block, both in one stacked call: its singular values
    # feed the rank and conditioning tests, its left vectors the range
    # test, and the mapped block's factors its pseudo-inverse
    U, S, Vh = np.linalg.svd(blocks, full_matrices=False)
    svd1, svd2 = (U[0], S[0], Vh[0]), (U[1], S[1], Vh[1])
    s1, s2 = S.tolist()
    for s in (s1, s2):
        if s[rank - 1] <= _MIDDLE_CUT * s[0]:
            raise IntersectionRankLoss(f"common block rank below {rank}")
        if len(s) > rank and s[rank] > _MIDDLE_CUT * s[0]:
            raise IntersectionRankLoss(f"common block rank above {rank}; merge is rigid")
    if max(s1[rank - 1], s2[rank - 1]) <= tol.invert_floor * max(s1[0], s2[0]):
        raise IntersectionRankLoss("common block too ill conditioned to invert")
    if len(rows1) > r:
        # largest principal angle between the blocks' top-rank ranges
        cos = np.linalg.svd(U[0][:, :rank].T @ U[1][:, :rank], compute_uv=False)[-1]
        angle = float(np.arccos(min(max(cos, -1.0), 1.0)))
        if angle > tol.range_tol:
            raise RangeMismatch(f"common blocks differ by {angle:.3e} rad")
    if s2[rank - 1] >= s1[rank - 1]:
        base, Ub, Lb, Uo, Wo, svdo = F1, U1pp, L1, U2pp, W2, svd2
        ids_o, V_o, new = ids2, V2, fresh2
    else:
        if face2 is None:
            # the merge keeps F2's rows, so F2 needs a face; it shares the
            # arrays, as a store filled to capacity copies before it appends
            face2 = FaceRep._stored(_RowStore.of(V2, ids2), ids2.size, _gram(V2), ids2.size)
            face2._white = W2, np.linalg.inv(W2).T
        base, Ub, Lb, Uo, Wo, svdo = face2, U2pp, face2._whitener()[1], U1pp, W1, svd1
        ids_o, V_o = F1._store.ids[:k1], F1._store.coords[:k1]
        new = np.ones(k1, dtype=bool)
        new[rows1] = False
        new = np.flatnonzero(new)
    Ao = _affine(V_o, new)
    # the last column of M would reproduce e, which the base keeps exact
    M = Wo @ (_pinv(*svdo) @ Ub) @ Lb.T
    return base, Ao @ M[:, :r], ids_o[new].tolist(), (Ao, Wo, Uo)


def intersect_faces_rigid(F1: FaceRep, F2: FaceRep, tol: Tolerances) -> FaceRep:
    """Face of the union of two cliques whose overlap spans r dimensions.

    Requires the two common row blocks to have full column rank r+1 and
    equal ranges.  The block that is better conditioned is the one
    pseudo-inverted: the result keeps the stored rows of the other face,
    F1 when F2's block is at least as well conditioned as F1's, and appends
    the new nodes of the better conditioned face in the kept face's
    coordinates, U_o' pinv(U_o'') U_b'', where U'' are the common blocks in
    orthonormal bases of their faces (o the mapped face, b the kept one).
    The cost is O(|F2| r^2) when F1 is kept and O(|F1| r^2) otherwise, plus
    a copy of the kept rows unless that face is the tip of its row store;
    F1 and F2 are left unchanged.
    """
    base, rows, ids, _ = _merge(F1, F2, tol, F1.width)
    return base._extend(rows, ids)


def intersect_parts_rigid(F1: FaceRep, parts, tol: Tolerances) -> FaceRep:
    """:func:`intersect_faces_rigid` of F1 and a face that has no FaceRep,
    given in the form of ``FaceRep._parts``: the temporary clique of a node
    absorption, as :func:`clique_parts` gives it.  When F1's block is the
    better conditioned one, the merge keeps the partner's rows, and only
    then is a FaceRep built for it."""
    base, rows, ids, _ = _merge(F1, parts, tol, F1.width)
    return base._extend(rows, ids)


def intersect_faces_wave(grower: FaceRep, partners: list, tol: Tolerances):
    """Rigid unions of one grower face with many partners at once.

    Each partner comes as (node ids, stored coordinates V, whitener W), the
    form of ``FaceRep._parts`` and ``FaceStack.parts``, and every partner is
    tested against the grower's rows as they stand on entry, with the tests
    of :func:`intersect_faces_rigid`.  A partner that passes them is
    accepted when its common block is at least as well conditioned as the
    grower's: its new rows are mapped into the grower's stored coordinates
    as intersect_faces_rigid maps them.  It is deferred otherwise, since
    that merge would keep the partner's rows and map the grower's.

    The work is stacked: the common rows come from one id-to-row array, and
    one SVD of all partners' common blocks and the grower's, padded to one
    size, feeds the tests and the pseudo-inverses; one matmul gives the
    partners' maps.  A node new to several accepted partners takes the
    row of the first.  All rows are appended in one ``_extend``.  Returns
    (face, accepted, deferred), two boolean arrays over the partners and
    the grown face, which is None when no partner is accepted.
    """
    r = grower.width - 1
    k1 = grower._size
    gids, gcoords = grower._store.ids[:k1], grower._store.coords[:k1]
    W1, L1 = grower._whitener()
    count = len(partners)
    ids, coords, white = zip(*partners)
    owner = np.repeat(np.arange(count), [a.size for a in ids])
    ids, coords, white = np.concatenate(ids), np.concatenate(coords), np.stack(white)
    where = np.full(max(gids.max(), ids.max()) + 1, -1, dtype=np.intp)
    where[gids] = np.arange(k1)
    rows = where[ids]
    inside = rows >= 0
    shared = np.flatnonzero(inside)
    who = owner[shared]
    common = np.bincount(who, minlength=count)
    size = common.max()
    if size <= r:
        return None, np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    # every partner's common block and the grower's rows of it, padded with
    # zero rows to the largest common size: the zero rows change neither
    # singular values nor right singular vectors, so one stacked SVD serves
    # all partners
    pos = who * size + np.arange(shared.size) - (np.cumsum(common) - common)[who]
    A = np.zeros((2, count * size, r + 1))
    A[0, pos, :r] = gcoords[rows[shared]]
    A[1, pos, :r] = coords[shared]
    A[:, pos, r] = 1.0
    A = A.reshape(2, count, size, r + 1)
    blocks = np.empty_like(A)
    np.matmul(A[0], W1, out=blocks[0])
    np.matmul(A[1], white, out=blocks[1])
    U, S, Vh = np.linalg.svd(blocks, full_matrices=False)
    # the tests of _merge: both blocks of rank r+1 (a block of r rows or
    # fewer is not), the better one above the floor, equal ranges
    low, high = S[..., r], S[..., 0]
    ok = (low > _MIDDLE_CUT * high).all(axis=0)
    ok &= low.max(axis=0) > tol.invert_floor * high.max(axis=0)
    cos = np.linalg.svd(np.swapaxes(U[0], 1, 2) @ U[1], compute_uv=False)[:, -1]
    ok &= cos >= np.cos(tol.range_tol)
    # the better conditioned block is pseudo-inverted (see _merge)
    partner_better = low[1] >= low[0]
    accepted, deferred = ok & partner_better, ok & ~partner_better
    if not accepted.any():
        return None, accepted, deferred
    # each partner's map M = W pinv(U'') U_1'' L_1^T, the pseudo-inverse from
    # the block's SVD with _pinv's cutoff, in _merge's order of products
    # (other orders change round-off, which flips merges of r=3 instances
    # with range bounds); the last column of M would reproduce e, which
    # stays exact
    s = S[1]
    inv = np.divide(1.0, s, where=s > 1e-15 * s[:, :1], out=np.zeros_like(s))
    pinv = np.swapaxes(Vh[1], 1, 2) @ (inv[:, :, None] * np.swapaxes(U[1], 1, 2))
    maps = (white @ (pinv @ blocks[0]) @ L1.T)[..., :r]
    new = np.flatnonzero(~inside & accepted[owner])
    new_ids = ids[new].tolist()
    if len(set(new_ids)) < len(new_ids):
        # a node new to several accepted partners takes the first one's row
        _, first = np.unique(ids[new], return_index=True)
        new = new[np.sort(first)]
        new_ids = ids[new].tolist()
    A = np.ones((new.size, 1, r + 1))
    A[:, 0, :r] = coords[new]
    mapped = np.matmul(A, maps[owner[new]])[:, 0]
    return grower._extend(mapped, new_ids), accepted, deferred


def intersect_faces_nonrigid(
    F1: FaceRep, F2: FaceRep, tol: Tolerances
) -> ExtendedFaceRep:
    """Intersection of two faces whose overlap spans only r-1 dimensions.

    F2 may also be given in the form of ``FaceRep._parts``, as the
    temporary clique of a node absorption is (:func:`clique_parts`).  The
    common row blocks must have rank exactly r.  The intersection of the
    padded subspaces then has r+2 dimensions: the rigid-form columns, built
    on the stored rows of the face that :func:`intersect_faces_rigid` would
    keep, plus one extra column that is zero on that face's rows and equals
    [V_o', e] W_o u on the mapped face's new rows, u a null vector of the
    mapped face's whitened common block.
    """
    base, rows, ids, (Ao, Wo, Uo) = _merge(F1, F2, tol, F1.width - 1)
    # full SVD: the right-singular vector beyond the rank is a null vector
    extra = Ao @ (Wo @ np.linalg.svd(Uo)[2][-1])
    if np.linalg.norm(extra) <= 1e-12:
        raise IntersectionRankLoss("no extra direction; one clique adds no nodes")
    k, r = base._size, base.width - 1
    V = np.zeros((k + len(ids), r + 1))
    V[:k, :r] = base._store.coords[:k]
    V[k:, :r] = rows
    V[k:, r] = extra
    nodes, basis = _orthonormal(np.concatenate([base._store.ids[:k], ids]), V)
    return ExtendedFaceRep(nodes=nodes, basis=basis)
