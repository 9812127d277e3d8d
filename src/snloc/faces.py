"""Face representations of cliques and their structured intersections.

A clique of k nodes with a full set of squared distances pins the centered
Gram matrix of those nodes down to a known rank-r matrix B, so any global
Gram matrix consistent with the data lives in the face of the PSD cone whose
subspace is spanned by the top-r eigenvectors of B together with the all-ones
direction.  A :class:`FaceRep` holds that (r+1)-dimensional subspace as r
coordinate columns V, one row per node, plus an implicit all-ones column
that is therefore exact, and the Gram matrix of [V, e]; rows are only
appended, in merge order.  Every step of the solve and the final recovery
read this stored form, with the face's frame Gram, which the face keeps
while its stored frame lasts.  An orthonormal basis over the sorted node
ids, its last column e/sqrt(k), is built from the stored rows only when
``basis`` is read; the solve never reads it.

Every face built from a clique's squared distances goes through one
computation (``_clique_face``), for one clique or a stack of equal-size
cliques: one centring, one eigendecomposition and one rank cut.  Its stored
coordinates are the centred top-r eigenvectors of the clique's centred
Gram, and their whitener diag(1, ..., 1, 1/sqrt(k)) is known in closed
form, so no QR, Gram, Cholesky factor or inverse is computed.  The face
comes as parts, (node ids, stored coordinates, whitener), the form
``FaceRep._parts`` gives and every merge reads.  :func:`clique_faces`
builds the seed cliques' parts in chunks before reduction starts,
:func:`clique_parts` one clique's, and :func:`face_of_parts` makes parts a
FaceRep over the same arrays when the face is first needed as one.

Merging two cliques reduces to intersecting their (padded) subspaces.  When
the common nodes span r dimensions the intersection again has r+1 columns
and the union is rigid (:func:`intersect_faces_rigid`).  When they span only
r-1 dimensions the intersection picks up one extra column
(:func:`intersect_faces_nonrigid`) and the union has exactly two candidate
realizations, resolved later by a feasibility test.  Both intersections are
computed from closed forms on the row blocks, not from a generic SVD of the
padded subspaces; the generic route serves as a test oracle only.  A rigid
merge that keeps the grower's rows costs O(partner * r^2), so a chain of
merges into one growing clique costs time linear in its final size; a
singular merge adds the extra column and materializes its (r+2)-column
result once.  Appending rows re-orthonormalizes a face whose Gram has
become ill conditioned; a determinant bound settles that test in the
usual, well conditioned case, and eigenvalues only the rest.

Every merge runs through one front (``_front``), for one partner or many
against the same face: it walks each partner's node ids through the face's
row index (a single partner larger than the face the other way round),
pads the common blocks to one size, whitens them and takes one stacked
SVD, whose singular values run the rank, conditioning and range tests;
one row map (``_maps``) then takes the new rows of the face whose
common block is better conditioned into the stored coordinates of the
other, through a pseudo-inverse of that block from the same SVD, and the
face with the worse conditioned block keeps its rows.  Both intersections
are its one-partner case.  :func:`intersect_faces_wave` is its many-partner
case: rigid unions of one grower with many partners, against the grower's
rows as they stand, all accepted rows appended together.  A partner may
come as parts, as a seed clique that was never read as a FaceRep and the
temporary clique of a node absorption (the node and its neighbours in the
grower) do; only a merge that keeps such a partner's rows builds a FaceRep
for it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .edm_core import RankTolerance
from .errors import IntersectionRankLoss, InvalidConfig, RangeMismatch, RankDeficient

__all__ = [
    "Tolerances",
    "FaceRep",
    "ExtendedFaceRep",
    "clique_faces",
    "clique_parts",
    "face_from_clique",
    "face_of_parts",
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

    def __post_init__(self):
        if not isinstance(self.rank, RankTolerance):
            raise InvalidConfig(f"rank must be a RankTolerance, got {self.rank!r}")
        # written so that NaN fails every test
        for name in ("range_tol", "feas_tol"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.invert_floor < 1.0:
            raise InvalidConfig(f"invert_floor must be in [0, 1), got {self.invert_floor}")

    @classmethod
    def for_noise(cls, sigma: float, **overrides) -> "Tolerances":
        """Defaults matched to the measurement noise factor sigma.

        Noisy distances perturb each clique's subspace by O(sigma), so the
        range-equality test and the feasibility test are opened up
        proportionally; exact data keeps the tight defaults.  sigma must be
        finite and >= 0 (InvalidConfig otherwise).
        """
        # written so that NaN fails the test
        if not 0.0 <= sigma < math.inf:
            raise InvalidConfig(f"sigma must be finite and >= 0, got {sigma}")
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
    of G) has a condition number above ``_GRAM_COND_LIMIT``.

    A determinant bound settles the usual, well conditioned case first.  S
    is positive definite with a unit diagonal, so its w eigenvalues sum to
    w and none exceeds w; its condition number, the largest eigenvalue
    times the product of all but the smallest over det S, is therefore at
    most w^w / det S, and det S = det G / prod(diag G).  The bound must
    clear the limit by a factor 2, far more than the round-off of either
    computation, for it to decide; the eigenvalues of S decide the rest.
    """
    w = gram.shape[0]
    det = np.linalg.det(gram) / math.prod(gram.diagonal().tolist())
    if 2.0 * w**w < _GRAM_COND_LIMIT * det:
        return False
    d = np.sqrt(np.diag(gram))
    ev = np.linalg.eigvalsh(gram / np.outer(d, d))
    return ev[0] * _GRAM_COND_LIMIT < ev[-1]


class FaceRep:
    """Subspace of the PSD-cone face carried by one clique.

    The span of [V, e], where V holds r coordinate columns, one row per
    node, in an append-only row store shared along a merge chain, and e is
    the all-ones column, implicit and therefore exact.  The (r+1)-by-(r+1)
    Gram of [V, e] is kept alongside, so any block of rows can be expressed
    in an orthonormal basis of the face without touching the others.  The
    constructor takes the node ids and their rows of V, in any order, and
    V must have full column rank modulo e.

    nodes, the sorted node ids, costs a sort on first read.  basis, a
    k-by-(r+1) orthonormal basis over nodes whose last column is e/sqrt(k),
    costs a sort and a QR on first read; both are cached, and no step of
    the solve reads basis.  The whitener of the Gram is cached on first use
    as well.

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

    def __init__(self, nodes, coords):
        nodes = np.asarray(nodes, dtype=np.int64)
        V = np.array(coords, dtype=float)
        self._store = _RowStore.of(V, nodes.copy())
        self._size = self._orth_size = nodes.size
        self._gram = _gram(V)
        self._nodes = self._basis = self._white = self._zgram = None

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
        when its column-scaled Gram is ill conditioned.
        """
        k, n = self._size, len(ids)
        store = self._store
        if store.size != k:
            store = store.prefix(k, n)
        store.append(coords, ids)
        gram = self._gram + _gram(coords)
        face = FaceRep._stored(store, k + n, gram, self._orth_size)
        face._zgram = self._zgram
        if k + n >= 2 * self._orth_size or _gram_ill_conditioned(gram):
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

    basis is k-by-(r+2), column-orthonormal, last column e/sqrt(k).  It is
    kept in this form, not as stored rows: the rank cuts of
    ``recovery.two_completions`` do not decide alike in every basis of the
    face, and on r=3 instances with range bounds another basis flips merges
    on round-off.
    """

    nodes: np.ndarray
    basis: np.ndarray

    def rows(self, nodes) -> np.ndarray:
        return np.searchsorted(self.nodes, np.asarray(nodes))


def _orthonormal(ids: np.ndarray, V: np.ndarray):
    """Sorted ids and the orthonormal basis [Q, e/sqrt(k)] of span [V, e],
    rows in id order; V must have full column rank modulo e."""
    order = np.argsort(ids)
    V = V[order]
    Q, _ = np.linalg.qr(V - V.mean(axis=0))
    return ids[order], np.column_stack([Q, np.full(ids.size, 1.0 / np.sqrt(ids.size))])


def _clique_face(D: np.ndarray, r: int, tol: Tolerances):
    """The one distances-to-face computation, for one clique or a stack.

    D is the hollow, symmetric squared-distance matrix (k, k) of a clique,
    or a stack (c, k, k) of equal-size cliques.  It is centred once, into
    the Gram B = -J D J / 2, and the stored coordinates Q are B's top-r
    eigenvectors, centred: orthonormal columns orthogonal to e, up to
    round-off, so [Q, e/sqrt(k)] is an orthonormal basis of the face and
    W = diag(1, ..., 1, 1/sqrt(k)) whitens [Q, e], with no QR, Gram,
    Cholesky factor or inverse.  Returns (Q, W, ok): one W serves the whole
    stack, and ok marks the B of numerical rank at least r (Q means nothing
    elsewhere).  A singleton has no coordinates and is always ok; a clique
    of 2 to r nodes never is.  numpy runs the same LAPACK call on each
    matrix of a stack as on that matrix alone, so a face is bitwise the
    same whichever stack it was built in.
    """
    *c, k = D.shape[:-1]
    cols = r if k > 1 else 0
    W = np.eye(cols + 1)
    W[cols, cols] = 1.0 / math.sqrt(k)
    if k <= r:
        return np.empty((*c, k, cols)), W, np.full(c, k == 1)
    # means taken as sums over k, which numpy's mean() computes more slowly
    m = D.sum(axis=-2) / k
    # D is symmetric and so is m_a + m_b, to the bit: so is B
    B = 0.5 * ((m[..., :, None] + m[..., None, :]) - D - (m.sum(axis=-1) / k)[..., None, None])
    # the top-r eigenvectors are also the closest rank-r PSD projection,
    # which is how noisy data is handled
    values, U = np.linalg.eigh(B)
    ok = values[..., -r] > tol.rank.relative_cut * np.maximum(values[..., -1],
                                                              np.finfo(float).eps)
    Q = U[..., : -r - 1 : -1]
    return Q - Q.sum(axis=-2, keepdims=True) / k, W, ok


def face_of_parts(ids: np.ndarray, V: np.ndarray, W: np.ndarray) -> FaceRep:
    """The FaceRep of a face given as ``FaceRep._parts`` gives it, over the
    same arrays: sorted node ids, stored coordinates V and whitener W of
    [V, e].  A store filled to capacity copies its rows before it appends,
    so the arrays are never written."""
    face = FaceRep._stored(_RowStore.of(V, ids), ids.size, _gram(V), ids.size)
    face._nodes = ids
    face._white = W, np.linalg.inv(W).T
    return face


def face_from_clique(pedm, clique, r: int, tol: Tolerances) -> FaceRep:
    """Face of a measured clique of the partial distance matrix; raises
    NotAClique when a pair is missing, RankDeficient as
    :func:`clique_parts` does."""
    nodes = np.asarray(sorted(clique), dtype=np.int64)
    return face_of_parts(*clique_parts(nodes, pedm.submatrix(nodes), r, tol))


def clique_parts(nodes, D: np.ndarray, r: int, tol: Tolerances):
    """A clique's face in the form of ``FaceRep._parts``, built in one pass
    (``_clique_face``) from the hollow, symmetric squared-distance matrix D
    of its nodes.  Returns (node ids, Q, W); raises RankDeficient when the
    clique's centred Gram has rank below r, as a clique of 2 to r nodes
    always has.
    """
    Q, W, ok = _clique_face(D, r, tol)
    if not ok:
        raise RankDeficient(f"clique Gram has rank below {r}")
    return np.asarray(nodes, dtype=np.int64), Q, W


# a stack of clique faces built together holds at most this many entries of
# the cliques' squared-distance matrices, which bounds each of its
# temporaries (distances, Grams, eigenvectors) at 128 KiB; stacks that
# size already spread numpy's per-call cost thin
_STACK_ENTRIES = 1 << 14


def clique_faces(pedm, cliques, r: int, tol: Tolerances) -> list:
    """:func:`clique_parts` for many measured cliques, in stacked calls.

    Cliques of equal size are stacked, up to ``_STACK_ENTRIES`` distance
    entries at a time, through one distance lookup and one
    ``_clique_face``.  Returns, per clique, the (sorted node ids, Q, W) that
    clique_parts gives for it alone, bitwise, over views of the stack's
    arrays, or None where :func:`face_from_clique` raises (a pair without a
    measured distance, or a Gram of rank below r).
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
            Q, W, ok = _clique_face(D + np.swapaxes(D, 1, 2), r, tol)
            for pos, ids, V in zip(np.asarray(chunk)[found][ok].tolist(), nodes[found][ok],
                                   Q[ok]):
                out[pos] = (ids, V, W)
    return out


def face_from_points(nodes, P: np.ndarray, tol: Tolerances) -> FaceRep:
    """Face of a clique given explicit coordinates for its nodes."""
    nodes = np.asarray(nodes, dtype=np.int64)
    P = np.asarray(P, dtype=float)
    k, r = P.shape
    if k == 1:
        return FaceRep(nodes, np.empty((1, 0)))
    if k <= r:
        raise RankDeficient(f"{k} points do not span {r} dimensions")
    X = P - P.mean(axis=0)
    Q, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[r - 1] <= _MIDDLE_CUT * max(s[0], np.finfo(float).eps):
        raise RankDeficient("point configuration does not span full dimension")
    return FaceRep(nodes, Q[:, :r])


def _front(face: FaceRep, ids: list, coords: np.ndarray, white: np.ndarray, rank: int,
           tol: Tolerances, index: dict | None = None):
    """Split, whiten and test the common blocks of one face and each of many
    partners, given as in ``FaceRep._parts``: ids holds each partner's node
    ids, coords all partners' stored coordinates V, stacked in order, and
    white their whiteners W of [V, e], stacked.

    Each partner's ids are walked through the face's row index.  index, for
    a single partner only, is that partner's row index
    (``_RowStore.index``): when the partner holds more rows than the face,
    the face's ids are walked through it instead, and the common pairs are
    put back in the partner's row order, so that the blocks are the same and
    the walk costs the smaller side.  Both common blocks of every partner
    are whitened and padded with zero rows to the largest common size, which
    changes neither singular values nor right singular vectors, and take one
    stacked thin SVD.  Its singular values, as Python floats, run the tests:
    both blocks of rank exactly ``rank`` (r+1 rigid, r singular), the better
    one above the ``invert_floor``, and, for an overlap of more than r
    nodes, a largest principal angle between the blocks' ranges of at most
    ``range_tol``.  Returns (rows1, rows2, blocks, svd, verdicts): the
    face's rows of all partners' common nodes, in order, and their rows in
    coords; the blocks, shape (2, partners, size, r+1), the face's first,
    and their SVD (U, S, Vh), both None when no partner has ``rank`` common
    nodes; and per partner the IntersectionRankLoss or RangeMismatch it
    fails with or, when it passes, whether its block is the better
    conditioned one (larger sigma_min, the partner on a tie).
    """
    r = face.width - 1
    if coords.shape[1] != r:
        raise ValueError("faces have different basis widths")
    k1 = face._size
    if index is not None and ids[0].size > k1:
        k2 = ids[0].size
        pairs = sorted((b, a) for a, u in enumerate(face._store.ids[:k1].tolist())
                       if (b := index.get(u, k2)) < k2)
        rows2, rows1 = [b for b, _ in pairs], [a for _, a in pairs]
        counts = [len(pairs)]
    else:
        own, rows1, rows2, counts, offset = face._store.index, [], [], [], 0
        for part in ids:
            start = len(rows1)
            for b, u in enumerate(part.tolist(), offset):
                a = own.get(u, k1)
                if a < k1:
                    rows1.append(a)
                    rows2.append(b)
            counts.append(len(rows1) - start)
            offset += part.size
    count, size = len(ids), max(counts)
    blocks = svd = None
    sing = [[None] * count] * 2
    if size >= rank:
        # each block's rows at their place in the padded stack; with no
        # block padded, they are in place
        pos = slice(None) if min(counts) == size else np.array(
            [p * size + j for p, c in enumerate(counts) for j in range(c)])
        A = np.zeros((2, count * size, r + 1))
        A[0, pos, :r] = face._store.coords.take(rows1, axis=0)
        A[1, pos, :r] = coords.take(rows2, axis=0)
        A[:, pos, r] = 1.0
        A = A.reshape(2, count, size, r + 1)
        blocks = np.empty_like(A)
        np.matmul(A[0], face._whitener()[0], out=blocks[0])
        np.matmul(A[1], white, out=blocks[1])
        U, S, Vh = svd = np.linalg.svd(blocks, full_matrices=False)
        sing = S.tolist()
    cos = []

    def angle(p: int) -> float:
        if not cos:
            # cosines of the largest principal angles between the blocks'
            # top-rank ranges, of every partner in one call
            cos.extend(np.linalg.svd(U[0, ..., :rank].mT @ U[1, ..., :rank],
                                     compute_uv=False)[:, -1].tolist())
        return float(np.arccos(min(max(cos[p], -1.0), 1.0)))

    verdicts = []
    for p, (c, s1, s2) in enumerate(zip(counts, *sing)):
        if c < rank:
            v = IntersectionRankLoss(f"common block has {c} nodes, need at least {rank}")
        elif s1[rank - 1] <= _MIDDLE_CUT * s1[0] or s2[rank - 1] <= _MIDDLE_CUT * s2[0]:
            v = IntersectionRankLoss(f"common block rank below {rank}")
        elif len(s1) > rank and (s1[rank] > _MIDDLE_CUT * s1[0] or s2[rank] > _MIDDLE_CUT * s2[0]):
            v = IntersectionRankLoss(f"common block rank above {rank}; merge is rigid")
        elif max(s1[rank - 1], s2[rank - 1]) <= tol.invert_floor * max(s1[0], s2[0]):
            v = IntersectionRankLoss("common block too ill conditioned to invert")
        elif c > r and (theta := angle(p)) > tol.range_tol:
            v = RangeMismatch(f"common blocks differ by {theta:.3e} rad")
        else:
            v = s2[rank - 1] >= s1[rank - 1]
        verdicts.append(v)
    return rows1, rows2, blocks, svd, verdicts


def _maps(Wo: np.ndarray, U: np.ndarray, s: np.ndarray, Vh: np.ndarray, Ub: np.ndarray,
          Lb: np.ndarray) -> np.ndarray:
    """The row map M = W_o pinv(U_o'') U_b'' L_b^T of one merge, or of a
    stack of merges (leading axes), from the thin SVD (U, s, Vh) of the
    mapped block U_o''.  The pseudo-inverse takes ``np.linalg.pinv``'s
    cutoff (1e-15 of the largest singular value).  Other orders of the same
    products change the round-off, which flips merges of r=3 instances with
    range bounds."""
    inv = np.divide(1.0, s, where=s > 1e-15 * s[..., :1], out=np.zeros(s.shape))
    pinv = Vh.mT @ (inv[..., None] * U.mT)
    return Wo @ (pinv @ Ub) @ Lb.mT


def _rest(rows: list, k: int) -> np.ndarray:
    """The rows of range(k) that are not in rows, ascending: a face's new
    rows, given its rows of the common nodes."""
    new = np.ones(k, dtype=bool)
    new[rows] = False
    return np.flatnonzero(new)


def _merge(F1: FaceRep, F2, tol: Tolerances, rank: int):
    """``_front`` for one partner F2, a FaceRep or ``FaceRep._parts``, and
    the choice of the base: the face whose common block is better
    conditioned (F2 on a tie) is mapped by ``_maps`` into the stored
    coordinates of the other, the base, which keeps its rows.  An F2 given
    as parts becomes a FaceRep (``face_of_parts``) only when it is the base.
    Returns (base, mapped rows, their node ids, (A_o', W_o, U_o'')): the
    mapped face's new rows [V_o', e], its whitener and its whitened common
    block.
    """
    face2 = F2 if isinstance(F2, FaceRep) else None
    ids2, V2, W2 = F2._parts() if face2 is not None else F2
    rows1, rows2, blocks, svd, (verdict,) = _front(
        F1, [ids2], V2, W2[None], rank, tol, None if face2 is None else face2._store.index)
    if not isinstance(verdict, bool):
        raise verdict
    U, S, Vh = svd
    W1, L1 = F1._whitener()
    if verdict:
        base, Lb, o, Wo = F1, L1, 1, W2
        ids_o, V_o, new = ids2, V2, _rest(rows2, ids2.size)
    else:
        if face2 is None:
            # the merge keeps F2's rows, so F2 needs a face
            face2 = face_of_parts(ids2, V2, W2)
        base, Lb, o, Wo = face2, face2._whitener()[1], 0, W1
        k1 = F1._size
        ids_o, V_o, new = F1._store.ids[:k1], F1._store.coords[:k1], _rest(rows1, k1)
    Ao = np.ones((len(new), V_o.shape[1] + 1))
    Ao[:, :-1] = V_o.take(new, axis=0)
    # the last column of M would reproduce e, which the base keeps exact
    M = _maps(Wo, U[o, 0], S[o, 0], Vh[o, 0], blocks[1 - o, 0], Lb)
    return base, Ao @ M[:, :-1], ids_o[new].tolist(), (Ao, Wo, blocks[o, 0])


def intersect_faces_rigid(F1: FaceRep, F2, tol: Tolerances) -> FaceRep:
    """Face of the union of two cliques whose overlap spans r dimensions.

    F2 may also be a face's ``FaceRep._parts``, as :func:`clique_parts`
    gives the temporary clique of a node absorption.  Requires the two
    common row blocks to have full column rank r+1 and equal ranges.  The
    block
    that is better conditioned is the one pseudo-inverted: the result
    keeps the stored rows of the other face, F1 when F2's block is at least
    as well conditioned as F1's, and appends the new nodes of the better
    conditioned face in the kept face's coordinates, U_o' pinv(U_o'')
    U_b'', where U'' are the common blocks in orthonormal bases of their
    faces (o the mapped face, b the kept one).  The cost is O(|F2| r^2)
    when F1 is kept and O(|F1| r^2) otherwise, plus a copy of the kept
    rows unless that face is the tip of its row store; F1 and F2 are left
    unchanged.
    """
    base, rows, ids, _ = _merge(F1, F2, tol, F1.width)
    return base._extend(rows, ids)


# the rigid absorption's name for the same kernel: a tracer that wraps
# reducer.intersect_faces_rigid (bench/snlbench/tracing.py) reads .basis of
# both arguments, which a partner given as parts does not have
intersect_parts_rigid = intersect_faces_rigid


def intersect_faces_wave(grower: FaceRep, partners: list, tol: Tolerances):
    """Rigid unions of one grower face with many partners at once.

    Each partner comes as ``FaceRep._parts`` gives it, as the seed records
    of :func:`clique_faces` are, and all are tested against the grower's rows as they stand on
    entry, in one ``_front`` call.  A partner that passes is accepted when
    its common block is at least as well conditioned as the grower's: its
    new rows are mapped into the grower's stored coordinates as
    :func:`intersect_faces_rigid` maps them.  It is deferred otherwise,
    since that merge would keep the partner's rows and map the grower's.  A
    node new to several accepted partners takes the row of the first.  All
    rows are appended in one ``_extend``.  Returns (face, accepted,
    deferred), two boolean arrays over the partners and the grown face,
    which is None when no partner is accepted.
    """
    r = grower.width - 1
    ids, coords, white = zip(*partners)
    coords, white = np.concatenate(coords), np.array(white)
    _, rows2, blocks, svd, verdicts = _front(grower, ids, coords, white, r + 1, tol)
    accepted = np.array([v is True for v in verdicts])
    deferred = np.array([v is False for v in verdicts])
    if not accepted.any():
        return None, accepted, deferred
    U, S, Vh = svd
    maps = _maps(white, U[1], S[1], Vh[1], blocks[0], grower._whitener()[1])[..., :r]
    # the accepted partners' new rows, each node at its first one
    common, first, end = set(rows2), {}, 0
    for p, (part, ok) in enumerate(zip(ids, accepted.tolist())):
        start = end
        end += part.size
        if ok:
            for b, u in enumerate(part.tolist(), start):
                if b not in common:
                    first.setdefault(u, (b, p))
    picks, owner = [b for b, _ in first.values()], [p for _, p in first.values()]
    A = np.ones((len(picks), 1, r + 1))
    A[:, 0, :r] = coords.take(picks, axis=0)
    # a product per row: a product per partner rounds otherwise
    mapped = np.matmul(A, maps[owner])[:, 0]
    return grower._extend(mapped, list(first)), accepted, deferred


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
