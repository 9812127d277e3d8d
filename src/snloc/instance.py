"""Random problem instances, partial distance matrices, and problem files.

Nodes are indexed 0..n-1 internally; the last m indices are anchors.  A
:class:`PartialEDM` holds the known squared distances in one immutable
array form, built once from the measured pairs: both directions of every
pair, sorted by (i, j), as row pointers, neighbour ids and squared
distances.  Every other module reads that form, as row slices (neighbor
scans), gathers over many rows, vectorized pair lookups (principal
submatrices, membership tests), or a sparse adjacency matrix that shares
its arrays (clique growth).  ``PartialEDM.greedy_take`` builds the greedy
cliques of many candidate lists at once, in rounds of one lookup each; the
seeding, the clique growth and the recovery's seed cliques all take
through it.

Randomness: one 64-bit master seed per instance.  ``SeedSequence(seed)`` is
split into two child streams, child 0 for point coordinates and child 1 for
measurement noise, so regenerating with a different noise factor moves no
points.  Every stored squared distance is one IEEE product x * x of a
float, correctly rounded, and the streams are PCG64, so exact and noisy
instances alike are bit-reproducible on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidConfig, NotAClique, ParseError, checked_int

__all__ = [
    "Instance",
    "PartialEDM",
    "generate_instance",
    "build_partial_edm",
    "half_range_cliques",
    "average_degree",
    "read_problem",
    "write_problem",
    "write_solution",
    "read_solution",
]


@dataclass(eq=False)
class Instance:
    """Ground truth for one localization problem.

    points holds all n positions in [0,1]^r; the last m rows are anchors.
    """

    n: int
    m: int
    r: int
    points: np.ndarray
    radio_range: float
    noise_factor: float
    seed: int

    @property
    def anchors(self) -> np.ndarray:
        return self.points[self.n - self.m :]

    @property
    def sensors(self) -> np.ndarray:
        return self.points[: self.n - self.m]


# half_range_cliques checks the pairs of its near sets in blocks of about
# this many pairs, which bounds each temporary at 256 KiB
_PAIR_BLOCK = 1 << 15
# build_partial_edm forms the differences of the measured pairs' points in
# blocks of this many pairs, 128 KiB each in the plane
_DIFF_BLOCK = 1 << 13


class PartialEDM:
    """Known squared distances of a localization problem.

    Built once from the measured pairs, given as arrays i, j and d2 with
    one entry per unordered pair, in either orientation, and not changed
    afterwards.  Both directions of every pair are kept in one sorted
    array form: ``indices`` holds node u's measured neighbours, ascending,
    at ``indptr[u]:indptr[u + 1]``, and ``d2`` the squared distances in
    the same order; ``lookup`` searches the sorted keys i*n + j of the same
    entries.  The last m nodes are anchors, which ``build_partial_edm``
    measures mutually.
    """

    def __init__(self, n: int, m: int, dim: int, radio_range: float,
                 noise_factor: float = 0.0, i=(), j=(), d2=()):
        _check_sizes(n, m, dim)
        _check_range_and_noise(radio_range, noise_factor)
        self.n, self.m, self.dim = n, m, dim
        self.radio_range, self.noise_factor = radio_range, noise_factor
        i, j, d2 = _checked_pairs(n, i, j, d2)
        # both directions' keys, i*n + j then j*n + i, filled in place, then
        # one sentinel key n*n above them all, which keeps every position
        # that lookup's binary search returns in range
        half = i.size
        size = 2 * half
        keys = np.empty(size + 1, dtype=np.int64)
        np.multiply(i, n, out=keys[:half])
        keys[:half] += j
        np.multiply(j, n, out=keys[half:size])
        keys[half:size] += i
        keys[size] = n * n
        # sorted by (i, j).  Unless a pair is given twice, which raises
        # below, the keys are distinct, so the default sort gives the one
        # order a stable sort would, and the sentinel comes last
        order = keys.argsort()
        self._keys = keys = keys.take(order)
        # the squared distance of entry k of either direction is d2[k % half]
        self._values = values = np.empty(size + 1)
        d2.take(order[:size], mode="wrap", out=values[:size])
        values[size] = math.nan
        del order
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        if repeat.size:
            a, b = divmod(int(keys[repeat[0]]), n)
            raise InvalidConfig(f"pair ({a}, {b}) is given more than once")
        # keys - (keys // n) * n, the same as keys % n at half the cost
        self.indices = indices = keys[:size] // n
        indices *= n
        np.subtract(keys[:size], indices, out=indices)
        self.d2 = values[:size]
        self.indptr = np.searchsorted(self._keys, np.arange(n + 1, dtype=np.int64) * n)
        # views of the same two arrays: a row sliced from them costs about a
        # third less than from the arrays, and the merges read rows one by one
        self._indices_view, self._indptr_view = memoryview(self.indices), memoryview(self.indptr)

    def row(self, u: int) -> list[int]:
        """Node u's measured neighbours, ascending."""
        ptr = self._indptr_view
        return self._indices_view[ptr[u] : ptr[u + 1]].tolist()

    @property
    def adj(self) -> list[list[int]]:
        """Each node's row (``row``), in node order, as a new list."""
        return [self.row(u) for u in range(self.n)]

    def gather(self, nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(owner, neighbour, d2) of every entry of the rows of nodes, row
        after row: owner indexes nodes, neighbour is the measured node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        lo = self.indptr[nodes]
        count = self.indptr[nodes + 1] - lo
        owner = np.repeat(np.arange(nodes.size), count)
        pos = np.arange(owner.size) + (lo - (np.cumsum(count) - count))[owner]
        return owner, self.indices[pos], self.d2[pos]

    def greedy_take(self, owner, cand, room) -> tuple[np.ndarray, np.ndarray]:
        """Greedy cliques of many candidate lists at once.

        List c is cand[owner == c] in the given order, owner ascending, and
        room[c] bounds what it takes.  From each list this takes the
        candidates that are each measured to every candidate taken before
        them, up to room[c] of them (none for a room below 1).  Returns
        (owner, taken), owner ascending and each list's nodes in take order.
        Callers pass candidates measured to the clique they extend.

        It runs in rounds: each takes the first remaining candidate of every
        list with room left, and keeps of the rest only those measured to
        it, in one lookup over all lists.
        """
        owner = np.asarray(owner, dtype=np.int64)
        cand = self._checked_ids(cand)
        room = np.array(room, dtype=np.int64)
        keep = room[owner] > 0
        owner, cand = owner[keep], cand[keep]
        keys = self._keys
        # n times the node each list took last: where the keys of its row start
        last = np.empty(room.size, dtype=np.int64)
        took_owner, took = [owner[:0]], [cand[:0]]
        while owner.size:
            head = np.empty(owner.size, dtype=bool)
            head[0] = True
            np.not_equal(owner[1:], owner[:-1], out=head[1:])
            lists, nodes = owner[head], cand[head]
            took_owner.append(lists)
            took.append(nodes)
            last[lists] = nodes * self.n
            room[lists] -= 1
            # the rest of each list against the node it just took, which
            # drops that node too, as no node is measured to itself
            query = last[owner]
            query += cand
            keep = keys[keys.searchsorted(query)] == query
            keep &= room[owner] > 0
            owner, cand = owner[keep], cand[keep]
        took_owner = np.concatenate(took_owner)
        # each round took at most one node per list, in list order
        order = took_owner.argsort(kind="stable")
        return took_owner[order], np.concatenate(took)[order]

    def _checked_ids(self, ids) -> np.ndarray:
        """ids as an int64 array; InvalidConfig naming the first id outside
        [0, n), which a key i*n + j would map onto another pair."""
        ids = np.asarray(ids, dtype=np.int64)
        # read as unsigned, a negative id is at least n as well
        if ids.size and ids.view(np.uint64).max() >= self.n:
            bad = ids[(ids < 0) | (ids >= self.n)]
            raise InvalidConfig(f"node id {bad.flat[0]} is not in [0, {self.n})")
        return ids

    def lookup(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """(known, d2) of the node pairs (i, j), elementwise over integer
        arrays that broadcast; d2 means nothing where known is False.
        Raises InvalidConfig naming the first id outside [0, n), which the
        key i*n + j would map onto another pair."""
        i, j = self._checked_ids(i), self._checked_ids(j)
        query = i * self.n + j
        pos = np.searchsorted(self._keys, query)
        return self._keys[pos] == query, self._values[pos]

    def known_pairs(self):
        """Iterate (i, j, d2) over known pairs with i < j, sorted."""
        rows = self._keys[:-1] // self.n
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist(), self.d2[upper].tolist())

    def submatrix(self, nodes) -> np.ndarray:
        """Dense squared-distance matrix of a node subset.

        Raises NotAClique when some pair in the subset is unknown.
        """
        nodes = np.asarray(list(nodes), dtype=np.int64)
        known, D = self.lookup(nodes[:, None], nodes[None, :])
        np.fill_diagonal(known, True)
        if not known.all():
            # the first missing pair in row order has a < b
            a, b = np.argwhere(~known)[0]
            raise NotAClique(f"pair ({nodes[a]}, {nodes[b]}) has no known distance")
        np.fill_diagonal(D, 0.0)
        return D


def _checked_pairs(n: int, i, j, d2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair arrays as int64, int64 and float64, or InvalidConfig when
    they are not three equally long 1-D arrays, a node id is not an integer
    in [0, n), a pair joins a node to itself, or a squared distance is not
    a real number that is finite and >= 0."""
    i, j = np.asarray(i), np.asarray(j)
    try:
        d2 = np.asarray(d2)
        if d2.dtype.kind == "c":
            # a cast to float would drop the imaginary part with a warning
            raise InvalidConfig(f"squared distances must be real, got {d2.dtype} values")
        d2 = d2.astype(float, copy=False)
    except (TypeError, ValueError):
        raise InvalidConfig("squared distances must be numbers") from None
    if not i.ndim == j.ndim == d2.ndim == 1 or not i.size == j.size == d2.size:
        raise InvalidConfig(
            f"need three 1-D pair arrays of one length, got shapes {i.shape}, {j.shape}, {d2.shape}"
        )
    for ids in (i, j):
        if ids.size and ids.dtype.kind not in "iu":
            raise InvalidConfig(f"node ids must be integers, got {ids.dtype} ids")
    i, j = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False)
    # a few reductions, each with an initial value for no pairs; the first
    # offender is looked for only on failure
    if (min(i.min(initial=0), j.min(initial=0)) < 0
            or max(i.max(initial=0), j.max(initial=0)) >= n):
        a = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))[0]
        raise InvalidConfig(f"node ids ({i[a]}, {j[a]}) must lie in [0, {n})")
    if np.any(i == j):
        raise InvalidConfig("self distances are not stored")
    # written so that NaN fails the test: min and max propagate it
    if not (d2.min(initial=0.0) >= 0.0 and d2.max(initial=0.0) < math.inf):
        a = np.flatnonzero(~((d2 >= 0.0) & (d2 < math.inf)))[0]
        raise InvalidConfig(
            f"squared distance for pair ({i[a]}, {j[a]}) must be finite and >= 0, got {d2[a]}"
        )
    return i, j, d2


def _check_sizes(n: int, m: int, r: int) -> None:
    for name, value in (("n", n), ("m", m), ("r", r)):
        checked_int(value, name)
    if n <= m or m < 0:
        raise InvalidConfig(f"need n > m >= 0, got n={n}, m={m}")
    if r < 1:
        raise InvalidConfig(f"embedding dimension must be >= 1, got r={r}")


def _check_range_and_noise(radio_range: float, noise_factor: float) -> None:
    # written so that NaN fails both tests
    if not 0.0 < radio_range < math.inf:
        raise InvalidConfig(f"radio range must be finite and positive, got {radio_range}")
    if not 0.0 <= noise_factor < math.inf:
        raise InvalidConfig(f"noise factor must be finite and >= 0, got {noise_factor}")


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(children[0])),
        np.random.Generator(np.random.PCG64(children[1])),
    )


def generate_instance(
    n: int,
    m: int,
    r: int,
    seed: int,
    radio_range: float,
    noise_factor: float = 0.0,
) -> Instance:
    """Drop n points uniformly in [0,1]^r; the last m are the anchors.  The
    seed must be a non-negative integer."""
    _check_sizes(n, m, r)
    _check_range_and_noise(radio_range, noise_factor)
    seed = checked_int(seed, "seed")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    point_rng, _ = _streams(seed)
    points = point_rng.random((n, r))
    return Instance(
        n=n,
        m=m,
        r=r,
        points=points,
        radio_range=radio_range,
        noise_factor=noise_factor,
        seed=seed,
    )


def build_partial_edm(inst: Instance) -> PartialEDM:
    """Measure squared distances below radio range, anchors always mutually.

    A pair is known iff the true distance is strictly below the radio range
    or both nodes are anchors.  With a positive noise factor sigma the stored
    value is x * x with x = d * (1 + sigma * eps), eps standard normal, one
    draw per unordered pair in lexicographic order; anchor-anchor distances
    stay exact.  The result is bit-reproducible on every platform.  A noisy
    distance whose square overflows gives InvalidConfig.
    """
    n, m, R = inst.n, inst.m, inst.radio_range
    sigma = inst.noise_factor
    P = inst.points
    first_anchor = n - m
    # query_pairs gives i < j, so sorting the keys i*n + j sorts the pairs
    # by (i, j).  Each temporary below is dropped once it is used, which
    # keeps the set-up's peak memory at about 1.5 times its result
    keys = cKDTree(P).query_pairs(R, output_type="ndarray")
    keys = np.ravel_multi_index(keys.T, (n, n))
    keys.sort()
    # the pairs of anchors, all keys from first_anchor*n on, give way to
    # every pair of anchors, in the same order, measured whatever their
    # distance and without noise
    cut = int(np.searchsorted(keys, first_anchor * n))
    a, b = np.triu_indices(m, 1)
    keys = np.concatenate([keys[:cut], (a + first_anchor) * n + (b + first_anchor)])
    # divmod(keys, n) at half the cost
    i = keys // n
    j = i * n
    np.subtract(keys, j, out=j)
    del keys
    # sqrt(vecdot) gives the same bits as a scalar norm() of each
    # difference.  The differences are formed in small blocks, each reusing
    # the memory of the one before, where an array of them all would take
    # fresh pages; take gathers rows several times faster than indexing
    d = np.empty(i.size)
    for lo in range(0, i.size, _DIFF_BLOCK):
        block = slice(lo, lo + _DIFF_BLOCK)
        diff = P.take(i[block], axis=0)
        diff -= P.take(j[block], axis=0)
        np.vecdot(diff, diff, out=d[block])
    np.sqrt(d, out=d)
    keep = d < R
    keep[cut:] = True
    # query_pairs keeps pairs up to R, by its own rounding: copy only if
    # the strict test drops one
    if not keep.all():
        cut = int(np.count_nonzero(keep[:cut]))
        i, j, d = i[keep], j[keep], d[keep]
    del keep
    # an overflow leaves inf, which the constructor rejects
    with np.errstate(over="ignore"):
        if sigma > 0:
            # x = d * (1 + sigma * eps), one draw per pair in lexicographic
            # order: the same stream as one scalar draw each
            x = _streams(inst.seed)[1].standard_normal(cut)
            x *= sigma
            x += 1.0
            np.multiply(x, d[:cut], out=d[:cut])
        d2 = np.multiply(d, d, out=d)
    return PartialEDM(n=n, m=m, dim=inst.r, radio_range=R, noise_factor=sigma, i=i, j=j, d2=d2)


def half_range_cliques(pedm: PartialEDM) -> list[tuple[int, ...]]:
    """One clique per node: all neighbors within half the radio range, with
    the node itself, as a sorted tuple of ids at the node's position.

    Any two nodes within R/2 of a common center are within R of each other,
    so the set is a clique when distances are exact.  Because measured values
    can be perturbed, membership is verified pairwise and offending nodes are
    dropped (nearest kept first); the returned sets are always cliques.

    The near sets come from the rows of the measured pairs, grouped by size,
    and all their pairs are checked in vectorized lookups.  A node whose
    near set is measured in full takes all of it, which is what the
    nearest-first pass gives then; only the others run that pass, those of
    each near-set size in one greedy take (``PartialEDM.greedy_take``) over
    their near sets ordered by (d2, id).
    """
    n = pedm.n
    half_sq = (pedm.radio_range / 2.0) ** 2
    near = pedm.d2 <= half_sq
    centers = pedm._keys[:-1][near] // n
    near_cols, near_d2 = pedm.indices[near], pedm.d2[near]
    size = np.bincount(centers, minlength=n)
    start = np.cumsum(size) - size
    members: list = [None] * n
    # one int object per node id: the cliques built from the seeds keep
    # their members, and a fresh int per membership adds ~1% to a solve's
    # peak memory
    ids = list(range(n))
    for s in np.unique(size).tolist():
        nodes = np.flatnonzero(size == s)
        # (c, s): each node's near set, in ascending id order
        at = start[nodes, None] + np.arange(s)
        sets = near_cols[at]
        full = np.empty(nodes.size, dtype=bool)
        iu, ju = np.triu_indices(s, 1)
        step = max(1, _PAIR_BLOCK // max(iu.size, 1))
        for b in range(0, nodes.size, step):
            known, _ = pedm.lookup(sets[b : b + step, iu], sets[b : b + step, ju])
            full[b : b + step] = known.all(axis=1)
        whole = np.sort(np.column_stack([sets[full], nodes[full]]), axis=1)
        for i, clique in zip(nodes[full].tolist(), whole.tolist()):
            members[i] = tuple(map(ids.__getitem__, clique))
        if full.all():
            continue
        # one list per other node: its near set nearest first, ties by id,
        # taking each node measured to every near node taken before it
        near = sets[~full]
        near = np.take_along_axis(near, np.lexsort((near, near_d2[at[~full]])), axis=1)
        rows = np.arange(near.shape[0])
        owner, taken = pedm.greedy_take(np.repeat(rows, s), near.ravel(), np.full(rows.size, s))
        bounds = np.searchsorted(owner, np.append(rows, rows.size)).tolist()
        taken = taken.tolist()
        for k, i in enumerate(nodes[~full].tolist()):
            clique = sorted([i, *taken[bounds[k] : bounds[k + 1]]])
            members[i] = tuple(map(ids.__getitem__, clique))
    return members


def average_degree(pedm: PartialEDM) -> float:
    """Mean number of known neighbors per node, anchor-anchor edges included."""
    return pedm.indices.size / pedm.n


# --- problem / solution files ---------------------------------------------
#
# Problem file (text, line oriented):
#   snl v1 <n> <m> <r> <R> <sigma>
#   <i> <j> <d2>          one line per known pair, 1-based, i < j
#   anchors
#   <x_1> ... <x_r>       m lines of anchor coordinates
#
# Solution file:
#   solution v1
#   <i> <x_1> ... <x_r>   one line per positioned sensor, 1-based, each id
#                         once, every line with the same r >= 1 finite
#                         coordinates


def write_problem(path, pedm: PartialEDM, anchors: np.ndarray) -> None:
    anchors = np.asarray(anchors, dtype=float)
    if anchors.shape != (pedm.m, pedm.dim):
        raise InvalidConfig(
            f"anchor array shape {anchors.shape} does not match m={pedm.m}, r={pedm.dim}"
        )
    if not np.all(np.isfinite(anchors)):
        raise InvalidConfig("anchor coordinates must be finite")
    with open(path, "w") as fh:
        fh.write(
            f"snl v1 {pedm.n} {pedm.m} {pedm.dim} "
            f"{pedm.radio_range!r} {pedm.noise_factor!r}\n"
        )
        for i, j, d2 in pedm.known_pairs():
            fh.write(f"{i + 1} {j + 1} {d2:.17g}\n")
        fh.write("anchors\n")
        for row in anchors:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_problem(path) -> tuple[PartialEDM, np.ndarray]:
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty problem file", 1)
    head = lines[0].split()
    if len(head) != 7 or head[0] != "snl" or head[1] != "v1":
        raise ParseError("expected header 'snl v1 n m r R sigma'", 1)
    try:
        n, m, r = int(head[2]), int(head[3]), int(head[4])
        R, sigma = float(head[5]), float(head[6])
    except ValueError:
        raise ParseError("malformed header fields", 1) from None
    if not (n > m >= 0 and r >= 1):
        raise ParseError(f"header needs n > m >= 0 and r >= 1, got n={n} m={m} r={r}", 1)
    if not (0.0 < R < math.inf and 0.0 <= sigma < math.inf):
        raise ParseError(f"header needs finite R > 0 and sigma >= 0, got R={R} sigma={sigma}", 1)
    # (i, j) -> d2 of the pairs read so far, 0-based
    known: dict[tuple[int, int], float] = {}
    anchors = np.zeros((m, r))
    mode = "pairs"
    anchor_row = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        if mode == "pairs":
            if text == "anchors":
                mode = "anchors"
                continue
            parts = text.split()
            if len(parts) != 3:
                raise ParseError(f"expected 'i j d2', got {text!r}", lineno)
            try:
                i, j, d2 = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"malformed pair line {text!r}", lineno) from None
            if not (1 <= i < j <= n):
                raise ParseError(f"pair indices out of order or range: {text!r}", lineno)
            if (i - 1, j - 1) in known:
                raise ParseError(f"duplicate pair ({i}, {j})", lineno)
            if not 0.0 <= d2 < math.inf:
                raise ParseError(f"squared distance must be finite and >= 0: {text!r}", lineno)
            known[i - 1, j - 1] = d2
        else:
            parts = text.split()
            if anchor_row >= m:
                raise ParseError("more anchor lines than anchors", lineno)
            if len(parts) != r:
                raise ParseError(f"expected {r} coordinates, got {len(parts)}", lineno)
            try:
                anchors[anchor_row] = [float(x) for x in parts]
            except ValueError:
                raise ParseError(f"malformed anchor line {text!r}", lineno) from None
            if not np.all(np.isfinite(anchors[anchor_row])):
                raise ParseError(f"anchor coordinates must be finite: {text!r}", lineno)
            anchor_row += 1
    if mode == "pairs":
        raise ParseError("missing 'anchors' section", len(lines))
    if anchor_row != m:
        raise ParseError(f"expected {m} anchor lines, found {anchor_row}", len(lines))
    ij = np.array(list(known), dtype=np.int64).reshape(-1, 2)
    pedm = PartialEDM(n=n, m=m, dim=r, radio_range=R, noise_factor=sigma,
                      i=ij[:, 0], j=ij[:, 1], d2=list(known.values()))
    return pedm, anchors


def write_solution(path, positioned: dict[int, np.ndarray]) -> None:
    with open(path, "w") as fh:
        fh.write("solution v1\n")
        for i in sorted(positioned):
            coords = np.asarray(positioned[i], dtype=float)
            fh.write(f"{i + 1} " + " ".join(f"{x:.17g}" for x in coords) + "\n")


def read_solution(path) -> dict[int, np.ndarray]:
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or lines[0].split() != ["solution", "v1"]:
        raise ParseError("expected header 'solution v1'", 1)
    positioned = {}
    dim = None
    for lineno, raw in enumerate(lines[1:], start=2):
        text = raw.strip()
        if not text:
            continue
        parts = text.split()
        try:
            node = int(parts[0])
            coords = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise ParseError(f"malformed solution line {text!r}", lineno) from None
        if node < 1:
            raise ParseError(f"sensor ids start at 1, got {node}", lineno)
        if node - 1 in positioned:
            raise ParseError(f"sensor {node} is listed twice", lineno)
        if coords.size == 0 or dim not in (None, coords.size):
            raise ParseError(f"expected {dim or 'at least 1'} coordinates, got {coords.size}", lineno)
        if not np.all(np.isfinite(coords)):
            raise ParseError(f"coordinates must be finite: {text!r}", lineno)
        dim = coords.size
        positioned[node - 1] = coords
    return positioned
