"""Random problem instances, partial distance matrices, and problem files.

Nodes are indexed 0..n-1 internally; the last m indices are anchors.  A
:class:`PartialEDM` stores the known squared distances as per-node adjacency
dictionaries, which is the shape every other module consumes (neighbor scans,
principal submatrices, membership tests).  For the seed stage of a solve it
also answers vectorized pair lookups from a sorted index of the measured
pairs, built from the dictionaries on first use and dropped once the seed
faces exist.

Randomness: one 64-bit master seed per instance.  ``SeedSequence(seed)`` is
split into two child streams, child 0 for point coordinates and child 1 for
measurement noise, so regenerating with a different noise factor moves no
points, and results are reproducible across platforms (PCG64).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidConfig, NotAClique, ParseError

__all__ = [
    "Instance",
    "PartialEDM",
    "CliqueSeed",
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


# the pair index is built, and half_range_cliques checks the pairs of its
# near sets, in blocks of about this many pairs, which bounds each temporary
# at 256 KiB
_PAIR_BLOCK = 1 << 15


@dataclass(eq=False)
class PartialEDM:
    """Known squared distances of a localization problem.

    adj[i] maps each known neighbor j to the (possibly noisy) squared
    distance; entries are mirrored so (i, j) is known iff (j, i) is.  The
    last m nodes are anchors and are mutually known by construction.
    """

    n: int
    m: int
    dim: int
    radio_range: float
    noise_factor: float = 0.0
    adj: list[dict[int, float]] = field(default_factory=list)
    # (keys, d2): the sorted keys i*n + j of the measured pairs, both
    # directions, then one sentinel key n*n above them all, and the squared
    # distances in the same order; built by lookup, dropped by drop_lookup
    _index: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_range_and_noise(self.radio_range, self.noise_factor)
        if not self.adj:
            self.adj = [dict() for _ in range(self.n)]

    def add_pair(self, i: int, j: int, d2: float) -> None:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise InvalidConfig(f"node ids must be integers, got ({i!r}, {j!r})") from None
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise InvalidConfig(f"node ids ({i}, {j}) must lie in [0, {self.n})")
        if i == j:
            raise InvalidConfig("self distances are not stored")
        if not 0.0 <= d2 < math.inf:
            raise InvalidConfig(
                f"squared distance for pair ({i}, {j}) must be finite and >= 0, got {d2}"
            )
        self.adj[i][j] = d2
        self.adj[j][i] = d2
        self._index = None

    def is_known(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def greedy_clique(self, candidates, limit: int | None = None) -> list[int]:
        """The candidates, in the given order, that are each measured to every
        candidate taken before them, up to limit of them.  Callers pass
        candidates measured to the clique they extend."""
        taken: list[int] = []
        for j in candidates:
            if all(map(self.adj[j].__contains__, taken)):
                taken.append(j)
                if len(taken) == limit:
                    break
        return taken

    def _pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            n, adj = self.n, self.adj
            deg = np.fromiter(map(len, adj), dtype=np.int64, count=n)
            size = int(deg.sum())
            keys = np.empty(size + 1, dtype=np.int64)
            d2 = np.empty(size + 1)
            keys[size], d2[size] = n * n, math.nan
            # in blocks of about _PAIR_BLOCK pairs, so that the temporaries
            # stay small (built in one piece, the index raised the peak
            # memory of three rigid-scaling bench passes by 3%); a block's
            # sorted keys follow the previous block's
            step = max(1, _PAIR_BLOCK * n // max(size, 1))
            start = 0
            for lo in range(0, n, step):
                rows, counts = adj[lo : lo + step], deg[lo : lo + step]
                end = start + int(counts.sum())
                block = np.repeat(np.arange(lo, lo + len(rows), dtype=np.int64) * n, counts)
                block += np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=end - start)
                # each node's keys are mostly in order already
                order = np.argsort(block, kind="stable")
                keys[start:end] = block[order]
                d2[start:end] = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                                            dtype=float, count=end - start)[order]
                start = end
            self._index = keys, d2
        return self._index

    def lookup(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """(known, d2) of the node pairs (i, j), elementwise over integer
        arrays; d2 means nothing where known is False.

        The first call builds the sorted pair index, which stays until
        ``drop_lookup`` or ``add_pair``."""
        keys, d2 = self._pair_index()
        query = np.asarray(i, dtype=np.int64) * self.n + j
        # the sentinel key keeps every position in range
        pos = np.searchsorted(keys, query)
        return keys[pos] == query, d2[pos]

    def drop_lookup(self) -> None:
        """Free the pair index that ``lookup`` built."""
        self._index = None

    def known_pairs(self):
        """Iterate (i, j, d2) over known pairs with i < j."""
        for i, nbrs in enumerate(self.adj):
            for j, d2 in nbrs.items():
                if i < j:
                    yield i, j, d2

    def submatrix(self, nodes) -> np.ndarray:
        """Dense squared-distance matrix of a node subset.

        Raises NotAClique when some pair in the subset is unknown.
        """
        nodes = list(nodes)
        k = len(nodes)
        D = np.zeros((k, k))
        for a in range(k):
            row = self.adj[nodes[a]]
            for b in range(a + 1, k):
                try:
                    D[a, b] = D[b, a] = row[nodes[b]]
                except KeyError:
                    raise NotAClique(
                        f"pair ({nodes[a]}, {nodes[b]}) has no known distance"
                    ) from None
        return D


@dataclass(frozen=True)
class CliqueSeed:
    """A clique found around one center node; members include the center."""

    center: int
    members: tuple[int, ...]


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
    """Drop n points uniformly in [0,1]^r; the last m are the anchors."""
    if n <= m or m < 0:
        raise InvalidConfig(f"need n > m >= 0, got n={n}, m={m}")
    if r < 1:
        raise InvalidConfig(f"embedding dimension must be >= 1, got r={r}")
    _check_range_and_noise(radio_range, noise_factor)
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
    value is (d * (1 + sigma * eps))^2 with eps standard normal, one draw per
    unordered pair in lexicographic order; anchor-anchor distances stay exact.
    """
    n, m, R = inst.n, inst.m, inst.radio_range
    sigma = inst.noise_factor
    pedm = PartialEDM(
        n=n, m=m, dim=inst.r, radio_range=R, noise_factor=sigma
    )
    P = inst.points
    pairs = cKDTree(P).query_pairs(R, output_type="ndarray").reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    noise_rng = _streams(inst.seed)[1]
    first_anchor = n - m
    adj = pedm.adj
    # in chunks, so that the temporaries stay small
    for s in range(0, len(pairs), 4096):
        ij = pairs[s : s + 4096]
        diff = P[ij[:, 0]] - P[ij[:, 1]]
        # sqrt(vecdot) gives the same bits as a scalar norm() of each difference
        d = np.sqrt(np.vecdot(diff, diff))
        keep = d < R
        ij, d = ij[keep], d[keep]
        # one draw per noisy pair in lexicographic order: the same stream as
        # one scalar draw each
        noisy = (ij[:, 0] < first_anchor) & (sigma > 0)
        eps = np.zeros(d.size)
        eps[noisy] = noise_rng.standard_normal(np.count_nonzero(noisy))
        # the two columns as flat lists: a list per pair would keep the
        # cyclic garbage collector busy
        for i, j, dt, et, nz in zip(ij[:, 0].tolist(), ij[:, 1].tolist(), d.tolist(),
                                    eps.tolist(), noisy.tolist()):
            # Python's float power: numpy's square rounds differently
            v = (dt * (1.0 + sigma * et)) ** 2 if nz else dt * dt
            adj[i][j] = v
            adj[j][i] = v
    # anchors know each other regardless of range, without noise
    for a in range(first_anchor, n):
        diff = P[a + 1 :] - P[a]
        d = np.sqrt(np.vecdot(diff, diff))
        for b, v in enumerate((d * d).tolist(), start=a + 1):
            adj[a][b] = v
            adj[b][a] = v
    return pedm


def half_range_cliques(pedm: PartialEDM) -> list[CliqueSeed]:
    """One clique per node: all neighbors within half the radio range.

    Any two nodes within R/2 of a common center are within R of each other,
    so the set is a clique when distances are exact.  Because measured values
    can be perturbed, membership is verified pairwise and offending nodes are
    dropped (nearest kept first); the returned sets are always cliques.

    The near sets come from the pair index, grouped by size, and all their
    pairs are checked in vectorized lookups.  A node whose near set is
    measured in full takes all of it, which is what the nearest-first pass
    gives then; only the others run that pass.
    """
    n = pedm.n
    half_sq = (pedm.radio_range / 2.0) ** 2
    keys, d2 = pedm._pair_index()
    near_keys = keys[d2 <= half_sq]
    centers = near_keys // n
    near_cols = near_keys - centers * n
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
        sets = near_cols[start[nodes, None] + np.arange(s)]
        full = np.empty(nodes.size, dtype=bool)
        iu, ju = np.triu_indices(s, 1)
        step = max(1, _PAIR_BLOCK // max(iu.size, 1))
        for b in range(0, nodes.size, step):
            known, _ = pedm.lookup(sets[b : b + step, iu], sets[b : b + step, ju])
            full[b : b + step] = known.all(axis=1)
        whole = np.sort(np.column_stack([sets[full], nodes[full]]), axis=1)
        for i, clique in zip(nodes[full].tolist(), whole.tolist()):
            members[i] = tuple(map(ids.__getitem__, clique))
        for i, near in zip(nodes[~full].tolist(), sets[~full].tolist()):
            members[i] = _nearest_first(pedm, i, near)
    return [CliqueSeed(center=i, members=m) for i, m in zip(ids, members)]


def _nearest_first(pedm: PartialEDM, i: int, near) -> tuple[int, ...]:
    """Sorted members of the clique that grows from center i through its
    near nodes, nearest first (ties by id), taking each node measured to
    every member so far."""
    row = pedm.adj[i]
    return tuple(sorted([i] + pedm.greedy_clique(sorted(near, key=lambda j: (row[j], j)))))


def average_degree(pedm: PartialEDM) -> float:
    """Mean number of known neighbors per node, anchor-anchor edges included."""
    if pedm.n == 0:
        return 0.0
    return sum(len(nbrs) for nbrs in pedm.adj) / pedm.n


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
        for i, j, d2 in sorted(pedm.known_pairs()):
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
    pedm = PartialEDM(n=n, m=m, dim=r, radio_range=R, noise_factor=sigma)
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
            if pedm.is_known(i - 1, j - 1):
                raise ParseError(f"duplicate pair ({i}, {j})", lineno)
            if not 0.0 <= d2 < math.inf:
                raise ParseError(f"squared distance must be finite and >= 0: {text!r}", lineno)
            pedm.add_pair(i - 1, j - 1, d2)
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
