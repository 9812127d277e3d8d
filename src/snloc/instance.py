"""Random problem instances, partial distance matrices, and problem files.

Nodes are indexed 0..n-1 internally; the last m indices are anchors.  A
:class:`PartialEDM` stores the known squared distances as per-node adjacency
dictionaries, which is the shape every other module consumes (neighbor scans,
principal submatrices, membership tests).

Randomness: one 64-bit master seed per instance.  ``SeedSequence(seed)`` is
split into two child streams, child 0 for point coordinates and child 1 for
measurement noise, so regenerating with a different noise factor moves no
points, and results are reproducible across platforms (PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    def __post_init__(self):
        if not self.adj:
            self.adj = [dict() for _ in range(self.n)]

    @property
    def anchor_block(self) -> range:
        return range(self.n - self.m, self.n)

    def add_pair(self, i: int, j: int, d2: float) -> None:
        if i == j:
            raise InvalidConfig("self distances are not stored")
        if not 0.0 <= d2 < math.inf:
            raise InvalidConfig(
                f"squared distance for pair ({i}, {j}) must be finite and >= 0, got {d2}"
            )
        self.adj[i][j] = d2
        self.adj[j][i] = d2

    def is_known(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    def value(self, i: int, j: int) -> float:
        return self.adj[i][j]

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
    if radio_range <= 0:
        raise InvalidConfig(f"radio range must be positive, got {radio_range}")
    if noise_factor < 0:
        raise InvalidConfig(f"noise factor must be >= 0, got {noise_factor}")
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
    tree = cKDTree(inst.points)
    pairs = tree.query_pairs(R, output_type="ndarray")
    if pairs.size:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    _, noise_rng = _streams(inst.seed)
    first_anchor = n - m
    for i, j in pairs:
        i, j = int(i), int(j)
        d = float(np.linalg.norm(inst.points[i] - inst.points[j]))
        if d >= R:
            continue
        both_anchors = i >= first_anchor and j >= first_anchor
        if sigma > 0 and not both_anchors:
            eps = noise_rng.standard_normal()
            pedm.add_pair(i, j, (d * (1.0 + sigma * eps)) ** 2)
        else:
            pedm.add_pair(i, j, d * d)
    # anchors know each other regardless of range, without noise
    for a in range(first_anchor, n):
        for b in range(a + 1, n):
            d = float(np.linalg.norm(inst.points[a] - inst.points[b]))
            pedm.add_pair(a, b, d * d)
    return pedm


def half_range_cliques(pedm: PartialEDM, radio_range: float | None = None) -> list[CliqueSeed]:
    """One clique per node: all neighbors within half the radio range.

    Any two nodes within R/2 of a common center are within R of each other,
    so the set is a clique when distances are exact.  Because measured values
    can be perturbed, membership is verified pairwise and offending nodes are
    dropped (nearest kept first); the returned sets are always cliques.
    """
    R = pedm.radio_range if radio_range is None else radio_range
    half_sq = (R / 2.0) ** 2
    seeds = []
    for i in range(pedm.n):
        near = sorted(
            (j for j, d2 in pedm.adj[i].items() if d2 <= half_sq),
            key=lambda j: (pedm.adj[i][j], j),
        )
        members = [i]
        for j in near:
            row = pedm.adj[j]
            if all(u == i or u in row for u in members):
                members.append(j)
        seeds.append(CliqueSeed(center=i, members=tuple(sorted(members))))
    return seeds


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
#   <i> <x_1> ... <x_r>   one line per positioned sensor, 1-based


def write_problem(path, pedm: PartialEDM, anchors: np.ndarray) -> None:
    anchors = np.asarray(anchors, dtype=float)
    if anchors.shape != (pedm.m, pedm.dim):
        raise InvalidConfig(
            f"anchor array shape {anchors.shape} does not match m={pedm.m}, r={pedm.dim}"
        )
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
        positioned[node - 1] = coords
    return positioned
