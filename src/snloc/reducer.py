"""Clique bookkeeping and the reduction loop that grows them.

The solve state is a family of node sets ("cliques"), each carrying a face
basis.  ``run`` first builds the faces of all seed cliques in stacked calls,
which costs far less per clique than building each alone, and keeps each
as a compact entry until its FaceRep is first used; a clique whose face is
never asked for never gets one.  Four steps shrink the family or grow a
clique, tried in priority order:

  1. rigid clique union      -- two cliques sharing >= r+1 nodes
  2. rigid node absorption   -- a node adjacent to >= r+1 nodes of a clique
  3. singular clique union   -- two cliques sharing exactly r nodes
  4. singular node absorption-- a node adjacent to exactly r clique nodes

A node absorption is a union with the temporary clique of the node and its
neighbors beta in the clique, so each step is a thin front end that checks
its precondition and builds the partner face, over one of two kernels:
rigid (closed-form face intersection) or singular (two candidate
realizations, committed only when exactly one survives the feasibility test
against the known distances).  The distances a temporary clique lacks
between nodes of beta, and the points a singular step picks its
full-dimensional subsets from, come from the clique's stored rows and its
frame Gram (``recovery.frame_gram``), which a face computes once per stored
frame and carries through the merges that keep that frame; no step
materializes a clique's orthonormal basis.

The loop processes cliques by ascending id.  The clique under consideration
(the "grower") keeps incremental overlap counters: cnt[l] is the number of
shared nodes with clique l, acnt[w] the number of grower nodes adjacent to
the outside node w.  One routine counts both, for the grower's own nodes
when its turn starts and for each merge's new nodes, so candidate search
never rescans the whole family; acnt is counted on first use, from the
outside nodes' adjacency once the grower holds more than half the nodes.  One table gives the steps
in priority order; each picks from cnt (unions) or acnt (absorptions) an
overlap >= r+1 (rigid) or exactly r (singular).  The rigid steps take the
largest overlap, ties by ascending id, from a max-heap over (count, -id)
with lazy deletion: every count above r is pushed as it is reached, and
entries that are no longer current, or that failed, are dropped when they
surface, so a pick costs O(log n) instead of a scan of the counters.  A
failed rigid partner is retried once its count has grown.

Rigid unions go in waves.  A pick pops every ready partner (a current
count above r that has not failed) whose count is at least three quarters
of the top count, and ``intersect_faces_wave`` merges them all against the
grower's face as it stood when the wave began, in stacked numpy calls.
The merged face and nodes are installed on the grower, and then each
united partner goes through ``rigid_clique_union``, whose subset branch
removes it and counts the union, so a wrapper of the step sees every
union.  Two kinds of partner go through ``rigid_clique_union`` alone
after the wave: one whose common block is worse conditioned than the
grower's, as its merge would keep its own rows and remap the grower's,
and one whose nodes outside the grower the wave's earlier partners
already hold, which is then a subset with no face work.  A top partner
that holds the whole grower makes no wave: it hands its face over alone,
with no face work.  Neither does a wave of one partner, for which the
stacked call costs more than the step's own kernel.  Waves down to half
the top count would merge many partners at small overlaps, whose errors
compound on noisy data.

Each singular step has two mirror-image candidates, and only data can tell
them apart (the flip ambiguity of Moore, Leonard, Rus and Teller, SenSys
2004).  A singular union's candidates differ by a reflection across the flat
of the r shared nodes, so a measured edge between the two private sides (a
cross edge) decides, as can the range bounds; without either the union
declines before any face work.  A singular absorption's node has measured
distances only to beta, so only the range bounds
(``Tolerances.use_range_bounds``) decide, and without them L4 runs L3's
rows.  Both singular rows share one pick rule: candidates by
ascending id, keyed by the cross-edge count for a union without the range
bounds and by the grower's size otherwise; a key of 0 is skipped, and so is
a partner that failed at its current key.  A merge removes the partner's
id from the family and moves each of its nodes' membership to the
survivor, so the membership sets are exact at every step.
"""

from __future__ import annotations

import heapq
from collections import Counter
from enum import IntEnum

import numpy as np

from .edm_core import eigh_descending, kappa_pinv, significant_rank
from .errors import (
    IntersectionRankLoss,
    InvalidConfig,
    NoRealBranch,
    NoRigidSeed,
    NotAClique,
    RangeMismatch,
    RankDeficient,
)
from .faces import (
    FaceRep,
    FaceStack,
    Tolerances,
    clique_faces,
    face_from_clique,
    face_from_gram,
    face_from_points,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
    intersect_faces_wave,
)
from .recovery import frame_gram, frame_points, two_completions
# the steps read coordinates through the frame Gram; points_from_face stays
# importable from here because bench/snlbench/tracing.py wraps it by name
from .recovery import points_from_face  # noqa: F401

__all__ = [
    "StepLevel",
    "CliqueFamily",
    "init_family",
    "grow_cliques",
    "rigid_clique_union",
    "rigid_node_absorption",
    "nonrigid_clique_union",
    "nonrigid_node_absorption",
    "run",
    "step_level",
]


class StepLevel(IntEnum):
    """Which reduction steps are enabled; each level includes the previous."""

    L1 = 1  # rigid clique unions only
    L2 = 2  # + rigid node absorption
    L3 = 3  # + singular clique union
    L4 = 4  # + singular node absorption (decides only with range bounds)


def step_level(level) -> StepLevel:
    """level as a StepLevel; InvalidConfig unless it is one of 1-4."""
    try:
        return StepLevel(level)
    except ValueError:
        raise InvalidConfig(f"level must be one of 1-4, got {level!r}") from None


_MISSING = object()

STEP_RIGID_UNION = "rigid_union"
STEP_RIGID_ABSORB = "rigid_absorb"
STEP_NONRIGID_UNION = "nonrigid_union"
STEP_NONRIGID_ABSORB = "nonrigid_absorb"


class CliqueFamily:
    """Mutable family of live cliques with lazy face representations.

    cliques holds exactly the live cliques, and membership[u] exactly the
    ids of the live cliques that contain node u; a merge keeps both so."""

    def __init__(self, pedm):
        self.pedm = pedm
        self.dim = pedm.dim
        self.cliques: dict[int, set[int]] = {}
        self.faces: dict[int, FaceRep | None] = {}
        # faces built by build_seed_faces, made into a FaceRep on first use
        self.seed_faces: dict[int, tuple[FaceStack, int]] = {}
        self.membership: list[set[int]] = [set() for _ in range(pedm.n)]
        self.anchor_clique_id: int | None = None
        self.step_counts: Counter = Counter()
        self._next_id = 0

    # -- id and membership management ------------------------------------

    def add_clique(self, nodes) -> int:
        cid = self._next_id
        self._next_id += 1
        nodes = set(int(u) for u in nodes)
        self.cliques[cid] = nodes
        for u in nodes:
            self.membership[u].add(cid)
        return cid

    def _kill_into(self, dead: int, survivor: int) -> None:
        """Remove clique dead, whose nodes clique survivor now holds."""
        for u in self.cliques.pop(dead):
            ids = self.membership[u]
            ids.discard(dead)
            ids.add(survivor)
        if self.anchor_clique_id == dead:
            self.anchor_clique_id = survivor
        self.faces.pop(dead, None)
        self.seed_faces.pop(dead, None)

    # -- lazy faces ---------------------------------------------------------

    def build_seed_faces(self, tol: Tolerances) -> None:
        """Build the face of every clique that has none, in stacked
        calls (``clique_faces``), and free the pair index they read;
        face_of makes each FaceRep on first use."""
        todo = [cid for cid in self.cliques
                if cid not in self.faces and cid not in self.seed_faces]
        entries = clique_faces(self.pedm, [self.cliques[cid] for cid in todo], self.dim, tol)
        # the seed stage is over; the merges read adj
        self.pedm.drop_lookup()
        for cid, entry in zip(todo, entries):
            if entry is None:
                self.faces[cid] = None
            else:
                self.seed_faces[cid] = entry

    def face_of(self, cid: int, tol: Tolerances) -> FaceRep | None:
        """Face basis of a clique, computed on first use; None if degenerate."""
        cached = self.faces.get(cid, _MISSING)
        if cached is not _MISSING:
            return cached
        seed = self.seed_faces.pop(cid, None)
        if seed is not None:
            face = seed[0].face(seed[1])
        else:
            try:
                face = face_from_clique(self.pedm, self.cliques[cid], self.dim, tol)
            except (RankDeficient, NotAClique):
                face = None
        self.faces[cid] = face
        return face

    def face_parts(self, cid: int, tol: Tolerances):
        """A clique's face as ``FaceRep._parts`` gives it, or None if
        degenerate; a seed face is read from its stack, and no FaceRep is
        built for it."""
        seed = self.seed_faces.get(cid)
        if seed is not None:
            return seed[0].parts(seed[1])
        face = self.face_of(cid, tol)
        return None if face is None else face._parts()

    def positioned_count(self) -> int:
        if self.anchor_clique_id is None:
            return 0
        return len(self.cliques[self.anchor_clique_id]) - self.pedm.m


def init_family(pedm, seeds) -> CliqueFamily:
    """Family from clique seeds, deduplicated, plus the anchor clique.

    A node that no seed covers gets a singleton clique.  The pedm.m anchors
    form one additional clique; if a seed already equals the anchor set,
    that clique doubles as the anchor clique.
    """
    family = CliqueFamily(pedm)
    seen: dict[tuple, int] = {}
    for seed in seeds:
        key = tuple(sorted(seed.members))
        if key not in seen:
            seen[key] = family.add_clique(key)
    for u, ids in enumerate(family.membership):
        if not ids:
            seen[(u,)] = family.add_clique((u,))
    if pedm.m > 0:
        anchors = tuple(range(pedm.n - pedm.m, pedm.n))
        family.anchor_clique_id = seen.get(anchors)
        if family.anchor_clique_id is None:
            family.anchor_clique_id = family.add_clique(anchors)
    return family


def grow_cliques(family: CliqueFamily, max_size: int) -> None:
    """Greedily extend every clique of the family, up to max_size nodes, with
    nodes measured to all its members, by ascending node id."""
    if max_size <= family.dim + 1:
        raise InvalidConfig(f"max_size must exceed r+1, got {max_size}")
    pedm = family.pedm
    for cid in sorted(family.cliques):
        nodes = family.cliques[cid]
        if len(nodes) >= max_size:
            continue
        base = min(nodes, key=lambda u: len(pedm.adj[u]))
        cand = set(pedm.adj[base]) - nodes
        for u in nodes:
            if u != base:
                cand &= pedm.adj[u].keys()
        for j in pedm.greedy_clique(sorted(cand), max_size - len(nodes)):
            nodes.add(j)
            family.membership[j].add(cid)


# -- the merge kernels, their commit, and the four reduction steps --------


def _commit(family: CliqueFamily, i: int, face, new_nodes, step: str, dead=None) -> bool:
    """Grow clique i by new_nodes under the merged face, remove a united
    clique ``dead`` into i, and count the step.  A None face is a rejected
    merge: nothing changes and the result is False."""
    if face is None:
        return False
    family.cliques[i].update(new_nodes)
    family.faces[i] = face
    if dead is None:
        for u in new_nodes:
            family.membership[u].add(i)
    else:
        family._kill_into(dead, i)
    family.step_counts[step] += 1
    return True


def _rigid_merge(family: CliqueFamily, i: int, f2, tol: Tolerances):
    """Rigid kernel: clique i's face intersected with the partner face f2, or
    None when a face is missing or the overlap is degenerate or inconsistent."""
    f1 = family.face_of(i, tol)
    if f1 is None or f2 is None:
        return None
    try:
        return intersect_faces_rigid(f1, f2, tol)
    except (IntersectionRankLoss, RangeMismatch):
        return None


def _on_frame(family: CliqueFamily, cid: int, read, tol: Tolerances):
    """``read(face, pedm, tol)`` on clique cid's face, read being
    ``frame_gram`` or ``frame_points``; None when the face is degenerate or
    holds no measured full-dimensional seed clique."""
    face = family.face_of(cid, tol)
    if face is None:
        return None
    try:
        return read(face, family.pedm, tol)
    except (NoRigidSeed, RankDeficient):
        return None


def _pick_delta(comp, beta: list, r: int, tol: Tolerances):
    """Choose a small full-dimensional subset delta containing beta.

    Extra nodes are picked greedily, each maximizing its minimum squared
    distance to the nodes already chosen (ties to the smaller id), until the
    subset's Gram matrix has rank r; about r+2 extras are targeted when the
    clique has that many to spare.  Returns (sorted delta, its dense
    squared-distance matrix) or None, also when there are no coordinates.
    """
    if comp is None:
        return None
    beta_set = set(beta)
    mask = np.array([int(u) not in beta_set for u in comp.nodes])
    others = comp.nodes[mask].astype(int)
    if others.size == 0:
        return None
    coords = comp.coords
    rows = {int(u): a for a, u in enumerate(comp.nodes)}
    pts = coords[mask]
    beta_pts = coords[[rows[u] for u in beta]]
    dmin = np.min(
        ((pts[:, None, :] - beta_pts[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    available = np.ones(others.size, dtype=bool)
    picked: list[int] = []
    target = min(others.size, r + 2)
    limit = min(others.size, 2 * (r + 2))
    while len(picked) < limit:
        idx = int(np.argmax(np.where(available, dmin, -1.0)))
        available[idx] = False
        picked.append(int(others[idx]))
        dmin = np.minimum(dmin, ((pts - pts[idx]) ** 2).sum(axis=1))
        if len(picked) < target:
            continue
        delta = sorted(list(beta) + picked)
        P = coords[[rows[u] for u in delta]]
        X = P - P.mean(axis=0)
        vals = eigh_descending(X @ X.T).values
        if significant_rank(vals, tol.rank) == r:
            D = ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
            return delta, D
    return None


def _measured_edges(nodes, pedm):
    """(row, row, squared distance) of every measured pair among ``nodes``,
    rows indexing ``nodes``, as three arrays."""
    idx = {int(u): a for a, u in enumerate(nodes)}
    rows_a, rows_b, known = [], [], []
    for u, a in idx.items():
        for v, d2 in pedm.adj[u].items():
            if v > u and v in idx:
                rows_a.append(a)
                rows_b.append(idx[v])
                known.append(d2)
    return np.array(rows_a, dtype=np.intp), np.array(rows_b, dtype=np.intp), np.array(known)


def _is_feasible(comp, pedm, tol: Tolerances, edges=None) -> bool:
    """Candidate coordinates must reproduce every known distance among the
    candidate's nodes; optionally, unknown pairs must stay out of range.

    edges, when given, is ``_measured_edges(comp.nodes, pedm)``: candidates
    on one node set share it.
    """
    nodes = comp.nodes
    coords = comp.coords
    sigma = pedm.noise_factor
    rows_a, rows_b, known = _measured_edges(nodes, pedm) if edges is None else edges
    diff = coords[rows_a] - coords[rows_b]
    if np.any(np.abs(np.vecdot(diff, diff) - known) > tol.feas_tol + 6.0 * sigma * known):
        return False
    if tol.use_range_bounds:
        R2 = pedm.radio_range ** 2
        slack = tol.feas_tol + 6.0 * sigma * R2
        k = nodes.size
        ids = nodes.tolist()
        # all pairs, in row blocks of about 2^18 pairs; only the pairs that come
        # out too close need the adjacency lookup
        step = max(1, (1 << 18) // max(k, 1))
        for start in range(0, k, step):
            diff = coords[start : start + step, None, :] - coords[None, :, :]
            a_idx, b_idx = np.nonzero(np.vecdot(diff, diff) < R2 - slack)
            a_idx += start
            for a, b in zip(a_idx.tolist(), b_idx.tolist()):
                if b > a and ids[b] not in pedm.adj[ids[a]]:
                    return False
    return True


def _singular_merge(family: CliqueFamily, i: int, f2, beta: list, partner_delta, tol: Tolerances):
    """Singular kernel: the face of clique i merged with partner face f2
    across the r shared nodes beta when exactly one branch is feasible, else
    None.  ``partner_delta()`` gives the partner's (delta, squared distances)
    or None; it runs only after the intersection and clique i's delta exist.
    """
    f1 = family.face_of(i, tol)
    if f1 is None or f2 is None:
        return None
    try:
        ext = intersect_faces_nonrigid(f1, f2, tol)
    except (IntersectionRankLoss, RangeMismatch):
        return None
    sel1 = _pick_delta(_on_frame(family, i, frame_points, tol), beta, family.dim, tol)
    sel2 = None if sel1 is None else partner_delta()
    if sel2 is None:
        return None
    pedm = family.pedm
    try:
        cands = two_completions(
            ext, pedm, sel1[0], sel2[0], tol, d1=sel1[1], d2=sel2[1]
        )
    except (RankDeficient, NoRealBranch, NotAClique):
        return None
    # both candidates carry ext.nodes, in the same row order
    edges = _measured_edges(ext.nodes, pedm)
    feasible = [c for c in cands if _is_feasible(c, pedm, tol, edges)]
    if len(feasible) != 1:
        return None
    try:
        return face_from_points(ext.nodes, feasible[0].coords, tol)
    except RankDeficient:
        return None


def _common_nodes(family: CliqueFamily, i: int, j: int):
    """Common nodes of two distinct live cliques, or None."""
    cliques = family.cliques
    if i == j or i not in cliques or j not in cliques:
        return None
    return cliques[i] & cliques[j]


def _cross_edges(adj, Ci, Cj) -> int:
    """Measured edges between Cj minus Ci and Ci minus Cj (cross edges); scans
    Cj's private nodes, as the partner j is usually the smaller clique."""
    count = 0
    for u in Cj:
        if u not in Ci:
            for v in adj[u]:
                if v in Ci and v not in Cj:
                    count += 1
    return count


def _neighbors_in(family: CliqueFamily, i: int, j: int):
    """Sorted neighbors of node j in live clique i, or None when i is not
    live or holds j."""
    Ci = family.cliques.get(i)
    if Ci is None or j in Ci:
        return None
    return sorted(u for u in family.pedm.adj[j] if u in Ci)


def _mixed_submatrix(family: CliqueFamily, cid: int, nodes: list, tol: Tolerances):
    """Dense squared distances over ``nodes``: measured entries where known,
    synthesized from clique cid's stored rows and frame Gram otherwise.

    Synthesized values are ephemeral; they are never written back into the
    measured data.  Returns None when a missing pair cannot be synthesized.
    """
    pedm = family.pedm
    k = len(nodes)
    D = np.zeros((k, k))
    missing = []
    for a in range(k):
        row = pedm.adj[nodes[a]]
        for b in range(a + 1, k):
            v = row.get(nodes[b])
            if v is None:
                missing.append((a, b))
            else:
                D[a, b] = D[b, a] = v
    if missing:
        Ci = family.cliques[cid]
        if any(nodes[a] not in Ci or nodes[b] not in Ci for a, b in missing):
            return None
        Z = _on_frame(family, cid, frame_gram, tol)
        if Z is None:
            return None
        a, b = map(list, zip(*missing))
        face = family.faces[cid]
        diff = face.stored_rows([nodes[x] for x in a]) - face.stored_rows([nodes[x] for x in b])
        D[a, b] = D[b, a] = np.vecdot(diff @ Z, diff)
    return D


def _temp_face(family: CliqueFamily, i: int, nodes: list, tol: Tolerances):
    """Squared distances and face of the temporary clique ``nodes``, or None."""
    D = _mixed_submatrix(family, i, nodes, tol)
    if D is None:
        return None
    try:
        return D, face_from_gram(np.asarray(nodes), kappa_pinv(D), family.dim, tol)
    except RankDeficient:
        return None


def rigid_clique_union(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Merge cliques i and j when their overlap spans full dimension.

    On success the union keeps id i, j is removed, and i's face becomes the
    intersection of the two faces.  Any failure (degenerate overlap,
    mismatched subspaces, missing face), or an id that is not live, leaves
    the family untouched.
    """
    common = _common_nodes(family, i, j)
    if common is None or len(common) < family.dim + 1:
        return False
    Ci, Cj = family.cliques[i], family.cliques[j]
    if len(common) == len(Cj):
        # Cj adds no nodes; keep i's face untouched
        family._kill_into(j, i)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    if len(common) == len(Ci):
        # i is contained in j: take j's node set and face
        Ci.update(Cj)
        family.faces[i] = family.face_of(j, tol)
        family.seed_faces.pop(i, None)
        family._kill_into(j, i)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    merged = _rigid_merge(family, i, family.face_of(j, tol), tol)
    return _commit(family, i, merged, Cj, STEP_RIGID_UNION, dead=j)


def rigid_node_absorption(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Absorb node j into clique i when j is adjacent to >= r+1 of its nodes.

    The adjacent nodes plus j form a temporary clique (missing distances
    among them are synthesized from i's stored rows and frame Gram); its face is
    intersected with i's face exactly like a rigid union.
    """
    beta = _neighbors_in(family, i, j)
    if beta is None or len(beta) < family.dim + 1:
        return False
    temp = _temp_face(family, i, sorted(beta + [j]), tol)
    merged = None if temp is None else _rigid_merge(family, i, temp[1], tol)
    return _commit(family, i, merged, [j], STEP_RIGID_ABSORB)


def nonrigid_clique_union(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Merge cliques sharing exactly r nodes, when the branch is unique.

    Builds the widened intersection face, computes the two candidate point
    sets, and commits only if exactly one reproduces all known distances
    among the union.  The committed face is rebuilt from the feasible points.
    Without the range bounds, a pair with no measured edge between
    Ci minus Cj and Cj minus Ci is declined before any face work.
    """
    common = _common_nodes(family, i, j)
    r = family.dim
    if common is None or len(common) != r:
        return False
    Ci, Cj = family.cliques[i], family.cliques[j]
    # the two candidates differ only in the distances between the private
    # sides: without a measured one no data can decide (on noisy data an
    # accept would be a round-off coin flip), but the range bounds still can
    if not tol.use_range_bounds and not _cross_edges(family.pedm.adj, Ci, Cj):
        return False
    beta = sorted(common)
    merged = _singular_merge(
        family, i, family.face_of(j, tol), beta,
        lambda: _pick_delta(_on_frame(family, j, frame_points, tol), beta, r, tol), tol,
    )
    return _commit(family, i, merged, Cj, STEP_NONRIGID_UNION, dead=j)


def nonrigid_node_absorption(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Absorb node j adjacent to exactly r nodes of clique i, if unambiguous.

    The r neighbors span only r-1 dimensions, so j has two mirror-image
    placements; j is absorbed when exactly one is consistent with the known
    distances and the range bounds.
    """
    # j's only measured distances into the union go to beta, and both mirror
    # placements keep them: without the range bounds no data can decide
    if not tol.use_range_bounds:
        return False
    beta = _neighbors_in(family, i, j)
    r = family.dim
    if beta is None or len(beta) != r:
        return False
    temp_nodes = sorted(beta + [j])
    temp = _temp_face(family, i, temp_nodes, tol)
    if temp is None:
        return False
    # a beta of affine rank below r-1 leaves the temporary clique below rank
    # r, so _temp_face has declined it (as would the kernel's rank test)
    Dtemp, f2 = temp
    merged = _singular_merge(family, i, f2, beta, lambda: (temp_nodes, Dtemp), tol)
    return _commit(family, i, merged, [j], STEP_NONRIGID_ABSORB)


# -- the reduction loop -----------------------------------------------------

# (name, counter key, absorb, singular) in priority order; row k is enabled
# from level k+1, the last one only with the range bounds.  Steps are looked
# up by name at call time, so that wrappers installed on this module see
# every call.
_STEPS = (
    ("rigid_clique_union", STEP_RIGID_UNION, False, False),
    ("rigid_node_absorption", STEP_RIGID_ABSORB, True, False),
    ("nonrigid_clique_union", STEP_NONRIGID_UNION, False, True),
    ("nonrigid_node_absorption", STEP_NONRIGID_ABSORB, True, True),
)


def _heap_pick(heap, counts, tried):
    """Rigid partner with the largest (count, -id) that has not failed at
    its current count, or None.  heap holds (-count, id) for every count an
    id has reached above r; counts only grow while an id is a candidate, so
    an entry that is not its id's current count, or that failed, never
    becomes valid again and is dropped."""
    while heap:
        negc, l = heap[0]
        if counts.get(l) == -negc and tried.get(l) != -negc:
            return l, -negc
        heapq.heappop(heap)
    return None


# a rigid union wave takes every ready partner whose overlap count is at
# least this fraction of the top one's; at half, noisy-dense RMSD rose from
# 5.8e-4 to 1.6e-3, as partners merged at small overlaps compound errors
_WAVE_FRACTION = 0.75


def _pop_wave(heap, counts, tried):
    """Pop the entries of one rigid union wave off a heap whose top is
    ready (``_heap_pick``): every ready (id, count), in heap order, whose
    count is at least ``_WAVE_FRACTION`` of the top count."""
    floor = _WAVE_FRACTION * -heap[0][0]
    wave = []
    while heap and -heap[0][0] >= floor:
        negc, l = heapq.heappop(heap)
        if counts.get(l) == -negc and tried.get(l) != -negc:
            wave.append((l, -negc))
    return wave


def _wave_merge(family: CliqueFamily, gid: int, wave, tol: Tolerances):
    """Merge a wave of rigid union partners into clique gid, none of which
    holds all of it, in one ``intersect_faces_wave`` call.

    A partner inside clique gid needs no face work, and neither does one
    whose other nodes the partners before it in the wave hold: it is left to
    ``rigid_clique_union``, which finds it inside clique gid once they are
    merged.  The merged face and the new nodes are installed on clique gid,
    so that each united partner, still live, is then a subset of it.
    Returns (united, new nodes, failed, deferred): the united partners in
    wave order, the (id, count) of the partners that failed, and the
    partners left to ``rigid_clique_union``, in wave order: those just
    named and those whose merge would remap clique gid's rows.
    """
    Ci = family.cliques[gid]
    grower = family.face_of(gid, tol)
    inside, failed, todo, parts, later = set(), [], [], [], set()
    # nodes outside clique gid that the wave's kernel partners so far hold
    held = set()
    for l, c in wave:
        Cl = family.cliques[l]
        if c == len(Cl):
            inside.add(l)
            continue
        fresh = [u for u in Cl if u not in Ci]
        if held.issuperset(fresh):
            later.add(l)
        elif grower is None or (part := family.face_parts(l, tol)) is None:
            failed.append((l, c))
        else:
            todo.append((l, c))
            parts.append(part)
            held.update(fresh)
    new_nodes = []
    if parts:
        face, accepted, defer = intersect_faces_wave(grower, parts, tol)
        for (l, c), a, d in zip(todo, accepted.tolist(), defer.tolist()):
            if a:
                inside.add(l)
            elif d:
                later.add(l)
            else:
                failed.append((l, c))
        if face is not None:
            cliques = family.cliques
            new_nodes = list(dict.fromkeys(u for l in inside for u in cliques[l] if u not in Ci))
            Ci.update(new_nodes)
            for u in new_nodes:
                family.membership[u].add(gid)
            family.faces[gid] = face
    return ([l for l, _ in wave if l in inside], new_nodes, failed,
            [l for l, _ in wave if l in later])


def _outside_counts(adj, Ci) -> dict:
    """Each node outside Ci that has a neighbour in Ci -> its number of
    neighbours in Ci.  Counted from Ci's adjacency, or from the outside
    nodes' when Ci holds more than half the nodes, which walks less."""
    if 2 * len(Ci) > len(adj):
        counts = {}
        for w, nbrs in enumerate(adj):
            if w not in Ci:
                c = len(Ci.intersection(nbrs))
                if c:
                    counts[w] = c
        return counts
    return Counter(w for u in Ci for w in adj[u] if w not in Ci)


def _exhaust_grower(family, gid, level, tol, trace) -> bool:
    """Apply every enabled step to clique gid until none applies.

    Within the grower's turn the step priority is exact: a union is always
    preferred over an absorption, and rigid steps over singular ones.  Only
    the grower mutates, so opportunities between other cliques are
    unaffected and get their turn later in the pass.
    """
    adj = family.pedm.adj
    r = family.dim
    Ci = family.cliques[gid]
    # a singular absorption decides only with the range bounds
    # (nonrigid_node_absorption), so without them L4 runs L3's rows
    rows = _STEPS[: level if tol.use_range_bounds else min(level, StepLevel.L3)]
    cnt: dict[int, int] = {}
    acnt: dict[int, int] | None = None
    # rigid candidates by absorb flag: max-heaps over (count, -id)
    heaps = {False: [], True: []}
    # per row, partner -> key of its last failed attempt
    failed = {name: {} for name, *_ in rows}
    # singular union partner -> cross-edge count, until the grower changes
    cross: dict[int, int] = {}

    def bump(counts, heap, l):
        c = counts[l] = counts.get(l, 0) + 1
        if c > r:
            heapq.heappush(heap, (-c, l))

    def count_neighbors(nodes):
        for u in nodes:
            acnt.pop(u, None)
            for w in adj[u]:
                if w not in Ci:
                    bump(acnt, heaps[True], w)

    def register_nodes(nodes):
        for u in nodes:
            for c in family.membership[u]:
                if c != gid:
                    bump(cnt, heaps[False], c)
        if acnt is not None:
            count_neighbors(nodes)

    def singular_key(l, absorb):
        # only a cross edge can decide a union without the range bounds
        # (nonrigid_clique_union), so its key is the cross-edge count;
        # otherwise a larger grower may decide what a smaller one could not
        if absorb or tol.use_range_bounds:
            return len(Ci)
        x = cross.get(l)
        if x is None:
            x = cross[l] = _cross_edges(adj, Ci, family.cliques[l])
        return x

    def record(step, l):
        if trace is not None:
            trace.write(f"step={step} i={gid} j={l} |C|={len(family.cliques)} "
                        f"positioned={family.positioned_count()}\n")

    def attempt(name, step, absorb, l, key) -> bool:
        counts = acnt if absorb else cnt
        new_nodes = [l] if absorb else [u for u in family.cliques[l] if u not in Ci]
        if globals()[name](family, gid, l, tol):
            counts.pop(l, None)
            register_nodes(new_nodes)
            cross.clear()
            record(step, l)
            return True
        failed[name][l] = key
        return False

    def rigid_wave() -> bool:
        tried = failed["rigid_clique_union"]
        wave = _pop_wave(heaps[False], cnt, tried)
        if len(wave) == 1:
            # one partner: the step's own kernel costs less than a stacked call
            return attempt("rigid_clique_union", STEP_RIGID_UNION, False, *wave[0])
        merged, new_nodes, retry, deferred = _wave_merge(family, gid, wave, tol)
        for l in merged:
            # clique l lies inside the grower now: the step call removes it
            # and counts the union, so wrappers of the step see each one
            if globals()["rigid_clique_union"](family, gid, l, tol):
                cnt.pop(l, None)
                record(STEP_RIGID_UNION, l)
        for l, c in retry:
            tried[l] = c
        if merged:
            register_nodes(new_nodes)
            cross.clear()
        done = bool(merged)
        for l in deferred:
            done |= attempt("rigid_clique_union", STEP_RIGID_UNION, False, l, cnt[l])
        return done

    changed = False
    register_nodes(Ci)
    while True:
        for name, step, absorb, singular in rows:
            if absorb and acnt is None:
                # the heap entries that bumping each count one by one pushes
                acnt = _outside_counts(adj, Ci)
                heap = heaps[True]
                heap.extend((-c, w) for w, k in acnt.items() for c in range(r + 1, k + 1))
                heapq.heapify(heap)
            counts = acnt if absorb else cnt
            if singular:
                # by ascending id; a key of 0 cannot decide, and a partner
                # that failed is retried only once its key has changed
                pick = None
                for l in sorted([l for l, c in counts.items() if c == r]):
                    key = singular_key(l, absorb)
                    if key and failed[name].get(l) != key:
                        pick = l, key
                        break
            else:
                pick = _heap_pick(heaps[absorb], counts, failed[name])
            if pick is None:
                continue
            if not absorb and not singular and pick[1] < len(Ci):
                # rigid unions go in waves; a partner that holds the whole
                # grower (count len(Ci)) hands over its face alone
                changed |= rigid_wave()
            else:
                changed |= attempt(name, step, absorb, *pick)
            break
        else:
            return changed


def _run_to_fixed_point(family, level, tol, trace) -> None:
    while True:
        changed = False
        for gid in sorted(family.cliques):
            # a grower's merges remove ids later in the order
            if gid in family.cliques and _exhaust_grower(family, gid, level, tol, trace):
                changed = True
        if not changed:
            break


def run(
    family: CliqueFamily,
    level: StepLevel = StepLevel.L2,
    tol: Tolerances | None = None,
    trace=None,
) -> CliqueFamily:
    """Run enabled reduction steps on the family to a fixed point.

    Passes over cliques by ascending id repeat until one full pass changes
    nothing.  Deterministic for a fixed family and data.  level must be one
    of the StepLevel values (InvalidConfig otherwise); tol defaults to
    ``Tolerances.for_noise`` of the family's pedm.

    Before the first pass, the faces of all cliques that have none are
    built in stacked calls (``CliqueFamily.build_seed_faces``); each is
    bitwise the face that building it alone on first use would give.

    Merging runs in two phases.  The first defers merges whose common block
    is too ill conditioned (tol.invert_floor), which keeps the error of long
    merge chains near round-off.  A second phase with the conditioning guard
    disabled then picks up the deferred merges; by that point both sides are
    as large as they will get, so the amplified error cannot compound
    further.
    """
    level = step_level(level)
    if tol is None:
        tol = Tolerances.for_noise(family.pedm.noise_factor)
    family.build_seed_faces(tol)
    _run_to_fixed_point(family, level, tol, trace)
    if tol.invert_floor > 0.0:
        from dataclasses import replace

        _run_to_fixed_point(family, level, replace(tol, invert_floor=0.0), trace)
    return family
