"""Clique bookkeeping and the reduction loop that grows them.

The solve state is a family of node sets ("cliques"), each with one face
record (``CliqueFamily.faces``).  ``run`` first builds the records of all
seed cliques in stacked calls, which costs far less per clique than
building each alone: a compact stack entry, made into a FaceRep when the
face is first read, or None for a degenerate clique.  Four steps shrink the
family or grow a clique, tried in priority order:

  1. rigid clique union      -- two cliques sharing >= r+1 nodes
  2. rigid node absorption   -- a node adjacent to >= r+1 nodes of a clique
  3. singular clique union   -- two cliques sharing exactly r nodes
  4. singular node absorption-- a node adjacent to exactly r clique nodes

A node absorption is a union with the temporary clique of the node and its
neighbors beta in the clique, so each step is a thin front end that checks
its precondition and builds the partner face, over one of two kernels:
rigid (closed-form face intersection) or singular (two candidate
realizations, committed only when exactly one survives the feasibility test
against the known distances).  A step declines in one place: what it calls
raises one of ``_DECLINED`` (a degenerate face, a rank loss or range
mismatch, no measured seed clique, no real or no unique branch), and the
step's one ``except _DECLINED`` returns False before anything changed.  A
temporary clique's face is built in one pass as arrays
(``faces.clique_parts``: the centred eigenvectors of its centred Gram and
their known whitener), and both absorptions merge it in that form.  The
distances a temporary clique lacks between nodes of beta, and the points a
singular step picks its full-dimensional subsets from, come from the
clique's stored rows and its frame Gram (``recovery.frame_gram``), which a
face computes once per stored frame and carries through the merges that
keep that frame.  Neither a step nor the final recovery builds a clique's
orthonormal basis; a singular merge builds only its own result's.

Before the loop, ``grow_cliques`` extends every seed clique below the size
limit from its common neighbours, which sparse products find for all
cliques at once, in one greedy take over arrays.

The loop processes cliques by ascending id.  The clique under consideration
(the "grower") keeps incremental overlap counters: cnt[l] is the number of
shared nodes with clique l, acnt[w] the number of grower nodes adjacent to
the outside node w.  One routine counts both, for the grower's own nodes
when its turn starts and for each merge's new nodes, so candidate search
never rescans the whole family; acnt is counted on first use, over the
rows of the grower's nodes, and kept on the family when the turn ends, so
the clique's next turn starts from it unless the clique has grown since.
One table gives the steps in priority order; each picks from cnt (unions)
or acnt (absorptions) an overlap >= r+1 (rigid) or exactly r (singular).
The rigid steps take the largest overlap, ties by ascending id, from a
max-heap over (count, -id) with lazy deletion: each call that registers
nodes adds up its increments first and then pushes one entry per id it
counted, at its final count when that is above r, and entries that are no
longer current, or that failed, are dropped when they surface, so a pick
costs O(log n) instead of a scan of the counters.  A failed rigid partner
is retried once its count has grown.

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
import itertools
import math
from collections import Counter
from enum import IntEnum

import numpy as np
from scipy.sparse import csr_array

from .edm_core import eigh_descending, significant_rank
from .errors import (
    IntersectionRankLoss,
    InvalidConfig,
    NoRealBranch,
    NoRigidSeed,
    NoUniqueBranch,
    RangeMismatch,
    RankDeficient,
    checked_int,
)
from .faces import (
    FaceRep,
    Tolerances,
    clique_faces,
    clique_parts,
    face_from_points,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
    intersect_faces_wave,
    intersect_parts_rigid,
)
from .recovery import frame_gram, frame_points, two_completions
# the faces come from clique_faces and the steps read coordinates through
# the frame Gram; face_from_clique and points_from_face stay importable
# from here because bench/snlbench/tracing.py wraps them by name
from .faces import face_from_clique  # noqa: F401
from .recovery import points_from_face  # noqa: F401

__all__ = [
    "StepLevel",
    "CliqueFamily",
    "init_family",
    "grow_cliques",
    "clique_size_limit",
    "rigid_clique_union",
    "rigid_node_absorption",
    "nonrigid_clique_union",
    "nonrigid_node_absorption",
    "run",
    "step_level",
]

# grow_cliques multiplies blocks of cliques whose members' rows hold about
# this many entries in all, which bounds each block's product, and so its
# temporaries, at about a megabyte
_GROW_BLOCK = 1 << 17


class StepLevel(IntEnum):
    """Which reduction steps are enabled; each level includes the previous."""

    L1 = 1  # rigid clique unions only
    L2 = 2  # + rigid node absorption
    L3 = 3  # + singular clique union
    L4 = 4  # + singular node absorption (decides only with range bounds)


def step_level(level) -> StepLevel:
    """level as a StepLevel; InvalidConfig unless it is one of the integers
    1-4 (not a bool or a float)."""
    try:
        return StepLevel(checked_int(level, "level"))
    except ValueError:
        raise InvalidConfig(f"level must be one of 1-4, got {level!r}") from None


STEP_RIGID_UNION = "rigid_union"
STEP_RIGID_ABSORB = "rigid_absorb"
STEP_NONRIGID_UNION = "nonrigid_union"
STEP_NONRIGID_ABSORB = "nonrigid_absorb"


class CliqueFamily:
    """Mutable family of live cliques with lazy face representations.

    cliques holds exactly the live cliques, and membership[u] exactly the
    ids of the live cliques that contain node u; a merge keeps both so.
    faces[cid] is clique cid's one face record: a FaceRep, the
    (FaceStack, row) entry of ``build_seed_faces`` until the face is first
    read, or None for a degenerate clique (a missing pair, or a Gram of
    rank below r).  A clique without a record gets one from
    ``build_seed_faces`` when its face is first asked for."""

    def __init__(self, pedm):
        self.pedm = pedm
        self.dim = pedm.dim
        self.cliques: dict[int, set[int]] = {}
        self.faces: dict[int, FaceRep | tuple | None] = {}
        self.membership: list[set[int]] = [set() for _ in range(pedm.n)]
        self.anchor_clique_id: int | None = None
        # clique id -> (its size, its outside counts) as its last turn in the
        # reduction loop left them (``_exhaust_grower``)
        self.outside_counts: dict[int, tuple[int, dict[int, int]]] = {}
        self.step_counts: Counter = Counter()
        self._next_id = 0

    # -- id and membership management ------------------------------------

    def add_clique(self, nodes) -> int:
        cid = self._next_id
        self._next_id += 1
        nodes = set(map(int, nodes))
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
        self.outside_counts.pop(dead, None)

    # -- lazy faces ---------------------------------------------------------

    def build_seed_faces(self, tol: Tolerances) -> None:
        """Give every clique without a face record one, in stacked calls
        (``clique_faces``): its (FaceStack, row) entry, or None."""
        todo = [cid for cid in self.cliques if cid not in self.faces]
        entries = clique_faces(self.pedm, [self.cliques[cid] for cid in todo], self.dim, tol)
        self.faces.update(zip(todo, entries))

    def _record(self, cid: int, tol: Tolerances):
        """Clique cid's face record, built with all missing ones if absent."""
        if cid not in self.faces:
            self.build_seed_faces(tol)
        return self.faces[cid]

    def face_of(self, cid: int, tol: Tolerances) -> FaceRep:
        """Face of a clique; a stack entry becomes its FaceRep on first use,
        which is bitwise ``face_from_clique``'s.  Raises RankDeficient when
        the clique is degenerate, with no attempt to build its face again."""
        face = self._record(cid, tol)
        if face is None:
            raise RankDeficient(f"clique {cid} has no face")
        if isinstance(face, tuple):
            face = self.faces[cid] = face[0].face(face[1])
        return face

    def face_parts(self, cid: int, tol: Tolerances):
        """A clique's face as ``FaceRep._parts`` gives it, or None if
        degenerate; a stack entry is read from its stack, and no FaceRep is
        built for it."""
        face = self._record(cid, tol)
        if isinstance(face, tuple):
            return face[0].parts(face[1])
        return None if face is None else face._parts()

    def positioned_count(self) -> int:
        if self.anchor_clique_id is None:
            return 0
        return len(self.cliques[self.anchor_clique_id]) - self.pedm.m


def init_family(pedm, seeds) -> CliqueFamily:
    """Family from clique seeds, each an iterable of node ids, deduplicated,
    plus the anchor clique.

    A node that no seed covers gets a singleton clique.  The pedm.m anchors
    form one additional clique; if a seed already equals the anchor set,
    that clique doubles as the anchor clique.
    """
    family = CliqueFamily(pedm)
    seen: dict[tuple, int] = {}
    for seed in seeds:
        key = tuple(sorted(seed))
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


def clique_size_limit(max_size, r: int) -> int:
    """max_size as an int; InvalidConfig unless it is an integer, not a
    bool, above r+1.  A float such as 9.5 or NaN would never equal a
    clique's size, and growth would take every common neighbour."""
    size = checked_int(max_size, "max_size")
    if size <= r + 1:
        raise InvalidConfig(f"max_size must exceed r+1, got {size}")
    return size


def grow_cliques(family: CliqueFamily, max_size: int) -> None:
    """Greedily extend every clique of the family, up to max_size nodes, with
    nodes measured to all its members, by ascending node id.  max_size must
    be an integer above r+1 (``clique_size_limit``).

    The candidates of all cliques below max_size come from one sparse
    product per block of cliques (``_GROW_BLOCK``): their incidence rows S
    times the 0/1 adjacency A of the measured pairs, whose entry (c, v) is
    the number of clique c's members measured to v.  The entries that equal
    the clique's size are its common neighbours, and one greedy take
    (``PartialEDM.greedy_take``) extends every clique of the block from
    them in ascending id.
    """
    max_size = clique_size_limit(max_size, family.dim)
    pedm, n = family.pedm, family.pedm.n
    grown = [cid for cid in sorted(family.cliques) if len(family.cliques[cid]) < max_size]
    if not grown:
        return
    cliques = [family.cliques[cid] for cid in grown]
    size = np.fromiter(map(len, cliques), dtype=np.int64, count=len(cliques))
    ptr = np.concatenate([[0], np.cumsum(size)])
    members = np.fromiter(itertools.chain.from_iterable(cliques), dtype=np.int64, count=ptr[-1])
    # no node is in its own row, so the members count below the size.  A
    # shares the pair arrays, and the counts take the smallest integer
    # type that holds max_size
    count = np.min_scalar_type(-max_size)
    adj = csr_array((np.ones(pedm.indices.size, dtype=count), pedm.indices, pedm.indptr),
                    shape=(n, n), copy=False)
    # the product's terms up to each clique: the entries of its members' rows
    terms = np.cumsum(np.add.reduceat(np.diff(pedm.indptr)[members], ptr[:-1]))
    lo = 0
    while lo < len(grown):
        done = terms[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(terms, done + _GROW_BLOCK, side="right")))
        inc = csr_array((np.ones(ptr[hi] - ptr[lo], dtype=count), members[ptr[lo]:ptr[hi]],
                         ptr[lo:hi + 1] - ptr[lo]), shape=(hi - lo, n))
        common = inc @ adj
        hit = np.flatnonzero(common.data == np.repeat(size[lo:hi].astype(count),
                                                      np.diff(common.indptr)))
        row = np.searchsorted(common.indptr, hit, side="right") - 1
        # the product leaves a row's entries in no order; the candidates go
        # to the take by clique, ascending
        key = np.sort(row * n + common.indices[hit])
        owner, taken = pedm.greedy_take(*np.divmod(key, n), max_size - size[lo:hi])
        for c, j in zip((owner + lo).tolist(), taken.tolist()):
            cliques[c].add(j)
            family.membership[j].add(grown[c])
        lo = hi


# -- the merge kernels, their commit, and the four reduction steps --------

# the errors with which a merge declines: a degenerate face, a rank loss or
# range mismatch of the common blocks, no measured full-dimensional seed
# clique, no real or no unique branch; each step catches them once
_DECLINED = (IntersectionRankLoss, RangeMismatch, RankDeficient, NoRigidSeed, NoRealBranch,
             NoUniqueBranch)


def _commit(family: CliqueFamily, i: int, face, new_nodes, step: str, dead=None) -> bool:
    """Grow clique i by new_nodes under the merged face, remove a united
    clique ``dead`` into i, and count the step; returns True."""
    family.cliques[i].update(new_nodes)
    family.faces[i] = face
    if dead is None:
        for u in new_nodes:
            family.membership[u].add(i)
    else:
        family._kill_into(dead, i)
    family.step_counts[step] += 1
    return True


def _pick_delta(comp, beta: list, r: int, tol: Tolerances):
    """Choose a small full-dimensional subset delta containing beta.

    Extra nodes are picked greedily, each maximizing its minimum squared
    distance to the nodes already chosen (ties to the smaller id), until the
    subset's Gram matrix has rank r; about r+2 extras are targeted when the
    clique has that many to spare.  Returns (sorted delta, its dense
    squared-distance matrix); raises RankDeficient when no such subset is
    found.
    """
    beta_set = set(beta)
    mask = np.array([int(u) not in beta_set for u in comp.nodes])
    others = comp.nodes[mask].astype(int)
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
        vals, _ = eigh_descending(X @ X.T)
        if significant_rank(vals, tol.rank) == r:
            D = ((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=2)
            return delta, D
    raise RankDeficient(f"no subset of rank {r} holds beta")


def _measured_edges(nodes, pedm):
    """(row, row, squared distance) of every measured pair among ``nodes``,
    rows indexing ``nodes``, as three arrays."""
    nodes = np.asarray(nodes, dtype=np.int64)
    rows_a, nbrs, known = pedm.gather(nodes)
    order = np.argsort(nodes)
    pos = np.minimum(np.searchsorted(nodes, nbrs, sorter=order), nodes.size - 1)
    rows_b = order[pos]
    hit = (nodes[rows_b] == nbrs) & (nbrs > nodes[rows_a])
    return rows_a[hit], rows_b[hit], known[hit]


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
        # all pairs, in row blocks of about 2^18 pairs; only the pairs that come
        # out too close need the pair lookup
        step = max(1, (1 << 18) // max(k, 1))
        for start in range(0, k, step):
            diff = coords[start : start + step, None, :] - coords[None, :, :]
            a_idx, b_idx = np.nonzero(np.vecdot(diff, diff) < R2 - slack)
            a_idx += start
            upper = b_idx > a_idx
            if not pedm.lookup(nodes[a_idx[upper]], nodes[b_idx[upper]])[0].all():
                return False
    return True


def _singular_merge(family: CliqueFamily, i: int, f2, beta: list, partner_delta, tol: Tolerances):
    """Singular kernel: the face of clique i merged with partner face f2
    across the r shared nodes beta when exactly one branch is feasible;
    raises NoUniqueBranch when not.  ``partner_delta()`` gives the
    partner's (delta, squared distances); it runs only after the
    intersection and clique i's delta exist.
    """
    pedm = family.pedm
    f1 = family.face_of(i, tol)
    ext = intersect_faces_nonrigid(f1, f2, tol)
    delta1, d1 = _pick_delta(frame_points(f1, pedm, tol), beta, family.dim, tol)
    delta2, d2 = partner_delta()
    cands = two_completions(ext, pedm, delta1, delta2, tol, d1=d1, d2=d2)
    # both candidates carry ext.nodes, in the same row order
    edges = _measured_edges(ext.nodes, pedm)
    feasible = [c for c in cands if _is_feasible(c, pedm, tol, edges)]
    if len(feasible) != 1:
        raise NoUniqueBranch(f"{len(feasible)} of {len(cands)} candidates are feasible")
    return face_from_points(ext.nodes, feasible[0].coords, tol)


def _live_pair(family: CliqueFamily, i: int, j: int):
    """The node sets of two distinct live cliques, or None."""
    cliques = family.cliques
    if i == j or i not in cliques or j not in cliques:
        return None
    return cliques[i], cliques[j]


def _cross_edges(pedm, Ci, Cj) -> int:
    """Measured edges between Cj minus Ci and Ci minus Cj (cross edges); scans
    the rows of the smaller clique's private nodes."""
    if len(Cj) > len(Ci):
        Ci, Cj = Cj, Ci
    return sum(1 for u in Cj if u not in Ci
               for v in pedm.row(u) if v in Ci and v not in Cj)


def _neighbors_in(family: CliqueFamily, i: int, j: int):
    """Sorted neighbors of node j in live clique i, or None when i is not
    live or holds j."""
    Ci = family.cliques.get(i)
    if Ci is None or j in Ci:
        return None
    return [u for u in family.pedm.row(j) if u in Ci]


def _mixed_submatrix(family: CliqueFamily, cid: int, nodes: list, tol: Tolerances):
    """Dense squared distances over ``nodes``: measured entries where known,
    synthesized from clique cid's stored rows and frame Gram otherwise.

    Every missing pair must lie inside clique cid, as it does for the
    temporary clique of a node measured to all of beta.  Synthesized values
    are ephemeral; they are never written back into the measured data.
    Raises as ``face_of`` and ``frame_gram`` do when the clique's face is
    degenerate or holds no measured full-dimensional seed clique.
    """
    ids = np.asarray(nodes, dtype=np.int64)
    known, D = family.pedm.lookup(ids[:, None], ids[None, :])
    # a node is not its own neighbour, and a measured distance is finite:
    # NaN marks the diagonal and the missing pairs
    D[~known] = math.nan
    np.fill_diagonal(D, 0.0)
    a, b = np.nonzero(np.isnan(D))
    if a.size:
        upper = a < b
        a, b = a[upper].tolist(), b[upper].tolist()
        face = family.face_of(cid, tol)
        Z = frame_gram(face, family.pedm, tol)
        diff = face.stored_rows([nodes[x] for x in a]) - face.stored_rows([nodes[x] for x in b])
        D[a, b] = D[b, a] = np.vecdot(diff @ Z, diff)
    return D


def _temp_clique(family: CliqueFamily, i: int, nodes: list, tol: Tolerances):
    """Squared distances and face (``clique_parts``) of the temporary clique
    ``nodes``; raises as ``_mixed_submatrix`` does, or RankDeficient when
    its Gram has rank below r."""
    D = _mixed_submatrix(family, i, nodes, tol)
    return D, clique_parts(nodes, D, family.dim, tol)


def rigid_clique_union(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Merge cliques i and j when their overlap spans full dimension.

    On success the union keeps id i, j is removed, and i's face becomes the
    intersection of the two faces.  Any failure (degenerate overlap,
    mismatched subspaces, degenerate face), or an id that is not live,
    leaves the family untouched.
    """
    pair = _live_pair(family, i, j)
    # a rigid overlap has at least r+1 nodes, so Cj has too
    if pair is None or len(pair[1]) <= family.dim:
        return False
    Ci, Cj = pair
    if Cj <= Ci:
        # Cj adds no nodes, as the set comparison finds before any
        # intersection is built; keep i's face untouched
        family._kill_into(j, i)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    common = Ci & Cj
    if len(common) <= family.dim:
        return False
    if len(common) == len(Ci):
        # i is contained in j: take j's node set and face record, as it is
        Ci.update(Cj)
        family.faces[i] = family._record(j, tol)
        family._kill_into(j, i)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    try:
        merged = intersect_faces_rigid(family.face_of(i, tol), family.face_of(j, tol), tol)
    except _DECLINED:
        return False
    return _commit(family, i, merged, Cj, STEP_RIGID_UNION, dead=j)


def rigid_node_absorption(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Absorb node j into clique i when j is adjacent to >= r+1 of its nodes.

    The adjacent nodes plus j form a temporary clique (missing distances
    among them are synthesized from i's stored rows and frame Gram); its
    face, built in one pass as arrays with no FaceRep, is intersected with
    i's face by the tests and row map of a rigid union
    (``intersect_parts_rigid``).
    """
    beta = _neighbors_in(family, i, j)
    if beta is None or len(beta) < family.dim + 1:
        return False
    try:
        _, temp = _temp_clique(family, i, sorted(beta + [j]), tol)
        merged = intersect_parts_rigid(family.face_of(i, tol), temp, tol)
    except _DECLINED:
        return False
    return _commit(family, i, merged, [j], STEP_RIGID_ABSORB)


def nonrigid_clique_union(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Merge cliques sharing exactly r nodes, when the branch is unique.

    Builds the widened intersection face, computes the two candidate point
    sets, and commits only if exactly one reproduces all known distances
    among the union.  The committed face is rebuilt from the feasible points.
    Without the range bounds, a pair with no measured edge between
    Ci minus Cj and Cj minus Ci is declined before any face work.
    """
    pair = _live_pair(family, i, j)
    r = family.dim
    if pair is None:
        return False
    Ci, Cj = pair
    common = Ci & Cj
    if len(common) != r:
        return False
    # the two candidates differ only in the distances between the private
    # sides: without a measured one no data can decide (on noisy data an
    # accept would be a round-off coin flip), but the range bounds still can
    if not tol.use_range_bounds and not _cross_edges(family.pedm, Ci, Cj):
        return False
    beta = sorted(common)
    try:
        f2 = family.face_of(j, tol)
        merged = _singular_merge(
            family, i, f2, beta,
            lambda: _pick_delta(frame_points(f2, family.pedm, tol), beta, r, tol), tol,
        )
    except _DECLINED:
        return False
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
    try:
        # a beta of affine rank below r-1 leaves the temporary clique below
        # rank r, so _temp_clique declines it (as would the kernel's rank test)
        Dtemp, f2 = _temp_clique(family, i, temp_nodes, tol)
        merged = _singular_merge(family, i, f2, beta, lambda: (temp_nodes, Dtemp), tol)
    except _DECLINED:
        return False
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
    its current count, or None.  heap holds (-count, id) for the current
    count of every id above r, among older entries; counts only grow while
    an id is a candidate, so an entry that is not its id's current count,
    or that failed, never becomes valid again and is dropped."""
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
    try:
        grower = family.face_of(gid, tol)
    except RankDeficient:
        grower = None
    inside, failed, todo, parts, later = set(), [], [], [], set()
    # nodes outside clique gid that the wave's kernel partners so far hold,
    # and each kernel partner's
    held, fresh = set(), []
    for l, c in wave:
        Cl = family.cliques[l]
        if c == len(Cl):
            inside.add(l)
            continue
        new = Cl - Ci
        if held.issuperset(new):
            later.add(l)
        elif grower is None or (part := family.face_parts(l, tol)) is None:
            failed.append((l, c))
        else:
            todo.append((l, c))
            parts.append(part)
            fresh.append(new)
            held.update(new)
    new_nodes = set()
    if parts:
        face, accepted, defer = intersect_faces_wave(grower, parts, tol)
        for (l, c), a, d, new in zip(todo, accepted.tolist(), defer.tolist(), fresh):
            if a:
                inside.add(l)
                new_nodes.update(new)
            elif d:
                later.add(l)
            else:
                failed.append((l, c))
        if face is not None:
            Ci.update(new_nodes)
            for u in new_nodes:
                family.membership[u].add(gid)
            family.faces[gid] = face
    return ([l for l, _ in wave if l in inside], new_nodes, failed,
            [l for l, _ in wave if l in later])


def _outside_counts(pedm, Ci) -> dict:
    """Each node outside Ci that has a neighbour in Ci -> its number of
    neighbours in Ci, counted over the rows of Ci's nodes.

    A clique of at least a sixteenth of the nodes is counted in numpy, over
    a mask of all measured pairs, whose cost grows with the pairs: 1.3 ms
    for 7984 of 8004 nodes, where the Python count takes 25 ms.  A smaller
    one is counted in Python, at a cost in its own rows only."""
    if 16 * len(Ci) < pedm.n:
        return Counter(w for u in Ci for w in pedm.row(u) if w not in Ci)
    inside = np.zeros(pedm.n, dtype=bool)
    inside[np.fromiter(Ci, dtype=np.int64, count=len(Ci))] = True
    # the entries of Ci's rows whose neighbour lies outside Ci
    edge = np.repeat(inside, np.diff(pedm.indptr))
    edge &= ~inside[pedm.indices]
    ids, counts = np.unique(pedm.indices[edge], return_counts=True)
    return dict(zip(ids.tolist(), counts.tolist()))


def _exhaust_grower(family, gid, level, tol, trace) -> bool:
    """Apply every enabled step to clique gid until none applies.

    Within the grower's turn the step priority is exact: a union is always
    preferred over an absorption, and rigid steps over singular ones.  Only
    the grower mutates, so opportunities between other cliques are
    unaffected and get their turn later in the pass.
    """
    pedm = family.pedm
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

    def push(counts, heap, touched):
        # one entry per id a call counted, at its final count
        for l in touched:
            c = counts[l]
            if c > r:
                heapq.heappush(heap, (-c, l))

    def count_neighbors(nodes):
        touched = set()
        for u in nodes:
            acnt.pop(u, None)
            for w in pedm.row(u):
                if w not in Ci:
                    acnt[w] = acnt.get(w, 0) + 1
                    touched.add(w)
        push(acnt, heaps[True], touched)

    def register_nodes(nodes):
        touched = set()
        for u in nodes:
            for c in family.membership[u]:
                if c != gid:
                    cnt[c] = cnt.get(c, 0) + 1
                    touched.add(c)
        push(cnt, heaps[False], touched)
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
            x = cross[l] = _cross_edges(pedm, Ci, family.cliques[l])
        return x

    def record(step, l):
        if trace is not None:
            trace.write(f"step={step} i={gid} j={l} |C|={len(family.cliques)} "
                        f"positioned={family.positioned_count()}\n")

    def attempt(name, step, absorb, l, key) -> bool:
        counts = acnt if absorb else cnt
        Cl = {l} if absorb else family.cliques[l]
        # the step's new nodes, over the smaller side: a partner larger than
        # the grower is walked only once the union is accepted
        small = len(Cl) <= len(Ci)
        new_nodes = Cl - Ci if small else Ci.copy()
        if globals()[name](family, gid, l, tol):
            counts.pop(l, None)
            register_nodes(new_nodes if small else Cl - new_nodes)
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

    def start_counts(counts):
        nonlocal acnt
        acnt = counts
        # one entry per node at its current count, heapified at once
        heaps[True] = [(-k, w) for w, k in counts.items() if k > r]
        heapq.heapify(heaps[True])

    changed = False
    register_nodes(Ci)
    # a clique's nodes grow only in its own turns, so counts stored at the
    # size it still has are current
    size, stored = family.outside_counts.get(gid, (None, None))
    if size == len(Ci):
        start_counts(stored)
    while True:
        for name, step, absorb, singular in rows:
            if absorb and acnt is None:
                start_counts(_outside_counts(pedm, Ci))
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
            if acnt is not None:
                family.outside_counts[gid] = len(Ci), acnt
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

    Before the first pass, every clique without a face record gets one, in
    stacked calls (``CliqueFamily.build_seed_faces``); each face is bitwise
    what ``face_from_clique`` gives for the clique alone.

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
