"""Clique bookkeeping and the reduction loop that grows them.

The solve state is a family of node sets ("cliques"), each carrying a lazily
computed face basis.  Four steps shrink the family or grow a clique, tried
in priority order:

  1. rigid clique union      -- two cliques sharing >= r+1 nodes
  2. rigid node absorption   -- a node adjacent to >= r+1 nodes of a clique
  3. singular clique union   -- two cliques sharing exactly r nodes
  4. singular node absorption-- a node adjacent to exactly r clique nodes

A node absorption is a union with the temporary clique of the node and its
neighbors beta in the clique, so each step is a thin front end that checks
its precondition and builds the partner face, over one of two kernels:
rigid (closed-form face intersection) or singular (two candidate
realizations, committed only when exactly one survives the feasibility test
against the known distances).  A singular absorption needs the range bounds
(``Tolerances.use_range_bounds``) to decide: the node's measured distances
into the union all go to beta, and both mirror placements keep them.

The loop processes cliques by ascending id.  The clique under consideration
(the "grower") keeps incremental overlap counters: cnt[l] is the number of
shared nodes with clique l, acnt[w] the number of grower nodes adjacent to
the outside node w, both updated as nodes arrive, so candidate search never
rescans the whole family.  One table gives the steps in priority order;
each scans cnt (unions) or acnt (absorptions) for an overlap >= r+1
(rigid) or exactly r (singular), by descending overlap, ties by ascending
id.  Failed attempts are remembered with the counter value they failed at
(singular steps: and the grower's size) and retried only after it changes.
Merged ids forward to their absorber through an alias table so membership
sets can be cleaned lazily.
"""

from __future__ import annotations

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
    Tolerances,
    face_from_clique,
    face_from_gram,
    face_from_points,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
)
from .recovery import points_from_face, two_completions

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
]


class StepLevel(IntEnum):
    """Which reduction steps are enabled; each level includes the previous."""

    L1 = 1  # rigid clique unions only
    L2 = 2  # + rigid node absorption
    L3 = 3  # + singular clique union
    L4 = 4  # + singular node absorption (decides only with range bounds)


_MISSING = object()

STEP_RIGID_UNION = "rigid_union"
STEP_RIGID_ABSORB = "rigid_absorb"
STEP_NONRIGID_UNION = "nonrigid_union"
STEP_NONRIGID_ABSORB = "nonrigid_absorb"


class CliqueFamily:
    """Mutable family of active cliques with lazy face representations."""

    def __init__(self, pedm):
        self.pedm = pedm
        self.dim = pedm.dim
        self.cliques: dict[int, set[int]] = {}
        self.faces: dict[int, FaceRep | None] = {}
        self.membership: list[set[int]] = [set() for _ in range(pedm.n)]
        self.alias: dict[int, int] = {}
        self.active: set[int] = set()
        self.anchor_clique_id: int | None = None
        self.step_counts: Counter = Counter()
        self._next_id = 0
        self._comp_cache: dict[int, tuple] = {}

    # -- id and membership management ------------------------------------

    def add_clique(self, nodes) -> int:
        cid = self._next_id
        self._next_id += 1
        nodes = set(int(u) for u in nodes)
        self.cliques[cid] = nodes
        self.active.add(cid)
        for u in nodes:
            self.membership[u].add(cid)
        return cid

    def find(self, cid: int) -> int:
        """Canonical id of a clique; merged ids forward to their absorber."""
        alias = self.alias
        root = cid
        while root in alias:
            root = alias[root]
        while cid != root:
            alias[cid], cid = root, alias[cid]
        return root

    def node_cliques(self, u: int) -> set[int]:
        """Active clique ids containing node u (cleans stale entries)."""
        ids = self.membership[u]
        if any(c in self.alias for c in ids):
            ids = {self.find(c) for c in ids}
            self.membership[u] = ids
        return ids

    def _kill_into(self, dead: int, survivor: int) -> None:
        self.alias[dead] = survivor
        self.active.discard(dead)
        self.cliques.pop(dead, None)
        self.faces.pop(dead, None)
        self._comp_cache.pop(dead, None)

    # -- lazy faces and point representations ----------------------------

    def face_of(self, cid: int, tol: Tolerances) -> FaceRep | None:
        """Face basis of a clique, computed on first use; None if degenerate."""
        cached = self.faces.get(cid, _MISSING)
        if cached is not _MISSING:
            return cached
        try:
            face = face_from_clique(self.pedm, self.cliques[cid], self.dim, tol)
        except (RankDeficient, NotAClique):
            face = None
        self.faces[cid] = face
        return face

    def completion_of(self, cid: int, tol: Tolerances):
        """Coordinates for a clique's nodes, cached per face object."""
        face = self.face_of(cid, tol)
        if face is None:
            return None
        cached = self._comp_cache.get(cid)
        if cached is not None and cached[0] is face:
            return cached[1]
        try:
            comp = points_from_face(face, self.pedm, tol)
        except (NoRigidSeed, RankDeficient):
            comp = None
        self._comp_cache[cid] = (face, comp)
        return comp

    def positioned_count(self) -> int:
        if self.anchor_clique_id is None:
            return 0
        cid = self.find(self.anchor_clique_id)
        if cid not in self.cliques:
            return 0
        return len(self.cliques[cid]) - self.pedm.m


def init_family(pedm, seeds, m: int) -> CliqueFamily:
    """Family from clique seeds, deduplicated, plus the anchor clique.

    Every node must be covered by some seed (singleton seeds are a valid
    fallback).  The m anchors form one additional clique; if a seed already
    equals the anchor set, that clique doubles as the anchor clique.
    """
    family = CliqueFamily(pedm)
    seen: dict[tuple, int] = {}
    covered = np.zeros(pedm.n, dtype=bool)
    for seed in seeds:
        key = tuple(sorted(seed.members))
        if key not in seen:
            seen[key] = family.add_clique(key)
        covered[list(key)] = True
    for u in np.flatnonzero(~covered):
        key = (int(u),)
        if key not in seen:
            seen[key] = family.add_clique(key)
    if m > 0:
        anchors = tuple(range(pedm.n - m, pedm.n))
        family.anchor_clique_id = seen.get(anchors)
        if family.anchor_clique_id is None:
            family.anchor_clique_id = family.add_clique(anchors)
    return family


def grow_cliques(family: CliqueFamily, pedm, max_size: int) -> None:
    """Greedily extend every clique with nodes adjacent to all its members."""
    if max_size <= family.dim + 1:
        raise InvalidConfig(f"max_size must exceed r+1, got {max_size}")
    for cid in sorted(family.active):
        nodes = family.cliques[cid]
        if len(nodes) >= max_size:
            continue
        base = min(nodes, key=lambda u: len(pedm.adj[u]))
        cand = set(pedm.adj[base]) - nodes
        for u in nodes:
            if u != base:
                cand &= pedm.adj[u].keys()
        while len(nodes) < max_size and cand:
            j = min(cand)
            nodes.add(j)
            family.membership[j].add(cid)
            cand.discard(j)
            cand &= pedm.adj[j].keys()


# -- the merge kernels, their commit, and the four reduction steps --------


def _commit(family: CliqueFamily, i: int, face, new_nodes, step: str, dead=None) -> bool:
    """Grow clique i by new_nodes under the merged face, forward a united
    clique ``dead`` to i, and count the step.  A None face is a rejected
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


def _is_feasible(comp, pedm, tol: Tolerances) -> bool:
    """Candidate coordinates must reproduce every known distance among the
    candidate's nodes; optionally, unknown pairs must stay out of range."""
    nodes = comp.nodes
    coords = comp.coords
    idx = {int(u): a for a, u in enumerate(nodes)}
    sigma = pedm.noise_factor
    for u, a in idx.items():
        pu = coords[a]
        for v, d2 in pedm.adj[u].items():
            if v > u and v in idx:
                diff = pu - coords[idx[v]]
                if abs(float(diff @ diff) - d2) > tol.feas_tol + 6.0 * sigma * d2:
                    return False
    if tol.use_range_bounds:
        R2 = pedm.radio_range ** 2
        slack = tol.feas_tol + 6.0 * sigma * R2
        k = nodes.size
        for a in range(k):
            u = int(nodes[a])
            row = pedm.adj[u]
            for b in range(a + 1, k):
                v = int(nodes[b])
                if v not in row:
                    diff = coords[a] - coords[b]
                    if float(diff @ diff) < R2 - slack:
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
    sel1 = _pick_delta(family.completion_of(i, tol), beta, family.dim, tol)
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
    feasible = [c for c in cands if _is_feasible(c, pedm, tol)]
    if len(feasible) != 1:
        return None
    try:
        return face_from_points(ext.nodes, feasible[0].coords, tol)
    except RankDeficient:
        return None


def _union_pair(family: CliqueFamily, i: int, j: int):
    """Canonical ids of two distinct active cliques and their common nodes."""
    i, j = family.find(i), family.find(j)
    if i == j or i not in family.active or j not in family.active:
        return None
    Ci, Cj = family.cliques[i], family.cliques[j]
    small, big = (Ci, Cj) if len(Ci) <= len(Cj) else (Cj, Ci)
    return i, j, [u for u in small if u in big]


def _neighbors_in(family: CliqueFamily, i: int, j: int):
    """Canonical id of clique i and node j's sorted neighbors in it, or None."""
    i = family.find(i)
    if i not in family.active or j in family.cliques[i]:
        return None
    Ci = family.cliques[i]
    return i, sorted(u for u in family.pedm.adj[j] if u in Ci)


def _mixed_submatrix(family: CliqueFamily, cid: int, nodes: list, tol: Tolerances):
    """Dense squared distances over ``nodes``: measured entries where known,
    synthesized from clique cid's point representation otherwise.

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
        comp = family.completion_of(cid, tol)
        if comp is None:
            return None
        inside = np.asarray(sorted(u for u in nodes if u in Ci))
        pos = dict(zip(inside.tolist(), comp.coords[comp.rows(inside)]))
        for a, b in missing:
            diff = pos[nodes[a]] - pos[nodes[b]]
            D[a, b] = D[b, a] = float(diff @ diff)
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

    On success the union keeps id i, j forwards to i, and i's face becomes
    the intersection of the two faces.  Any failure (degenerate overlap,
    mismatched subspaces, missing face) leaves the family untouched.
    """
    pair = _union_pair(family, i, j)
    if pair is None or len(pair[2]) < family.dim + 1:
        return False
    i, j, common = pair
    Ci, Cj = family.cliques[i], family.cliques[j]
    if len(common) == len(Cj):
        # Cj adds no nodes; keep i's face untouched
        family._kill_into(j, i)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    if len(common) == len(Ci):
        # i is contained in j: adopt j's node set and face state
        face_j = family.faces.pop(j, _MISSING)
        Ci.update(Cj)
        family._kill_into(j, i)
        if face_j is _MISSING:
            family.faces.pop(i, None)
        else:
            family.faces[i] = face_j
        family._comp_cache.pop(i, None)
        family.step_counts[STEP_RIGID_UNION] += 1
        return True
    merged = _rigid_merge(family, i, family.face_of(j, tol), tol)
    return _commit(family, i, merged, Cj, STEP_RIGID_UNION, dead=j)


def rigid_node_absorption(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Absorb node j into clique i when j is adjacent to >= r+1 of its nodes.

    The adjacent nodes plus j form a temporary clique (missing distances
    among them are synthesized from i's point representation); its face is
    intersected with i's face exactly like a rigid union.
    """
    found = _neighbors_in(family, i, j)
    if found is None or len(found[1]) < family.dim + 1:
        return False
    i, beta = found
    temp = _temp_face(family, i, sorted(beta + [j]), tol)
    merged = None if temp is None else _rigid_merge(family, i, temp[1], tol)
    return _commit(family, i, merged, [j], STEP_RIGID_ABSORB)


def nonrigid_clique_union(family: CliqueFamily, i: int, j: int, tol: Tolerances) -> bool:
    """Merge cliques sharing exactly r nodes, when the branch is unique.

    Builds the widened intersection face, computes the two candidate point
    sets, and commits only if exactly one reproduces all known distances
    among the union.  The committed face is rebuilt from the feasible points.
    """
    pair = _union_pair(family, i, j)
    r = family.dim
    if pair is None or len(pair[2]) != r:
        return False
    i, j, common = pair
    beta = sorted(common)
    merged = _singular_merge(
        family, i, family.face_of(j, tol), beta,
        lambda: _pick_delta(family.completion_of(j, tol), beta, r, tol), tol,
    )
    return _commit(family, i, merged, family.cliques[j], STEP_NONRIGID_UNION, dead=j)


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
    found = _neighbors_in(family, i, j)
    r = family.dim
    if found is None or len(found[1]) != r:
        return False
    i, beta = found
    temp_nodes = sorted(beta + [j])
    temp = _temp_face(family, i, temp_nodes, tol)
    if temp is None:
        return False
    Dtemp, f2 = temp
    bpos = [temp_nodes.index(u) for u in beta]
    Bbeta = kappa_pinv(Dtemp[np.ix_(bpos, bpos)])
    if significant_rank(eigh_descending(Bbeta).values, tol.rank) != r - 1:
        return False
    merged = _singular_merge(family, i, f2, beta, lambda: (temp_nodes, Dtemp), tol)
    return _commit(family, i, merged, [j], STEP_NONRIGID_ABSORB)


# -- the reduction loop -----------------------------------------------------

# (name, counter key, absorb, singular) in priority order; row k is enabled
# from level k+1.  Steps are looked up by name at call time, so that
# wrappers installed on this module see every call.
_STEPS = (
    ("rigid_clique_union", STEP_RIGID_UNION, False, False),
    ("rigid_node_absorption", STEP_RIGID_ABSORB, True, False),
    ("nonrigid_clique_union", STEP_NONRIGID_UNION, False, True),
    ("nonrigid_node_absorption", STEP_NONRIGID_ABSORB, True, True),
)


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
    cnt: dict[int, int] = {}
    for u in Ci:
        for c in family.node_cliques(u):
            if c != gid:
                cnt[c] = cnt.get(c, 0) + 1
    acnt: dict[int, int] | None = None
    # per row, partner -> key of its last failed attempt; singular keys add the
    # grower's size, as a larger grower can measure what tells branches apart
    failed = {(absorb, singular): {} for _, _, absorb, singular in _STEPS}
    changed = False

    def register_nodes(new_nodes):
        for u in new_nodes:
            for c in family.node_cliques(u):
                if c != gid:
                    cnt[c] = cnt.get(c, 0) + 1
            if acnt is not None:
                acnt.pop(u, None)
                for w in pedm.adj[u]:
                    if w not in Ci:
                        acnt[w] = acnt.get(w, 0) + 1

    while True:
        for name, step, absorb, singular in _STEPS[:level]:
            if absorb and acnt is None:
                acnt = {}
                for u in Ci:
                    for w in pedm.adj[u]:
                        if w not in Ci:
                            acnt[w] = acnt.get(w, 0) + 1
            tried = failed[absorb, singular]
            size = len(Ci)
            best = None
            for l, c in (acnt if absorb else cnt).items():
                if c == r if singular else c > r:
                    key = (c, size) if singular else c
                    if tried.get(l) != key and (best is None or (c, -l) > best[0]):
                        best = ((c, -l), l, key)
            if best is None:
                continue
            _, l, key = best
            new_nodes = [l] if absorb else [u for u in family.cliques[l] if u not in Ci]
            if globals()[name](family, gid, l, tol):
                failed[absorb, False].pop(l, None)
                failed[absorb, True].pop(l, None)
                if not absorb:
                    cnt.pop(l, None)
                register_nodes(new_nodes)
                changed = True
                if trace is not None:
                    trace.write(f"step={step} i={gid} j={l} |C|={len(family.active)} "
                                f"positioned={family.positioned_count()}\n")
            else:
                tried[l] = key
            break
        else:
            return changed


def _run_to_fixed_point(family, level, tol, trace) -> None:
    while True:
        changed = False
        for gid in sorted(family.active):
            if gid in family.alias or gid not in family.active:
                continue
            if _exhaust_grower(family, gid, level, tol, trace):
                changed = True
        if not changed:
            break


def run(
    family: CliqueFamily,
    pedm,
    level: StepLevel = StepLevel.L2,
    tol: Tolerances | None = None,
    trace=None,
) -> CliqueFamily:
    """Run enabled reduction steps to a fixed point.

    Passes over cliques by ascending id repeat until one full pass changes
    nothing.  Deterministic for a fixed family and data.  pedm must be the
    same data the family was built from.

    Merging runs in two phases.  The first defers merges whose common block
    is too ill conditioned (tol.invert_floor), which keeps the error of long
    merge chains near round-off.  A second phase with the conditioning guard
    disabled then picks up the deferred merges; by that point both sides are
    as large as they will get, so the amplified error cannot compound
    further.
    """
    if tol is None:
        tol = Tolerances.for_noise(pedm.noise_factor)
    level = StepLevel(level)
    _run_to_fixed_point(family, level, tol, trace)
    if tol.invert_floor > 0.0:
        from dataclasses import replace

        _run_to_fixed_point(family, level, replace(tol, invert_floor=0.0), trace)
    return family
