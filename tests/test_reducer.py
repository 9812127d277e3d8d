import contextlib
import hashlib
import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import snloc.faces as faces
from snloc import reducer, solver
from snloc.edm_core import RankTolerance, kappa_pinv
from snloc.errors import (
    IntersectionRankLoss,
    InvalidConfig,
    NoRealBranch,
    NoRigidSeed,
    NoUniqueBranch,
    RangeMismatch,
    RankDeficient,
)
from snloc.faces import (
    FaceRep,
    Tolerances,
    clique_parts,
    face_from_clique,
    intersect_faces_rigid,
    intersect_parts_rigid,
)
from snloc.instance import (
    PartialEDM,
    build_partial_edm,
    generate_instance,
    half_range_cliques,
)
from snloc.recovery import Completion, points_from_face
from snloc.reducer import (
    StepLevel,
    _is_feasible,
    _measured_edges,
    grow_cliques,
    init_family,
    nonrigid_clique_union,
    nonrigid_node_absorption,
    rigid_clique_union,
    rigid_node_absorption,
    run,
)
from snloc.solver import localize

from helpers import (
    adjacency,
    check_consistency,
    complete_pedm,
    edm_of,
    face_of_points,
    pedm_from_pairs,
    principal_angles,
    scalar_grow_cliques,
    scalar_known_distances_ok,
)

TOL = Tolerances()
RNG = np.random.default_rng(4242)


def singleton_seeds(n):
    return [(i,) for i in range(n)]


def family_for_points(P, seeds=None, m=0):
    pedm = complete_pedm(P, m=m)
    fam = init_family(pedm, seeds or singleton_seeds(len(P)))
    return pedm, fam


def test_init_family_singletons_no_anchors():
    P = RNG.random((3, 2))
    pedm, fam = family_for_points(P)
    assert len(fam.cliques) == 3
    assert fam.anchor_clique_id is None
    check_consistency(fam)


def test_init_family_anchor_clique():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P, m=3)
    fam = init_family(pedm, singleton_seeds(6))
    assert fam.anchor_clique_id is not None
    assert fam.cliques[fam.anchor_clique_id] == {3, 4, 5}
    check_consistency(fam)


def test_init_family_covers_uncovered_nodes_and_dedupes():
    P = RNG.random((4, 2))
    pedm = complete_pedm(P)
    seeds = [
        (0, 1),
        (0, 1),  # duplicate set
    ]
    fam = init_family(pedm, seeds)
    # duplicate collapsed, nodes 2 and 3 get singleton cliques
    assert len(fam.cliques) == 3
    covered = set()
    for cid in fam.cliques:
        covered |= fam.cliques[cid]
    assert covered == {0, 1, 2, 3}


def test_grow_cliques_complete_graph():
    P = RNG.random((8, 2))
    pedm, fam = family_for_points(P)
    grow_cliques(fam, 5)
    assert all(len(fam.cliques[cid]) == 5 for cid in fam.cliques)
    check_consistency(fam)


def test_grow_cliques_no_edges():
    from snloc.instance import PartialEDM

    pedm = PartialEDM(n=4, m=0, dim=2, radio_range=1.0)
    fam = init_family(pedm, singleton_seeds(4))
    grow_cliques(fam, 6)
    assert all(len(fam.cliques[cid]) == 1 for cid in fam.cliques)


def test_grow_cliques_produces_cliques():
    inst = generate_instance(60, 0, 2, seed=3, radio_range=0.4)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm))
    grow_cliques(fam, 9)
    for cid in fam.cliques:
        # NotAClique unless every pair is measured
        pedm.submatrix(sorted(fam.cliques[cid]))
    with pytest.raises(InvalidConfig):
        grow_cliques(fam, 3)


# exact L2 at the rigid-scaling degree, noisy-dense, the greedy-seeding
# instances (sigma 5e-2, whose half-range seeding takes the nearest-first
# path), r=3, and the Table 3 degree of L4-354
GROWTH_CASES = [(2004, 4, 2, 0.07, 0.0, 0), (2004, 4, 2, 0.08, 1e-4, 0),
                (300, 4, 2, 0.2, 5e-2, 0), (300, 4, 2, 0.2, 5e-2, 1), (300, 4, 2, 0.2, 5e-2, 2),
                (300, 6, 3, 0.22, 0.0, 0), (354, 8, 2, 0.095, 0.0, 0)]


@pytest.mark.parametrize("n, m, r, R, sigma, seed", GROWTH_CASES)
@pytest.mark.parametrize("size", ["r+2", 9, 40])
def test_grow_cliques_matches_the_per_clique_reference(n, m, r, R, sigma, seed, size):
    pedm = build_partial_edm(generate_instance(n, m, r, seed=seed, radio_range=R,
                                               noise_factor=sigma))
    size = r + 2 if size == "r+2" else size
    seeds = half_range_cliques(pedm)
    fam, ref = init_family(pedm, seeds), init_family(pedm, seeds)
    seeded = {cid: len(C) for cid, C in fam.cliques.items()}
    grow_cliques(fam, size)
    scalar_grow_cliques(ref, size)
    assert fam.cliques == ref.cliques
    assert fam.membership == ref.membership
    assert any(len(C) > seeded[cid] for cid, C in fam.cliques.items())


def test_grow_cliques_in_many_blocks_matches_the_reference(monkeypatch):
    takes = []

    def counted(self, owner, cand, room):
        takes.append(len(room))
        return take(self, owner, cand, room)

    take = PartialEDM.greedy_take
    monkeypatch.setattr(PartialEDM, "greedy_take", counted)
    monkeypatch.setattr(reducer, "_GROW_BLOCK", 500)
    pedm = build_partial_edm(generate_instance(2004, 4, 2, seed=0, radio_range=0.08,
                                               noise_factor=1e-4))
    seeds = half_range_cliques(pedm)
    fam, ref = init_family(pedm, seeds), init_family(pedm, seeds)
    takes.clear()
    grow_cliques(fam, 9)
    # a block holds about 500 row entries: a few cliques of ~8 members
    assert len(takes) > 100 and sum(takes) == sum(len(C) < 9 for C in ref.cliques.values())
    scalar_grow_cliques(ref, 9)
    assert fam.cliques == ref.cliques
    assert fam.membership == ref.membership
    check_consistency(fam)


def test_grow_cliques_counts_past_the_range_of_a_byte():
    # a clique of 300 nodes, node 300 measured to 44 of them (300 - 256) and
    # to node 301, which is measured to all 300: counts kept in 8 bits would
    # take node 300 as well
    P = RNG.random((302, 2))
    pairs = [(a, b) for a in range(300) for b in range(a + 1, 300)]
    pairs += [(a, 300) for a in range(44)] + [(a, 301) for a in range(300)] + [(300, 301)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [range(300)])
    grow_cliques(fam, 400)
    assert fam.cliques[0] == set(range(300)) | {301}
    ref = init_family(pedm, [range(300)])
    scalar_grow_cliques(ref, 400)
    assert fam.cliques == ref.cliques and fam.membership == ref.membership


@pytest.mark.parametrize("size", [9.5, float("nan"), 9.0, True, "9"])
def test_grow_cliques_rejects_a_size_that_is_not_an_integer(size):
    # 9.5 and NaN used to pass the > r+1 check and then never equal a
    # clique's size, so growth took every common neighbour: 99 cliques of
    # this instance grew past 9 nodes, and none do with 9
    inst = generate_instance(300, 4, 2, seed=0, radio_range=0.2)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm))
    with pytest.raises(InvalidConfig, match="max_size must be an integer"):
        grow_cliques(fam, size)
    seeded = {cid: len(C) for cid, C in fam.cliques.items()}
    grow_cliques(fam, np.int64(9))
    assert all(len(C) <= max(9, seeded[cid]) for cid, C in fam.cliques.items())
    assert any(len(C) == 9 > seeded[cid] for cid, C in fam.cliques.items())


def test_init_family_reads_unsorted_and_numpy_seeds_as_sorted_ones():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P)
    plain = init_family(pedm, [(0, 1, 2), (3, 4)])
    mixed = init_family(pedm, [(2, 0, 1), (1, 2, 0), tuple(np.array([4, 3]))])
    assert mixed.cliques == plain.cliques == {0: {0, 1, 2}, 1: {3, 4}, 2: {5}}
    assert all(type(u) is int for C in mixed.cliques.values() for u in C)
    assert mixed.membership == plain.membership


def test_rigid_union_merges_and_updates_state():
    P = RNG.random((5, 2)) * 0.4
    pedm = complete_pedm(P)
    seeds = [
        (0, 1, 2, 3),
        (1, 2, 3, 4),
    ]
    fam = init_family(pedm, seeds)
    ids = sorted(fam.cliques)
    assert rigid_clique_union(fam, ids[0], ids[1], TOL)
    assert len(fam.cliques) == 1
    check_consistency(fam)
    survivor = ids[0]
    assert fam.cliques[survivor] == {0, 1, 2, 3, 4}
    comp = points_from_face(fam.faces[survivor], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-9


def test_rigid_union_identical_cliques():
    P = RNG.random((4, 2))
    pedm = complete_pedm(P)
    seeds = [
        (0, 1, 2, 3),
        (0, 1, 2, 3),
    ]
    # dedupe already collapses identical sets; force two ids manually
    fam = init_family(pedm, seeds[:1])
    other = fam.add_clique((0, 1, 2, 3))
    first = next(iter(set(fam.cliques) - {other}))
    face_before = fam.face_of(first, TOL)
    assert rigid_clique_union(fam, first, other, TOL)
    assert set(fam.cliques) == {first}
    assert fam.faces[first] is face_before  # face untouched by subset merge
    check_consistency(fam)


def test_rigid_union_rejects_collinear_overlap():
    P = np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.1, 0.3], [0.3, -0.2]])
    pedm = complete_pedm(P)
    seeds = [
        (0, 1, 2, 3),
        (0, 1, 2, 4),
    ]
    fam = init_family(pedm, seeds)
    ids = sorted(fam.cliques)
    before = {cid: set(fam.cliques[cid]) for cid in fam.cliques}
    assert not rigid_clique_union(fam, ids[0], ids[1], TOL)
    assert {cid: set(fam.cliques[cid]) for cid in fam.cliques} == before
    check_consistency(fam)


def test_rigid_absorption_positions_node():
    P = RNG.random((6, 2)) * 0.4
    # clique on 0..4, node 5 adjacent to three of them only
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(0, 5), (2, 5), (3, 5)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [(0, 1, 2, 3, 4)])
    cid = next(iter(fam.cliques))
    assert rigid_node_absorption(fam, cid, 5, TOL)
    assert 5 in fam.cliques[cid]
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-9
    check_consistency(fam)
    # absorbing again is a no-op
    assert not rigid_node_absorption(fam, cid, 5, TOL)


def test_rigid_absorption_rejects_collinear_neighbors():
    P = np.array(
        [[0.0, 0.0], [0.3, 0.0], [0.6, 0.0], [0.2, 0.5], [0.31, 0.22]]
    )
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (1, 4), (2, 4)]  # collinear neighbor set {0,1,2}
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [(0, 1, 2, 3)])
    cid = next(iter(fam.cliques))
    assert not rigid_node_absorption(fam, cid, 4, TOL)
    assert 4 not in fam.cliques[cid]


def test_rigid_absorption_synthesizes_missing_distances():
    # neighbors of the node are not pairwise measured inside the clique
    P = RNG.random((7, 2)) * 0.4
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    pairs.remove((1, 3))  # clique data still complete via seed below
    pairs += [(1, 6), (3, 6), (4, 6)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [tuple(range(6))])
    cid = next(iter(fam.cliques))
    # face building needs the full clique; (1,3) missing makes it fall back
    # to a measured sub-clique once faces are built from gram data
    fam.faces[cid] = face_of_points(np.arange(6), P[:6], 2)
    assert rigid_node_absorption(fam, cid, 6, TOL)
    check_consistency(fam)
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-8


def butterfly_family(rng, cross=False, sigma=0.0):
    """Two 4-cliques sharing exactly two nodes, as a family; with sigma > 0
    the distances carry multiplicative noise."""
    while True:
        P = rng.random((6, 2)) * 0.5
        if np.linalg.norm(P[2] - P[3]) > 0.15:
            break
    n1, n2 = (0, 1, 2, 3), (2, 3, 4, 5)
    pairs = [(i, j) for nodes in (n1, n2) for i in nodes for j in nodes if i < j]
    if cross:
        pairs.append((0, 4))
    pedm = pedm_from_pairs(P, sorted(set(pairs)), sigma=sigma, rng=rng)
    fam = init_family(
        pedm,
        [n1, n2],
    )
    return P, pedm, fam


def test_nonrigid_union_resolves_with_cross_distance():
    P, pedm, fam = butterfly_family(RNG, cross=True)
    ids = sorted(fam.cliques)
    assert nonrigid_clique_union(fam, ids[0], ids[1], TOL)
    cid = ids[0]
    assert fam.cliques[cid] == set(range(6))
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-7
    check_consistency(fam)


def test_nonrigid_union_rejects_ambiguous_butterfly():
    P, pedm, fam = butterfly_family(RNG, cross=False)
    ids = sorted(fam.cliques)
    assert not nonrigid_clique_union(fam, ids[0], ids[1], TOL)
    assert len(fam.cliques) == 2


@pytest.mark.parametrize("seed", range(3))
def test_noisy_butterfly_declines_without_a_cross_edge(seed, monkeypatch):
    # without a measured cross distance both mirror candidates reproduce
    # every measured distance, with noisy residuals that differ only by
    # round-off, so an accept would be a coin flip: the step must decline
    # before any face work.  One cross edge decides.
    sigma = 1e-4
    tol = Tolerances.for_noise(sigma)
    intersect = reducer.intersect_faces_nonrigid
    calls = []

    def traced(*args):
        calls.append(args)
        return intersect(*args)

    monkeypatch.setattr(reducer, "intersect_faces_nonrigid", traced)
    _, _, fam = butterfly_family(np.random.default_rng(seed), cross=False, sigma=sigma)
    i, j = sorted(fam.cliques)
    assert not nonrigid_clique_union(fam, i, j, tol)
    assert not calls and len(fam.cliques) == 2

    P, pedm, fam = butterfly_family(np.random.default_rng(seed), cross=True, sigma=sigma)
    i, j = sorted(fam.cliques)
    assert nonrigid_clique_union(fam, i, j, tol)
    assert len(calls) == 1 and fam.cliques[i] == set(range(6))
    check_consistency(fam)
    comp = points_from_face(fam.faces[i], pedm, tol)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-4


def test_nonrigid_union_dispatch_requires_overlap_r():
    P = RNG.random((6, 2)) * 0.4
    pedm = complete_pedm(P)
    seeds = [
        (0, 1, 2, 3),
        (1, 2, 3, 4, 5),
    ]
    fam = init_family(pedm, seeds)
    ids = sorted(fam.cliques)
    # overlap is 3 = r+1: the singular path must decline
    assert not nonrigid_clique_union(fam, ids[0], ids[1], TOL)


def test_nonrigid_absorption_with_range_bounds():
    # node 4 has exactly two clique neighbors (0 and 2); its mirror image
    # across the 0-2 line lands within radio range of node 3, which it cannot
    # measure, so the lower-bound test rejects the reflection
    P = np.array(
        [
            [0.0, 0.0],
            [0.3, 1.0],
            [0.6, 0.0],
            [0.3, -0.5],
            [0.3, 0.35],
        ]
    )
    R = 0.6
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (2, 4)]
    pedm = pedm_from_pairs(P, pairs, radio_range=R)
    mirrored = P[4].copy()
    mirrored[1] = -mirrored[1]
    assert np.linalg.norm(mirrored - P[3]) < R  # bound discriminates
    assert np.linalg.norm(P[4] - P[3]) > R
    assert np.linalg.norm(P[4] - P[1]) > R  # true config satisfies all bounds
    tol_bounds = Tolerances(use_range_bounds=True)
    fam = init_family(pedm, [(0, 1, 2, 3)])
    cid = next(iter(fam.cliques))
    assert nonrigid_node_absorption(fam, cid, 4, tol_bounds)
    assert 4 in fam.cliques[cid]
    check_consistency(fam)
    comp = points_from_face(fam.faces[cid], pedm, tol_bounds)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-7


def test_nonrigid_absorption_ambiguous_without_bounds():
    P = np.array(
        [
            [0.0, 0.0],
            [0.45, 0.28],
            [0.9, 0.0],
            [0.45, -0.5],
            [0.45, 0.62],
        ]
    )
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (2, 4)]
    pedm = pedm_from_pairs(P, pairs, radio_range=0.72)
    fam = init_family(pedm, [(0, 1, 2, 3)])
    cid = next(iter(fam.cliques))
    assert not nonrigid_node_absorption(fam, cid, 4, TOL)


def test_nonrigid_absorption_dispatch_rank():
    # three neighbors in the clique: rigid absorption territory
    P = RNG.random((5, 2)) * 0.4
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (1, 4), (2, 4)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [(0, 1, 2, 3)])
    cid = next(iter(fam.cliques))
    # with the bounds on, the step gets past its early exit to the
    # neighbor-count check
    assert not nonrigid_node_absorption(fam, cid, 4, Tolerances(use_range_bounds=True))


def test_nonrigid_absorption_declines_a_collinear_beta():
    # r=3: node 5 measures only the collinear nodes 0, 1, 2, so it may sit
    # anywhere on a circle around their line.  The temporary clique of beta
    # and node 5 then spans only a plane, so the step must decline without
    # a test of beta's own rank
    P = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0],
                  [0.3, 0.6, 0.1], [0.6, 0.2, 0.7], [0.5, -0.3, -0.2]])
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(0, 5), (1, 5), (2, 5)]
    pedm = pedm_from_pairs(P, pairs, radio_range=0.5)
    fam = init_family(pedm, [(0, 1, 2, 3, 4)])
    cid = next(iter(fam.cliques))
    tol = Tolerances(use_range_bounds=True)
    with pytest.raises(RankDeficient):
        reducer._temp_clique(fam, cid, [0, 1, 2, 5], tol)
    assert not nonrigid_node_absorption(fam, cid, 5, tol)
    assert fam.cliques[cid] == {0, 1, 2, 3, 4}


def test_run_single_clique_fixed_point():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P, m=3)
    fam = init_family(pedm, [tuple(range(6))])
    run(fam, level=StepLevel.L2, tol=TOL)
    # the seed clique contains everything: only the anchor clique can merge in
    assert len(fam.cliques) == 1
    assert fam.cliques[fam.anchor_clique_id] == set(range(6))


def test_run_trilateration_chain():
    # overlapping 4-cliques along a strip, consecutive ones sharing 3 nodes
    rng = np.random.default_rng(77)
    n = 30
    P = np.column_stack([np.linspace(0.0, 3.0, n), rng.random(n) * 0.8])
    seeds = []
    for start in range(0, n - 3):
        seeds.append(tuple(range(start, start + 4)))
    pairs = {
        (i, j)
        for seed in seeds
        for i in seed
        for j in seed
        if i < j
    }
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, seeds)
    run(fam, level=StepLevel.L1, tol=TOL)
    assert len(fam.cliques) == 1
    cid = next(iter(fam.cliques))
    assert fam.cliques[cid] == set(range(n))
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-9
    check_consistency(fam)


def test_run_disconnected_component_stays_apart():
    rng = np.random.default_rng(5)
    left = rng.random((8, 2)) * 0.4
    right = rng.random((5, 2)) * 0.3 + np.array([5.0, 5.0])
    P = np.vstack([left, right])
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    pairs += [(i, j) for i in range(8, 13) for j in range(i + 1, 13)]
    pedm = pedm_from_pairs(P, pairs)
    seeds = [
        tuple(range(8)),
        tuple(range(8, 13)),
    ]
    fam = init_family(pedm, seeds)
    run(fam, level=StepLevel.L4, tol=TOL)
    assert len(fam.cliques) == 2


def test_run_reaches_fixed_point_and_is_deterministic():
    inst = generate_instance(120, 4, 2, seed=9, radio_range=0.3)
    pedm = build_partial_edm(inst)

    def do_run():
        fam = init_family(pedm, half_range_cliques(pedm))
        grow_cliques(fam, 9)
        run(fam, level=StepLevel.L2, tol=TOL)
        return fam

    fam1, fam2 = do_run(), do_run()
    counts_before = dict(fam1.step_counts)
    run(fam1, level=StepLevel.L2, tol=TOL)  # already at fixed point
    assert dict(fam1.step_counts) == counts_before
    sets1 = sorted(tuple(sorted(fam1.cliques[c])) for c in fam1.cliques)
    sets2 = sorted(tuple(sorted(fam2.cliques[c])) for c in fam2.cliques)
    assert sets1 == sets2
    check_consistency(fam1)


def test_run_soundness_known_distances_reproduced():
    inst = generate_instance(150, 4, 2, seed=31, radio_range=0.25)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm))
    grow_cliques(fam, 9)
    run(fam, level=StepLevel.L2, tol=TOL)
    cid = fam.anchor_clique_id
    face = fam.face_of(cid, TOL)
    comp = points_from_face(face, pedm, TOL)
    idx = {int(u): i for i, u in enumerate(comp.nodes)}
    adj = adjacency(pedm)
    for u in idx:
        for v, d2 in adj[u].items():
            if v > u and v in idx:
                diff = comp.coords[idx[u]] - comp.coords[idx[v]]
                assert abs(float(diff @ diff) - d2) <= 1e-9


def test_level_monotonicity():
    for seed in (0, 1, 2):
        inst = generate_instance(200, 4, 2, seed=seed, radio_range=0.16)
        pedm = build_partial_edm(inst)
        positioned = {}
        for level in (StepLevel.L1, StepLevel.L2, StepLevel.L3, StepLevel.L4):
            fam = init_family(pedm, half_range_cliques(pedm))
            grow_cliques(fam, 9)
            run(fam, level=level, tol=TOL)
            cid = fam.anchor_clique_id
            positioned[level] = set(fam.cliques[cid]) - set(range(pedm.n - pedm.m, pedm.n))
        for low, high in zip(
            (StepLevel.L1, StepLevel.L2, StepLevel.L3),
            (StepLevel.L2, StepLevel.L3, StepLevel.L4),
        ):
            if positioned[low] and positioned[high]:
                assert positioned[low] <= positioned[high]


def test_face_range_preserved_by_subset_merge():
    P = RNG.random((5, 2))
    pedm = complete_pedm(P)
    seeds = [(0, 1, 2, 3, 4)]
    fam = init_family(pedm, seeds)
    big = next(iter(fam.cliques))
    small = fam.add_clique((1, 2, 3))
    face_before = fam.face_of(big, TOL)
    assert rigid_clique_union(fam, big, small, TOL)
    check_consistency(fam)
    assert np.max(principal_angles(fam.faces[big].basis, face_before.basis)) <= 1e-12


def test_subset_union_hands_over_the_seed_face():
    # clique i is contained in clique j and neither face has been made into
    # a FaceRep yet: i takes j's node set, so it must take j's face record
    # too, as it is
    P = RNG.random((6, 2))
    pedm = complete_pedm(P)
    seeds = [(0, 1, 2, 3),
             (0, 1, 2, 3, 4, 5)]
    fam = init_family(pedm, seeds)
    i, j = sorted(fam.cliques)
    fam.build_seed_faces(TOL)
    assert fam.faces.keys() == {i, j}
    assert all(isinstance(fam.faces[c], tuple) for c in (i, j))
    record = fam.faces[j]
    assert rigid_clique_union(fam, i, j, TOL)
    assert set(fam.cliques) == {i} and fam.faces.keys() == {i}
    assert fam.faces[i] is record
    check_consistency(fam)
    want = face_from_clique(pedm, fam.cliques[i], 2, TOL)
    got = fam.face_of(i, TOL)
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.basis, want.basis)


def test_steps_decline_a_merged_id():
    # merged ids are not forwarded to their survivor: a step called with one
    # declines and leaves the family as it is.  Node 5 measures three nodes
    # of the union, so forwarding the dead id would absorb it
    P = RNG.random((6, 2)) * 0.4
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(0, 5), (1, 5), (2, 5)]
    pedm = pedm_from_pairs(P, pairs)
    seeds = [(0, 1, 2, 3),
             (1, 2, 3, 4)]
    fam = init_family(pedm, seeds)
    i, j, single = sorted(fam.cliques)
    assert rigid_clique_union(fam, i, j, TOL)
    state = (fam.cliques.copy(), [set(ids) for ids in fam.membership], fam.faces.copy())
    bounds = Tolerances(use_range_bounds=True)
    assert not rigid_clique_union(fam, i, j, TOL)
    assert not rigid_clique_union(fam, j, single, TOL)
    assert not rigid_node_absorption(fam, j, 5, TOL)
    assert not nonrigid_clique_union(fam, j, i, bounds)
    assert not nonrigid_node_absorption(fam, j, 5, bounds)
    assert fam.cliques == state[0] and fam.membership == state[1]
    assert fam.faces.keys() == state[2].keys()
    assert all(fam.faces[c] is face for c, face in state[2].items())
    assert fam.cliques[i] == {0, 1, 2, 3, 4}
    check_consistency(fam)
    assert rigid_node_absorption(fam, i, 5, TOL)


def _rigid_union_case():
    P = np.random.default_rng(11).random((5, 2))
    fam = init_family(complete_pedm(P), [(0, 1, 2, 3), (1, 2, 3, 4)])
    i, j = sorted(fam.cliques)
    return fam, i, j, TOL


def _rigid_absorption_case():
    # node 6 measures nodes 1, 3 and 4 of clique 0..5, whose pair (1, 3)
    # is synthesized through the frame Gram
    P = np.random.default_rng(12).random((7, 2)) * 0.4
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) != (1, 3)]
    pedm = pedm_from_pairs(P, pairs + [(1, 6), (3, 6), (4, 6)])
    fam = init_family(pedm, [tuple(range(6))])
    cid = next(c for c, nodes in fam.cliques.items() if 0 in nodes)
    fam.faces[cid] = face_of_points(np.arange(6), P[:6], 2)
    return fam, cid, 6, TOL


def _singular_union_case():
    _, _, fam = butterfly_family(np.random.default_rng(13), cross=True)
    i, j = sorted(fam.cliques)
    return fam, i, j, TOL


def _singular_absorption_case():
    # test_nonrigid_absorption_with_range_bounds without the measured pair
    # (0, 2) of beta, which is synthesized through the frame Gram
    P = np.array([[0.0, 0.0], [0.3, 1.0], [0.6, 0.0], [0.3, -0.5], [0.3, 0.35]])
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4) if (i, j) != (0, 2)]
    pedm = pedm_from_pairs(P, pairs + [(0, 4), (2, 4)], radio_range=0.6)
    fam = init_family(pedm, [(0, 1, 2, 3)])
    cid = next(c for c, nodes in fam.cliques.items() if 0 in nodes)
    fam.faces[cid] = face_of_points(np.arange(4), P[:4], 2)
    return fam, cid, 4, RANGE_BOUNDS


_DECLINE_CASES = {
    "rigid_clique_union": _rigid_union_case,
    "rigid_node_absorption": _rigid_absorption_case,
    "nonrigid_clique_union": _singular_union_case,
    "nonrigid_node_absorption": _singular_absorption_case,
}

# per step, each name it calls (a reducer global, or face_of) -> the errors
# with which the call declines
_KERNEL = (IntersectionRankLoss, RangeMismatch)
_FRAME = (NoRigidSeed, RankDeficient)
_SINGULAR = {"face_of": (RankDeficient,), "intersect_faces_nonrigid": _KERNEL,
             "frame_points": _FRAME, "_pick_delta": (RankDeficient,),
             "two_completions": (RankDeficient, NoRealBranch),
             "face_from_points": (RankDeficient,), "_singular_merge": (NoUniqueBranch,)}
_DECLINE_CALLS = {
    "rigid_clique_union": {"face_of": (RankDeficient,), "intersect_faces_rigid": _KERNEL},
    "rigid_node_absorption": {"face_of": (RankDeficient,), "frame_gram": _FRAME,
                              "clique_parts": (RankDeficient,), "intersect_parts_rigid": _KERNEL},
    "nonrigid_clique_union": _SINGULAR,
    "nonrigid_node_absorption": {"frame_gram": _FRAME, "clique_parts": (RankDeficient,),
                                 **_SINGULAR},
}


def _declining_case(step):
    """The step's case with every face record made a FaceRep, and a copy of
    the family's state."""
    fam, i, j, tol = _DECLINE_CASES[step]()
    fam.build_seed_faces(tol)
    for c, face in fam.faces.items():
        if face is not None:
            fam.face_of(c, tol)
    state = ({c: set(nodes) for c, nodes in fam.cliques.items()},
             [set(ids) for ids in fam.membership], dict(fam.faces), Counter(fam.step_counts))
    return fam, i, j, tol, state


def _same_state(fam, state):
    cliques, membership, faces, counts = state
    return (fam.cliques == cliques and fam.membership == membership
            and fam.faces.keys() == faces.keys()
            and all(fam.faces[c] is face for c, face in faces.items())
            and fam.step_counts == counts)


@pytest.mark.parametrize("step", list(_DECLINE_CASES))
def test_decline_cases_merge_as_they_stand(step):
    # each case's step accepts, so a decline below comes from the one call
    # made to raise
    fam, i, j, tol, state = _declining_case(step)
    assert getattr(reducer, step)(fam, i, j, tol) is True
    assert not _same_state(fam, state)
    check_consistency(fam)


@pytest.mark.parametrize(
    "step, name, error",
    [(step, name, error) for step, calls in _DECLINE_CALLS.items()
     for name, errors in calls.items() for error in errors],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_a_step_declines_at_its_one_site(step, name, error, monkeypatch):
    # whichever call of the step raises whichever decline, the step returns
    # False and leaves the cliques, membership, face records and counts
    fam, i, j, tol, state = _declining_case(step)
    raised = []

    def declining(*args, **kwargs):
        raised.append(name)
        raise error(f"{name} declines")

    monkeypatch.setattr(reducer.CliqueFamily if name == "face_of" else reducer, name, declining)
    assert getattr(reducer, step)(fam, i, j, tol) is False
    assert raised
    assert _same_state(fam, state)


@pytest.mark.parametrize("feasible", [True, False])
def test_singular_merge_raises_unless_one_branch_is_feasible(feasible, monkeypatch):
    fam, i, j, tol, state = _declining_case("nonrigid_clique_union")
    monkeypatch.setattr(reducer, "_is_feasible", lambda *args: feasible)
    beta = sorted(fam.cliques[i] & fam.cliques[j])
    partner = fam.face_of(j, tol)
    with pytest.raises(NoUniqueBranch):
        reducer._singular_merge(
            fam, i, partner, beta,
            lambda: reducer._pick_delta(reducer.frame_points(partner, fam.pedm, tol), beta, 2, tol),
            tol)
    assert not nonrigid_clique_union(fam, i, j, tol)
    assert _same_state(fam, state)


def test_face_of_a_degenerate_clique_raises_without_a_rebuild(monkeypatch):
    # the collinear clique's Gram has rank 1: its record is None, and
    # reading its face again builds nothing
    P = np.array([[0.0, 0.0], [0.1, 0.05], [0.3, 0.15], [0.4, 0.2]])
    fam = init_family(complete_pedm(P), [(0, 1, 2, 3)])
    (cid,) = fam.cliques
    built = []

    def counted(pedm, cliques, r, tol):
        built.append(len(cliques))
        return faces.clique_faces(pedm, cliques, r, tol)

    monkeypatch.setattr(reducer, "clique_faces", counted)
    monkeypatch.setattr(reducer, "face_from_clique", None)
    for _ in range(2):
        with pytest.raises(RankDeficient):
            fam.face_of(cid, TOL)
        assert fam.faces == {cid: None}
    assert fam.face_parts(cid, TOL) is None
    assert built == [1]


@pytest.mark.parametrize("level", [0, 5, True, 2.0])
def test_run_rejects_invalid_level(level):
    # used to raise numpy's bare "not a valid StepLevel" ValueError
    P = RNG.random((6, 2))
    pedm = complete_pedm(P)
    fam = init_family(pedm, singleton_seeds(6))
    with pytest.raises(InvalidConfig):
        run(fam, level=level, tol=TOL)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_is_feasible_matches_scalar_reference(sigma):
    # candidates near the tolerance: the true points of a node subset with
    # one node moved by a random step of 1e-6 to 1, so that some pass
    # and some fail; the subsets include ones without any measured pair
    inst = generate_instance(80, 0, 2, seed=17, radio_range=0.3, noise_factor=sigma)
    pedm = build_partial_edm(inst)
    tol = Tolerances.for_noise(sigma)
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(200):
        nodes = np.sort(rng.choice(80, size=int(rng.integers(1, 30)), replace=False))
        coords = inst.points[nodes].copy()
        coords[rng.integers(nodes.size)] += rng.standard_normal(2) * 10.0 ** rng.uniform(-6, 0)
        comp = Completion(nodes=nodes, coords=coords)
        got = _is_feasible(comp, pedm, tol)
        assert got == scalar_known_distances_ok(comp, pedm, tol)
        assert _is_feasible(comp, pedm, tol, _measured_edges(nodes, pedm)) == got
        outcomes.add(got)
    assert outcomes == {True, False}


GOLDEN_R = 0.04 * np.sqrt(2004 / 354)  # the Table 3 degree at n=354
RANGE_BOUNDS = Tolerances(use_range_bounds=True)


@pytest.mark.parametrize(
    "seed, n, m, r, R, level, tol, counts, positioned",
    [
        (0, 354, 8, 2, GOLDEN_R, StepLevel.L4, None,
         {"nonrigid_union": 3, "rigid_absorb": 74, "rigid_union": 259}, 291),
        # the only cases here that exercise the fourth step end to end
        (0, 354, 8, 2, GOLDEN_R, StepLevel.L4, RANGE_BOUNDS,
         {"nonrigid_absorb": 8, "nonrigid_union": 9, "rigid_absorb": 70,
          "rigid_union": 262}, 317),
        (1, 354, 8, 2, GOLDEN_R, StepLevel.L4, RANGE_BOUNDS,
         {"nonrigid_absorb": 6, "nonrigid_union": 7, "rigid_absorb": 79,
          "rigid_union": 277}, 338),
        (2, 354, 8, 2, GOLDEN_R, StepLevel.L4, RANGE_BOUNDS,
         {"nonrigid_absorb": 6, "nonrigid_union": 17, "rigid_absorb": 58,
          "rigid_union": 273}, 341),
        (3, 354, 8, 2, GOLDEN_R, StepLevel.L4, RANGE_BOUNDS,
         {"nonrigid_absorb": 4, "nonrigid_union": 12, "rigid_absorb": 74,
          "rigid_union": 266}, 331),
        # in three dimensions beta is a triangle, which the singular
        # kernel's rank test must find non-degenerate
        (0, 300, 6, 3, 0.22, StepLevel.L4, RANGE_BOUNDS,
         {"nonrigid_absorb": 11, "nonrigid_union": 10, "rigid_absorb": 129,
          "rigid_union": 201}, 262),
        (0, 200, 4, 2, 0.16, StepLevel.L1, None, {"rigid_union": 151}, 98),
        (0, 200, 4, 2, 0.16, StepLevel.L2, None,
         {"rigid_absorb": 19, "rigid_union": 160}, 196),
    ],
    ids=["L4", "L4-range-bounds", "L4-range-bounds-1", "L4-range-bounds-2",
         "L4-range-bounds-3", "r3-L4-range-bounds", "L1", "L2"],
)
def test_golden_step_counts(seed, n, m, r, R, level, tol, counts, positioned):
    # pins the reduction loop's step decisions: refactoring must move
    # neither the per-step counts nor the positioned totals
    inst = generate_instance(n, m, r, seed=seed, radio_range=R)
    pedm = build_partial_edm(inst)
    rep = localize(pedm, inst.anchors, level=level, tol=tol, truth=inst.points)
    assert rep.step_counts == counts
    assert len(rep.positioned) == positioned


def test_l4_without_range_bounds_runs_no_singular_absorption(monkeypatch):
    # the step declines by itself without the range bounds, so the loop must
    # not spend a turn on it (6495 calls on 30 singular-sparse instances)
    def refuse(*args):
        raise AssertionError("singular absorption called without range bounds")

    monkeypatch.setattr(reducer, "nonrigid_node_absorption", refuse)
    inst = generate_instance(354, 8, 2, seed=0, radio_range=GOLDEN_R)
    rep = localize(build_partial_edm(inst), inst.anchors, level=StepLevel.L4)
    assert rep.step_counts == {"nonrigid_union": 3, "rigid_absorb": 74, "rigid_union": 259}
    assert len(rep.positioned) == 291


def test_cross_edges_match_a_brute_force_count():
    inst = generate_instance(300, 4, 2, seed=5, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm))
    grow_cliques(fam, 9)
    run(fam, level=StepLevel.L2, tol=TOL)
    ids = sorted(fam.cliques)
    cliques = [fam.cliques[c] for c in ids]
    assert max(len(C) for C in cliques) > 30
    adj = adjacency(pedm)
    pairs = 0
    for Ci in cliques:
        for Cj in cliques:
            if Ci is Cj or not Ci & Cj:
                continue
            only_i, only_j = Ci - Cj, Cj - Ci
            want = sum(1 for u in only_i for v in only_j if v in adj[u])
            assert reducer._cross_edges(pedm, Ci, Cj) == want
            pairs += 1
    assert pairs > 100


@pytest.mark.parametrize("size", [10, 40, 260])
def test_outside_counts_match_a_brute_force_count(size):
    # a grower counted in Python (below a sixteenth of the nodes) and two
    # counted in numpy, of fewer and of more than half the nodes
    inst = generate_instance(300, 4, 2, seed=5, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
    adj = adjacency(pedm)
    order = np.argsort(inst.points[:, 0], kind="stable")
    Ci = set(order[:size].tolist())
    want = {}
    for w in range(pedm.n):
        c = sum(1 for u in Ci if w not in Ci and w in adj[u])
        if c:
            want[w] = c
    assert len(want) >= 15
    assert reducer._outside_counts(pedm, Ci) == want


@pytest.mark.parametrize(
    "n, m, R, level, positioned, reuses",
    [(354, 8, GOLDEN_R, StepLevel.L4, 291, 30), (200, 4, 0.16, StepLevel.L2, 196, 2)],
    ids=["L4-354", "L2-200"],
)
def test_stored_outside_counts_are_current_at_every_turn(n, m, R, level, positioned, reuses,
                                                         monkeypatch):
    # a turn starts from the counts its clique's last turn stored, when the
    # clique still has the size they were stored at; they must then be the
    # clique's counts now, and every turn must leave its counts current.
    # L2-200 ends in one clique, whose later turns (pass 2 and phase 2)
    # reuse its counts; L4-354 keeps 18 cliques that do
    inst = generate_instance(n, m, 2, seed=0, radio_range=R)
    turn = reducer._exhaust_grower
    reused = []

    def checked_turn(family, gid, *args):
        Ci = family.cliques[gid]
        size, counts = family.outside_counts.get(gid, (None, None))
        if size == len(Ci):
            assert counts == reducer._outside_counts(family.pedm, Ci)
            reused.append(gid)
        changed = turn(family, gid, *args)
        assert family.outside_counts[gid] == (len(Ci), reducer._outside_counts(family.pedm, Ci))
        check_consistency(family)
        return changed

    monkeypatch.setattr(reducer, "_exhaust_grower", checked_turn)
    rep = localize(build_partial_edm(inst), inst.anchors, level=level)
    assert len(rep.positioned) == positioned
    assert len(reused) >= reuses


def test_a_clique_grown_outside_its_turn_is_recounted(monkeypatch):
    # after a run to its fixed point every live clique has stored counts at
    # its size, so a second run recounts only the clique that a direct union
    # call grew in between; its stored counts would miss the new node
    inst = generate_instance(354, 8, 2, seed=0, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm))
    grow_cliques(fam, 9)
    run(fam, level=StepLevel.L2, tol=TOL)
    assert all(fam.outside_counts[cid][0] == len(C) for cid, C in fam.cliques.items())
    i = max(fam.cliques, key=lambda cid: len(fam.cliques[cid]))
    Ci = fam.cliques[i]
    counts = fam.outside_counts[i][1]
    w = max(counts, key=lambda v: (counts[v], -v))
    # a clique holding clique i and node w: clique i takes its nodes
    assert rigid_clique_union(fam, i, fam.add_clique(Ci | {w}), TOL)
    assert w in Ci
    count, recounted = reducer._outside_counts, []

    def counted(pedm, C):
        recounted.append(set(C))
        return count(pedm, C)

    monkeypatch.setattr(reducer, "_outside_counts", counted)
    run(fam, level=StepLevel.L2, tol=TOL)
    assert recounted == [Ci]
    assert fam.outside_counts[i] == (len(Ci), count(pedm, Ci))
    check_consistency(fam)


def test_singular_unions_reach_the_kernel_only_with_a_cross_edge(monkeypatch):
    # L4-354 (the first golden case) made 51 singular union attempts, 48 of
    # them without a measured edge between the two private sides, all failed
    inst = generate_instance(354, 8, 2, seed=0, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
    adj = adjacency(pedm)
    union, kernel = reducer.nonrigid_clique_union, reducer._singular_merge
    partner, cross = [], []

    def traced_union(family, i, j, tol):
        partner.append(j)
        try:
            return union(family, i, j, tol)
        finally:
            partner.pop()

    def traced_kernel(family, i, *args):
        if partner:
            Ci, Cj = family.cliques[i], family.cliques[partner[-1]]
            cross.append(sum(v in Ci and v not in Cj for u in Cj - Ci for v in adj[u]))
        return kernel(family, i, *args)

    monkeypatch.setattr(reducer, "nonrigid_clique_union", traced_union)
    monkeypatch.setattr(reducer, "_singular_merge", traced_kernel)
    rep = localize(pedm, inst.anchors, level=StepLevel.L4)
    assert rep.step_counts == {"nonrigid_union": 3, "rigid_absorb": 74, "rigid_union": 259}
    assert len(cross) == 3 and min(cross) > 0


@pytest.mark.parametrize(
    "n, m, R, level, digest, counts",
    [
        (200, 4, 0.16, StepLevel.L2, "e0cdbb95b450653b",
         {"rigid_absorb": 19, "rigid_union": 160}),
        (354, 8, GOLDEN_R, StepLevel.L4, "a8e18e358842572c",
         {"nonrigid_union": 3, "rigid_absorb": 74, "rigid_union": 259}),
        (2004, 4, 0.07, StepLevel.L2, "2e5ba920175df2bb", {"rigid_union": 1860}),
    ],
    ids=["L2-200", "L4-354", "L2-2004"],
)
def test_golden_merge_order(n, m, R, level, digest, counts, monkeypatch):
    # pins the order of accepted steps, partners included, through a digest
    # of the trace.  The range-bounds cases pin counts only: their order
    # turns on principal angles near range_tol, so round-off can swap two
    # absorptions without changing any count
    inst = generate_instance(n, m, 2, seed=0, radio_range=R)
    trace = io.StringIO()
    families = []

    def checked_run(family, **kwargs):
        families.append(family)
        return run(family, **kwargs)

    monkeypatch.setattr(solver, "run", checked_run)
    rep = localize(build_partial_edm(inst), inst.anchors, level=level, trace=trace)
    assert hashlib.sha256(trace.getvalue().encode()).hexdigest()[:16] == digest
    assert rep.step_counts == counts
    check_consistency(families[0])


def test_each_rigid_union_of_a_wave_is_one_step_call(monkeypatch):
    # a wave merges many partners in one kernel call, then removes each
    # through rigid_clique_union, so a wrapper of the step (as the bench
    # tracer installs) sees every union the report counts
    inst = generate_instance(2004, 4, 2, seed=0, radio_range=0.07)
    step, kernel = reducer.rigid_clique_union, reducer.intersect_faces_wave
    accepts, waves = [], []

    def counted_step(*args):
        ok = step(*args)
        accepts.append(ok)
        return ok

    def counted_kernel(*args):
        out = kernel(*args)
        waves.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(reducer, "rigid_clique_union", counted_step)
    monkeypatch.setattr(reducer, "intersect_faces_wave", counted_kernel)
    rep = localize(build_partial_edm(inst), inst.anchors, level=StepLevel.L2)
    assert rep.step_counts == {"rigid_union": 1860}
    assert sum(accepts) == rep.step_counts["rigid_union"]
    assert max(waves) > 1


@pytest.mark.parametrize(
    "n, m, r, R, sigma, level, tol",
    [(200, 4, 2, 0.16, 0.0, StepLevel.L2, None),
     (354, 8, 2, GOLDEN_R, 0.0, StepLevel.L4, None),
     (200, 4, 2, 0.16, 1e-3, StepLevel.L2, None),
     (300, 6, 3, 0.22, 0.0, StepLevel.L4, RANGE_BOUNDS)],
    ids=["L2-200", "L4-354", "noisy-L2-200", "r3-L4-range-bounds"],
)
def test_every_rigid_pick_is_the_largest_ready_count(n, m, r, R, sigma, level, tol,
                                                     monkeypatch):
    # the heaps get one entry per id a registering call counted, at its
    # final count; a pick must still be what a scan of the counters gives:
    # the largest (count, -id) among the ids above r that have not failed
    # at their count, and a wave every such id at >= 3/4 of the top count,
    # by count descending, then id
    def ready(counts, tried):
        return [(c, -l) for l, c in counts.items() if c > r and tried.get(l) != c]

    pick, pop_wave = reducer._heap_pick, reducer._pop_wave
    picks, waves = [], []

    def checked_pick(heap, counts, tried):
        got = pick(heap, counts, tried)
        best = max(ready(counts, tried), default=None)
        assert got == (None if best is None else (-best[1], best[0]))
        picks.append(got)
        return got

    def checked_wave(heap, counts, tried):
        entries = ready(counts, tried)
        floor = reducer._WAVE_FRACTION * max(entries)[0]
        want = [(-l, c) for c, l in sorted(entries, reverse=True) if c >= floor]
        got = pop_wave(heap, counts, tried)
        assert got == want
        waves.append(len(got))
        return got

    monkeypatch.setattr(reducer, "_heap_pick", checked_pick)
    monkeypatch.setattr(reducer, "_pop_wave", checked_wave)
    inst = generate_instance(n, m, r, seed=0, radio_range=R, noise_factor=sigma)
    rep = localize(build_partial_edm(inst), inst.anchors, level=level, tol=tol)
    assert rep.positioned
    assert sum(p is not None for p in picks) >= 50 and max(waves) > 1


def test_noisy_dense_rmsd_stays_near_the_one_at_a_time_chain():
    # the noisy-dense benchmark instances of seed 0, passes 0-2, seeded as
    # bench/snlbench/workloads.py seeds them: merging one partner at a time
    # gave a mean RMSD of 5.8e-4, waves down to three quarters of the top
    # overlap 6.2e-4, and waves down to half 1.6e-3
    seeds = [int(np.random.SeedSequence([0, p, 0]).generate_state(1, np.uint64)[0])
             for p in range(3)]
    rmsd = []
    for seed in seeds:
        inst = generate_instance(2004, 4, 2, seed=seed, radio_range=0.08, noise_factor=1e-4)
        rep = localize(build_partial_edm(inst), inst.anchors, level=StepLevel.L2,
                       truth=inst.points)
        assert len(rep.positioned) == 2000
        rmsd.append(rep.rmsd)
    assert np.mean(rmsd) <= 1e-3


def test_temp_clique_declines_a_pair_it_cannot_synthesize():
    # the pair (0, 1) of clique {0, 1, 2, 3} is not measured.  The clique's
    # rows cannot give it when the clique has no face, nor when its face
    # holds no measured triangle to fix the frame Gram: there is no
    # temporary clique; with every pair measured there is one
    P = RNG.random((6, 2))
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    seeds = [(0, 1, 2, 3)]
    fam = init_family(pedm_from_pairs(P, [p for p in pairs if p != (0, 1)]), seeds)
    cid = next(c for c, nodes in fam.cliques.items() if 0 in nodes)
    with pytest.raises(RankDeficient):
        reducer._temp_clique(fam, cid, [0, 1, 4], TOL)
    # the measured pairs inside the clique form the 4-cycle 0-2-1-3-0
    fam = init_family(pedm_from_pairs(P, [p for p in pairs if p not in {(0, 1), (2, 3)}]), seeds)
    cid = next(c for c, nodes in fam.cliques.items() if 0 in nodes)
    fam.faces[cid] = face_of_points(np.arange(4), P[:4], 2)
    with pytest.raises(NoRigidSeed):
        reducer._temp_clique(fam, cid, [0, 1, 4], TOL)
    fam = init_family(pedm_from_pairs(P, pairs), seeds)
    cid = next(c for c, nodes in fam.cliques.items() if 0 in nodes)
    D, (nodes, Q, W) = reducer._temp_clique(fam, cid, [0, 1, 4, 5], TOL)
    assert np.array_equal(nodes, [0, 1, 4, 5]) and Q.shape == (4, 2)
    assert np.allclose(D, edm_of(P[[0, 1, 4, 5]]), rtol=0, atol=1e-15)


def _declined_as_none(merge, *args):
    try:
        return merge(*args)
    except (RankDeficient, IntersectionRankLoss, RangeMismatch):
        return None


def _old_absorption_merge(face, nodes, D, tol):
    """A rigid absorption's merge as it was built before the one-pass path,
    kept as its oracle: the temporary clique's FaceRep from the top-r
    eigenvectors of kappa_pinv(D), made orthogonal to e by a QR, whose
    whitener the merge factors from its Gram, intersected by
    intersect_faces_rigid."""
    r = face.width - 1
    values, vectors = np.linalg.eigh(kappa_pinv(D))
    if not values[-r] > tol.rank.relative_cut * max(values[-1], np.finfo(float).eps):
        raise RankDeficient(f"clique Gram has rank below {r}")
    U = vectors[:, : -r - 1 : -1]
    temp = FaceRep(np.asarray(nodes), np.linalg.qr(U - U.mean(axis=0))[0])
    return intersect_faces_rigid(face, temp, tol)


def _one_pass_merge(face, nodes, D, tol):
    return intersect_parts_rigid(face, clique_parts(nodes, D, face.width - 1, tol), tol)


@contextlib.contextmanager
def _thresholds_moved(tol, factor):
    """tol, and the kernels' rank cut, with every threshold of a rigid merge
    moved by the given factor towards accepting (factor > 1) or declining
    (factor < 1)."""
    cut = faces._MIDDLE_CUT
    faces._MIDDLE_CUT = cut / factor
    try:
        yield replace(tol, range_tol=tol.range_tol * factor, invert_floor=tol.invert_floor / factor,
                      rank=RankTolerance(tol.rank.relative_cut / factor))
    finally:
        faces._MIDDLE_CUT = cut


def _row_in_frame(merged, face, j):
    """Node j's stored row in a merged face, carried into face's stored frame
    by the affine map that takes the merged face's rows of face's nodes onto
    face's own."""
    ids = face._store.ids[: face._size].tolist()
    A = np.column_stack([merged.stored_rows(ids), np.ones(len(ids))])
    T = np.linalg.lstsq(A, face.stored_rows(ids), rcond=None)[0]
    return np.append(merged.stored_rows([j])[0], 1.0) @ T


# the deciding quantities of a merge (the principal angle, above all, whose
# arccos near 1 loses about 2e-4 of it at range_tol) differ between the two
# routes by far less than 1e-3 relative: a decision that holds with every
# threshold moved 1% either way is decided by more than 10x round-off
_CLEAR_MARGIN = 1.01


@pytest.mark.parametrize(
    "n, m, R, level, kept",
    [(200, 4, 0.16, StepLevel.L2, 0), (354, 8, GOLDEN_R, StepLevel.L3, 1)],
    ids=["L2-200", "L3-354"],
)
def test_one_pass_absorption_matches_the_old_route(n, m, R, level, kept, monkeypatch):
    # at every rigid absorption of an exact solve, on the grower as it
    # stands: the one-pass merge makes the step's decision, and the old
    # route makes the same one wherever the decision is clear; where both
    # accept, node j's new row is the same in the grower's stored frame.
    # L3-354 has an absorption whose merge keeps the temporary clique's
    # rows, as the grower's common block is the better conditioned one
    inst = generate_instance(n, m, 2, seed=0, radio_range=R)
    step = reducer.rigid_node_absorption
    seen = Counter()

    def probed(family, i, j, tol):
        beta = reducer._neighbors_in(family, i, j)
        D = None
        declined = False
        if beta is not None and len(beta) > family.dim:
            nodes = sorted(beta + [j])
            try:
                face = family.face_of(i, tol)
                D = reducer._mixed_submatrix(family, i, nodes, tol)
            except reducer._DECLINED:
                # the step declines where its grower's face or the
                # temporary clique's distances do
                declined = True
        if D is not None:
            new = _declined_as_none(_one_pass_merge, face, nodes, D, tol)
            old = _declined_as_none(_old_absorption_merge, face, nodes, D, tol)
            moved = set()
            for factor in (1 / _CLEAR_MARGIN, _CLEAR_MARGIN):
                with _thresholds_moved(tol, factor) as t:
                    moved.add(_declined_as_none(_one_pass_merge, face, nodes, D, t) is None)
            if len(moved) == 1:
                assert (old is None) == (new is None)
                seen["clear"] += 1
            if old is not None and new is not None:
                assert np.max(np.abs(_row_in_frame(new, face, j) - _row_in_frame(old, face, j))) <= 1e-10
                seen["accepted"] += 1
                k = face._size
                seen["kept clique"] += not np.array_equal(new._store.ids[:k], face._store.ids[:k])
        ok = step(family, i, j, tol)
        if declined:
            assert not ok
        if D is not None:
            assert ok == (new is not None)
        seen["attempts"] += 1
        return ok

    monkeypatch.setattr(reducer, "rigid_node_absorption", probed)
    rep = localize(build_partial_edm(inst), inst.anchors, level=level)
    assert seen["attempts"] >= rep.step_counts["rigid_absorb"] >= 19
    assert seen["clear"] >= 0.9 * seen["attempts"]
    assert seen["accepted"] == rep.step_counts["rigid_absorb"]
    assert seen["kept clique"] >= kept
