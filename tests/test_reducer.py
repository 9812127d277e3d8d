import hashlib
import io

import numpy as np
import pytest

from snloc import reducer, solver
from snloc.errors import InvalidConfig
from snloc.faces import Tolerances, face_from_clique
from snloc.instance import (
    CliqueSeed,
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
    check_consistency,
    complete_pedm,
    edm_of,
    pedm_from_pairs,
    principal_angles,
    scalar_known_distances_ok,
)

TOL = Tolerances()
RNG = np.random.default_rng(4242)


def singleton_seeds(n):
    return [CliqueSeed(center=i, members=(i,)) for i in range(n)]


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
        CliqueSeed(center=0, members=(0, 1)),
        CliqueSeed(center=1, members=(0, 1)),  # duplicate set
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
        nodes = sorted(fam.cliques[cid])
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                assert pedm.is_known(nodes[a], nodes[b])
    with pytest.raises(InvalidConfig):
        grow_cliques(fam, 3)


def test_rigid_union_merges_and_updates_state():
    P = RNG.random((5, 2)) * 0.4
    pedm = complete_pedm(P)
    seeds = [
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=4, members=(1, 2, 3, 4)),
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
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=1, members=(0, 1, 2, 3)),
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
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=4, members=(0, 1, 2, 4)),
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3, 4))])
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))])
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=tuple(range(6)))])
    cid = next(iter(fam.cliques))
    # face building needs the full clique; (1,3) missing makes it fall back
    # to a measured sub-clique once faces are built from gram data
    from snloc.faces import face_from_gram
    from snloc.edm_core import kappa_pinv

    fam.faces[cid] = face_from_gram(
        np.arange(6), kappa_pinv(edm_of(P[:6])), 2, TOL
    )
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
        [CliqueSeed(center=0, members=n1), CliqueSeed(center=4, members=n2)],
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
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=5, members=(1, 2, 3, 4, 5)),
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))])
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))])
    cid = next(iter(fam.cliques))
    assert not nonrigid_node_absorption(fam, cid, 4, TOL)


def test_nonrigid_absorption_dispatch_rank():
    # three neighbors in the clique: rigid absorption territory
    P = RNG.random((5, 2)) * 0.4
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (1, 4), (2, 4)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))])
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3, 4))])
    cid = next(iter(fam.cliques))
    tol = Tolerances(use_range_bounds=True)
    assert reducer._temp_face(fam, cid, [0, 1, 2, 5], tol) is None
    assert not nonrigid_node_absorption(fam, cid, 5, tol)
    assert fam.cliques[cid] == {0, 1, 2, 3, 4}


def test_run_single_clique_fixed_point():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P, m=3)
    fam = init_family(pedm, [CliqueSeed(center=0, members=tuple(range(6)))])
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
        seeds.append(CliqueSeed(center=start, members=tuple(range(start, start + 4))))
    pairs = {
        (i, j)
        for seed in seeds
        for i in seed.members
        for j in seed.members
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
        CliqueSeed(center=0, members=tuple(range(8))),
        CliqueSeed(center=8, members=tuple(range(8, 13))),
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
    for u in idx:
        for v, d2 in pedm.adj[u].items():
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
    seeds = [CliqueSeed(center=0, members=(0, 1, 2, 3, 4))]
    fam = init_family(pedm, seeds)
    big = next(iter(fam.cliques))
    small = fam.add_clique((1, 2, 3))
    face_before = fam.face_of(big, TOL)
    assert rigid_clique_union(fam, big, small, TOL)
    check_consistency(fam)
    assert np.max(principal_angles(fam.faces[big].basis, face_before.basis)) <= 1e-12


def test_subset_union_hands_over_the_seed_face():
    # clique i is contained in clique j and neither face has been made into
    # a FaceRep yet: i takes j's node set, so it must take j's seed face too
    P = RNG.random((6, 2))
    pedm = complete_pedm(P)
    seeds = [CliqueSeed(center=0, members=(0, 1, 2, 3)),
             CliqueSeed(center=5, members=(0, 1, 2, 3, 4, 5))]
    fam = init_family(pedm, seeds)
    i, j = sorted(fam.cliques)
    fam.build_seed_faces(TOL)
    assert set(fam.seed_faces) == {i, j} and not fam.faces
    assert rigid_clique_union(fam, i, j, TOL)
    assert set(fam.cliques) == {i} and j not in fam.seed_faces
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
    seeds = [CliqueSeed(center=0, members=(0, 1, 2, 3)),
             CliqueSeed(center=4, members=(1, 2, 3, 4))]
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


@pytest.mark.parametrize("level", [0, 5])
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
    pairs = 0
    for Ci in cliques:
        for Cj in cliques:
            if Ci is Cj or not Ci & Cj:
                continue
            only_i, only_j = Ci - Cj, Cj - Ci
            want = sum(1 for u in only_i for v in only_j if v in pedm.adj[u])
            assert reducer._cross_edges(pedm.adj, Ci, Cj) == want
            pairs += 1
    assert pairs > 100


@pytest.mark.parametrize("size", [40, 260])
def test_outside_counts_match_a_brute_force_count(size):
    # a grower of more than half the nodes is counted from the outside nodes'
    # adjacency, a smaller one from its own
    inst = generate_instance(300, 4, 2, seed=5, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
    order = np.argsort(inst.points[:, 0], kind="stable")
    Ci = set(order[:size].tolist())
    want = {}
    for w in range(pedm.n):
        c = sum(1 for u in Ci if w not in Ci and w in pedm.adj[u])
        if c:
            want[w] = c
    assert len(want) >= 15
    assert dict(reducer._outside_counts(pedm.adj, Ci)) == want


def test_singular_unions_reach_the_kernel_only_with_a_cross_edge(monkeypatch):
    # L4-354 (the first golden case) made 51 singular union attempts, 48 of
    # them without a measured edge between the two private sides, all failed
    inst = generate_instance(354, 8, 2, seed=0, radio_range=GOLDEN_R)
    pedm = build_partial_edm(inst)
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
            cross.append(sum(v in Ci and v not in Cj for u in Cj - Ci for v in pedm.adj[u]))
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
