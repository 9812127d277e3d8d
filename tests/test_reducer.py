import numpy as np
import pytest

from snloc.errors import InvalidConfig
from snloc.faces import Tolerances
from snloc.instance import (
    CliqueSeed,
    build_partial_edm,
    generate_instance,
    half_range_cliques,
)
from snloc.recovery import points_from_face
from snloc.reducer import (
    StepLevel,
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
)

TOL = Tolerances()
RNG = np.random.default_rng(4242)


def singleton_seeds(n):
    return [CliqueSeed(center=i, members=(i,)) for i in range(n)]


def family_for_points(P, seeds=None, m=0):
    pedm = complete_pedm(P, m=m)
    fam = init_family(pedm, seeds or singleton_seeds(len(P)), m)
    return pedm, fam


def test_init_family_singletons_no_anchors():
    P = RNG.random((3, 2))
    pedm, fam = family_for_points(P)
    assert len(fam.active) == 3
    assert fam.anchor_clique_id is None
    check_consistency(fam)


def test_init_family_anchor_clique():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P, m=3)
    fam = init_family(pedm, singleton_seeds(6), 3)
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
    fam = init_family(pedm, seeds, 0)
    # duplicate collapsed, nodes 2 and 3 get singleton cliques
    assert len(fam.active) == 3
    covered = set()
    for cid in fam.active:
        covered |= fam.cliques[cid]
    assert covered == {0, 1, 2, 3}


def test_grow_cliques_complete_graph():
    P = RNG.random((8, 2))
    pedm, fam = family_for_points(P)
    grow_cliques(fam, pedm, 5)
    assert all(len(fam.cliques[cid]) == 5 for cid in fam.active)
    check_consistency(fam)


def test_grow_cliques_no_edges():
    from snloc.instance import PartialEDM

    pedm = PartialEDM(n=4, m=0, dim=2, radio_range=1.0)
    fam = init_family(pedm, singleton_seeds(4), 0)
    grow_cliques(fam, pedm, 6)
    assert all(len(fam.cliques[cid]) == 1 for cid in fam.active)


def test_grow_cliques_produces_cliques():
    inst = generate_instance(60, 0, 2, seed=3, radio_range=0.4)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm), 0)
    grow_cliques(fam, pedm, 9)
    for cid in fam.active:
        nodes = sorted(fam.cliques[cid])
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                assert pedm.is_known(nodes[a], nodes[b])
    with pytest.raises(InvalidConfig):
        grow_cliques(fam, pedm, 3)


def test_rigid_union_merges_and_updates_state():
    P = RNG.random((5, 2)) * 0.4
    pedm = complete_pedm(P)
    seeds = [
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=4, members=(1, 2, 3, 4)),
    ]
    fam = init_family(pedm, seeds, 0)
    ids = sorted(fam.active)
    assert rigid_clique_union(fam, ids[0], ids[1], TOL)
    assert len(fam.active) == 1
    check_consistency(fam)
    survivor = fam.find(ids[1])
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
    fam = init_family(pedm, seeds[:1], 0)
    other = fam.add_clique((0, 1, 2, 3))
    first = next(iter(set(fam.active) - {other}))
    face_before = fam.face_of(first, TOL)
    assert rigid_clique_union(fam, first, other, TOL)
    assert fam.find(other) == first
    assert fam.faces[first] is face_before  # face untouched by subset merge


def test_rigid_union_rejects_collinear_overlap():
    P = np.array([[0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.1, 0.3], [0.3, -0.2]])
    pedm = complete_pedm(P)
    seeds = [
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=4, members=(0, 1, 2, 4)),
    ]
    fam = init_family(pedm, seeds, 0)
    ids = sorted(fam.active)
    before = {cid: set(fam.cliques[cid]) for cid in fam.active}
    assert not rigid_clique_union(fam, ids[0], ids[1], TOL)
    assert {cid: set(fam.cliques[cid]) for cid in fam.active} == before
    check_consistency(fam)


def test_rigid_absorption_positions_node():
    P = RNG.random((6, 2)) * 0.4
    # clique on 0..4, node 5 adjacent to three of them only
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(0, 5), (2, 5), (3, 5)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3, 4))], 0)
    cid = next(iter(fam.active))
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))], 0)
    cid = next(iter(fam.active))
    assert not rigid_node_absorption(fam, cid, 4, TOL)
    assert 4 not in fam.cliques[cid]


def test_rigid_absorption_synthesizes_missing_distances():
    # neighbors of the node are not pairwise measured inside the clique
    P = RNG.random((7, 2)) * 0.4
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    pairs.remove((1, 3))  # clique data still complete via seed below
    pairs += [(1, 6), (3, 6), (4, 6)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [CliqueSeed(center=0, members=tuple(range(6)))], 0)
    cid = next(iter(fam.active))
    # face building needs the full clique; (1,3) missing makes it fall back
    # to a measured sub-clique once faces are built from gram data
    from snloc.faces import face_from_gram
    from snloc.edm_core import kappa_pinv

    fam.faces[cid] = face_from_gram(
        np.arange(6), kappa_pinv(edm_of(P[:6])), 2, TOL
    )
    assert rigid_node_absorption(fam, cid, 6, TOL)
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-8


def butterfly_family(rng, cross=False):
    """Two 4-cliques sharing exactly two nodes, as a family."""
    while True:
        P = rng.random((6, 2)) * 0.5
        if np.linalg.norm(P[2] - P[3]) > 0.15:
            break
    n1, n2 = (0, 1, 2, 3), (2, 3, 4, 5)
    pairs = [(i, j) for nodes in (n1, n2) for i in nodes for j in nodes if i < j]
    if cross:
        pairs.append((0, 4))
    pedm = pedm_from_pairs(P, set(pairs))
    fam = init_family(
        pedm,
        [CliqueSeed(center=0, members=n1), CliqueSeed(center=4, members=n2)],
        0,
    )
    return P, pedm, fam


def test_nonrigid_union_resolves_with_cross_distance():
    P, pedm, fam = butterfly_family(RNG, cross=True)
    ids = sorted(fam.active)
    assert nonrigid_clique_union(fam, ids[0], ids[1], TOL)
    cid = fam.find(ids[0])
    assert fam.cliques[cid] == set(range(6))
    comp = points_from_face(fam.faces[cid], pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-7
    check_consistency(fam)


def test_nonrigid_union_rejects_ambiguous_butterfly():
    P, pedm, fam = butterfly_family(RNG, cross=False)
    ids = sorted(fam.active)
    assert not nonrigid_clique_union(fam, ids[0], ids[1], TOL)
    assert len(fam.active) == 2


def test_nonrigid_union_dispatch_requires_overlap_r():
    P = RNG.random((6, 2)) * 0.4
    pedm = complete_pedm(P)
    seeds = [
        CliqueSeed(center=0, members=(0, 1, 2, 3)),
        CliqueSeed(center=5, members=(1, 2, 3, 4, 5)),
    ]
    fam = init_family(pedm, seeds, 0)
    ids = sorted(fam.active)
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))], 0)
    cid = next(iter(fam.active))
    assert nonrigid_node_absorption(fam, cid, 4, tol_bounds)
    assert 4 in fam.cliques[cid]
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
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))], 0)
    cid = next(iter(fam.active))
    assert not nonrigid_node_absorption(fam, cid, 4, TOL)


def test_nonrigid_absorption_dispatch_rank():
    # three neighbors in the clique: rigid absorption territory
    P = RNG.random((5, 2)) * 0.4
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs += [(0, 4), (1, 4), (2, 4)]
    pedm = pedm_from_pairs(P, pairs)
    fam = init_family(pedm, [CliqueSeed(center=0, members=(0, 1, 2, 3))], 0)
    cid = next(iter(fam.active))
    # with the bounds on, the step gets past its early exit to the
    # neighbor-count check
    assert not nonrigid_node_absorption(fam, cid, 4, Tolerances(use_range_bounds=True))


def test_run_single_clique_fixed_point():
    P = RNG.random((6, 2))
    pedm = complete_pedm(P, m=3)
    fam = init_family(pedm, [CliqueSeed(center=0, members=tuple(range(6)))], 3)
    run(fam, pedm, level=StepLevel.L2, tol=TOL)
    # the seed clique contains everything: only the anchor clique can merge in
    assert len(fam.active) == 1
    assert fam.cliques[fam.find(fam.anchor_clique_id)] == set(range(6))


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
    fam = init_family(pedm, seeds, 0)
    run(fam, pedm, level=StepLevel.L1, tol=TOL)
    assert len(fam.active) == 1
    cid = next(iter(fam.active))
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
    fam = init_family(pedm, seeds, 0)
    run(fam, pedm, level=StepLevel.L4, tol=TOL)
    assert len(fam.active) == 2


def test_run_reaches_fixed_point_and_is_deterministic():
    inst = generate_instance(120, 4, 2, seed=9, radio_range=0.3)
    pedm = build_partial_edm(inst)

    def do_run():
        fam = init_family(pedm, half_range_cliques(pedm), 4)
        grow_cliques(fam, pedm, 9)
        run(fam, pedm, level=StepLevel.L2, tol=TOL)
        return fam

    fam1, fam2 = do_run(), do_run()
    counts_before = dict(fam1.step_counts)
    run(fam1, pedm, level=StepLevel.L2, tol=TOL)  # already at fixed point
    assert dict(fam1.step_counts) == counts_before
    sets1 = sorted(tuple(sorted(fam1.cliques[c])) for c in fam1.active)
    sets2 = sorted(tuple(sorted(fam2.cliques[c])) for c in fam2.active)
    assert sets1 == sets2
    check_consistency(fam1)


def test_run_soundness_known_distances_reproduced():
    inst = generate_instance(150, 4, 2, seed=31, radio_range=0.25)
    pedm = build_partial_edm(inst)
    fam = init_family(pedm, half_range_cliques(pedm), 4)
    grow_cliques(fam, pedm, 9)
    run(fam, pedm, level=StepLevel.L2, tol=TOL)
    cid = fam.find(fam.anchor_clique_id)
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
            fam = init_family(pedm, half_range_cliques(pedm), 4)
            grow_cliques(fam, pedm, 9)
            run(fam, pedm, level=level, tol=TOL)
            cid = fam.find(fam.anchor_clique_id)
            positioned[level] = set(fam.cliques[cid]) - set(pedm.anchor_block)
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
    fam = init_family(pedm, seeds, 0)
    big = next(iter(fam.active))
    small = fam.add_clique((1, 2, 3))
    face_before = fam.face_of(big, TOL)
    assert rigid_clique_union(fam, big, small, TOL)
    assert np.max(principal_angles(fam.faces[big].basis, face_before.basis)) <= 1e-12


GOLDEN_R = 0.04 * np.sqrt(2004 / 354)  # the Table 3 degree at n=354


@pytest.mark.parametrize(
    "n, m, R, level, tol, counts, positioned",
    [
        (354, 8, GOLDEN_R, StepLevel.L4, None,
         {"nonrigid_union": 3, "rigid_absorb": 74, "rigid_union": 259}, 291),
        # the only case here that exercises the fourth step end to end
        (354, 8, GOLDEN_R, StepLevel.L4, Tolerances(use_range_bounds=True),
         {"nonrigid_absorb": 8, "nonrigid_union": 9, "rigid_absorb": 70,
          "rigid_union": 262}, 317),
        (200, 4, 0.16, StepLevel.L1, None, {"rigid_union": 151}, 98),
        (200, 4, 0.16, StepLevel.L2, None,
         {"rigid_absorb": 19, "rigid_union": 160}, 196),
    ],
    ids=["L4", "L4-range-bounds", "L1", "L2"],
)
def test_golden_step_counts(n, m, R, level, tol, counts, positioned):
    # pins the reduction loop's step decisions: refactoring must move
    # neither the per-step counts nor the positioned totals
    inst = generate_instance(n, m, 2, seed=0, radio_range=R)
    pedm = build_partial_edm(inst)
    rep = localize(pedm, inst.anchors, level=level, tol=tol, truth=inst.points)
    assert rep.step_counts == counts
    assert len(rep.positioned) == positioned
