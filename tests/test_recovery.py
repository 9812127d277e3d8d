import numpy as np
import pytest

from snloc.edm_core import full_rank_factor, kappa, kappa_pinv
from snloc.errors import DegenerateAnchors, EmptyPositioned, NoRigidSeed, RankDeficient
from snloc import reducer
from snloc.faces import Tolerances, intersect_faces_nonrigid
from snloc.instance import build_partial_edm, generate_instance
from snloc.recovery import (
    align_to_anchors,
    frame_gram,
    frame_points,
    metrics,
    points_from_face,
    solve_z,
    two_completions,
)
from snloc.reducer import StepLevel
from snloc.solver import localize

from helpers import NOGATE, complete_pedm, edm_of, face_of_points, two_random_cliques

TOL = Tolerances()
RNG = np.random.default_rng(555)


def make_butterfly(rng, cross_pair=False):
    """Two 4-cliques sharing 2 nodes; optionally one cross distance is known.

    Returns (points, pedm, face1, face2, nodes1, nodes2).
    """
    while True:
        P, n1, n2 = two_random_cliques(rng, r=2, shared=2, k1=4, k2=4)
        # keep the shared pair well separated for stable reflections
        shared = np.intersect1d(n1, n2)
        if np.linalg.norm(P[shared[0]] - P[shared[1]]) > 0.1:
            break
    pairs = {
        (int(i), int(j)) for nodes in (n1, n2) for i in nodes for j in nodes if i < j
    }
    if cross_pair:
        extra1 = int(np.setdiff1d(n1, n2)[0])
        extra2 = int(np.setdiff1d(n2, n1)[0])
        pairs.add((min(extra1, extra2), max(extra1, extra2)))
    from helpers import pedm_from_pairs

    partial = pedm_from_pairs(P, pairs)
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    return P, partial, f1, f2, n1, n2


def reflect_across_line(points, a, b):
    """Mirror points across the line through a and b (2-D oracle)."""
    d = (b - a) / np.linalg.norm(b - a)
    out = []
    for p in points:
        v = p - a
        out.append(a + 2.0 * (v @ d) * d - v)
    return np.array(out)


def test_solve_z_identity():
    P = RNG.random((5, 2))
    face = face_of_points(range(5), P, 2)
    # rows of the face on all nodes are orthonormal and centered, so B built
    # from them forces Z = I
    A = face.basis[:, :2]
    B = A @ A.T
    Z = solve_z(face, list(range(5)), B, TOL)
    assert np.allclose(Z, np.eye(2), atol=1e-10)


def test_solve_z_round_trip_full_clique():
    P = RNG.random((6, 2))
    D = edm_of(P)
    face = face_of_points(range(6), P, 2)
    B = kappa_pinv(D)
    Z = solve_z(face, list(range(6)), B, TOL)
    w, V = np.linalg.eigh(Z)
    coords = face.basis[:, :2] @ (V * np.sqrt(np.clip(w, 0, None))) @ V.T
    assert np.max(np.abs(kappa(coords @ coords.T) - D)) <= 1e-10


def test_solve_z_factored_path_matches_direct_formula():
    P = RNG.random((6, 2))
    D = edm_of(P)
    face = face_of_points(range(6), P, 2)
    beta = [1, 2, 4, 5]
    B = kappa_pinv(D[np.ix_(beta, beta)])
    Z = solve_z(face, beta, B, TOL)
    A = face.basis[face.rows(beta), :2]
    A = A - A.mean(axis=0)
    Z_direct = np.linalg.pinv(A) @ B @ np.linalg.pinv(A).T
    assert np.linalg.norm(Z - Z_direct) <= 1e-10 * np.linalg.norm(Z_direct)
    # positive definite and unique: A Z A^T reproduces B
    assert np.all(np.linalg.eigvalsh(Z) > 0)
    assert np.linalg.norm(A @ Z @ A.T - B) <= 1e-9 * np.linalg.norm(B)


def test_solve_z_rank_deficient_subset():
    P = RNG.random((6, 2))
    face = face_of_points(range(6), P, 2)
    with pytest.raises(RankDeficient):
        solve_z(face, [0, 1], np.zeros((2, 2)), TOL)


def test_points_from_face_full_completion():
    P = RNG.random((7, 2))
    pedm = complete_pedm(P)
    face = face_of_points(range(7), P, 2)
    comp = points_from_face(face, pedm, TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-9
    assert comp.gram_residual <= 1e-9


def test_points_from_face_simplex():
    P = RNG.random((3, 2))  # k = r + 1
    pedm = complete_pedm(P)
    face = face_of_points(range(3), P, 2)
    comp = points_from_face(face, pedm, TOL)
    # recovered up to rigid motion: centered Gram spectra agree
    def spectrum(X):
        Xc = X - X.mean(axis=0)
        return np.linalg.eigvalsh(Xc @ Xc.T)

    assert np.allclose(spectrum(comp.coords), spectrum(P), atol=1e-10)


def test_points_from_face_uses_definitional_formula():
    P = RNG.random((5, 2))
    pedm = complete_pedm(P)
    face = face_of_points(range(5), P, 2)
    comp = points_from_face(face, pedm, TOL, beta=list(range(5)))
    B = kappa_pinv(edm_of(P))
    Z = solve_z(face, list(range(5)), B, TOL)
    w, V = np.linalg.eigh(Z)
    expected = face.basis[:, :2] @ (V * np.sqrt(np.clip(w, 0, None))) @ V.T
    assert np.allclose(comp.coords, expected, atol=1e-12)


def test_points_from_face_no_rigid_seed():
    from snloc.instance import PartialEDM

    P = RNG.random((5, 2))
    empty = PartialEDM(n=5, m=0, dim=2, radio_range=1.0)
    face = face_of_points(range(5), P, 2)
    with pytest.raises(NoRigidSeed):
        points_from_face(face, empty, TOL)


def _frame_distances(face, Z):
    """Squared distances of every pair of face nodes from the frame Gram."""
    V = face.stored_rows()
    diff = V[:, None, :] - V[None, :, :]
    return np.einsum("abi,ij,abj->ab", diff, Z, diff)


def _frame_error(face, pedm, Z=None):
    """Largest difference between the frame Gram's squared distances and
    points_from_face's on the same face, relative to the largest one."""
    Z = frame_gram(face, pedm, TOL) if Z is None else Z
    want = edm_of(points_from_face(face, pedm, TOL).coords)
    return np.max(np.abs(_frame_distances(face, Z) - want)) / np.max(want)


def test_frame_gram_of_a_clique_face_gives_its_distances():
    P = RNG.random((9, 2))
    pedm = complete_pedm(P)
    face = face_of_points(range(9), P, 2)
    Z = frame_gram(face, pedm, TOL)
    assert frame_gram(face, pedm, TOL) is Z
    assert np.max(np.abs(_frame_distances(face, Z) - edm_of(P))) <= 1e-12
    comp = frame_points(face, pedm, TOL)
    assert np.array_equal(comp.nodes, np.arange(9))
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-12


def test_frame_gram_is_dropped_with_its_frame():
    # a chain of rigid merges on exact points: appended rows share the
    # grower's frame and keep its Z; the merge that reorthonormalizes
    # changes the frame and must not carry the old Z into it
    from snloc.faces import intersect_faces_rigid

    P = RNG.random((40, 2))
    pedm = complete_pedm(P)
    face = face_of_points(range(6), P[:6], 2)
    Z = frame_gram(face, pedm, TOL)
    reorthonormalized = carried = 0
    for start in range(3, 34, 3):
        nodes = np.arange(start, start + 6)
        grown = intersect_faces_rigid(face, face_of_points(nodes, P[nodes], 2), NOGATE)
        assert grown._store.ids[0] == 0  # the grower's rows were kept
        if grown._orth_size == grown._size:
            reorthonormalized += 1
            assert grown._zgram is None
        else:
            carried += 1
            assert grown._zgram is face._zgram
            Z = grown._zgram
            assert np.max(np.abs(_frame_distances(grown, Z) - edm_of(P[grown.nodes]))) <= 1e-10
        assert face._zgram is not None and face._size < grown._size
        assert _frame_error(grown, pedm) <= 1e-9
        face = grown
    assert reorthonormalized >= 2 and carried >= 2


def _solve_capturing_faces(monkeypatch, n, m, R, level):
    """Solve an exact r=2 instance (seed 0) and capture, for every merge the
    reducer makes, (kind, merged face, its frame Gram and its base face's,
    both as the merge left them); kind says whether the merge reorthonormalized, kept the
    partner's rows, or was a singular merge (built by face_from_points)."""
    inst = generate_instance(n, m, 2, seed=0, radio_range=R)
    pedm = build_partial_edm(inst)
    merges = []
    rigid, wave, points = (reducer.intersect_faces_rigid, reducer.intersect_faces_wave,
                           reducer.face_from_points)

    def record(out, grower, partner):
        kept = partner is not None and np.array_equal(
            out._store.ids[: partner._size], partner._store.ids[: partner._size])
        base = partner if kept else grower
        kind = ("reorthonormalized" if out._orth_size == out._size
                else "partner rows" if kept else "grower rows")
        merges.append((kind, out, out._zgram, base._zgram))

    def traced_rigid(F1, F2, tol):
        out = rigid(F1, F2, tol)
        record(out, F1, F2)
        return out

    def traced_wave(grower, parts, tol):
        out = wave(grower, parts, tol)
        if out[0] is not None:
            record(out[0], grower, None)
        return out

    def traced_points(nodes, P, tol):
        out = points(nodes, P, tol)
        merges.append(("singular", out, out._zgram, None))
        return out

    monkeypatch.setattr(reducer, "intersect_faces_rigid", traced_rigid)
    monkeypatch.setattr(reducer, "intersect_faces_wave", traced_wave)
    monkeypatch.setattr(reducer, "face_from_points", traced_points)
    localize(pedm, inst.anchors, level=level)
    return pedm, merges


@pytest.mark.parametrize(
    "n, m, R, level, kinds",
    [(200, 4, 0.16, StepLevel.L2, {"grower rows", "reorthonormalized"}),
     (354, 8, 0.04 * np.sqrt(2004 / 354), StepLevel.L4,
      {"grower rows", "reorthonormalized", "partner rows", "singular"})],
    ids=["L2-200", "L4-354"],
)
def test_frame_gram_distances_match_points_from_face(n, m, R, level, kinds, monkeypatch):
    pedm, merges = _solve_capturing_faces(monkeypatch, n, m, R, level)
    assert {kind for kind, *_ in merges} == kinds
    checked = 0
    for kind, face, z, base_z in merges:
        if face._size > 120:
            continue  # the pairwise check is quadratic; the small faces cover every kind
        # a Z is only ever read in the frame it was made in: the merged face
        # holds its base's Z when the merge kept the base's frame, none
        # when it made a new one
        if kind in ("reorthonormalized", "singular"):
            assert z is None
        else:
            assert z is base_z
        # the Z the solve read (or would have read) on this face
        assert _frame_error(face, pedm) <= 1e-9
        checked += 1
    assert checked >= 20


def test_two_completions_are_mirror_images():
    for _ in range(10):
        P, partial, f1, f2, n1, n2 = make_butterfly(RNG)
        ext = intersect_faces_nonrigid(f1, f2, TOL)
        shared = np.intersect1d(n1, n2)
        cands = two_completions(ext, partial, sorted(int(u) for u in n1), sorted(int(u) for u in n2), TOL)
        assert 1 <= len(cands) <= 2
        # oracle: true configuration, and side-2 reflected across the shared line
        reflected = P.copy()
        side2 = np.setdiff1d(n2, shared)
        reflected[side2] = reflect_across_line(P[side2], P[shared[0]], P[shared[1]])
        truth_edm = edm_of(P[ext.nodes])
        mirror_edm = edm_of(reflected[ext.nodes])
        got = [edm_of(c.coords) for c in cands]
        errs_truth = [np.max(np.abs(g - truth_edm)) for g in got]
        errs_mirror = [np.max(np.abs(g - mirror_edm)) for g in got]
        assert min(errs_truth) <= 1e-8
        if len(cands) == 2:
            assert min(errs_mirror) <= 1e-8


def test_two_completions_null_direction_identity():
    P, partial, f1, f2, n1, n2 = make_butterfly(RNG)
    ext = intersect_faces_nonrigid(f1, f2, TOL)
    t = ext.basis.shape[1] - 1
    ns = []
    for delta in (n1, n2):
        delta = np.sort(delta)
        A = ext.basis[ext.rows(delta), :t]
        A = A - A.mean(axis=0)
        ns.append((A, np.linalg.svd(A)[2][t - 1]))
    (A1, u1), (A2, u2) = ns
    dZ = np.outer(u1, u2) + np.outer(u2, u1)
    assert np.linalg.norm(A1 @ dZ @ A1.T) <= 1e-9
    assert np.linalg.norm(A2 @ dZ @ A2.T) <= 1e-9


def test_two_completions_reproduce_block_distances():
    P, partial, f1, f2, n1, n2 = make_butterfly(RNG)
    ext = intersect_faces_nonrigid(f1, f2, TOL)
    d1 = sorted(int(u) for u in n1)
    d2 = sorted(int(u) for u in n2)
    cands = two_completions(ext, partial, d1, d2, TOL)
    for comp in cands:
        got = edm_of(comp.coords)
        rows1 = comp.rows(np.asarray(d1))
        rows2 = comp.rows(np.asarray(d2))
        assert np.max(np.abs(got[np.ix_(rows1, rows1)] - edm_of(P[d1]))) <= 1e-8
        assert np.max(np.abs(got[np.ix_(rows2, rows2)] - edm_of(P[d2]))) <= 1e-8


def test_align_identity():
    P = RNG.random((6, 2))
    from snloc.recovery import Completion

    comp = Completion(nodes=np.arange(6), coords=P.copy())
    anchor_idx = np.array([2, 4, 5])
    out = align_to_anchors(comp, P[anchor_idx], anchor_idx)
    assert np.allclose(out.coords, P, atol=1e-12)


def test_align_inverts_rigid_motion():
    from snloc.recovery import Completion

    P = RNG.random((8, 2))
    theta = 1.1
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = P @ Q.T + np.array([3.0, -1.0])
    comp = Completion(nodes=np.arange(8), coords=moved)
    anchor_idx = np.array([0, 3, 6])
    out = align_to_anchors(comp, P[anchor_idx], anchor_idx)
    assert np.max(np.abs(out.coords - P)) <= 1e-10


def test_align_handles_reflection():
    from snloc.recovery import Completion

    P = RNG.random((8, 2))
    mirrored = P @ np.diag([-1.0, 1.0])
    comp = Completion(nodes=np.arange(8), coords=mirrored)
    anchor_idx = np.array([1, 2, 5, 7])
    out = align_to_anchors(comp, P[anchor_idx], anchor_idx)
    assert np.max(np.abs(out.coords - P)) <= 1e-10


def test_align_invariant_under_precomposed_motion():
    from snloc.recovery import Completion

    P = RNG.random((7, 2))
    anchor_idx = np.array([0, 2, 4])
    theta = 0.4
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    a = align_to_anchors(Completion(np.arange(7), P.copy()), P[anchor_idx], anchor_idx)
    b = align_to_anchors(
        Completion(np.arange(7), P @ Q.T + 0.7), P[anchor_idx], anchor_idx
    )
    assert np.max(np.abs(a.coords - b.coords)) <= 1e-10


def test_align_degenerate_anchor_geometry():
    from snloc.recovery import Completion

    P = RNG.random((5, 2))
    comp = Completion(nodes=np.arange(5), coords=P.copy())
    with pytest.raises(DegenerateAnchors):
        align_to_anchors(comp, P[:1], np.array([0]))


def test_metrics():
    truth = RNG.random((6, 2))
    positioned = {i: truth[i].copy() for i in range(4)}
    assert metrics(positioned, truth) == (0.0, 0.0)
    positioned = {0: truth[0] + np.array([3.0, 4.0])}
    max_err, rmsd = metrics(positioned, truth)
    assert max_err == pytest.approx(5.0)
    assert rmsd == pytest.approx(5.0)
    positioned = {i: truth[i] + RNG.standard_normal(2) * 0.01 for i in range(6)}
    max_err, rmsd = metrics(positioned, truth)
    assert rmsd <= max_err
    with pytest.raises(EmptyPositioned):
        metrics({}, truth)
