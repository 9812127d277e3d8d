import numpy as np
import pytest

from snloc.edm_core import kappa, kappa_pinv
from snloc.errors import (
    IntersectionRankLoss,
    NotAClique,
    RangeMismatch,
    RankDeficient,
)
from snloc.faces import (
    Tolerances,
    face_from_clique,
    face_from_gram,
    face_from_points,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
)

from helpers import (
    NOGATE,
    complete_pedm,
    edm_of,
    face_of_points,
    padded_face_subspace,
    pedm_from_pairs,
    principal_angles,
    svd_subspace_intersection,
    two_random_cliques,
)

TOL = Tolerances()
RNG = np.random.default_rng(987)


def assert_face_invariants(face, k, width):
    assert face.nodes.size == k
    assert face.basis.shape == (k, width)
    gram = face.basis.T @ face.basis
    assert np.allclose(gram, np.eye(width), atol=1e-9)
    e = np.ones(k)
    assert np.linalg.norm(face.basis @ np.eye(width)[-1] - face.alpha * e) <= 1e-9 * np.sqrt(k)


def test_face_from_clique_collinear_r1():
    pts = np.array([[0.0], [1.0], [3.0]])
    pedm = complete_pedm(pts)
    face = face_from_clique(pedm, [0, 1, 2], 1, TOL)
    # oracle: center and normalize the coordinates
    centered = np.array([-4.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0])
    expected = centered / np.linalg.norm(centered)
    got = face.basis[:, 0]
    sign = np.sign(got @ expected)
    assert np.allclose(got * sign, expected, atol=1e-12)
    assert face.alpha == pytest.approx(1.0 / np.sqrt(3.0))
    assert_face_invariants(face, 3, 2)


def test_face_from_clique_singleton():
    pedm = complete_pedm(np.zeros((1, 2)))
    face = face_from_clique(pedm, [0], 2, TOL)
    assert np.array_equal(face.basis, [[1.0]])
    assert face.alpha == 1.0


def test_face_from_clique_generic_r2():
    P = RNG.random((4, 2))
    pedm = complete_pedm(P)
    face = face_from_clique(pedm, [0, 1, 2, 3], 2, TOL)
    assert_face_invariants(face, 4, 3)
    # oracle: some symmetric S reproduces the distances through the face
    D = edm_of(P)
    U = face.basis
    cols = []
    t = U.shape[1]
    for a in range(t):
        for b in range(a, t):
            E = np.zeros((t, t))
            E[a, b] = E[b, a] = 1.0
            cols.append(kappa(U @ E @ U.T).ravel())
    sol, *_ = np.linalg.lstsq(np.column_stack(cols), D.ravel(), rcond=None)
    residual = np.linalg.norm(np.column_stack(cols) @ sol - D.ravel())
    assert residual <= 1e-10 * np.linalg.norm(D)


def test_face_from_clique_errors():
    pts = np.array([[0.0, 0], [1, 0], [2, 0]])
    missing = pedm_from_pairs(pts, [(0, 1), (1, 2)])
    with pytest.raises(NotAClique):
        face_from_clique(missing, [0, 1, 2], 2, TOL)
    collinear = complete_pedm(pts)
    with pytest.raises(RankDeficient):
        face_from_clique(collinear, [0, 1, 2], 2, TOL)


def test_face_from_points_matches_gram_route():
    P = RNG.random((5, 2))
    f1 = face_of_points(range(5), P, 2)
    f2 = face_from_points(np.arange(5), P, TOL)
    assert np.max(principal_angles(f1.basis, f2.basis)) <= 1e-9


def test_rigid_idempotent_union():
    P = RNG.random((5, 2))
    f1 = face_of_points(range(5), P, 2)
    theta = 0.7
    Q = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    f2 = face_of_points(range(5), P, 2)
    f2.basis = f2.basis @ Q
    out = intersect_faces_rigid(f1, f2, TOL)
    assert out.nodes.size == 5
    assert np.max(principal_angles(out.basis, f1.basis)) <= 1e-9


def test_rigid_union_two_cliques_sharing_r_plus_1():
    # two 4-cliques sharing 3 generic nodes; the union face completes all
    # pairwise distances of the 5-node union
    P, n1, n2 = two_random_cliques(RNG, r=2, shared=3, k1=4, k2=4)
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    out = intersect_faces_rigid(f1, f2, TOL)
    assert out.basis.shape == (5, 3)
    from snloc.recovery import points_from_face

    comp = points_from_face(out, complete_pedm(P), TOL)
    assert np.max(np.abs(edm_of(comp.coords) - edm_of(P))) <= 1e-10


def test_rigid_union_containment_and_alpha():
    for _ in range(10):
        r = int(RNG.integers(2, 4))
        P, n1, n2 = two_random_cliques(RNG, r=r, shared=r + 1)
        f1 = face_of_points(n1, P[n1], r)
        f2 = face_of_points(n2, P[n2], r)
        out = intersect_faces_rigid(f1, f2, NOGATE)
        union = out.nodes
        for f in (f1, f2):
            padded = padded_face_subspace(f, union)
            proj = padded @ np.linalg.lstsq(padded, out.basis, rcond=None)[0]
            assert np.linalg.norm(proj - out.basis) <= 1e-9
        assert out.alpha == pytest.approx(1.0 / np.sqrt(union.size))
        assert_face_invariants(out, union.size, r + 1)


def test_rigid_union_matches_svd_oracle():
    for trial in range(40):
        r = 2 if trial % 2 == 0 else 3
        P, n1, n2 = two_random_cliques(RNG, r=r, shared=r + 1 + int(RNG.integers(0, 2)))
        f1 = face_of_points(n1, P[n1], r)
        f2 = face_of_points(n2, P[n2], r)
        out = intersect_faces_rigid(f1, f2, NOGATE)
        union = out.nodes
        oracle = svd_subspace_intersection(
            padded_face_subspace(f1, union), padded_face_subspace(f2, union)
        )
        assert oracle.shape[1] == r + 1
        assert np.max(principal_angles(out.basis, oracle)) <= 1e-8


def test_rigid_union_rank_loss_on_collinear_overlap():
    # shared nodes on a line: the common block loses rank
    P = np.array(
        [[0.0, 0.0], [0.2, 0.0], [0.4, 0.0], [0.1, 0.3], [0.3, -0.2]]
    )
    n1 = np.array([0, 1, 2, 3])
    n2 = np.array([0, 1, 2, 4])
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    with pytest.raises(IntersectionRankLoss):
        intersect_faces_rigid(f1, f2, TOL)


def test_rigid_union_range_mismatch_on_inconsistent_data():
    # same node ids but geometrically incompatible cliques; the overlap must
    # exceed r+1 nodes for the inconsistency to be visible in the subspaces
    P, n1, n2 = two_random_cliques(RNG, r=2, shared=4, k1=6, k2=6)
    Q = P.copy()
    shared = np.intersect1d(n1, n2)
    Q[shared] = RNG.random((4, 2))  # different overlap geometry
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, Q[n2], 2)
    with pytest.raises((RangeMismatch, IntersectionRankLoss)):
        intersect_faces_rigid(f1, f2, TOL)


def test_nonrigid_butterfly_dimensions_and_nulls():
    P, n1, n2 = two_random_cliques(RNG, r=2, shared=2, k1=4, k2=4)
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    ext = intersect_faces_nonrigid(f1, f2, TOL)
    k = ext.nodes.size
    assert ext.basis.shape == (k, 4)
    # e is in the range
    e = np.ones(k)
    proj = ext.basis @ (ext.basis.T @ e)
    assert np.linalg.norm(proj - e) <= 1e-9 * np.sqrt(k)


def test_nonrigid_matches_svd_oracle():
    for trial in range(25):
        r = 2 if trial % 2 == 0 else 3
        P, n1, n2 = two_random_cliques(RNG, r=r, shared=r)
        f1 = face_of_points(n1, P[n1], r)
        f2 = face_of_points(n2, P[n2], r)
        ext = intersect_faces_nonrigid(f1, f2, NOGATE)
        union = ext.nodes
        oracle = svd_subspace_intersection(
            padded_face_subspace(f1, union), padded_face_subspace(f2, union)
        )
        assert oracle.shape[1] == r + 2
        assert ext.basis.shape[1] == r + 2
        assert np.max(principal_angles(ext.basis, oracle)) <= 1e-8


def test_nonrigid_rank_loss_when_overlap_too_small():
    P, n1, n2 = two_random_cliques(RNG, r=2, shared=1, k1=4, k2=4)
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    with pytest.raises(IntersectionRankLoss):
        intersect_faces_nonrigid(f1, f2, TOL)


def test_nonrigid_rejects_full_rank_overlap():
    P, n1, n2 = two_random_cliques(RNG, r=2, shared=3, k1=5, k2=5)
    f1 = face_of_points(n1, P[n1], 2)
    f2 = face_of_points(n2, P[n2], 2)
    with pytest.raises(IntersectionRankLoss):
        intersect_faces_nonrigid(f1, f2, TOL)


def test_face_from_gram_rejects_rank_deficient():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    B = kappa_pinv(edm_of(pts))
    with pytest.raises(RankDeficient):
        face_from_gram(np.arange(4), B, 2, TOL)
