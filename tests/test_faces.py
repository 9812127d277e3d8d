import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snloc.errors import (
    IntersectionRankLoss,
    InvalidConfig,
    NotAClique,
    RangeMismatch,
    RankDeficient,
)
import snloc.faces as faces_module
from snloc.faces import (
    FaceRep,
    Tolerances,
    clique_faces,
    clique_parts,
    face_from_clique,
    face_from_points,
    face_of_parts,
    intersect_faces_nonrigid,
    intersect_faces_rigid,
    intersect_parts_rigid,
)
from snloc.reducer import init_family, rigid_clique_union

from helpers import (
    NOGATE,
    complete_pedm,
    edm_of,
    face_of_points,
    kappa,
    orth_columns,
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
    assert np.linalg.norm(face.basis @ np.eye(width)[-1] - e / np.sqrt(k)) <= 1e-9 * np.sqrt(k)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("bad", [
    dict(range_tol=NAN), dict(range_tol=INF), dict(range_tol=-1e-6),
    dict(feas_tol=NAN), dict(feas_tol=INF), dict(feas_tol=-1e-6),
    dict(invert_floor=NAN), dict(invert_floor=-0.1), dict(invert_floor=1.0),
    dict(rank=1e-9),
], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_tolerances_reject_nan_infinite_or_out_of_range_values(bad):
    # feas_tol=nan used to be accepted, and then every feasibility test
    # passed, however far the candidate points were from the data; a float
    # rank was accepted, and localize failed on its missing relative_cut
    with pytest.raises(InvalidConfig):
        Tolerances(**bad)
    with pytest.raises(ValueError):
        Tolerances.for_noise(1e-4, **bad)


@pytest.mark.parametrize("sigma", [NAN, -1.0, -INF, INF])
def test_tolerances_for_noise_rejects_a_bad_sigma(sigma):
    # NaN and negative noise factors used to give the exact-data defaults
    with pytest.raises(InvalidConfig, match="sigma"):
        Tolerances.for_noise(sigma)


def test_tolerances_accept_the_edges_of_their_ranges():
    Tolerances(range_tol=0.0, feas_tol=0.0, invert_floor=0.0)
    Tolerances(invert_floor=0.999)


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
    assert np.allclose(face.basis[:, -1], 1.0 / np.sqrt(3.0), atol=1e-15)
    assert_face_invariants(face, 3, 2)


def test_face_from_clique_singleton():
    pedm = complete_pedm(np.zeros((1, 2)))
    face = face_from_clique(pedm, [0], 2, TOL)
    assert np.array_equal(face.basis, [[1.0]])


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


def test_clique_faces_match_face_from_clique_bitwise():
    # 60 points, every pair measured except (0, 1); points 2, 3, 4 on a line.
    # Cliques of every size from 1 to 20, more of size 16 than one stack
    # holds, one non-clique and one collinear clique
    rng = np.random.default_rng(31)
    P = rng.random((60, 2))
    P[2:5] = [[0.1, 0.2], [0.3, 0.3], [0.7, 0.5]]
    pedm = pedm_from_pairs(P, [(a, b) for a in range(60) for b in range(a + 1, 60)
                               if (a, b) != (0, 1)])
    per_stack = faces_module._STACK_ENTRIES // 16**2
    sizes = list(range(1, 21)) * 2 + [16] * (per_stack + 5)
    cliques = [set(rng.choice(np.arange(5, 60), size=k, replace=False).tolist()) for k in sizes]
    cliques += [{0, 1, 7, 9}, {2, 3, 4}, {2, 3, 4, 8}]
    entries = clique_faces(pedm, cliques, 2, TOL)
    assert len(entries) == len(cliques)
    for clique, entry in zip(cliques, entries):
        try:
            want = face_from_clique(pedm, clique, 2, TOL)
        except (NotAClique, RankDeficient):
            assert entry is None
            continue
        got = face_of_parts(*entry)
        assert np.array_equal(got.nodes, want.nodes)
        assert np.array_equal(got.basis, want.basis)
        # the stored form and its merge factors
        assert got._size == want._size
        assert np.array_equal(got._store.ids[: got._size], want._store.ids[: want._size])
        assert np.array_equal(got._store.coords[: got._size], want._store.coords[: want._size])
        assert np.array_equal(got._gram, want._gram)
        for a, b in zip(got._whitener(), want._whitener()):
            assert np.array_equal(a, b)
    # two nodes span one dimension only
    missing = [len(c) == 2 for c in cliques[:-3]] + [True, True, False]
    assert [entry is None for entry in entries] == missing
    # each record's coordinates are a view of its stack's array
    stacks = {id(entry[1].base) for clique, entry in zip(cliques, entries) if len(clique) == 16}
    assert len(stacks) == 2


@pytest.mark.parametrize("r", [2, 3])
def test_seed_records_are_clique_parts_bitwise(r):
    # every record of a stacked build is bitwise what clique_parts gives for
    # its clique alone, from the clique's sorted ids and submatrix; one size
    # fills more than one stack
    rng = np.random.default_rng(40 + r)
    P = rng.random((50, r))
    pedm = complete_pedm(P)
    per_stack = faces_module._STACK_ENTRIES // 12**2
    sizes = list(range(1, 21)) + [12] * (per_stack + 3)
    cliques = [set(rng.choice(50, size=k, replace=False).tolist()) for k in sizes]
    entries = clique_faces(pedm, cliques, r, TOL)
    assert len({id(entry[1].base) for entry in entries[20:]}) == 2
    for clique, entry in zip(cliques, entries):
        ids = np.array(sorted(clique))
        if 1 < len(clique) <= r:
            assert entry is None
            with pytest.raises(RankDeficient):
                clique_parts(ids, pedm.submatrix(ids), r, TOL)
            continue
        for got, want in zip(entry, clique_parts(ids, pedm.submatrix(ids), r, TOL)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("r", [2, 3])
def test_seed_whitener_makes_the_face_orthonormal(r):
    # the closed-form whitener W = diag(1, ..., 1, 1/sqrt(k)) makes [Q, e] W
    # orthonormal for the centred eigenvectors Q of every seed size, with no
    # QR to clean up their round-off
    rng = np.random.default_rng(50 + r)
    P = rng.random((40, r))
    cliques = [set(rng.choice(40, size=k, replace=False).tolist())
               for k in range(2, 21) for _ in range(5)]
    for clique, entry in zip(cliques, clique_faces(complete_pedm(P), cliques, r, TOL)):
        k = len(clique)
        if k <= r:
            assert entry is None
            continue
        _, Q, W = entry
        assert np.array_equal(W, np.diag([1.0] * r + [1.0 / np.sqrt(k)]))
        U = np.column_stack([Q, np.ones(k)]) @ W
        assert np.max(np.abs(U.T @ U - np.eye(r + 1))) <= 1e-13


def test_extending_a_seed_face_never_writes_its_stack():
    # a seed face shares its record's arrays; growing it, by a union that
    # keeps its rows, by one that keeps the partner's, or by appending rows
    # directly, copies them first
    rng = np.random.default_rng(43)
    P = rng.random((14, 2))
    pedm = complete_pedm(P)
    records = clique_faces(pedm, [set(range(6)), set(range(3, 9)), set(range(3, 14))], 2, TOL)
    stack = records[0][1].base
    assert all(rec[1].base is stack for rec in records[:2])
    before = [[a.copy() for a in rec] for rec in records]
    face = face_of_parts(*records[0])
    grown = intersect_faces_rigid(face, face_of_parts(*records[1]), NOGATE)
    assert grown._size == 9
    # the 11-node partner's common block is the worse conditioned: the
    # merge keeps the partner's rows, in a FaceRep over its record's arrays
    kept = intersect_faces_rigid(face_of_parts(*records[0]), records[2], NOGATE)
    assert np.array_equal(kept._store.ids[:14], np.r_[3:14, 0:3])
    face._extend(np.zeros((2, 2)), [20, 21])
    for rec, old in zip(records, before):
        for a, b in zip(rec, old):
            assert np.array_equal(a, b)


def test_face_from_points_matches_gram_route():
    P = RNG.random((5, 2))
    f1 = face_of_points(range(5), P, 2)
    f2 = face_from_points(np.arange(5), P, TOL)
    assert np.max(principal_angles(f1.basis, f2.basis)) <= 1e-9


def test_rigid_idempotent_union():
    P = RNG.random((5, 2))
    f1 = face_of_points(range(5), P, 2)
    theta = 0.7
    Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    f2 = face_of_points(range(5), P, 2)
    # the same face in rotated stored coordinates
    f2 = FaceRep(f2.nodes, f2.stored_rows() @ Q)
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
        assert np.allclose(out.basis[:, -1], 1.0 / np.sqrt(union.size), atol=1e-15)
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


def strip_points(rng, n, r):
    """n points along a strip, so that consecutive windows overlap well."""
    return np.column_stack([np.linspace(0.0, 0.02 * n, n), rng.random((n, r - 1)) * 0.8])


def merged_face(P, windows, r):
    """Rigid union of the faces of the given node windows, left to right."""
    face = face_of_points(windows[0], P[windows[0]], r)
    for w in windows[1:]:
        face = intersect_faces_rigid(face, face_of_points(w, P[w], r), NOGATE)
    return face


def sigma_min_on(face, common):
    return np.linalg.svd(face.basis[np.searchsorted(face.nodes, common)], compute_uv=False)[-1]


@pytest.mark.parametrize("big_grower", [True, False], ids=["map-partner", "map-grower"])
def test_rigid_union_leaves_inputs_unchanged(big_grower):
    # all inputs are merged faces whose basis is built only on first use;
    # each is read after the merges and compared with an identical twin that
    # was never merged.  The grower is merged with two different partners,
    # so the second merge cannot append behind the first one's rows
    # sizes are chosen so that both merges of the 45-node face double it
    # since its last re-orthonormalization (at 23 nodes)
    P = strip_points(np.random.default_rng(11), 50, 2)
    big_windows = [np.arange(s, s + 5) for s in range(0, 41, 2)]
    small_windows = [np.arange(40, 45), np.arange(42, 47)]
    other_windows = [np.arange(42, 47), np.arange(44, 49)]

    def build():
        return (merged_face(P, big_windows, 2), merged_face(P, small_windows, 2),
                merged_face(P, other_windows, 2))

    big, small, other = build()
    twins = build()
    grower, partner = (big, small) if big_grower else (small, big)
    out1 = intersect_faces_rigid(grower, partner, NOGATE)
    out2 = intersect_faces_rigid(grower, other, NOGATE)
    # the branch under test: the partner's rows are mapped when its common
    # block is the better conditioned one
    common = np.intersect1d(big.nodes, small.nodes)
    assert common.size == 5
    assert (sigma_min_on(partner, common) >= sigma_min_on(grower, common)) == big_grower
    for face, twin in zip((big, small, other), twins):
        assert np.array_equal(face.nodes, twin.nodes)
        assert np.array_equal(face.basis, twin.basis)
    for out, inputs in ((out1, (grower, partner)), (out2, (grower, other))):
        assert np.array_equal(out.nodes, np.union1d(*(f.nodes for f in inputs)))
        oracle = orth_columns(np.column_stack([P[out.nodes], np.ones(out.nodes.size)]))
        assert_face_invariants(out, out.nodes.size, 3)
        assert np.max(principal_angles(out.basis, oracle)) <= 1e-8


@pytest.mark.parametrize("r", [2, 3])
def test_rigid_merge_chain_matches_oracle(r):
    # 300 windows of 5 nodes, consecutive ones sharing 4; every other merge
    # puts the small window first, so both kernel branches run, and the
    # union is re-orthonormalized each time it doubles
    rng = np.random.default_rng(100 + r)
    n = 304
    P = strip_points(rng, n, r)
    face = face_of_points(np.arange(5), P[:5], r)
    for s in range(1, n - 4):
        w = np.arange(s, s + 5)
        part = face_of_points(w, P[w], r)
        face = intersect_faces_rigid(*((face, part) if s % 2 else (part, face)), NOGATE)
        if s % 60 == 0 or s == n - 5:
            k = s + 5
            assert_face_invariants(face, k, r + 1)
            assert np.array_equal(face.nodes, np.arange(k))
            oracle = orth_columns(np.column_stack([P[:k] - P[:k].mean(axis=0), np.ones(k)]))
            assert np.max(principal_angles(face.basis, oracle)) <= 1e-8


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


def test_rigid_union_range_mismatch_is_told_from_rank_loss():
    # two 7-node cliques sharing 5 well spread nodes; one shared node of the
    # second clique moves so that the largest principal angle between the
    # common blocks' ranges, span [P_common, e], is a given multiple of
    # range_tol: 10x must be a range mismatch, never rank loss; 0.1x merges
    rng = np.random.default_rng(8)
    P, n1, n2 = two_random_cliques(rng, r=2, shared=5, k1=7, k2=7, spread=1.0)
    shared = np.intersect1d(n1, n2)
    step = np.array([0.6, 0.8])

    def angle(delta):
        Q = P[shared].copy()
        Q[0] += delta * step
        ones = np.ones((shared.size, 1))
        return np.max(principal_angles(np.hstack([P[shared], ones]), np.hstack([Q, ones])))

    probe = 1e-3
    per_unit = angle(probe) / probe
    for factor in (10.0, 0.1):
        delta = factor * TOL.range_tol / per_unit
        assert angle(delta) == pytest.approx(factor * TOL.range_tol, rel=0.05)
        Q = P.copy()
        Q[shared[0]] += delta * step
        f1 = face_of_points(n1, P[n1], 2)
        f2 = face_of_points(n2, Q[n2], 2)
        if factor > 1:
            with pytest.raises(RangeMismatch):
                intersect_faces_rigid(f1, f2, TOL)
        else:
            out = intersect_faces_rigid(f1, f2, TOL)
            assert np.array_equal(out.nodes, np.union1d(n1, n2))


def test_rigid_union_keeps_the_worse_conditioned_faces_rows():
    # the face whose common block is better conditioned is the one mapped:
    # its block is pseudo-inverted, and the other face keeps its stored
    # rows, whichever order the two come in
    P = strip_points(np.random.default_rng(5), 40, 2)
    big = face_of_points(np.arange(30), P[:30], 2)
    small = face_of_points(np.arange(27, 34), P[27:34], 2)
    common = np.arange(27, 30)
    assert sigma_min_on(small, common) > sigma_min_on(big, common)
    for pair in ((big, small), (small, big)):
        out = intersect_faces_rigid(*pair, NOGATE)
        assert np.array_equal(out._store.ids[:30], np.arange(30))
        assert np.array_equal(out._store.coords[:30], big._store.coords[:30])
        assert np.array_equal(out._store.ids[30 : out._size], np.arange(30, 34))


@pytest.mark.parametrize("tol", [TOL, NOGATE], ids=["floor", "no-floor"])
def test_wave_matches_one_union_at_a_time(tol):
    # a 30-node grower and seven partners, each also merged alone with the
    # intersect_faces_rigid of the same grower face: A and B share the new
    # nodes 30 and 31, and B places node 30 elsewhere, so the wave must keep
    # A's row; C's overlap is inconsistent (a range mismatch); D is larger
    # than the grower, whose common block is then the better conditioned,
    # so D is deferred; E is a seed record, read without a FaceRep;
    # F's overlap is collinear (rank loss); G's is nearly collinear, of
    # full rank but below the invert_floor, so that only the floor rejects
    # it.  The wave rejects a partner, neither accepting nor deferring it,
    # exactly where its union alone raises, and its front names the error
    # class the union raises
    rng = np.random.default_rng(17)
    P = strip_points(rng, 80, 2)
    P[1] = 0.5 * (P[0] + P[2])
    side = P[5] - P[3]
    P[4] = 0.5 * (P[3] + P[5]) + 1e-3 * np.array([-side[1], side[0]])
    grower = face_of_points(np.arange(30), P[:30], 2)

    def moved(nodes, node):
        Q = P[nodes].copy()
        Q[np.searchsorted(nodes, node)] += 1e-3
        return face_of_points(nodes, Q, 2)

    A = face_of_points(np.arange(24, 32), P[24:32], 2)
    B = moved(np.arange(26, 33), 30)
    C = moved(np.arange(22, 34), 23)
    D = face_of_points(np.arange(22, 70), P[22:70], 2)
    record = clique_faces(complete_pedm(P), [set(range(20, 36))], 2, tol)[0]
    E = face_of_parts(*record)
    F_nodes, G_nodes = np.array([0, 1, 2, 70, 71]), np.array([3, 4, 5, 72, 73])
    F = face_of_points(F_nodes, P[F_nodes], 2)
    G = face_of_points(G_nodes, P[G_nodes], 2)
    for got, want in zip(record, E._parts()):
        assert np.array_equal(got, want)
    partners = dict(zip("ABCDEFG", [A, B, C, D, E, F, G]))
    parts = [p._parts() for p in partners.values()]
    parts[4] = record
    assert sigma_min_on(grower, np.arange(22, 30)) > sigma_min_on(D, np.arange(22, 30))

    face, accepted, deferred = faces_module.intersect_faces_wave(grower, parts, tol)
    floor = tol.invert_floor > 0
    assert accepted.tolist() == [True, True, False, False, True, False, not floor]
    assert deferred.tolist() == [False, False, False, True, False, False, False]
    assert grower._size == 30
    alone, raised = {}, {}
    for name, partner in partners.items():
        try:
            alone[name] = intersect_faces_rigid(grower, partner, tol)
        except (IntersectionRankLoss, RangeMismatch) as exc:
            raised[name] = type(exc)
    want = {"C": RangeMismatch, "F": IntersectionRankLoss}
    if floor:
        want["G"] = IntersectionRankLoss
    assert raised == want
    ids, coords, white = zip(*parts)
    verdicts = faces_module._front(grower, ids, np.concatenate(coords), np.array(white), 3,
                                   tol)[4]
    for name, verdict, a, d in zip(partners, verdicts, accepted, deferred):
        assert (not a and not d) == (name in raised)
        assert type(verdict) is raised.get(name, bool)
    # F fails the rank test, G (with the floor) the floor test
    assert "rank below" in str(verdicts[5])
    assert not floor or "ill conditioned" in str(verdicts[6])
    # the deferred merge keeps D's rows and maps the grower's
    assert np.array_equal(alone["D"]._store.ids[:48], np.arange(22, 70))
    rows = {}
    for name in "ABE" if floor else "ABEG":
        out = alone[name]
        assert np.array_equal(out._store.ids[:30], np.arange(30))
        rows[name] = dict(zip(out._store.ids[30 : out._size].tolist(),
                              out._store.coords[30 : out._size]))
    first = {30: "A", 31: "A", 32: "B", 33: "E", 34: "E", 35: "E"}
    if not floor:
        first.update({72: "G", 73: "G"})
    new = face._store.ids[30 : face._size].tolist()
    assert new == list(first)
    assert np.array_equal(face._store.coords[:30], grower._store.coords[:30])
    for u, row in zip(new, face._store.coords[30 : face._size]):
        assert np.max(np.abs(row - rows[first[u]][u])) <= 1e-12
    assert np.max(np.abs(face._store.coords[30] - rows["B"][30])) > 1e-6
    # no partner accepted: no face
    none, accepted, deferred = faces_module.intersect_faces_wave(grower, parts[2:4], tol)
    assert none is None and not accepted.any() and deferred.tolist() == [False, True]


class CountingIndex(dict):
    """A row index that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def larger_partner(P, nodes, noise=0.0):
    """Face of a partner on nodes whose row store also holds the rows of two
    nodes appended after it (0 and 1, rows past the partner's size), so its
    row index knows ids that the partner does not hold."""
    Q = P[nodes] + noise * np.random.default_rng(5).standard_normal((nodes.size, 2))
    face = face_of_points(nodes, Q, 2)
    face._extend(np.zeros((2, 2)), [0, 1])
    assert face._store.size == face._size + 2
    return face


@pytest.mark.parametrize("start, noise, verdict", [
    (4, 0.0, bool), (6, 0.0, IntersectionRankLoss), (4, 1e-3, RangeMismatch),
], ids=["passes", "two-common-nodes", "range-mismatch"])
def test_front_is_the_same_whichever_side_it_walks(start, noise, verdict):
    # a single partner larger than the face walks the face's ids through
    # the partner's row index; the common pairs go back in the partner's row
    # order, so the rows, blocks, SVD and verdict are the same
    rng = np.random.default_rng(23)
    P = strip_points(rng, 60, 2)
    grower = face_of_points(np.arange(8), P[:8], 2)
    partner = larger_partner(P, np.arange(start, 50), noise)
    ids, V, W = partner._parts()
    assert ids.size > grower._size
    partner_walk = faces_module._front(grower, [ids], V, W[None], 3, TOL)
    grower_walk = faces_module._front(grower, [ids], V, W[None], 3, TOL,
                                      partner._store.index)
    rows1, rows2, blocks, svd, (v,) = grower_walk
    assert (rows1, rows2) == partner_walk[:2]
    assert rows2 == sorted(rows2) and len(rows1) == 8 - start
    assert np.array_equal(ids[rows2], grower._store.ids[rows1])
    if blocks is None:
        assert partner_walk[2] is partner_walk[3] is None
    else:
        assert np.array_equal(blocks, partner_walk[2])
        for got, want in zip(svd, partner_walk[3]):
            assert np.array_equal(got, want)
    (w,) = partner_walk[4]
    assert type(v) is type(w) is verdict and str(v) == str(w)


def test_a_failed_union_against_a_larger_partner_looks_up_only_the_growers_ids():
    # a grower of 8 nodes against a 46-node partner whose overlap of 4 nodes
    # is inconsistent: the front used to walk all 46 of the partner's ids
    # through the grower's row index
    rng = np.random.default_rng(23)
    P = strip_points(rng, 60, 2)
    fam = init_family(complete_pedm(P), [tuple(range(8)), tuple(range(4, 50))])
    i, j = (cid for cid, C in fam.cliques.items() if len(C) > 1)
    grower = fam.face_of(i, TOL)
    fam.faces[j] = partner = larger_partner(P, np.arange(4, 50), 1e-3)
    with pytest.raises(RangeMismatch):
        intersect_faces_rigid(grower, partner, TOL)
    for face in (grower, partner):
        face._store.index = CountingIndex(face._store.index)
    assert not rigid_clique_union(fam, i, j, TOL)
    looked_up = grower._store.index.lookups + partner._store.index.lookups
    assert 0 < looked_up <= grower._size == 8
    assert fam.cliques[i] == set(range(8))


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


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("big_grower", [True, False], ids=["map-partner", "map-grower"])
def test_nonrigid_union_of_merged_faces(r, big_grower):
    # both inputs are rigid merge chains whose basis is built only on first
    # use; they share exactly r nodes.  The singular kernel reads their
    # stored rows, keeps the better conditioned face's rows and maps the
    # other's, and must leave both unchanged
    w = r + 3  # window size; consecutive windows share r+1 nodes
    last = 8 + w - 1
    P = strip_points(np.random.default_rng(20 + r), last + w + 4, r)
    big_windows = [np.arange(s, s + w) for s in range(0, 9, 2)]
    small_windows = [np.arange(s, s + w) for s in (last - r + 1, last - r + 3)]

    def build():
        return merged_face(P, big_windows, r), merged_face(P, small_windows, r)

    big, small = build()
    twins = build()
    grower, partner = (big, small) if big_grower else (small, big)
    ext = intersect_faces_nonrigid(grower, partner, NOGATE)
    common = np.intersect1d(big.nodes, small.nodes)
    assert common.size == r
    assert (sigma_min_on(partner, common) >= sigma_min_on(grower, common)) == big_grower
    for face, twin in zip((big, small), twins):
        assert np.array_equal(face.nodes, twin.nodes)
        assert np.array_equal(face.basis, twin.basis)
    union = np.union1d(big.nodes, small.nodes)
    k = union.size
    assert np.array_equal(ext.nodes, union)
    assert ext.basis.shape == (k, r + 2)
    assert np.allclose(ext.basis.T @ ext.basis, np.eye(r + 2), atol=1e-9)
    assert np.allclose(ext.basis[:, -1], 1.0 / np.sqrt(k), rtol=0.0, atol=1e-12)
    oracle = svd_subspace_intersection(
        padded_face_subspace(grower, union), padded_face_subspace(partner, union)
    )
    assert oracle.shape[1] == r + 2
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build", ["face_from_points", "clique_parts"])
def test_too_few_points_are_rank_deficient(build, k):
    # k <= r points span fewer than r dimensions (r=3); k=2 used to escape
    # as a bare IndexError
    P = np.random.default_rng(k).random((k, 3))
    with pytest.raises(RankDeficient):
        if build == "face_from_points":
            face_from_points(np.arange(k), P, TOL)
        else:
            clique_parts(np.arange(k), edm_of(P), 3, TOL)


@pytest.mark.parametrize("r", [2, 3])
def test_clique_parts_is_the_face_of_face_from_gram(r):
    # the one-pass coordinates span the face that the points span, by an
    # SVD of the centred points, and the known whitener makes [Q, e]
    # orthonormal
    P = np.random.default_rng(r).random((9, r))
    D = edm_of(P)
    nodes, Q, W = clique_parts(np.arange(9), D, r, TOL)
    assert np.array_equal(nodes, np.arange(9))
    U = np.column_stack([Q, np.ones(9)]) @ W
    assert np.max(np.abs(U.T @ U - np.eye(r + 1))) <= 1e-13
    X = np.linalg.svd(P - P.mean(axis=0), full_matrices=False)[0]
    ref = np.column_stack([X, np.full(9, 1.0 / 3.0)])
    assert np.max(np.abs(U @ U.T - ref @ ref.T)) <= 1e-13
    with pytest.raises(RankDeficient):
        clique_parts(np.arange(4), edm_of(np.outer(np.arange(4.0), np.ones(r))), r, TOL)


@pytest.mark.parametrize("far", [False, True], ids=["keep-grower", "keep-clique"])
def test_parts_union_matches_the_face_union(far):
    # intersect_parts_rigid of a grower and a small clique given by
    # clique_parts, against intersect_faces_rigid of the same grower and the
    # clique's FaceRep from face_from_clique.  Nodes 0-3 are shared; the clique
    # adds node 9, the grower holds 0-8.  Near the shared nodes, node 9 leaves
    # the clique's block the better conditioned one, which is then mapped
    # into the grower's rows; far from them, the grower's block is the
    # better one, so the merge keeps the clique's rows and maps the grower's
    rng = np.random.default_rng(21)
    P = rng.random((10, 2))
    P[9] = P[:4].mean(axis=0) + (np.array([40.0, 30.0]) if far else 0.05 * rng.random(2))
    grower = face_of_points(np.arange(9), P[:9], 2)
    nodes = np.array([0, 1, 2, 3, 9])
    D = edm_of(P[nodes])
    parts = clique_parts(nodes, D, 2, NOGATE)
    clique_better = sigma_min_on(grower, nodes[:4]) <= np.linalg.svd(
        np.column_stack([parts[1], np.ones(5)])[:4] @ parts[2], compute_uv=False)[-1]
    assert clique_better != far
    got = intersect_parts_rigid(grower, parts, NOGATE)
    want = intersect_faces_rigid(grower, face_from_clique(complete_pedm(P), nodes, 2, NOGATE),
                                 NOGATE)
    assert np.array_equal(got.nodes, np.arange(10))
    assert np.max(np.abs(got.basis @ got.basis.T - want.basis @ want.basis.T)) <= 1e-10
    kept = got._store.ids[:5] if far else got._store.ids[:9]
    assert np.array_equal(kept, nodes if far else np.arange(9))
    if not far:
        assert np.array_equal(got._store.coords[:9], grower._store.coords[:9])
    # the clique's arrays are shared, never written
    assert np.array_equal(parts[1], clique_parts(nodes, D, 2, NOGATE)[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([2, 3]),
    k=st.integers(4, 60),
    gap=st.floats(-6.0, 0.0),
    shift=st.floats(-2.0, 3.0),
)
def test_gram_cond_bound_settles_only_what_eigvalsh_agrees_with(seed, r, k, gap, shift):
    # stored rows [V, e] whose last column is a combination of the others
    # and of e up to 10^gap, shifted by 10^shift (nearly parallel to e):
    # nearly dependent columns, on both sides of the conditioning limit.
    # The test, determinant bound first, agrees with the eigenvalues alone
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((k, r))
    V[:, -1] = (V[:, :-1] @ rng.standard_normal(r - 1) + rng.standard_normal()
                + 10.0**gap * rng.standard_normal(k))
    V += 10.0**shift * rng.standard_normal(r)
    gram = faces_module._gram(V)
    assert faces_module._gram_ill_conditioned(gram) == _ill_conditioned_by_eigenvalues(gram)


def _ill_conditioned_by_eigenvalues(gram):
    d = np.sqrt(np.diag(gram))
    ev = np.linalg.eigvalsh(gram / np.outer(d, d))
    return ev[0] * faces_module._GRAM_COND_LIMIT < ev[-1]


def test_gram_cond_bound_settles_well_conditioned_grams(monkeypatch):
    # the bound is no use unless it settles the usual case, with no
    # eigenvalues: stored rows fresh from a re-orthonormalization, and rows
    # mapped into them
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    rng = np.random.default_rng(3)
    for r in (2, 3):
        Q = np.linalg.qr(rng.standard_normal((30, r)))[0]
        assert not faces_module._gram_ill_conditioned(faces_module._gram(Q))
        assert not faces_module._gram_ill_conditioned(faces_module._gram(Q + 0.3))
        assert not calls
        Q[:, -1] = Q[:, 0] + 1e-5 * rng.standard_normal(30)
        assert faces_module._gram_ill_conditioned(faces_module._gram(Q))
        assert len(calls) == 1
        calls.clear()
