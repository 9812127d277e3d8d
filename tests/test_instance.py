import warnings

import numpy as np
import pytest

from snloc.errors import InvalidConfig, NotAClique, ParseError
from snloc.instance import (
    Instance,
    PartialEDM,
    average_degree,
    build_partial_edm,
    generate_instance,
    half_range_cliques,
    read_problem,
    read_solution,
    write_problem,
    write_solution,
)

from helpers import (
    adjacency,
    complete_pedm,
    kappa,
    pedm_from_pairs,
    scalar_greedy_clique,
    scalar_half_range_cliques,
    scalar_partial_edm,
)


def test_generate_deterministic():
    a = generate_instance(5, 2, 2, seed=42, radio_range=0.3)
    b = generate_instance(5, 2, 2, seed=42, radio_range=0.3)
    assert np.array_equal(a.points, b.points)


def test_generate_in_unit_box():
    inst = generate_instance(500, 3, 3, seed=1, radio_range=0.2)
    assert np.all(inst.points >= 0.0) and np.all(inst.points <= 1.0)


def test_generate_uniform_mean():
    inst = generate_instance(100_000, 0, 2, seed=7, radio_range=0.1)
    mean = inst.points.mean(axis=0)
    assert np.all(mean > 0.49) and np.all(mean < 0.51)


def test_generate_rejects_bad_config():
    with pytest.raises(InvalidConfig):
        generate_instance(3, 3, 2, seed=0, radio_range=0.1)
    with pytest.raises(InvalidConfig):
        generate_instance(5, 2, 0, seed=0, radio_range=0.1)
    with pytest.raises(InvalidConfig):
        generate_instance(5, 2, 2, seed=0, radio_range=-1.0)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
def test_generate_rejects_a_negative_or_non_integer_seed(seed):
    # seed=True used to pass silently as seed 1
    with pytest.raises(InvalidConfig):
        generate_instance(5, 2, 2, seed=seed, radio_range=0.1)


def test_generate_takes_numpy_integer_seeds():
    got = generate_instance(6, 2, 2, seed=np.int64(7), radio_range=0.5)
    assert np.array_equal(got.points, generate_instance(6, 2, 2, seed=7, radio_range=0.5).points)


@pytest.mark.parametrize("n, m, dim", [(3, 5, 2), (3, 3, 2), (3, -1, 2), (3, 0, 0)],
                         ids=["m-above-n", "m-equals-n", "m-negative", "dim-zero"])
def test_partial_edm_rejects_bad_sizes(n, m, dim):
    # PartialEDM(n=3, m=5, ...) used to be accepted, and localize then built
    # an anchor clique with negative node ids
    with pytest.raises(InvalidConfig):
        PartialEDM(n=n, m=m, dim=dim, radio_range=0.5)


@pytest.mark.parametrize("n, m, dim", [(3.5, 0, 2), (4, 1.0, 2), (4, 1, 2.0), ("4", 1, 2),
                                       (True, 0, 1)],
                         ids=["n-float", "m-float", "dim-float", "n-str", "n-bool"])
def test_partial_edm_rejects_non_integer_sizes(n, m, dim):
    # these raised a bare TypeError from the size comparison or from range()
    with pytest.raises(InvalidConfig):
        PartialEDM(n=n, m=m, dim=dim, radio_range=0.5)


@pytest.mark.parametrize("n, m, r", [(5.5, 2, 2), (5, 2, 2.0), (True, 0, 1)],
                         ids=["n-float", "r-float", "n-bool"])
def test_generate_rejects_non_integer_sizes(n, m, r):
    # n=True used to raise a bare TypeError from numpy
    with pytest.raises(InvalidConfig):
        generate_instance(n, m, r, seed=0, radio_range=0.5)


@pytest.mark.parametrize(
    "i, j, d2",
    [([0, 1], [1], [0.5, 0.5]), ([0], [1], [0.5, 0.5]), ([[0]], [[1]], [[0.5]]), (0, 1, 0.5)],
    ids=["ids-of-two-lengths", "d2-longer", "two-d", "scalars"],
)
def test_partial_edm_rejects_pair_arrays_of_other_shapes(i, j, d2):
    with pytest.raises(InvalidConfig):
        PartialEDM(n=3, m=0, dim=2, radio_range=0.5, i=i, j=j, d2=d2)
    assert PartialEDM(n=3, m=0, dim=2, radio_range=0.5, i=[0], j=[1], d2=[0.5]).indices.size == 2


def test_noise_stream_does_not_move_points():
    quiet = generate_instance(50, 4, 2, seed=5, radio_range=0.4)
    noisy = generate_instance(50, 4, 2, seed=5, radio_range=0.4, noise_factor=1e-2)
    assert np.array_equal(quiet.points, noisy.points)


def test_build_exact_when_noiseless():
    inst = generate_instance(60, 4, 2, seed=3, radio_range=0.3)
    pedm = build_partial_edm(inst)
    for i, j, d2 in pedm.known_pairs():
        true = float(np.sum((inst.points[i] - inst.points[j]) ** 2))
        assert d2 == pytest.approx(true, rel=1e-12)


@pytest.mark.parametrize(
    "n, m, r, R, sigma",
    [(600, 4, 2, 0.1, 0.0), (600, 4, 2, 0.1, 1e-4), (300, 6, 3, 0.3, 0.0),
     (300, 6, 3, 0.3, 1e-4), (40, 30, 2, 0.2, 1e-2), (2004, 4, 2, 0.08, 1e-4)],
)
def test_build_matches_scalar_reference(n, m, r, R, sigma):
    # the same pairs and the same values, bit for bit
    for seed in (0, 1):
        inst = generate_instance(n, m, r, seed=seed, radio_range=R, noise_factor=sigma)
        got = build_partial_edm(inst)
        ref = scalar_partial_edm(inst)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.d2.tobytes() == ref.d2.tobytes()


def test_build_squares_each_noisy_distance_as_one_product():
    # x = d * (1 + sigma * eps) rebuilt from the noise stream, pair by pair in
    # lexicographic order; the stored value is x * x, one correctly rounded
    # product, where the C library's pow rounds some squares the other way
    inst = generate_instance(2004, 4, 2, seed=0, radio_range=0.08, noise_factor=1e-4)
    pedm = build_partial_edm(inst)
    first_anchor = inst.n - inst.m
    pairs = [(i, j) for i, j, _ in pedm.known_pairs() if i < first_anchor]
    noise = np.random.Generator(np.random.PCG64(np.random.SeedSequence(inst.seed).spawn(2)[1]))
    x = np.array([float(np.linalg.norm(inst.points[i] - inst.points[j]))
                  * (1.0 + inst.noise_factor * noise.standard_normal()) for i, j in pairs])
    known, d2 = pedm.lookup(*np.array(pairs).T)
    assert known.all()
    assert d2.tobytes() == (x * x).tobytes()
    assert any(pow(v, 2.0) != v * v for v in x.tolist())


@pytest.mark.parametrize("sigma", [1e200, 1e308])
def test_build_rejects_a_noisy_square_that_overflows(sigma):
    # 1e200 made Python's float power raise a bare OverflowError; 1e308
    # overflows the noisy distance itself
    inst = generate_instance(50, 4, 2, seed=0, radio_range=0.5, noise_factor=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig, match="finite"):
            build_partial_edm(inst)


def test_build_threshold_is_strict():
    # two sensors placed just past the radio range stay unknown
    R = 0.5
    pts = np.array([[0.1, 0.1], [0.1 + R + 0.01, 0.1], [0.9, 0.9], [0.2, 0.8]])
    inst = Instance(n=4, m=0, r=2, points=pts, radio_range=R, noise_factor=0.0, seed=0)
    pedm = build_partial_edm(inst)
    assert not pedm.lookup(0, 1)[0]
    pts2 = pts.copy()
    pts2[1, 0] = 0.1 + R - 0.01
    inst2 = Instance(n=4, m=0, r=2, points=pts2, radio_range=R, noise_factor=0.0, seed=0)
    assert build_partial_edm(inst2).lookup(0, 1)[0]


def test_build_anchor_block_always_known_and_exact():
    inst = generate_instance(30, 5, 2, seed=9, radio_range=0.05, noise_factor=1e-2)
    pedm = build_partial_edm(inst)
    anchors = range(inst.n - inst.m, inst.n)
    for a in anchors:
        for b in anchors:
            if a < b:
                true = float(np.sum((inst.points[a] - inst.points[b]) ** 2))
                known, d2 = pedm.lookup(a, b)
                assert known and d2 == pytest.approx(true, rel=1e-14)


def test_build_symmetry():
    inst = generate_instance(80, 4, 2, seed=2, radio_range=0.3, noise_factor=1e-3)
    pedm = build_partial_edm(inst)
    for i, j, d2 in pedm.known_pairs():
        assert pedm.lookup(j, i) == (True, d2)


def test_noise_magnitude_half_normal():
    # mean relative error of sqrt(D) vs true distance ~ sigma*sqrt(2/pi)
    sigma = 1e-2
    inst = generate_instance(400, 0, 2, seed=13, radio_range=3.0, noise_factor=sigma)
    pedm = build_partial_edm(inst)
    rels = []
    for i, j, d2 in pedm.known_pairs():
        true = float(np.linalg.norm(inst.points[i] - inst.points[j]))
        rels.append(abs(np.sqrt(d2) - true) / true)
    assert len(rels) >= 10_000
    expected = sigma * np.sqrt(2.0 / np.pi)
    assert abs(np.mean(rels) - expected) <= 0.2 * expected


def test_noiseless_matches_centered_gram():
    inst = generate_instance(50, 4, 2, seed=21, radio_range=0.4)
    pedm = build_partial_edm(inst)
    P = inst.points - inst.points.mean(axis=0)
    D = kappa(P @ P.T)
    for i, j, d2 in pedm.known_pairs():
        assert abs(d2 - D[i, j]) <= 1e-12 * max(d2, 1e-30)


def test_half_range_isolated_node():
    pts = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]])
    pedm = pedm_from_pairs(pts, [], radio_range=1.0)
    seeds = half_range_cliques(pedm)
    assert seeds[0] == (0,)
    assert all(i in members for i, members in enumerate(seeds))


def test_half_range_collinear_trio():
    # spacing R/4: the middle node sees both others within R/2
    R = 1.0
    pts = np.array([[0.0, 0.0], [R / 4, 0.0], [R / 2, 0.0]])
    inst = Instance(n=3, m=0, r=2, points=pts, radio_range=R, noise_factor=0.0, seed=0)
    pedm = build_partial_edm(inst)
    seeds = half_range_cliques(pedm)
    assert seeds[1] == (0, 1, 2)


def test_half_range_pairwise_known():
    inst = generate_instance(150, 4, 2, seed=5, radio_range=0.25, noise_factor=1e-2)
    pedm = build_partial_edm(inst)
    for members in half_range_cliques(pedm):
        # NotAClique unless every pair is measured
        pedm.submatrix(members)


@pytest.mark.parametrize(
    "n, m, r, R, sigma, seed",
    [(300, 4, 2, 0.2, 0.0, 0), (400, 6, 3, 0.3, 0.0, 1), (300, 4, 2, 0.2, 5e-2, 0),
     (300, 4, 2, 0.2, 5e-2, 1), (300, 4, 2, 0.2, 5e-2, 2)],
)
def test_half_range_matches_scalar_reference(n, m, r, R, sigma, seed):
    pedm = build_partial_edm(generate_instance(n, m, r, seed=seed, radio_range=R, noise_factor=sigma))
    seeds = half_range_cliques(pedm)
    assert seeds == scalar_half_range_cliques(pedm)
    # noise leaves pairs inside half the range unmeasured, so some nodes
    # drop part of their near set (12 at seed 1)
    half_sq = (R / 2) ** 2
    adj = adjacency(pedm)
    dropped = sum(len(members) <= sum(d2 <= half_sq for d2 in adj[i].values())
                  for i, members in enumerate(seeds))
    assert (dropped > 0) == (sigma > 0)


@pytest.mark.parametrize("sigma", [1e-2, 5e-2, 1e-1])
def test_half_range_fallback_matches_the_nearest_first_reference(sigma):
    inst = generate_instance(2004, 4, 2, seed=3, radio_range=0.08, noise_factor=sigma)
    pedm = build_partial_edm(inst)
    seeds = half_range_cliques(pedm)
    assert seeds == scalar_half_range_cliques(pedm)
    # some near sets are not measured in full, so the fallback ran (for 3
    # nodes at sigma 1e-2)
    half_sq = (inst.radio_range / 2) ** 2
    adj = adjacency(pedm)
    assert any(len(members) <= sum(d2 <= half_sq for d2 in adj[i].values())
               for i, members in enumerate(seeds))


def test_half_range_drops_by_distance_not_id():
    # center 0 with near nodes 3 (nearest), 2 and 1 (farthest); the one
    # unmeasured pair (1, 3) costs the farther node, 1, its place
    pts = np.array([[0.0, 0.0], [0.45, 0.0], [0.0, 0.3], [-0.1, 0.0], [0.0, -0.9]])
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (1, 3)]
    pedm = pedm_from_pairs(pts, pairs, radio_range=1.0)
    seeds = half_range_cliques(pedm)
    assert seeds[0] == (0, 2, 3)
    assert seeds == scalar_half_range_cliques(pedm)


def test_average_degree():
    k4 = complete_pedm(np.random.default_rng(0).random((4, 2)))
    assert average_degree(k4) == pytest.approx(3.0)
    path3 = pedm_from_pairs(np.array([[0.0, 0], [1, 0], [2, 0]]), [(0, 1), (1, 2)])
    assert average_degree(path3) == pytest.approx(4.0 / 3.0)
    inst = generate_instance(80, 4, 2, seed=4, radio_range=0.3)
    pedm = build_partial_edm(inst)
    brute = sum(len(row) for row in adjacency(pedm)) / 80
    assert average_degree(pedm) == pytest.approx(brute)


def test_greedy_take_takes_nothing_below_a_room_of_one():
    # a limit of 0 used to take every mutually measured candidate: 11 of
    # node 0's 17 neighbours here
    pedm = build_partial_edm(generate_instance(30, 3, 2, seed=0, radio_range=0.6))
    cands = pedm.row(0)

    def take(room):
        owner, taken = pedm.greedy_take(np.zeros(len(cands), dtype=np.int64), cands, [room])
        assert not owner.any()
        return taken.tolist()

    assert len(take(len(cands))) > 1
    for room in (0, -1):
        assert take(room) == []
    assert take(1) == cands[:1]


def test_greedy_take_matches_the_scalar_greedy_on_many_lists():
    # one list per node: its row shuffled, some lists empty, rooms from -1
    # to past the list's length
    rng = np.random.default_rng(7)
    pedm = build_partial_edm(generate_instance(200, 4, 2, seed=3, radio_range=0.2))
    lists = [rng.permutation(pedm.row(u)).tolist() if u % 5 else [] for u in range(pedm.n)]
    room = rng.integers(-1, 12, size=pedm.n)
    owner = np.repeat(np.arange(pedm.n), [len(c) for c in lists])
    got_owner, taken = pedm.greedy_take(owner, np.concatenate(lists).astype(np.int64), room)
    assert np.all(np.diff(got_owner) >= 0)
    got = [taken[got_owner == u].tolist() for u in range(pedm.n)]
    assert got == [scalar_greedy_clique(pedm, c, int(k)) for c, k in zip(lists, room)]
    assert max(map(len, got)) > 3


def test_submatrix_requires_clique():
    pts = np.array([[0.0, 0], [1, 0], [2, 0]])
    pedm = pedm_from_pairs(pts, [(0, 1), (1, 2)])
    with pytest.raises(NotAClique):
        pedm.submatrix([0, 1, 2])


def test_problem_file_round_trip(tmp_path):
    inst = generate_instance(40, 4, 2, seed=6, radio_range=0.3, noise_factor=1e-3)
    pedm = build_partial_edm(inst)
    path = tmp_path / "problem.snl"
    write_problem(path, pedm, inst.anchors)
    got, anchors = read_problem(path)
    assert (got.n, got.m, got.dim) == (pedm.n, pedm.m, pedm.dim)
    assert got.radio_range == pedm.radio_range
    assert got.noise_factor == pedm.noise_factor
    assert np.array_equal(anchors, inst.anchors)
    assert sorted(got.known_pairs()) == sorted(pedm.known_pairs())


def test_problem_file_only_anchor_block(tmp_path):
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [0.3, 0.3], [0.4, 0.3], [0.3, 0.4]])
    inst = Instance(n=5, m=3, r=2, points=pts, radio_range=1e-6, noise_factor=0.0, seed=0)
    pedm = build_partial_edm(inst)
    path = tmp_path / "anchors_only.snl"
    write_problem(path, pedm, inst.anchors)
    got, _ = read_problem(path)
    pairs = list(got.known_pairs())
    anchors = range(got.n - got.m, got.n)
    assert all(i in anchors and j in anchors for i, j, _ in pairs)
    assert len(pairs) == 3


def test_problem_file_malformed_line(tmp_path):
    path = tmp_path / "bad.snl"
    path.write_text("snl v1 4 1 2 0.5 0\n1 2 0.25\n1 oops 0.3\nanchors\n0.1 0.2\n")
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == 3


def test_problem_file_duplicate_pair(tmp_path):
    path = tmp_path / "dup.snl"
    path.write_text("snl v1 4 1 2 0.5 0\n1 2 0.25\n2 3 0.1\n1 2 0.3\nanchors\n0.1 0.2\n")
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "body, line",
    [("1 2 0.25\n1 3 nan\nanchors\n0.1 0.2\n", 3),
     ("1 2 0.25\n1 3 -0.5\nanchors\n0.1 0.2\n", 3),
     ("1 2 0.25\nanchors\n0.1 nan\n", 4),
     ("1 2 0.25\nanchors\ninf 0.2\n", 4)],
    ids=["pair-nan", "pair-negative", "anchor-nan", "anchor-inf"],
)
def test_problem_file_rejects_non_finite_values(tmp_path, body, line):
    # a bad d2 used to raise InvalidConfig without a line number, and a nan
    # anchor coordinate was accepted
    path = tmp_path / "bad.snl"
    path.write_text("snl v1 4 1 2 0.5 0\n" + body)
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == line


def test_partial_edm_rejects_non_finite_and_negative_d2():
    for bad in (float("nan"), float("inf"), -float("inf"), -0.5):
        with pytest.raises(InvalidConfig):
            PartialEDM(n=3, m=0, dim=2, radio_range=1.0, i=[0, 1], j=[2, 0], d2=[0.5, bad])
    with pytest.raises(InvalidConfig):
        PartialEDM(n=3, m=0, dim=2, radio_range=1.0, i=[0], j=[1], d2=["x"])


@pytest.mark.parametrize("d2", [np.array([1 + 2j]), np.array([0.5 + 0j]), [1 + 2j]],
                         ids=["complex", "complex-with-zero-imaginary-part", "complex-list"])
def test_partial_edm_rejects_complex_squared_distances(d2):
    # a complex array used to be accepted with a ComplexWarning, its
    # imaginary part dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig, match="real|numbers"):
            PartialEDM(3, 0, 2, 1.0, 0.0, [0], [1], d2)


def test_partial_edm_rejects_bad_node_ids():
    # -1 used to land in the rows of nodes 0 and 2 of an n=3 instance, and
    # 5 raised a bare IndexError
    for i, j in ((-1, 0), (0, 5), (0, 3), (1.0, 2), ("0", 1), (1, 1)):
        with pytest.raises(InvalidConfig):
            PartialEDM(n=3, m=0, dim=2, radio_range=1.0, i=[0, i], j=[2, j], d2=[0.25, 0.5])
    pedm = PartialEDM(n=3, m=0, dim=2, radio_range=1.0, i=np.array([0], dtype=np.int32),
                      j=np.array([1], dtype=np.uint8), d2=[0.5])
    assert pedm.row(1) == [0] and pedm.lookup(1, 0) == (True, 0.5)


@pytest.mark.parametrize("pairs", [[(0, 1), (2, 3), (0, 1)], [(0, 1), (1, 0)]],
                         ids=["same-orientation", "mirrored"])
def test_partial_edm_rejects_a_duplicate_pair(pairs):
    i, j = np.array(pairs).T
    with pytest.raises(InvalidConfig, match=r"pair \(0, 1\)"):
        PartialEDM(n=4, m=0, dim=2, radio_range=1.0, i=i, j=j, d2=np.ones(len(pairs)))


def test_lookup_answers_known_and_unknown_pairs():
    pedm = pedm_from_pairs(np.zeros((4, 2)), [(0, 2)])
    known, d2 = pedm.lookup(np.array([0, 2, 0, 3]), np.array([2, 0, 1, 3]))
    assert known.tolist() == [True, True, False, False]
    assert d2[:2].tolist() == [0.0, 0.0]
    # the largest key sits below the sentinel
    assert pedm.lookup([3], [3])[0].tolist() == [False]
    empty = PartialEDM(n=2, m=0, dim=2, radio_range=1.0)
    assert empty.lookup([0, 1], [1, 0])[0].tolist() == [False, False]


def test_write_problem_rejects_non_finite_anchors(tmp_path):
    # a nan anchor used to be written, and read_problem then failed on it
    inst = generate_instance(20, 4, 2, seed=6, radio_range=0.3)
    pedm = build_partial_edm(inst)
    path = tmp_path / "problem.snl"
    for bad in (np.nan, np.inf):
        anchors = inst.anchors.copy()
        anchors[1, 0] = bad
        with pytest.raises(InvalidConfig):
            write_problem(path, pedm, anchors)
        assert not path.exists()


def test_problem_file_bad_header(tmp_path):
    path = tmp_path / "bad.snl"
    path.write_text("nope\n")
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == 1


@pytest.mark.parametrize(
    "header",
    ["snl v1 10 -1 2 0.3 0", "snl v1 -10 2 2 0.3 0", "snl v1 10 2 2 nan 0",
     "snl v1 10 2 2 -0.3 0", "snl v1 10 2 2 0.3 -1", "snl v1 10 2 0 0.3 0",
     "snl v1 2 2 2 0.3 0", "snl v1 10 2 2 inf 0", "snl v1 10 2 2 0.3 nan"],
)
def test_problem_file_rejects_bad_header_values(tmp_path, header):
    # the first used to raise numpy's "negative dimensions" ValueError, the
    # next four were accepted silently
    path = tmp_path / "bad.snl"
    path.write_text(header + "\nanchors\n")
    with pytest.raises(ParseError) as err:
        read_problem(path)
    assert err.value.line == 1


def test_solution_file_round_trip(tmp_path):
    positioned = {3: np.array([0.25, 0.5]), 1: np.array([0.1, 0.9])}
    path = tmp_path / "out.sol"
    write_solution(path, positioned)
    got = read_solution(path)
    assert set(got) == {1, 3}
    assert np.array_equal(got[3], positioned[3])


NON_FINITE = [
    (float("nan"), 0.0), (float("inf"), 0.0), (0.3, float("nan")), (0.3, float("inf")),
]
NON_FINITE_IDS = ["R-nan", "R-inf", "sigma-nan", "sigma-inf"]


@pytest.mark.parametrize("R, sigma", NON_FINITE, ids=NON_FINITE_IDS)
def test_generate_rejects_non_finite_range_and_noise(R, sigma):
    # NaN passed both sign checks, and inf passed the range check: sigma=inf
    # stored inf distances and sigma=nan let every singular candidate pass
    # the noisy feasibility slack
    with pytest.raises(InvalidConfig):
        generate_instance(60, 4, 2, seed=0, radio_range=R, noise_factor=sigma)


@pytest.mark.parametrize("R, sigma", NON_FINITE, ids=NON_FINITE_IDS)
def test_partial_edm_rejects_non_finite_range_and_noise(R, sigma):
    with pytest.raises(InvalidConfig):
        PartialEDM(n=5, m=0, dim=2, radio_range=R, noise_factor=sigma)


@pytest.mark.parametrize(
    "body, line",
    [("0 1.0 2.0\n", 2), ("-2 1 1\n", 2), ("1 0.5 0.5\n3 nan 1\n", 3),
     ("3 1 1\n\n3 5 5\n", 4), ("3 1 1\n4 5\n", 3), ("3\n", 2), ("3 1 -inf\n", 2)],
    ids=["id-zero", "id-negative", "nan", "repeated", "fewer-coordinates",
         "no-coordinates", "inf"],
)
def test_solution_file_rejects_malformed_lines(tmp_path, body, line):
    # the first two were stored under keys -1 and -3, a nan coordinate was
    # kept, and a repeated id silently replaced the earlier line
    path = tmp_path / "bad.sol"
    path.write_text("solution v1\n" + body)
    with pytest.raises(ParseError) as err:
        read_solution(path)
    assert err.value.line == line
