"""The array form of the measured pairs against a brute-force dict.

Each example draws a small graph: random pairs in random orientation with
random squared distances, plus every pair of anchors, as
``build_partial_edm`` measures them.  The same pairs go into one dict per node, and every reader
of the array form must agree with those dicts.
"""

import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snloc.errors import InvalidConfig, NotAClique
from snloc.instance import (
    PartialEDM,
    average_degree,
    build_partial_edm,
    generate_instance,
    read_problem,
    write_problem,
)

from helpers import PAIR_ARRAYS, concatenated_pair_arrays


@st.composite
def graphs(draw):
    """(PartialEDM, one dict per node) over the same random pairs."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(0, min(n - 1, 5)))
    drawn = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80))
    pairs = {tuple(sorted(p)) for p in drawn if p[0] != p[1]}
    pairs |= {(a, b) for a in range(n - m, n) for b in range(a + 1, n)}
    pairs = sorted(pairs)
    d2 = draw(st.lists(st.floats(0.0, 1e6), min_size=len(pairs), max_size=len(pairs)))
    flip = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    order = draw(st.permutations(range(len(pairs))))
    adj = [{} for _ in range(n)]
    i, j, v = [], [], []
    for k in order:
        a, b = pairs[k]
        adj[a][b] = adj[b][a] = d2[k]
        i.append(b if flip[k] else a)
        j.append(a if flip[k] else b)
        v.append(d2[k])
    pedm = PartialEDM(n=n, m=m, dim=2, radio_range=1.0, i=np.array(i, dtype=np.int64),
                      j=np.array(j, dtype=np.int64), d2=v)
    return pedm, adj


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(graphs())
def test_rows_are_the_sorted_dicts(graph):
    pedm, adj = graph
    assert pedm.indptr[0] == 0 and pedm.indptr[-1] == pedm.indices.size == pedm.d2.size
    assert pedm.adj == [sorted(a) for a in adj]
    for u in range(pedm.n):
        row = pedm.row(u)
        assert row == sorted(adj[u])
        assert pedm.d2[pedm.indptr[u] : pedm.indptr[u + 1]].tolist() == [adj[u][v] for v in row]
    # every anchor is measured to every other
    anchors = list(range(pedm.n - pedm.m, pedm.n))
    pedm.submatrix(anchors)
    assert average_degree(pedm) == sum(map(len, adj)) / pedm.n


@SETTINGS
@given(graphs())
def test_lookup_and_gather_match_the_dicts(graph):
    pedm, adj = graph
    n = pedm.n
    i, j = np.divmod(np.arange(n * n), n)
    known, d2 = pedm.lookup(i, j)
    assert known.tolist() == [b in adj[a] for a, b in zip(i.tolist(), j.tolist())]
    # symmetric: (i, j) and (j, i) give the same value
    assert np.array_equal(d2[known], pedm.lookup(j, i)[1][known])
    assert d2[known].tolist() == [adj[a][b] for a, b in zip(i[known].tolist(), j[known].tolist())]
    nodes = [u for u in range(n) if u % 3 != 1][::-1]
    owner, nbrs, vals = pedm.gather(nodes)
    want = [(a, v, adj[u][v]) for a, u in enumerate(nodes) for v in sorted(adj[u])]
    assert list(zip(owner.tolist(), nbrs.tolist(), vals.tolist())) == want


@SETTINGS
@given(graphs(), st.data())
def test_submatrix_matches_the_dicts(graph, data):
    pedm, adj = graph
    nodes = data.draw(st.lists(st.integers(0, pedm.n - 1), min_size=1, max_size=6, unique=True))
    missing = [(a, b) for x, a in enumerate(nodes) for b in nodes[x + 1 :] if b not in adj[a]]
    if missing:
        with pytest.raises(NotAClique, match=rf"pair \({missing[0][0]}, {missing[0][1]}\)"):
            pedm.submatrix(nodes)
    else:
        want = [[adj[a].get(b, 0.0) for b in nodes] for a in nodes]
        assert pedm.submatrix(nodes).tolist() == want


@SETTINGS
@given(graphs())
def test_known_pairs_and_the_problem_file_round_trip(graph):
    pedm, adj = graph
    want = [(a, b, adj[a][b]) for a in range(pedm.n) for b in sorted(adj[a]) if a < b]
    assert list(pedm.known_pairs()) == want
    anchors = np.random.default_rng(pedm.n).random((pedm.m, pedm.dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.snl"
        write_problem(path, pedm, anchors)
        got, got_anchors = read_problem(path)
    assert (got.n, got.m, got.dim) == (pedm.n, pedm.m, pedm.dim)
    assert np.array_equal(got.indptr, pedm.indptr)
    assert np.array_equal(got.indices, pedm.indices)
    assert got.d2.tobytes() == pedm.d2.tobytes()
    assert got_anchors.tobytes() == anchors.tobytes()


def test_shuffled_pairs_of_a_large_instance_give_the_same_arrays():
    # the constructor orders the pairs with a sort that is not stable, whose
    # order only distinct keys make unique, and the graphs above stop at
    # n=24.  An n=2004 instance's pairs, shuffled and each in a random
    # orientation, must give build_partial_edm's arrays bit for bit
    inst = generate_instance(2004, 4, 2, seed=0, radio_range=0.08, noise_factor=1e-4)
    ref = build_partial_edm(inst)
    i, j, d2 = (np.array(col) for col in zip(*ref.known_pairs()))
    rng = np.random.default_rng(11)
    order = rng.permutation(i.size)
    i, j, d2 = i[order], j[order], d2[order]
    flip = rng.random(i.size) < 0.5
    i, j = np.where(flip, j, i), np.where(flip, i, j)
    got = PartialEDM(n=ref.n, m=ref.m, dim=ref.dim, radio_range=ref.radio_range,
                     noise_factor=ref.noise_factor, i=i, j=j, d2=d2)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.d2.tobytes() == ref.d2.tobytes()
    # every pair in both orientations, and as many random ones
    qi = np.concatenate([i, j, rng.integers(0, ref.n, i.size)])
    qj = np.concatenate([j, i, rng.integers(0, ref.n, i.size)])
    (got_known, got_d2), (ref_known, ref_d2) = got.lookup(qi, qj), ref.lookup(qi, qj)
    assert np.array_equal(got_known, ref_known) and got_known[: 2 * i.size].all()
    assert got_d2.tobytes() == ref_d2.tobytes()


@pytest.mark.parametrize("call, bad", [
    (lambda p: p.lookup(0, 6), 6),
    (lambda p: p.lookup([1, 0], [2, -1]), -1),
    (lambda p: p.lookup(np.array([[4], [1]]), np.array([[2, 3]])), 4),
    (lambda p: p.submatrix([0, 6]), 6),
    (lambda p: p.submatrix([-1, 3]), -1),
], ids=["lookup-above", "lookup-negative", "lookup-broadcast", "submatrix-above",
        "submatrix-negative"])
def test_ids_outside_the_nodes_are_rejected(call, bad):
    # the key i*n + j of (0, 6) is that of the measured pair (1, 2), and
    # lookup used to answer with its distance
    p = PartialEDM(4, 0, 2, 1.0, i=[1, 0], j=[2, 3], d2=[0.25, 0.5])
    with pytest.raises(InvalidConfig, match=rf"node id {bad} is not in \[0, 4\)"):
        call(p)
    known, d2 = p.lookup([1, 2, 0, 3], [2, 1, 3, 3])
    assert known.tolist() == [True, True, True, False]
    assert d2[:3].tolist() == [0.25, 0.25, 0.5]


def assert_pair_arrays_equal(pedm, want: dict) -> None:
    for name in PAIR_ARRAYS:
        got = getattr(pedm, name)
        assert got.dtype == want[name].dtype and got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("n, m, r, R, sigma", [
    (2004, 4, 2, 0.08, 0.0), (2004, 4, 2, 0.08, 1e-4), (600, 6, 3, 0.3, 0.0),
    (400, 49, 2, 0.15, 1e-4),
], ids=["exact", "noisy", "r3", "m49"])
def test_pair_arrays_match_the_concatenated_form(n, m, r, R, sigma):
    # the constructor fills both directions in place and sorts them with one
    # argsort; every array the solver reads must be bitwise what the
    # concatenate-and-argsort form gives, for build_partial_edm's pairs (in
    # (i, j) order, anchors last) and for the same pairs shuffled, each in
    # a random orientation
    inst = generate_instance(n, m, r, seed=3, radio_range=R, noise_factor=sigma)
    pedm = build_partial_edm(inst)
    i, j, d2 = (np.array(col) for col in zip(*pedm.known_pairs()))
    want = concatenated_pair_arrays(n, i, j, d2)
    assert_pair_arrays_equal(pedm, want)
    rng = np.random.default_rng(n + m)
    order = rng.permutation(i.size)
    i, j, d2 = i[order], j[order], d2[order]
    flip = rng.random(i.size) < 0.5
    i, j = np.where(flip, j, i), np.where(flip, i, j)
    args = dict(n=n, m=m, dim=r, radio_range=R, noise_factor=sigma)
    shuffled = PartialEDM(**args, i=i, j=j, d2=d2)
    assert_pair_arrays_equal(shuffled, concatenated_pair_arrays(n, i, j, d2))
    assert_pair_arrays_equal(shuffled, want)
    # a pair given twice, the second time mirrored, and a self pair raise
    # as the concatenated form does
    k = i.size // 2
    for bad in ((np.append(i, j[k]), np.append(j, i[k]), np.append(d2, d2[k])),
                (np.insert(i, k, 7), np.insert(j, k, 7), np.insert(d2, k, 0.0))):
        with pytest.raises(InvalidConfig) as ref:
            concatenated_pair_arrays(n, *bad)
        with pytest.raises(InvalidConfig, match=f"^{re.escape(str(ref.value))}$"):
            PartialEDM(**args, i=bad[0], j=bad[1], d2=bad[2])


def test_the_set_up_needs_at_most_twice_its_result():
    # the traced peak of build_partial_edm at rigid-scaling's largest size,
    # against the bytes of the arrays it keeps; holding every temporary to
    # the end of its scope took three times the result
    n = 8004
    inst = generate_instance(n, 4, 2, seed=0, radio_range=0.07 * np.sqrt(2004 / n))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pedm = build_partial_edm(inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    kept = sum(getattr(pedm, name).nbytes for name in ("_keys", "_values", "indices", "indptr"))
    assert pedm.indices.size > 200_000
    assert peak <= 2 * kept
