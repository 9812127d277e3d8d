import numpy as np
import pytest

from snloc.edm_core import (
    RankTolerance,
    eigh_descending,
    kappa_pinv,
)
from snloc.errors import InvalidConfig

from helpers import edm_of, kappa, kappa_adjoint

RNG = np.random.default_rng(20240811)


def rel_err(A, B):
    denom = max(np.linalg.norm(B), np.finfo(float).eps)
    return np.linalg.norm(A - B) / denom


def random_symmetric(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) * scale
    return 0.5 * (M + M.T)


def test_kappa_zero():
    assert np.all(kappa(np.zeros((3, 3))) == 0)


def test_kappa_identity_two_points():
    D = kappa(np.eye(2))
    assert np.allclose(D, [[0.0, 2.0], [2.0, 0.0]])


def test_kappa_matches_pairwise_distances():
    P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    D = kappa(P @ P.T)
    # oracle: direct pairwise squared distances
    assert np.allclose(D, edm_of(P), atol=1e-14)
    assert D[0, 1] == pytest.approx(1.0)
    assert D[0, 2] == pytest.approx(4.0)
    assert D[1, 2] == pytest.approx(5.0)


def test_kappa_output_hollow_symmetric():
    for _ in range(20):
        Y = random_symmetric(RNG, 6)
        D = kappa(Y)
        assert np.all(np.diag(D) == 0)
        assert np.allclose(D, D.T)


def test_kappa_adjoint_zero_and_closed_form():
    assert np.all(kappa_adjoint(np.zeros((4, 4))) == 0)
    got = kappa_adjoint(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(got, [[2.0, -2.0], [-2.0, 2.0]])


def test_adjoint_identity_on_random_pairs():
    # <kappa(Y), D> == <Y, kappa_adjoint(D)> via direct inner products
    for _ in range(100):
        n = int(RNG.integers(2, 9))
        Y = random_symmetric(RNG, n)
        D = random_symmetric(RNG, n)
        lhs = float(np.sum(kappa(Y) * D))
        rhs = float(np.sum(Y * kappa_adjoint(D)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_kappa_pinv_zero_and_two_point_line():
    assert np.all(kappa_pinv(np.zeros((3, 3))) == 0)
    # oracle: centered points at +-sqrt(2)/2 on a line realize D = [[0,2],[2,0]]
    pts = np.array([[-np.sqrt(2.0) / 2], [np.sqrt(2.0) / 2]])
    got = kappa_pinv(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(got, pts @ pts.T)
    assert np.allclose(got, [[0.5, -0.5], [-0.5, 0.5]])


def test_kappa_pinv_output_centered():
    for _ in range(20):
        D = np.abs(random_symmetric(RNG, 7))
        np.fill_diagonal(D, 0.0)
        B = kappa_pinv(D)
        assert np.linalg.norm(B.sum(axis=1)) <= 1e-10 * max(np.linalg.norm(B), 1e-30)


def test_round_trip_hollow():
    # kappa(kappa_pinv(D)) == D for hollow symmetric D
    for _ in range(50):
        n = int(RNG.integers(2, 10))
        D = random_symmetric(RNG, n)
        np.fill_diagonal(D, 0.0)
        assert rel_err(kappa(kappa_pinv(D)), D) <= 1e-10


def test_round_trip_centered():
    # kappa_pinv(kappa(Y)) == Y for centered Y
    for _ in range(50):
        n = int(RNG.integers(2, 10))
        Y = random_symmetric(RNG, n)
        J = np.eye(n) - np.ones((n, n)) / n
        Yc = J @ Y @ J
        assert rel_err(kappa_pinv(kappa(Yc)), Yc) <= 1e-10


def test_edm_round_trip_from_points():
    for _ in range(20):
        P = RNG.random((6, 2))
        D = edm_of(P)
        assert rel_err(kappa(kappa_pinv(D)), D) <= 1e-10


def test_eigh_descending_contract():
    B = random_symmetric(RNG, 8)
    values, vectors = eigh_descending(B)
    assert np.all(np.diff(values) <= 1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(8), atol=1e-10)


def test_rank_tolerance_validation():
    with pytest.raises(ValueError):
        RankTolerance(relative_cut=0.0)
    with pytest.raises(ValueError):
        RankTolerance(relative_cut=1.5)


@pytest.mark.parametrize("cut", [0.0, 1.0, 2.0, -1e-9, float("nan"), float("inf")])
def test_rank_tolerance_rejects_a_cut_outside_the_unit_interval(cut):
    with pytest.raises(InvalidConfig):
        RankTolerance(relative_cut=cut)
