import numpy as np
import pytest

from snloc.edm_core import (
    RankTolerance,
    eigh_descending,
    full_rank_factor,
    kappa,
    kappa_adjoint,
    kappa_pinv,
)
from snloc.errors import InvalidConfig, RankDeficient

from helpers import edm_of

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
    eig = eigh_descending(B)
    assert np.all(np.diff(eig.values) <= 1e-12)
    assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(8), atol=1e-10)


def test_best_psd_perturbation_bound():
    # F F^T from full_rank_factor is the best rank-r PSD approximation:
    # ||F F^T - B0||_F <= 2 ||E||_F for B0 rank-r PSD
    for _ in range(20):
        F = RNG.standard_normal((7, 2))
        B0 = F @ F.T
        E = 1e-6 * random_symmetric(RNG, 7)
        G = full_rank_factor(B0 + E, 2)
        assert np.linalg.norm(G @ G.T - B0) <= 2 * np.linalg.norm(E) + 1e-12


def test_best_psd_optimality_against_random_feasible():
    # full_rank_factor's F F^T is Frobenius-nearest among rank-<=r PSD
    # matrices: no random feasible C beats it
    trials = 0
    while trials < 50:
        n = int(RNG.integers(3, 7))
        r = int(RNG.integers(1, n - 1))
        B = random_symmetric(RNG, n)
        try:
            F = full_rank_factor(B, r)
        except RankDeficient:
            continue  # fewer than r positive eigenvalues
        trials += 1
        dist = np.linalg.norm(B - F @ F.T)
        for _ in range(50):
            F = RNG.standard_normal((n, r))
            C = F @ F.T
            assert dist <= np.linalg.norm(B - C) + 1e-9


def test_full_rank_factor_identity():
    F = full_rank_factor(np.eye(2), 2)
    assert np.allclose(F @ F.T, np.eye(2), atol=1e-12)


def test_full_rank_factor_round_trip_and_orthogonal_columns():
    P = RNG.random((4, 2))
    D = edm_of(P)
    F = full_rank_factor(kappa_pinv(D), 2)
    assert np.max(np.abs(kappa(F @ F.T) - D)) <= 1e-10
    off = F.T @ F
    assert abs(off[0, 1]) <= 1e-10 * max(off[0, 0], off[1, 1])


def test_full_rank_factor_rank_deficient():
    v = RNG.standard_normal(5)
    with pytest.raises(RankDeficient):
        full_rank_factor(np.outer(v, v), 2)


def test_rank_tolerance_validation():
    with pytest.raises(ValueError):
        RankTolerance(relative_cut=0.0)
    with pytest.raises(ValueError):
        RankTolerance(relative_cut=1.5)


@pytest.mark.parametrize("cut", [0.0, 1.0, 2.0, -1e-9, float("nan"), float("inf")])
def test_rank_tolerance_rejects_a_cut_outside_the_unit_interval(cut):
    with pytest.raises(InvalidConfig):
        RankTolerance(relative_cut=cut)
