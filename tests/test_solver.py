import numpy as np
import pytest

from snloc.errors import InvalidConfig
from snloc.faces import FaceRep, Tolerances
from snloc.instance import build_partial_edm, generate_instance
from snloc.reducer import StepLevel
from snloc.solver import localize


def solve_seeded(seed=4, n=80, m=4, R=0.35, level=StepLevel.L2, sigma=0.0):
    inst = generate_instance(n, m, 2, seed=seed, radio_range=R, noise_factor=sigma)
    pedm = build_partial_edm(inst)
    report = localize(pedm, inst.anchors, level=level, truth=inst.points)
    return inst, report


def test_localize_positions_everything_on_dense_instance():
    inst, report = solve_seeded()
    assert report.success
    assert len(report.positioned) == inst.n - inst.m
    assert report.rmsd <= 1e-9
    assert report.max_error <= 1e-8
    assert report.cpu_seconds > 0
    assert sum(report.step_counts.values()) > 0


def test_localize_positions_match_truth_nodewise():
    inst, report = solve_seeded(seed=12)
    for node, coords in report.positioned.items():
        assert node < inst.n - inst.m
        assert np.linalg.norm(coords - inst.points[node]) <= 1e-8


def test_localize_deterministic():
    _, a = solve_seeded(seed=7)
    _, b = solve_seeded(seed=7)
    assert a.success == b.success
    assert set(a.positioned) == set(b.positioned)
    for node in a.positioned:
        assert np.array_equal(a.positioned[node], b.positioned[node])
    assert a.step_counts == b.step_counts


def test_localize_unsuccessful_when_disconnected_from_anchors():
    # radio range far below the connectivity threshold
    inst, report = solve_seeded(seed=1, n=200, R=0.02)
    assert not report.success
    assert report.positioned == {}
    assert report.max_error is None and report.rmsd is None


def test_localize_without_anchors_reports_failure():
    inst = generate_instance(40, 0, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    report = localize(pedm, np.zeros((0, 2)), level=StepLevel.L2)
    assert not report.success


def test_localize_gram_residual_reported_for_noisy_runs():
    inst, report = solve_seeded(seed=3, n=120, R=0.35, sigma=1e-4)
    assert report.success
    assert report.gram_residual is not None
    assert report.gram_residual >= 0.0


def test_localize_trace_lines(tmp_path):
    import io

    inst = generate_instance(60, 4, 2, seed=5, radio_range=0.4)
    pedm = build_partial_edm(inst)
    buf = io.StringIO()
    report = localize(pedm, inst.anchors, level=StepLevel.L2, trace=buf)
    lines = [ln for ln in buf.getvalue().splitlines() if ln]
    assert len(lines) == sum(report.step_counts.values())
    for ln in lines:
        assert ln.startswith("step=")
        fields = dict(part.split("=", 1) for part in ln.split())
        assert {"step", "i", "j", "|C|", "positioned"} <= set(fields)


def _with_entry(anchors, value):
    out = anchors.copy()
    out[1, 0] = value
    return out


@pytest.mark.parametrize(
    "make_bad",
    [lambda a: a[:3], lambda a: a.T, lambda a: a.ravel(),
     lambda a: _with_entry(a, np.nan), lambda a: _with_entry(a, np.inf)],
    ids=["short", "transposed", "flat", "nan", "inf"],
)
def test_localize_rejects_wrong_anchor_shape(make_bad, monkeypatch):
    # a non-finite anchor used to solve everything and then raise numpy's
    # "SVD did not converge"; the check must come before any work
    import snloc.solver

    inst = generate_instance(40, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig):
        localize(pedm, make_bad(inst.anchors), level=StepLevel.L2)


def test_localize_fails_on_collinear_anchors():
    # three anchors on one line leave the reflection across it undetermined;
    # some seeds used to come out mirrored (RMSD ~0.6) with success=True
    for seed in range(6):
        inst = generate_instance(300, 3, 2, seed=seed, radio_range=0.3)
        inst.points[-3:] = [[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]
        pedm = build_partial_edm(inst)
        report = localize(pedm, inst.anchors, level=StepLevel.L2, truth=inst.points)
        assert not report.success
        assert report.positioned == {}


@pytest.mark.parametrize("size", [0, 1, 3])
def test_localize_rejects_a_clique_size_of_r_plus_one_or_less(size):
    # max_clique_size=0 used to be read as "use the default"
    inst = generate_instance(40, 4, 2, seed=2, radio_range=0.5)
    with pytest.raises(InvalidConfig):
        localize(build_partial_edm(inst), inst.anchors, max_clique_size=size)


@pytest.mark.parametrize("size", [9.5, float("nan"), True])
def test_localize_rejects_a_clique_size_that_is_not_an_integer(size, monkeypatch):
    # 9.5 and NaN used to lift the size limit (grow_cliques never met it);
    # the check runs before seeding
    import snloc.solver

    inst = generate_instance(40, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig, match="max_size must be an integer"):
        localize(pedm, inst.anchors, max_clique_size=size)


@pytest.mark.parametrize("level", [0, 5, "L2", True, 2.0])
def test_localize_rejects_invalid_level(level, monkeypatch):
    # used to surface as numpy's "not a valid StepLevel" ValueError from
    # inside the reduction loop, after seeding and growing; True and 2.0
    # used to run L1 and L2
    import snloc.solver

    inst = generate_instance(40, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig):
        localize(pedm, inst.anchors, level=level)


@pytest.mark.parametrize("truth", [np.zeros((3, 2)), np.zeros((60, 3)), np.zeros(120),
                                   np.full((60, 2), np.nan), [["x", "y"]] * 60],
                         ids=["too-few-rows", "too-many-columns", "flat", "nan", "text"])
def test_localize_rejects_a_truth_that_is_not_a_finite_n_by_r_array(truth, monkeypatch):
    # truth=np.zeros((3, 2)) on an n=60 instance used to solve everything
    # and then raise a bare IndexError in the error metrics
    import snloc.solver

    inst = generate_instance(60, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig, match="truth|true positions"):
        localize(pedm, inst.anchors, truth=truth)


@pytest.mark.parametrize("tol", ["1e-6", 1e-6, {"rank": 1e-9}])
def test_localize_rejects_a_tol_that_is_not_tolerances(tol, monkeypatch):
    # a string used to fail with "'str' object has no attribute 'rank'"
    import snloc.solver

    inst = generate_instance(60, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig, match="Tolerances"):
        localize(pedm, inst.anchors, tol=tol)


@pytest.mark.parametrize(
    "r, m, R, sigma, level, bounds",
    [(2, 4, 0.16, 0.0, StepLevel.L2, False),
     (2, 4, 0.16, 1e-4, StepLevel.L2, False),
     (3, 6, 0.22, 0.0, StepLevel.L4, True)],
    ids=["exact-L2", "noisy-L2", "r3-L4-range-bounds"],
)
def test_a_solve_never_builds_a_face_basis(monkeypatch, r, m, R, sigma, level, bounds):
    # the steps and the final recovery read the faces' stored rows; only a
    # singular merge builds an orthonormal basis, its own ExtendedFaceRep's
    def refuse(face):
        raise AssertionError("a FaceRep basis was built")

    monkeypatch.setattr(FaceRep, "_materialize", refuse)
    inst = generate_instance(100 * r, m, r, seed=0, radio_range=R, noise_factor=sigma)
    tol = Tolerances.for_noise(sigma, use_range_bounds=bounds)
    report = localize(build_partial_edm(inst), inst.anchors, level=level, tol=tol,
                      truth=inst.points)
    assert len(report.positioned) > 0.85 * inst.n
    assert report.rmsd <= (1e-5 if sigma == 0 else 1e-1)
    assert report.step_counts["rigid_union"] > 100 and report.step_counts["rigid_absorb"] > 0
    if r == 3:
        assert report.step_counts["nonrigid_union"] > 0
        assert report.step_counts["nonrigid_absorb"] > 0
