import numpy as np
import pytest

from snloc.errors import InvalidConfig
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


@pytest.mark.parametrize("level", [0, 5, "L2"])
def test_localize_rejects_invalid_level(level, monkeypatch):
    # used to surface as numpy's "not a valid StepLevel" ValueError from
    # inside the reduction loop, after seeding and growing
    import snloc.solver

    inst = generate_instance(40, 4, 2, seed=2, radio_range=0.5)
    pedm = build_partial_edm(inst)
    monkeypatch.setattr(snloc.solver, "half_range_cliques", None)
    with pytest.raises(InvalidConfig):
        localize(pedm, inst.anchors, level=level)
