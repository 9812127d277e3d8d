"""Invariance of the solution under motions, scalings and relabellings of
the whole input.

Small exact L2 instances (n=120, R=.18) make 14-22 rigid node absorptions
each, so the absorption path that synthesizes distances from a clique's
stored frame runs in every example.  Anchors move with the sensors, so the
solution must move, or scale, the same way.  A relabelling of the sensors
must position the same sensors at the same points.  The examples are drawn
the same way on every run and stored nowhere.  At L3 and L4 the merge order
decides which singular steps run, so a relabelling is recorded per seed,
not asserted to change nothing.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snloc.faces import Tolerances
from snloc.instance import build_partial_edm, generate_instance
from snloc.reducer import StepLevel
from snloc.solver import localize

N, M, R = 120, 4, 0.18


def _solve(inst):
    rep = localize(build_partial_edm(inst), inst.points[N - M :], level=StepLevel.L2)
    assert rep.step_counts["rigid_absorb"] > 0
    ids = sorted(rep.positioned)
    return rep.step_counts, ids, np.array([rep.positioned[u] for u in ids])


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 3),
    angle=st.floats(0.0, 2 * np.pi),
    reflect=st.booleans(),
    shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_a_rigid_motion_moves_the_solution_the_same_way(seed, angle, reflect, shift):
    inst = generate_instance(N, M, 2, seed=seed, radio_range=R)
    c, s = np.cos(angle), np.sin(angle)
    Q = np.array([[c, -s], [s, c]]) @ (np.diag([1.0, -1.0]) if reflect else np.eye(2))
    moved = dataclasses.replace(inst, points=inst.points @ Q + np.array(shift))
    counts, ids, X = _solve(inst)
    moved_counts, moved_ids, Y = _solve(moved)
    assert moved_counts == counts and moved_ids == ids
    assert np.max(np.abs(Y - (X @ Q + np.array(shift)))) <= 1e-9


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 3), scale=st.floats(0.05, 20.0))
def test_a_uniform_scaling_scales_the_solution(seed, scale):
    inst = generate_instance(N, M, 2, seed=seed, radio_range=R)
    scaled = dataclasses.replace(inst, points=scale * inst.points, radio_range=scale * R)
    counts, ids, X = _solve(inst)
    scaled_counts, scaled_ids, Y = _solve(scaled)
    assert scaled_counts == counts and scaled_ids == ids
    assert np.max(np.abs(Y - scale * X)) <= 1e-9 * scale


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 11), order=st.integers(0, 2**32 - 1))
def test_relabelling_the_sensors_positions_the_same_points(seed, order):
    # L2 at n=200, R=.16 (6-26 rigid absorptions); the anchors keep their
    # ids, the last ones.  At L1 the positioned set does depend on the
    # labels: grow_cliques extends the cliques by ascending node id
    n, m = 200, 4
    inst = generate_instance(n, m, 2, seed=seed, radio_range=0.16)
    perm = np.random.default_rng(order).permutation(n - m)
    points = inst.points.copy()
    points[: n - m] = inst.points[perm]
    relabelled = dataclasses.replace(inst, points=points)
    rep = localize(build_partial_edm(inst), inst.anchors, level=StepLevel.L2)
    rep2 = localize(build_partial_edm(relabelled), inst.anchors, level=StepLevel.L2)
    assert rep.step_counts["rigid_absorb"] > 0
    # sensor u of the relabelled instance is sensor perm[u] of the original
    back = {int(perm[u]): x for u, x in rep2.positioned.items()}
    assert back.keys() == rep.positioned.keys()
    assert max(np.max(np.abs(back[u] - x)) for u, x in rep.positioned.items()) <= 1e-9


# the Table 3 degree at n=354
SPARSE_R = 0.04 * np.sqrt(2004 / 354)


@pytest.mark.parametrize("level, seed, positioned, same_set, same_counts", [
    (StepLevel.L3, 0, 291, True, False),
    (StepLevel.L3, 1, 287, True, False),
    (StepLevel.L3, 2, 276, True, False),
    (StepLevel.L4, 0, 317, True, False),
    (StepLevel.L4, 1, 338, True, False),
    (StepLevel.L4, 2, 341, True, False),
])
def test_relabelling_the_sensors_at_l3_and_l4_is_recorded(level, seed, positioned, same_set,
                                                          same_counts):
    # exact instances at n=354, m=8 and the Table 3 degree, L4 with the
    # range bounds (without them L4 runs L3's steps).  A random relabelling
    # of the sensors changes the merge order, and with it the step counts,
    # on every seed here; the positioned set stayed the same on each of
    # seeds 0-29 at both levels.  The outcome is pinned, not asserted as an
    # invariance: a change of it is a finding, to be recorded here
    n, m = 354, 8
    tol = Tolerances(use_range_bounds=True) if level == StepLevel.L4 else None
    inst = generate_instance(n, m, 2, seed=seed, radio_range=SPARSE_R)
    perm = np.random.default_rng(seed).permutation(n - m)
    points = inst.points.copy()
    points[: n - m] = inst.points[perm]
    relabelled = dataclasses.replace(inst, points=points)
    rep = localize(build_partial_edm(inst), inst.anchors, level=level, tol=tol)
    rep2 = localize(build_partial_edm(relabelled), inst.anchors, level=level, tol=tol)
    # sensor u of the relabelled instance is sensor perm[u] of the original
    back = {int(perm[u]) for u in rep2.positioned}
    assert (len(rep.positioned), len(rep2.positioned)) == (positioned, len(back))
    assert (back == rep.positioned.keys()) == same_set
    assert (rep.step_counts == rep2.step_counts) == same_counts
