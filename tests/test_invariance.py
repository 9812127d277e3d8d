"""Invariance of the solution under motions and scalings of the whole input.

Small exact L2 instances (n=120, R=.18) make 14-22 rigid node absorptions
each, so the absorption path that synthesizes distances from a clique's
stored frame runs in every example.  Anchors move with the sensors, so the
solution must move, or scale, the same way.  The examples are drawn the
same way on every run and stored nowhere.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
