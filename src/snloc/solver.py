"""End-to-end localization of one partial distance matrix."""

from __future__ import annotations

import time

import numpy as np

from .errors import DegenerateAnchors, InvalidConfig, NoRigidSeed, RankDeficient
from .faces import Tolerances
from .instance import PartialEDM, half_range_cliques
from .recovery import SolveReport, align_to_anchors, metrics, points_from_face
from .reducer import StepLevel, clique_size_limit, grow_cliques, init_family, run, step_level

__all__ = ["localize"]


def localize(
    pedm: PartialEDM,
    anchors: np.ndarray,
    level: StepLevel = StepLevel.L2,
    tol: Tolerances | None = None,
    max_clique_size: int | None = None,
    truth: np.ndarray | None = None,
    trace=None,
) -> SolveReport:
    """Position as many sensors as the clique reductions allow.

    Seeds cliques from half the radio range, grows them, runs the reduction
    loop at the given level, recovers coordinates for the final clique that
    contains the anchors, and aligns them to the anchor positions.  The
    reported time covers everything from seeding through alignment; instance
    generation and error evaluation are outside it.  A solve is successful
    when at least one sensor was positioned.  anchors must be a finite
    (m, r) array and level one of the StepLevel values (InvalidConfig
    otherwise, raised before any work).  The grown cliques hold at most
    max_clique_size nodes, 3(r+1) when it is None; it must be an integer
    above r+1 (InvalidConfig, raised before any work).
    """
    r = pedm.dim
    level = step_level(level)
    max_size = 3 * (r + 1) if max_clique_size is None else clique_size_limit(max_clique_size, r)
    anchors = np.asarray(anchors, dtype=float)
    if anchors.shape != (pedm.m, r):
        raise InvalidConfig(
            f"anchor array shape {anchors.shape} does not match m={pedm.m}, r={r}"
        )
    if not np.all(np.isfinite(anchors)):
        raise InvalidConfig("anchor coordinates must be finite")
    if tol is None:
        tol = Tolerances.for_noise(pedm.noise_factor)
    t0 = time.perf_counter()
    seeds = half_range_cliques(pedm)
    family = init_family(pedm, seeds)
    grow_cliques(family, max_size)
    run(family, level=level, tol=tol, trace=trace)
    positioned: dict[int, np.ndarray] = {}
    residual = None
    final_id = family.anchor_clique_id
    if final_id is not None:
        n_sensors = pedm.n - pedm.m
        sensors = sorted(u for u in family.cliques[final_id] if u < n_sensors)
        if sensors:
            try:
                comp = points_from_face(family.face_of(final_id, tol), pedm, tol)
                comp = align_to_anchors(comp, anchors, np.arange(n_sensors, pedm.n))
                rows = comp.rows(np.asarray(sensors))
                positioned = {u: comp.coords[row] for u, row in zip(sensors, rows)}
                residual = comp.gram_residual
            except (NoRigidSeed, RankDeficient, DegenerateAnchors):
                positioned = {}
    cpu = time.perf_counter() - t0
    max_error = rmsd = None
    if positioned and truth is not None:
        max_error, rmsd = metrics(positioned, truth)
    return SolveReport(
        positioned=positioned,
        success=bool(positioned),
        max_error=max_error,
        rmsd=rmsd,
        cpu_seconds=cpu,
        step_counts=dict(family.step_counts),
        gram_residual=residual,
    )
