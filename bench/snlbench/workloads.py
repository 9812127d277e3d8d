"""The benchmark's workloads: seeded families of random localization instances.

Every instance lives in r=2 dimensions; its anchors are drawn at random
together with the sensors by ``snloc.generate_instance``.  A *pass* is one instance
per entry of ``Workload.sizes``; a run repeats passes with fresh instances
until its time budget is spent.  Instance seeds derive from the workload
seed and the pass index only, so the same seed gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from snloc import StepLevel

DIM = 2


@dataclass(frozen=True)
class Workload:
    """One instance family.

    sizes and radii give n and the radio range of each instance in a pass;
    anchors is m, the number of anchors among the n nodes.
    A positioned instance's RMSD must not exceed rmsd_max, and the mean RMSD
    over a run's positioned instances must reach mean_rmsd_min (noise that
    was dropped shows there), for the solves to count as correct.
    """

    name: str
    why: str
    sizes: tuple[int, ...]
    radii: tuple[float, ...]
    level: StepLevel
    sigma: float
    rmsd_max: float
    mean_rmsd_min: float = 0.0
    anchors: int = 4

    def instance_seeds(self, seed: int, pass_index: int) -> list[int]:
        return [
            int(np.random.SeedSequence([seed, pass_index, slot]).generate_state(1, np.uint64)[0])
            for slot in range(len(self.sizes))
        ]


def _fixed_degree_radii(sizes, n0: int, r0: float) -> tuple[float, ...]:
    # R^2 n constant keeps the average degree constant
    return tuple(r0 * math.sqrt(n0 / n) for n in sizes)


RIGID_SIZES = (2004, 4004, 8004)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rigid-scaling",
            why="rigid merge chain at fixed average degree 29 and n=2004/4004/8004; "
            "per-merge cost grows with the clique, so this gives the scaling exponent",
            sizes=RIGID_SIZES,
            radii=_fixed_degree_radii(RIGID_SIZES, 2004, 0.07),
            level=StepLevel.L2,
            sigma=0.0,
            # acceptance criteria c04/c05/c07: exact data, rigid steps only
            rmsd_max=1e-8,
        ),
        Workload(
            name="singular-sparse",
            why="sparse L4 graph at the Table 3 degree (n=354, R=.095, m=8); the only "
            "workload that runs singular unions, absorptions and their feasibility test",
            sizes=(354,),
            radii=_fixed_degree_radii((354,), 2004, 0.04),
            level=StepLevel.L4,
            sigma=0.0,
            # singular merges accept a branch when every known squared distance
            # matches to feas_tol=1e-6, i.e. distances to ~1e-5 at this range;
            # a wrong branch gives RMSD ~1e-1.  The acceptance suite sets no
            # RMSD bound at L3/L4 (c04/c05/c07's 1e-8 is for rigid steps only).
            rmsd_max=1e-4,
            # small instances, so that a run averages over many: solve time
            # varies ~35% between instances.  With m=4 a third of them position
            # nothing, because fewer than r+1 anchors join the rigid component;
            # m=8 makes that rare
            anchors=8,
        ),
        Workload(
            name="noisy-dense",
            why="rigid chain on noisy data (sigma=1e-4, n=2004, R=.08); RMSD guards "
            "the rigid layer's accuracy and noise is drawn in set-up",
            sizes=(2004,),
            radii=(0.08,),
            level=StepLevel.L2,
            sigma=1e-4,
            # acceptance criterion c08: its band [4e-4, 4e-2] bounds the mean
            # over trials; single instances fall below 4e-4 (3.5e-4 seen)
            rmsd_max=4e-2,
            mean_rmsd_min=4e-4,
        ),
    )
}
