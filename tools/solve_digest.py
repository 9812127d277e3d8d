"""Solve a fixed list of instances and record, or compare, what came out.

Usage, from the root of a source checkout:

    python3 tools/solve_digest.py --src src --out new.npz
    python3 tools/solve_digest.py --src ../other/src --out old.npz --against new.npz

Each instance's ``step_counts``, positioned sensor ids, their coordinates
and their RMSD against the true positions are written to ``--out``.  With
``--against``, each instance is compared with the same instance in that
file: the script prints whether the counts and the positioned sets are
equal and the largest coordinate difference over the nodes both
positioned, with the positioned counts (that file's -> this run's) where
the sets differ, and the RMSDs (that file's -> this run's) where the
coordinates differ, then one summary line ("70 of 70 equal (counts,
sets); largest coordinate difference 0"), and exits 1 when any counts or
sets differ.  A digest written before RMSDs were stored compares as
before, without them.
``--only NAME ...`` restricts the run to the named instances.  The
``snloc`` package is imported from ``--src``; the benchmark instances are
drawn as ``bench/`` of this checkout draws them.

The instances: the twelve benchmark instances of seed 0 (rigid-scaling pass
0, noisy-dense passes 0-2, singular-sparse passes 0-5), L2 at n=200, L4 at
n=354 (the Table 3 degree), Table 3 itself (L3, n=2004, R=.04), the
range-bounds L4 instances of seeds 0-3, and 36 noisy instances that run
singular unions: sigma 1e-4 and 1e-3 on L4 at n=354 (m=8), L3 at n=300
(m=4, R=.09) and L4 at n=1004 (m=6), each with seeds 0-5; both L4 sizes
have the Table 3 degree.  All of these are planar (r=2).  Last come twelve
r=3 range-bounds L4 instances (n=300, m=6, R .22 and .26, seeds 0-5), which
run singular absorptions in three dimensions, and three noisy L2 instances
(n=300, m=4, R=.2, sigma 5e-2, seeds 0-2) whose half-range seeding takes the
nearest-first greedy path: noise leaves some pairs inside half the radio
range unmeasured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# single-threaded BLAS, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

TABLE3_R = 0.04
# the Table 3 degree at n=354 and n=1004
SPARSE_R = 0.04 * (2004 / 354) ** 0.5
MID_R = 0.04 * (2004 / 1004) ** 0.5
# (name, n, m, R, level) of the noisy singular instances, each run at every
# sigma of NOISY_SIGMAS and every seed of range(NOISY_SEEDS)
NOISY_SINGULAR = (("L4-354", 354, 8, SPARSE_R, 4), ("L3-300", 300, 4, 0.09, 3),
                  ("L4-1004", 1004, 6, MID_R, 4))
NOISY_SIGMAS = (1e-4, 1e-3)
NOISY_SEEDS = 6
# radii of the r=3 range-bounds instances (n=300, m=6), each run at every
# seed of range(SPATIAL_SEEDS)
SPATIAL_RADII = (0.22, 0.26)
SPATIAL_SEEDS = 6
# seeds of the noisy L2 instances whose seeding runs the greedy path
GREEDY_SEEDS = 3


def instances():
    """(name, n, m, r, R, sigma, instance seed, level, range bounds) in run order."""
    from snlbench.workloads import WORKLOADS

    out = []
    for wname, passes in (("rigid-scaling", 1), ("noisy-dense", 3), ("singular-sparse", 6)):
        wl = WORKLOADS[wname]
        for p in range(passes):
            for n, R, iseed in zip(wl.sizes, wl.radii, wl.instance_seeds(0, p)):
                out.append((f"{wname}-p{p}-n{n}", n, wl.anchors, 2, R, wl.sigma, iseed,
                            int(wl.level), False))
    out.append(("L2-200", 200, 4, 2, 0.16, 0.0, 0, 2, False))
    out.append(("L4-354", 354, 8, 2, SPARSE_R, 0.0, 0, 4, False))
    out.append(("table3-L3-2004", 2004, 4, 2, TABLE3_R, 0.0, 0, 3, False))
    for seed in range(4):
        out.append((f"range-bounds-{seed}", 354, 8, 2, SPARSE_R, 0.0, seed, 4, True))
    for name, n, m, R, level in NOISY_SINGULAR:
        for sigma in NOISY_SIGMAS:
            for seed in range(NOISY_SEEDS):
                out.append((f"noisy-{name}-s{sigma:g}-{seed}", n, m, 2, R, sigma, seed, level,
                            False))
    for R in SPATIAL_RADII:
        for seed in range(SPATIAL_SEEDS):
            out.append((f"r3-range-bounds-R{R:g}-{seed}", 300, 6, 3, R, 0.0, seed, 4, True))
    for seed in range(GREEDY_SEEDS):
        out.append((f"greedy-seeding-L2-{seed}", 300, 4, 2, 0.2, 5e-2, seed, 2, False))
    return out


def solve(case) -> dict:
    from snloc import Tolerances, build_partial_edm, generate_instance, localize

    name, n, m, r, R, sigma, seed, level, bounds = case
    inst = generate_instance(n, m, r, seed=seed, radio_range=R, noise_factor=sigma)
    tol = Tolerances.for_noise(sigma, use_range_bounds=True) if bounds else None
    rep = localize(build_partial_edm(inst), inst.anchors, level=level, tol=tol,
                   truth=inst.points)
    ids = np.array(sorted(rep.positioned), dtype=np.int64)
    coords = np.array([rep.positioned[u] for u in ids.tolist()]).reshape(ids.size, r)
    return {
        f"{name}.counts": np.array(json.dumps(rep.step_counts, sort_keys=True)),
        f"{name}.ids": ids,
        f"{name}.coords": coords,
        # NaN when nothing was positioned
        f"{name}.rmsd": np.array(math.nan if rep.rmsd is None else rep.rmsd),
    }


def compare(names, new: dict, old) -> bool:
    """Print one line per instance and a summary line; True when all counts
    and sets agree."""
    equal = 0
    largest = 0.0
    for name in names:
        if f"{name}.counts" not in old:
            print(f"{name}: missing from the other digest")
            continue
        counts = str(new[f"{name}.counts"]) == str(old[f"{name}.counts"])
        new_ids, old_ids = new[f"{name}.ids"], old[f"{name}.ids"]
        ids = np.array_equal(new_ids, old_ids)
        # coordinates are compared over the nodes both sides positioned
        common, a, b = np.intersect1d(new_ids, old_ids, return_indices=True)
        diff = float(np.max(np.abs(new[f"{name}.coords"][a] - old[f"{name}.coords"][b]),
                            initial=0.0))
        sets = "equal" if ids else f"DIFFER ({old_ids.size} -> {new_ids.size} positioned)"
        over = "" if ids else f" over the {common.size} common nodes"
        rmsd = ""
        if (diff > 0 or not ids) and f"{name}.rmsd" in new and f"{name}.rmsd" in old:
            rmsd = f", rmsd {float(old[f'{name}.rmsd']):.3g} -> {float(new[f'{name}.rmsd']):.3g}"
        print(f"{name}: counts {'equal' if counts else 'DIFFER'}, sets {sets}, "
              f"max coordinate difference {diff:.3g}{over}{rmsd}")
        equal += counts and ids
        largest = max(largest, diff)
    print(f"{equal} of {len(names)} equal (counts, sets); "
          f"largest coordinate difference {largest:.3g}")
    return equal == len(names)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding snloc")
    p.add_argument("--out", required=True, help="digest file to write (.npz)")
    p.add_argument("--against", help="digest file to compare with")
    p.add_argument("--only", nargs="+", metavar="NAME", help="solve only these instances")
    args = p.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "bench")]
    cases = instances()
    if args.only:
        unknown = set(args.only) - {c[0] for c in cases}
        if unknown:
            p.error(f"unknown instances: {', '.join(sorted(unknown))}")
        cases = [c for c in cases if c[0] in args.only]
    digest = {}
    for case in cases:
        digest.update(solve(case))
    np.savez(args.out, **digest)
    if args.against is None:
        return 0
    with np.load(args.against) as old:
        return 0 if compare([c[0] for c in cases], digest, old) else 1


if __name__ == "__main__":
    sys.exit(main())
