"""Solve a fixed list of instances and record, or compare, what came out.

Usage, from the root of a source checkout:

    python3 tools/solve_digest.py --src src --out new.npz
    python3 tools/solve_digest.py --src ../other/src --out old.npz --against new.npz
    python3 tools/solve_digest.py --scale --src src --out scale.npz

Each instance's record holds its ``step_counts``, positioned sensor ids,
their coordinates and their RMSD against the true positions, its set-up
seconds (``generate_instance`` plus ``build_partial_edm``), its solve
seconds (``SolveReport.cpu_seconds``), and the peak RSS in MB of the
process that solved it, read right after set-up (``setup_rss_mb``) and
after the solve (``peak_rss_mb``); the records are written to ``--out``.
The instances are solved in child processes: the default list in one, so
that its RSS figures are the high-water marks of the list so far, and each
instance of ``--scale`` in one of its own (its record's ``alone``), so that
each peak RSS is its own.  With ``--against``, each instance is compared
with the same instance in that file: the script prints whether the counts
and the positioned sets are equal and the largest coordinate difference
over the nodes both positioned, with the positioned counts (that file's ->
this run's) where the sets differ, and the RMSDs where the coordinates
differ; under it, indented, the positioned count, the RMSD and the solve
seconds, that file's -> this run's, with "SLOWER" where an instance that
ran alone took more than 1.3 times as long.  Then one summary line ("70 of
70 equal (counts, sets); largest coordinate difference 0"); the script
exits 1 when any counts or sets differ, whatever the times.  A digest
written before RMSDs or times were stored compares without them.
``--only NAME ...`` restricts the run to the named instances of the list.
The ``snloc`` package is imported from ``--src``; the benchmark instances
are drawn as ``bench/`` of this checkout draws them.

The default instances: the twelve benchmark instances of seed 0
(rigid-scaling pass 0, noisy-dense passes 0-2, singular-sparse passes 0-5),
L2 at n=200, L4 at n=354 (the Table 3 degree), Table 3 itself (L3, n=2004,
R=.04), the range-bounds L4 instances of seeds 0-3, and 36 noisy instances
that run singular unions: sigma 1e-4 and 1e-3 on L4 at n=354 (m=8), L3 at
n=300 (m=4, R=.09) and L4 at n=1004 (m=6), each with seeds 0-5; both L4
sizes have the Table 3 degree.  All of these are planar (r=2).  Last come
twelve r=3 range-bounds L4 instances (n=300, m=6, R .22 and .26, seeds
0-5), which run singular absorptions in three dimensions, and three noisy
L2 instances (n=300, m=4, R=.2, sigma 5e-2, seeds 0-2) whose half-range
seeding takes the nearest-first greedy path: noise leaves some pairs inside
half the radio range unmeasured.

The ``--scale`` instances, at paper scale: L2 at average degree about 29
(m=4, R=.07 sqrt(2004/n), as rigid-scaling draws it) on exact distances at
n=8004, 16004, 32004 and 64004 and with sigma 1e-4 at n=8004, 16004 and
32004; sparse L3 at the Table 3 degree (m=4, R=.04 sqrt(2004/n)) at n=8004
and 16004, seeds 0-1; and L2 in three dimensions at n=32004 (m=5, R=.20
(2004/n)^(1/3)).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# single-threaded BLAS, as the benchmark runs; the child processes inherit it
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
# sizes of the --scale L2 instances at degree 29, by noise factor, and of
# the sparse L3 ones
SCALE_L2 = ((0.0, (8004, 16004, 32004, 64004)), (1e-4, (8004, 16004, 32004)))
SCALE_L3 = (8004, 16004)
# --against flags a solve of an instance that ran alone taking more than
# this many times as long as in the other digest
SLOW_RATIO = 1.3


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


def scale_instances():
    """The ``--scale`` instances, as :func:`instances` gives its own."""
    out = []
    for sigma, sizes in SCALE_L2:
        for n in sizes:
            out.append((f"{'noisy' if sigma else 'exact'}-L2-{n}", n, 4, 2,
                        0.07 * (2004 / n) ** 0.5, sigma, 0, 2, False))
    for n in SCALE_L3:
        for seed in range(2):
            out.append((f"sparse-L3-{n}-{seed}", n, 4, 2, 0.04 * (2004 / n) ** 0.5, 0.0, seed,
                        3, False))
    out.append(("r3-L2-32004", 32004, 5, 3, 0.20 * (2004 / 32004) ** (1 / 3), 0.0, 0, 2, False))
    return out


def solve(cases, src: str) -> dict:
    """Set up and solve cases one after the other in this process, with the
    ``snloc`` under src; their records, flagged ``alone`` when there is one."""
    import resource

    sys.path.insert(0, src)
    from snloc import Tolerances, build_partial_edm, generate_instance, localize

    digest = {}
    for name, n, m, r, R, sigma, seed, level, bounds in cases:
        t0 = time.perf_counter()
        inst = generate_instance(n, m, r, seed=seed, radio_range=R, noise_factor=sigma)
        pedm = build_partial_edm(inst)
        setup_s = time.perf_counter() - t0
        # ru_maxrss is in KiB on Linux: the process's high-water mark so far
        setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tol = Tolerances.for_noise(sigma, use_range_bounds=True) if bounds else None
        rep = localize(pedm, inst.anchors, level=level, tol=tol, truth=inst.points)
        ids = np.array(sorted(rep.positioned), dtype=np.int64)
        coords = np.array([rep.positioned[u] for u in ids.tolist()]).reshape(ids.size, r)
        digest.update({
            f"{name}.counts": np.array(json.dumps(rep.step_counts, sort_keys=True)),
            f"{name}.ids": ids,
            f"{name}.coords": coords,
            # NaN when nothing was positioned
            f"{name}.rmsd": np.array(math.nan if rep.rmsd is None else rep.rmsd),
            f"{name}.setup_s": np.array(setup_s),
            f"{name}.solve_s": np.array(rep.cpu_seconds),
            f"{name}.setup_rss_mb": np.array(setup_rss),
            f"{name}.peak_rss_mb": np.array(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                            / 1024),
            f"{name}.alone": np.array(len(cases) == 1),
        })
    return digest


def run(groups, src: str) -> dict:
    """The records of every group of cases, each group solved by
    :func:`solve` in a fresh spawned process of its own."""
    digest = {}
    for group in groups:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            digest.update(pool.apply(solve, (group, src)))
    return digest


def moves(name, new: dict, old) -> str:
    """One instance's positioned count, RMSD and solve seconds, old -> new,
    each where both digests hold it, flagged where it ran alone and its solve
    took more than ``SLOW_RATIO`` times as long."""
    out = [f"positioned {old[f'{name}.ids'].size} -> {new[f'{name}.ids'].size}"]
    for key, label, unit in (("rmsd", "rmsd", ""), ("solve_s", "solve", " s")):
        if f"{name}.{key}" in new and f"{name}.{key}" in old:
            out.append(f"{label} {float(old[f'{name}.{key}']):.3g} -> "
                       f"{float(new[f'{name}.{key}']):.3g}{unit}")
    if (new.get(f"{name}.alone", False) and f"{name}.solve_s" in old
            and new[f"{name}.solve_s"] > SLOW_RATIO * old[f"{name}.solve_s"]):
        out.append(f"SLOWER by more than {SLOW_RATIO:g}x")
    return "  " + ", ".join(out)


def compare(names, new: dict, old) -> bool:
    """Print two lines per instance and a summary line; True when all counts
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
        print(moves(name, new, old))
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
    p.add_argument("--scale", action="store_true",
                   help="solve the paper-scale list, each instance in a process of its own")
    args = p.parse_args(argv)
    src = str(Path(args.src).resolve())
    # the benchmark's workloads import snloc
    sys.path[:0] = [src, str(ROOT / "bench")]
    cases = scale_instances() if args.scale else instances()
    if args.only:
        unknown = set(args.only) - {c[0] for c in cases}
        if unknown:
            p.error(f"unknown instances: {', '.join(sorted(unknown))}")
        cases = [c for c in cases if c[0] in args.only]
    groups = [[case] for case in cases] if args.scale else [cases]
    digest = run(groups, src)
    np.savez(args.out, **digest)
    if args.against is None:
        return 0
    with np.load(args.against) as old:
        return 0 if compare([c[0] for c in cases], digest, old) else 1


if __name__ == "__main__":
    sys.exit(main())
