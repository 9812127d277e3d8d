"""Time two source trees against each other, interleaved in one process.

Usage, from the root of a source checkout:

    python3 tools/ab_time.py --a ../parent/src --b src --workload rigid-scaling
    python3 tools/ab_time.py --a src --b src --workload singular-sparse --passes 1 --rounds 1

Both trees' ``snloc`` packages are loaded into this process, each under a
module name of its own (``snloc_a`` and ``snloc_b``), so both solve on the
same interpreter and the same host load.  The instances are drawn as
``bench/`` of this checkout draws the workload's: workload seed ``--seed``,
passes 0 to ``--passes`` - 1.  Each tree sets up its own copy of every
instance (``generate_instance`` and ``build_partial_edm``, not timed).  A
round solves every instance once with each tree, and the tree that solves
first alternates from one instance to the next; ``localize`` is timed by
process CPU time, after one untimed warm-up solve per tree.  Per round the script prints both trees' seconds and the
ratio B/A, then the median ratio over the rounds and the number of rounds
in which B took less time than A.

Separate processes of the same code swing by about 15% on a shared 2-core
host, and rounds in one process by about 10%, so the ratio sizes a change;
the benchmark's own runs remain its evidence.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# single-threaded BLAS, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def load(src: str, name: str):
    """The ``snloc`` package under ``src``, imported as module ``name``."""
    pkg = Path(src).resolve() / "snloc"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no snloc package under {src}")
    module = importlib.util.module_from_spec(spec)
    # the package's relative imports resolve through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def instances(lib, wl, seed: int, passes: int) -> list:
    """(pedm, anchors, level) of every instance of the passes, set up by lib."""
    out = []
    for p in range(passes):
        for n, R, iseed in zip(wl.sizes, wl.radii, wl.instance_seeds(seed, p)):
            inst = lib.generate_instance(n, wl.anchors, 2, seed=iseed, radio_range=R,
                                         noise_factor=wl.sigma)
            out.append((lib.build_partial_edm(inst), inst.anchors, int(wl.level)))
    return out


def solve_seconds(lib, case) -> float:
    pedm, anchors, level = case
    gc.collect()
    t0 = time.process_time()
    lib.localize(pedm, anchors, level=level)
    return time.process_time() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="source directory of tree A (holds snloc)")
    p.add_argument("--b", required=True, help="source directory of tree B (holds snloc)")
    p.add_argument("--workload", required=True, help="a workload of bench/snlbench/workloads.py")
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--passes", type=int, default=1, help="passes per round (default 1)")
    p.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.passes < 1 or args.rounds < 1:
        p.error("--seed must be >= 0, and --passes and --rounds >= 1")
    libs = {"A": load(args.a, "snloc_a"), "B": load(args.b, "snloc_b")}
    # bench/'s workloads read StepLevel from a package named snloc
    sys.modules.setdefault("snloc", libs["A"])
    sys.path.insert(0, str(ROOT / "bench"))
    from snlbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    cases = {key: instances(lib, wl, args.seed, args.passes) for key, lib in libs.items()}
    # a warm-up solve per tree, not timed: first calls fill caches
    for key, lib in libs.items():
        solve_seconds(lib, cases[key][0])
    ratios, first = [], 0
    for rnd in range(args.rounds):
        total = {"A": 0.0, "B": 0.0}
        for k in range(len(cases["A"])):
            for key in ("AB" if first % 2 == 0 else "BA"):
                total[key] += solve_seconds(libs[key], cases[key][k])
            first += 1
        ratios.append(total["B"] / total["A"])
        print(f"round {rnd}: A {total['A']:.4f} s, B {total['B']:.4f} s, "
              f"B/A {ratios[-1]:.3f}", flush=True)
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median B/A {statistics.median(ratios):.3f}; B faster in {wins} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
