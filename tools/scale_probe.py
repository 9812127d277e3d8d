"""Time set-up and solve, and read the peak memory, past the benchmark's sizes.

Usage, from the root of a source checkout:

    python3 tools/scale_probe.py --src src
    python3 tools/scale_probe.py --src ../other/src --sizes 8004 16004 --out probe.json
    python3 tools/scale_probe.py --src src --sigma 1e-4
    python3 tools/scale_probe.py --src src --level 4 --radius 0.02 --sizes 16004

Each size is one instance in the plane with 4 anchors and instance seed 0,
solved in a process of its own, so that each peak RSS covers one size.  By
default it is an L2 solve at average degree about 29 (R = .07 sqrt(2004 / n),
as rigid-scaling in ``bench/`` draws it).  ``--level`` sets the step level
(1-4) and ``--radius`` one radio range for every size, so that sparse and
singular solves can be measured at these sizes too; ``--sigma`` sets the
noise factor (default 0, exact distances).  Per size the script prints one
line: set-up seconds (``generate_instance`` plus ``build_partial_edm``),
solve seconds (``localize``), the process's peak RSS in MB read right
after set-up (``setup_rss_mb``) and after the solve (``peak_rss_mb``), and
sensors positioned.  ``--out`` writes the same records as JSON, each with
its level and radio range.  The ``snloc`` package is imported from ``--src``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# single-threaded BLAS, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SIZES = (8004, 16004, 32004, 64004)
ANCHORS = 4
SEED = 0


def radius(n: int) -> float:
    """Radio range of average degree about 29 at n nodes in the unit square."""
    return 0.07 * (2004 / n) ** 0.5


def probe(n: int, sigma: float, level: int, R: float | None) -> dict:
    """Set up and solve one instance in this process; the record of it.  R
    is the radio range, ``radius(n)`` when None."""
    import resource

    from snloc import build_partial_edm, generate_instance, localize

    R = radius(n) if R is None else R
    t0 = time.perf_counter()
    inst = generate_instance(n, ANCHORS, 2, seed=SEED, radio_range=R, noise_factor=sigma)
    t1 = time.perf_counter()
    pedm = build_partial_edm(inst)
    t2 = time.perf_counter()
    # ru_maxrss is in KiB on Linux: the high-water mark of the set-up, and
    # after the solve that of the whole process
    setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rep = localize(pedm, inst.anchors, level=level)
    t3 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"n": n, "seed": SEED, "sigma": sigma, "level": level, "radius": R,
            "generate_s": t1 - t0, "build_s": t2 - t1,
            "setup_s": t2 - t0, "solve_s": t3 - t2,
            "setup_rss_mb": setup_rss, "peak_rss_mb": rss,
            "positioned": len(rep.positioned), "sensors": n - ANCHORS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding snloc")
    p.add_argument("--sizes", type=int, nargs="+", default=list(SIZES), metavar="N")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="noise factor of the measured distances (default 0, exact)")
    p.add_argument("--level", type=int, default=2, help="step level, 1-4 (default 2)")
    p.add_argument("--radius", type=float,
                   help="radio range of every size (default .07 sqrt(2004 / n))")
    p.add_argument("--out", help="write the records to this JSON file")
    p.add_argument("--one", action="store_true",
                   help="probe the single size given, in this process, and print its record")
    args = p.parse_args(argv)
    # written so that NaN fails the test
    if not 0.0 <= args.sigma < math.inf:
        p.error(f"--sigma must be finite and >= 0, got {args.sigma}")
    if not 1 <= args.level <= 4:
        p.error(f"--level must be one of 1-4, got {args.level}")
    if args.radius is not None and not 0.0 < args.radius < math.inf:
        p.error(f"--radius must be finite and positive, got {args.radius}")
    src = str(Path(args.src).resolve())
    if args.one:
        if len(args.sizes) != 1:
            p.error("--one takes a single size")
        sys.path.insert(0, src)
        print(json.dumps(probe(args.sizes[0], args.sigma, args.level, args.radius)))
        return 0
    records = []
    for n in args.sizes:
        radius_arg = [] if args.radius is None else ["--radius", repr(args.radius)]
        done = subprocess.run(
            [sys.executable, __file__, "--src", src, "--one", "--sizes", str(n),
             "--sigma", repr(args.sigma), "--level", str(args.level), *radius_arg],
            capture_output=True, text=True, check=True)
        rec = json.loads(done.stdout.splitlines()[-1])
        print(f"n={rec['n']}: set-up {rec['setup_s']:.2f} s, solve {rec['solve_s']:.2f} s, "
              f"peak RSS {rec['setup_rss_mb']:.0f} MB after set-up, "
              f"{rec['peak_rss_mb']:.0f} MB after solve, "
              f"positioned {rec['positioned']} of {rec['sensors']}", flush=True)
        records.append(rec)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
