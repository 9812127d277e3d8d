"""Benchmark of ``snloc.localize`` on seeded random instances.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload noisy-dense --seed 0 --seconds 30 --trace 0

The workloads are defined in ``bench/snlbench/workloads.py``.  The library is
imported from ``src/`` of the checkout; nothing needs installing.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Both runs
write every solve's record (and, traced, every span tree) under
``bench/out/``.  The exit code is 2 when the checkout has no ``src/snloc``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# single-threaded BLAS: the kernels work on blocks of a few dozen rows, where
# worker threads add scheduling noise and no speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "snloc" / "__init__.py").is_file():
        print(f"no snloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from snlbench.harness import environment, run_workload
    from snlbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace))

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(
            {
                "workload": wl.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": environment(),
                **summary,
                "detail": result["detail"],
                "records": result["records"],
            },
            fh,
            indent=1,
        )
    if result["spans"]:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for i, (rec, spans) in enumerate(zip(result["records"], result["spans"])):
                fh.write(json.dumps({"instance": i, "n": rec["n"], "seed": rec["seed"], "spans": spans}) + "\n")

    detail = result["detail"]
    print(
        f"{wl.name} seed={args.seed}: {detail['passes']} passes, {detail['instances']} solves, "
        f"failed_frac={detail['failed_frac']:.3g} rmsd={detail['rmsd']:.3g} "
        f"scaling_exponent={detail['scaling_exponent']:.3f} "
        f"host.ref_s before={min(detail['host.ref_s']['before']):.4f} "
        f"after={min(detail['host.ref_s']['after']):.4f}"
    )
    for rec in result["records"]:
        if rec["error"]:
            print(f"FAILED n={rec['n']} seed={rec['seed']}: {rec['error']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
