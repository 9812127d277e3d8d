"""Run every workload over several seeds and summarise the spread.

Usage, from the root of a source checkout:

    python3 bench/sweep.py --seeds 0-9 --seconds 30 [--workloads a,b] [--trace 1] [--out FILE]

Each run is a separate ``bench/run.py`` process, one after another.  For
every metric the summary prints the median over the seeds, the quartiles and
the spread (interquartile distance over the median) next to the bound that
``BENCHMARK.json`` fixes, plus the untraced run's failed_frac, rmsd and
scaling_exponent.  ``--out`` writes all run results with the machine's
environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = []
    for name in names:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            saved = json.loads((BENCH / "out" / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            runs.append({"workload": name, "seed": seed, **result, "detail": saved["detail"]})
            environment = saved["environment"]
            print(proc.stdout.strip().splitlines()[0], flush=True)

    print(f"\n{'workload':16} {'metric':40} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for m in metrics:
            med, q1, q3, s = spread([r["metrics"][m["name"]]["value"] for r in mine])
            bound = m.get("bound")
            flag = "" if bound is None or s <= bound / 3 else "  > bound/3"
            print(f"{name:16} {m['name'] + ' [' + m['unit'] + ']':40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.3f} {bound if bound is not None else '':>6}{flag}")
        for key in ("failed_frac", "rmsd", "scaling_exponent"):
            med, q1, q3, _ = spread([r["detail"][key] for r in mine])
            print(f"{name:16} {key + ' (untraced)':40} {med:12.6g} {q1:12.6g} {q3:12.6g}")
        print(f"{name:16} {'all runs correct':40} {all(r['correct'] for r in mine)!s:>12}")
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "environment": environment, "runs": runs}, indent=1
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
