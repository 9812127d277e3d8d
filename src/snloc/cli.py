"""Experiment harness: batches of random trials and CSV rows.

Each experiment runs a number of independent random instances of one
configuration and aggregates them into a single table row.  Error columns
average over the successful trials only; degree, positioned count, and time
average over all trials.  Trial k uses master seed + k, so a row is fully
reproducible from its configuration.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field

import numpy as np

from .edm_core import RankTolerance
from .errors import InvalidConfig
from .faces import Tolerances
from .instance import (
    average_degree,
    build_partial_edm,
    generate_instance,
    read_problem,
    write_solution,
)
from .recovery import SolveReport
from .reducer import StepLevel, step_level
from .solver import localize

__all__ = [
    "ExperimentConfig",
    "TableRow",
    "run_experiment",
    "emit_csv",
    "main",
]


@dataclass
class ExperimentConfig:
    n: int = 2000
    m: int = 4
    r: int = 2
    radio_range: float = 0.07
    sigma: float = 0.0
    trials: int = 10
    level: StepLevel = StepLevel.L2
    seed: int = 0
    max_clique_size: int | None = None
    tol: Tolerances | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidConfig(f"need at least one trial, got {self.trials}")
        if self.n <= self.m:
            raise InvalidConfig(f"need n > m, got n={self.n}, m={self.m}")
        self.level = step_level(self.level)

    def tolerances(self) -> Tolerances:
        return self.tol or Tolerances.for_noise(self.sigma)


CSV_FIELDS = [
    "n",
    "m",
    "r",
    "radio_range",
    "sigma",
    "level",
    "trials",
    "seed",
    "successful",
    "avg_degree",
    "avg_positioned",
    "avg_cpu_seconds",
    "avg_max_error",
    "avg_rmsd",
]


@dataclass
class TableRow:
    """One aggregated experiment result; mirrors the CSV schema."""

    n: int
    m: int
    r: int
    radio_range: float
    sigma: float
    level: int
    trials: int
    seed: int
    successful: int
    avg_degree: float
    avg_positioned: float
    avg_cpu_seconds: float
    avg_max_error: float | None
    avg_rmsd: float | None
    reports: list[SolveReport] = field(default_factory=list, repr=False)

    def as_record(self) -> dict:
        rec = {name: getattr(self, name) for name in CSV_FIELDS}
        for key in ("avg_max_error", "avg_rmsd"):
            if rec[key] is None:
                rec[key] = ""
        return rec


def run_trial(cfg: ExperimentConfig, index: int) -> tuple[SolveReport, float]:
    """One instance with seed derived as master seed + trial index."""
    inst = generate_instance(
        cfg.n,
        cfg.m,
        cfg.r,
        cfg.seed + index,
        radio_range=cfg.radio_range,
        noise_factor=cfg.sigma,
    )
    pedm = build_partial_edm(inst)
    report = localize(
        pedm,
        inst.anchors,
        level=cfg.level,
        tol=cfg.tolerances(),
        max_clique_size=cfg.max_clique_size,
        truth=inst.points,
    )
    return report, average_degree(pedm)


def run_experiment(cfg: ExperimentConfig) -> TableRow:
    reports = []
    degrees = []
    for k in range(cfg.trials):
        report, degree = run_trial(cfg, k)
        reports.append(report)
        degrees.append(degree)
    good = [rep for rep in reports if rep.success]
    max_errors = [rep.max_error for rep in good if rep.max_error is not None]
    rmsds = [rep.rmsd for rep in good if rep.rmsd is not None]
    return TableRow(
        n=cfg.n,
        m=cfg.m,
        r=cfg.r,
        radio_range=cfg.radio_range,
        sigma=cfg.sigma,
        level=int(cfg.level),
        trials=cfg.trials,
        seed=cfg.seed,
        successful=len(good),
        avg_degree=float(np.mean(degrees)),
        avg_positioned=float(np.mean([len(rep.positioned) for rep in reports])),
        avg_cpu_seconds=float(np.mean([rep.cpu_seconds for rep in reports])),
        avg_max_error=float(np.mean(max_errors)) if max_errors else None,
        avg_rmsd=float(np.mean(rmsds)) if rmsds else None,
        reports=reports,
    )


def emit_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row.as_record())


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="snloc",
        description="Localize wireless sensors from partial distance data "
        "by clique-based facial reduction.",
    )
    p.add_argument("--n", type=int, default=2000, help="total node count")
    p.add_argument("--anchors", type=int, default=4, help="anchor count m")
    p.add_argument("--dim", type=int, default=2, help="embedding dimension r")
    p.add_argument("--radio-range", type=float, default=0.07)
    p.add_argument("--noise", type=float, default=0.0, help="noise factor sigma")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--level", type=int, choices=[1, 2, 3, 4], default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-clique-size", type=int, default=None)
    p.add_argument(
        "--tol", type=float, default=None,
        help="relative rank cutoff (default 1e-9)",
    )
    p.add_argument(
        "--feas-tol", type=float, default=None,
        help="absolute feasibility tolerance on squared distances "
        "(default max(1e-6, 10 * sigma))",
    )
    p.add_argument("--out", type=str, default=None, help="write the row as CSV")
    p.add_argument(
        "--problem", type=str, default=None,
        help="solve this problem file instead of generating instances",
    )
    p.add_argument("--solution", type=str, default=None, help="solution output file")
    p.add_argument("--trace", type=str, default=None, help="step trace output file")
    return p


def _tolerances_from_args(args, sigma: float) -> Tolerances:
    """``Tolerances.for_noise(sigma)`` with the cutoffs given on the command
    line; a flag left out keeps its noise-derived default."""
    overrides = {}
    if args.tol is not None:
        overrides["rank"] = RankTolerance(relative_cut=args.tol)
    if args.feas_tol is not None:
        overrides["feas_tol"] = args.feas_tol
    return Tolerances.for_noise(sigma, **overrides)


def _solve_file(args) -> int:
    pedm, anchors = read_problem(args.problem)
    tol = _tolerances_from_args(args, pedm.noise_factor)
    trace_fh = open(args.trace, "w") if args.trace else None
    try:
        report = localize(
            pedm,
            anchors,
            level=StepLevel(args.level),
            tol=tol,
            max_clique_size=args.max_clique_size,
            trace=trace_fh,
        )
    finally:
        if trace_fh:
            trace_fh.close()
    print(
        f"positioned {len(report.positioned)} of {pedm.n - pedm.m} sensors "
        f"in {report.cpu_seconds:.2f} s "
        f"(success={report.success}, steps={report.step_counts})"
    )
    if args.solution:
        write_solution(args.solution, report.positioned)
    return 0 if report.success else 1


def main(argv=None) -> int:
    """Run the command line; a configuration that ``InvalidConfig`` rejects,
    such as a rank cutoff outside (0, 1) or a NaN feasibility tolerance,
    exits with a usage error (status 2)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _solve_file(args) if args.problem else _run_experiment_args(args)
    except InvalidConfig as exc:
        parser.error(str(exc))


def _run_experiment_args(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        m=args.anchors,
        r=args.dim,
        radio_range=args.radio_range,
        sigma=args.noise,
        trials=args.trials,
        level=StepLevel(args.level),
        seed=args.seed,
        max_clique_size=args.max_clique_size,
        tol=_tolerances_from_args(args, args.noise),
        output_path=args.out,
    )
    row = run_experiment(cfg)
    rec = row.as_record()
    print(" ".join(f"{key}={rec[key]}" for key in CSV_FIELDS))
    if cfg.output_path:
        emit_csv([row], cfg.output_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
