"""Run one workload for a time budget and reduce its solves to metrics.

A run first times a reference loop (``host_ref``) and a small warm-up solve,
then sets up pass 0 ``SETUP_REPEATS`` times, then solves passes of fresh
instances until the next pass would overrun the budget (at least one pass
runs).  Every solve is checked; a solve fails when ``localize`` raises or
returns positions outside the workload's RMSD bounds, and in a traced run
also when the wrappers' accept counts differ from ``SolveReport.step_counts``
or the traced solve positions another set.

End-to-end metrics come from untraced solves: ``solve_s`` is the mean over
passes of the seconds inside ``localize``, drift-adjusted (``adjusted``
scales each solve's wall time by the reference-loop time measured around
it, because the host alternates between speeds up to 1.8x apart and the
loop partly tracks them), ``setup_s`` the median over set-ups of one pass's
``generate_instance`` + ``build_partial_edm`` seconds, adjusted the same way,
``sensors_per_s`` and ``positioned_frac`` are positioned sensors over the
run's adjusted solve seconds and over its sensors, ``peak_rss_mb`` is the process's
peak resident memory.  With ``trace`` set, every instance is solved once
untraced and once traced, and the per-layer metrics come from the traced
solve: counts are totals over pass 0 (which every run completes, so they
repeat exactly for a seed), times are medians over the passes' totals.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import snloc
from snloc import build_partial_edm, generate_instance, localize

from .tracing import STEPS, Tracer, accepted_steps, layer_totals
from .workloads import DIM, Workload

SETUP_REPEATS = 5
REF_REPEATS = 3
# host_ref on this 2-core x86_64 host when nothing else contends
REF_NOMINAL_S = 0.05
# Elasticity of solve time to reference-loop time: regressing log solve
# seconds on log host_ref over 128 alternating samples on that host gave
# 0.44-0.53.  Scaling by the full ratio over-corrects: the spread of
# rigid-scaling's solve_s over ten seeds rose from 0.21 to 0.24 with it and
# fell to 0.13 with the square root.
DRIFT_ELASTICITY = 0.5


def adjusted(seconds: float, ref: float) -> float:
    """Wall seconds scaled to a host where ``host_ref`` takes ``REF_NOMINAL_S``."""
    return seconds * (REF_NOMINAL_S / ref) ** DRIFT_ELASTICITY

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "sensors_per_s": "1/s",
    "positioned_frac": "fraction",
    "peak_rss_mb": "MB",
}


def _layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    s = lambda name: (name, "s", "lower")  # noqa: E731
    count = lambda name, better="lower": (name, "count", better)  # noqa: E731
    specs = [
        s("instance.generate_s"),
        s("instance.build_pedm_s"),
        count("instance.known_pairs"),
        s("instance.half_range_cliques_s"),
        s("reducer.init_family_s"),
        s("reducer.grow_cliques_s"),
        s("reducer.run_s"),
        s("reducer.scan_s"),
        s("reducer.phase1_s"),
        s("reducer.phase2_s"),
        count("reducer.phase2.attempts"),
        count("reducer.phase2.accepts", "higher"),
    ]
    for step in STEPS:
        specs += [
            count(f"reducer.{step}.attempts"),
            count(f"reducer.{step}.accepts", "higher"),
            (f"reducer.{step}.accept_ratio", "ratio", "higher"),
            s(f"reducer.{step}.s"),
        ]
    specs += [
        count("reducer.is_feasible.calls"),
        s("reducer.is_feasible.s"),
        count("faces.face_from_clique.calls"),
        s("faces.face_from_clique.s"),
        count("faces.intersect_rigid.calls"),
        s("faces.intersect_rigid.s"),
        count("faces.intersect_rigid.rows_in"),
        count("faces.intersect_rigid.rank_loss"),
        count("faces.intersect_rigid.range_mismatch"),
        count("faces.intersect_nonrigid.calls"),
        s("faces.intersect_nonrigid.s"),
        count("faces.intersect_nonrigid.rank_loss"),
        count("faces.intersect_nonrigid.range_mismatch"),
        count("recovery.two_completions.calls"),
        s("recovery.two_completions.s"),
        count("recovery.two_completions.no_real_branch"),
        count("recovery.points_from_face.calls"),
        s("recovery.points_from_face.s"),
        s("recovery.align_s"),
        s("host.ref_s"),
        ("trace.overhead", "ratio", "lower"),
        ("failed_frac", "fraction", "lower"),
        ("rmsd", "1", "lower"),
        ("scaling_exponent", "1", "lower"),
    ]
    return specs


PER_LAYER = _layer_specs()


def host_ref() -> float:
    """Seconds for a fixed loop that runs no snloc code: interpreter work
    plus small SVDs.  Recorded next to every result to show host drift, and
    taken around every timed solve to adjust for it."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(200_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i * i
    A = np.random.default_rng(0).standard_normal((8, 8))
    for _ in range(1000):
        np.linalg.svd(A)
    return time.perf_counter() - t0


def environment() -> dict:
    """Machine and library facts that a result depends on."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        deps = {}
    blas = {
        lib: {k: v for k, v in deps.get(lib, {}).items() if k in ("name", "version", "openblas configuration")}
        for lib in ("blas", "lapack")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "snloc": snloc.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
    }


def set_up(wl: Workload, seed: int, pass_index: int):
    """Instances of one pass and the seconds spent generating and measuring."""
    pairs, gen_s, build_s = [], 0.0, 0.0
    for n, R, iseed in zip(wl.sizes, wl.radii, wl.instance_seeds(seed, pass_index)):
        gc.collect()
        t0 = time.perf_counter()
        inst = generate_instance(n, wl.anchors, DIM, seed=iseed, radio_range=R, noise_factor=wl.sigma)
        t1 = time.perf_counter()
        pedm = build_partial_edm(inst)
        t2 = time.perf_counter()
        gen_s += t1 - t0
        build_s += t2 - t1
        pairs.append((inst, pedm))
    return pairs, gen_s, build_s


def check(wl: Workload, inst, rep) -> tuple[str | None, float | None]:
    """(error or None, RMSD or None) of one solve against the ground truth."""
    if rep.success != bool(rep.positioned):
        return "success flag disagrees with the positioned set", None
    if not rep.positioned:
        return None, None
    idx = np.fromiter(rep.positioned, dtype=np.int64, count=len(rep.positioned))
    if idx.min() < 0 or idx.max() >= inst.n - inst.m:
        return "positioned a node that is not a sensor", None
    P = np.array([rep.positioned[i] for i in idx.tolist()], dtype=float)
    if P.shape != (idx.size, inst.r) or not np.isfinite(P).all():
        return "positions are not finite r-vectors", None
    rmsd = float(np.sqrt(np.mean(np.sum((P - inst.points[idx]) ** 2, axis=1))))
    if not rmsd <= wl.rmsd_max:
        return f"rmsd {rmsd:.3e} above {wl.rmsd_max:g}", rmsd
    return None, rmsd


def timed_solve(wl: Workload, pedm, anchors):
    """(report or None, wall seconds, error text or None)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        rep = localize(pedm, anchors, level=wl.level)
    except Exception:  # the run keeps going and counts the failure
        return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
    return rep, time.perf_counter() - t0, None


def fit_exponent(ns, times) -> float:
    """Least-squares slope of log time against log n over per-size medians;
    0.0 when the runs cover a single size."""
    by_n: dict[int, list[float]] = {}
    for n, t in zip(ns, times):
        by_n.setdefault(int(n), []).append(float(t))
    if len(by_n) < 2:
        return 0.0
    x = np.log(sorted(by_n))
    y = np.log([statistics.median(by_n[n]) for n in sorted(by_n)])
    return float(np.polyfit(x, y, 1)[0])


def _warm_up(wl: Workload) -> None:
    """Load what the solver imports lazily; the timed solves check the results."""
    inst = generate_instance(64, wl.anchors, DIM, seed=12345, radio_range=0.4, noise_factor=wl.sigma)
    timed_solve(wl, build_partial_edm(inst), inst.anchors)


def _solve_instance(wl, inst, pedm, tracer, record: dict, ref_before: float) -> float:
    """Solve, check and (with a tracer) re-solve traced, filling in record.

    The untraced solve is bracketed by reference loops, whose mean adjusts
    its wall time for host drift.  Returns the last reference-loop time.
    """
    rep, dt, err = timed_solve(wl, pedm, inst.anchors)
    ref_after = host_ref()
    ref = (ref_before + ref_after) / 2
    record.update(solve_s=dt, ref_s=ref, solve_adj_s=adjusted(dt, ref), rmsd=None)
    if rep is not None:
        err, record["rmsd"] = check(wl, inst, rep)
        record.update(
            positioned=len(rep.positioned),
            success=rep.success,
            step_counts=dict(sorted(rep.step_counts.items())),
        )
    if tracer is not None:
        gc.collect()
        with tracer.tree("solver.localize") as spans:
            t0 = time.perf_counter()
            try:
                traced = localize(pedm, inst.anchors, level=wl.level)
            except Exception:
                traced = None
                err = err or "traced solve raised: " + traceback.format_exc(limit=3)
            record["traced_solve_s"] = time.perf_counter() - t0
        ref_after = host_ref()
        if err is None and traced is not None:
            wanted = {k: v for k, v in rep.step_counts.items() if v}
            if accepted_steps(spans) != wanted:
                err = f"wrapper accepts {accepted_steps(spans)} != step_counts {wanted}"
            elif set(traced.positioned) != set(rep.positioned):
                err = "traced and untraced solves positioned different sets"
    record["error"] = err
    return ref_after


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns metrics, detail and per-instance records."""
    refs_before = [host_ref() for _ in range(REF_REPEATS)]
    _warm_up(wl)
    tracer = Tracer() if trace else None
    t_start = time.perf_counter()
    # (drift-adjusted seconds, generate seconds, build seconds) per set-up
    setups = []
    last_ref = host_ref()
    for _ in range(SETUP_REPEATS):
        pairs, gen_s, build_s = set_up(wl, seed, 0)
        ref = host_ref()
        setups.append((adjusted(gen_s + build_s, (last_ref + ref) / 2), gen_s, build_s))
        last_ref = ref
    records, passes, layer_passes = [], [], []
    pass_index = 0
    while True:
        t_pass = time.perf_counter()
        if pass_index > 0:
            pairs, gen_s, build_s = set_up(wl, seed, pass_index)
            setups.append((adjusted(gen_s + build_s, last_ref), gen_s, build_s))
        first_tree = len(tracer.trees) if tracer else 0
        pass_records = []
        for inst, pedm in pairs:
            record = {"pass": pass_index, "n": inst.n, "seed": inst.seed, "sensors": inst.n - inst.m, "positioned": 0}
            last_ref = _solve_instance(wl, inst, pedm, tracer, record, last_ref)
            pass_records.append(record)
        records += pass_records
        passes.append(
            {
                "solve_adj_s": sum(r["solve_adj_s"] for r in pass_records),
                "solve_s": sum(r["solve_s"] for r in pass_records),
                "positioned": sum(r["positioned"] for r in pass_records),
                "sensors": sum(r["sensors"] for r in pass_records),
                "wall_s": time.perf_counter() - t_pass,
            }
        )
        if tracer:
            totals: dict[str, float] = {}
            for spans in tracer.trees[first_tree:]:
                for k, v in layer_totals(spans).items():
                    totals[k] = totals.get(k, 0.0) + v
            totals["instance.known_pairs"] = sum(
                sum(len(nb) for nb in pedm.adj) // 2 for _, pedm in pairs
            )
            layer_passes.append(totals)
        pass_index += 1
        del pairs
        elapsed = time.perf_counter() - t_start
        predicted = statistics.fmean(p["wall_s"] for p in passes)
        if elapsed + predicted > seconds:
            break
    refs_after = [host_ref() for _ in range(REF_REPEATS)]

    failed = sum(1 for r in records if r["error"])
    rmsds = [r["rmsd"] for r in records if r["rmsd"] is not None]
    if rmsds and statistics.fmean(rmsds) < wl.mean_rmsd_min:
        # every solve's data is suspect when the noise did not show
        for r in records:
            r["error"] = r["error"] or f"mean rmsd {statistics.fmean(rmsds):.3e} below {wl.mean_rmsd_min:g}"
        failed = len(records)
    all_refs = refs_before + [r["ref_s"] for r in records] + refs_after
    detail = {
        "passes": len(passes),
        "instances": len(records),
        "failed_frac": failed / len(records),
        "rmsd": statistics.fmean(rmsds) if rmsds else 0.0,
        "scaling_exponent": fit_exponent([r["n"] for r in records], [r["solve_adj_s"] for r in records]),
        "solve_wall_s": statistics.fmean(p["solve_s"] for p in passes),
        "host.ref_s": {"before": refs_before, "after": refs_after, "median": statistics.median(all_refs)},
        "measured_s": time.perf_counter() - t_start,
    }
    if trace:
        metrics = _layer_metrics(layer_passes, setups, records, detail)
    else:
        metrics = _end_to_end(passes, setups)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "records": records,
        "spans": tracer.trees if tracer else [],
    }


def _end_to_end(passes, setups) -> dict:
    solve = sum(p["solve_adj_s"] for p in passes)
    values = {
        "solve_s": solve / len(passes),
        "setup_s": statistics.median(s[0] for s in setups),
        "sensors_per_s": sum(p["positioned"] for p in passes) / solve,
        "positioned_frac": sum(p["positioned"] for p in passes) / sum(p["sensors"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def _layer_metrics(layer_passes, setups, records, detail) -> dict:
    first = layer_passes[0]
    values = {}
    for name, unit, _ in PER_LAYER:
        if unit == "count":
            values[name] = int(first.get(name, 0))
        elif unit == "s":
            values[name] = statistics.median(p.get(name, 0.0) for p in layer_passes)
    for step in STEPS:
        tried = first.get(f"reducer.{step}.attempts", 0)
        values[f"reducer.{step}.accept_ratio"] = first.get(f"reducer.{step}.accepts", 0) / tried if tried else 0.0
    values["instance.generate_s"] = statistics.median(s[1] for s in setups)
    values["instance.build_pedm_s"] = statistics.median(s[2] for s in setups)
    values["host.ref_s"] = detail["host.ref_s"]["median"]
    values["trace.overhead"] = sum(r["traced_solve_s"] for r in records) / sum(r["solve_s"] for r in records)
    for key in ("failed_frac", "rmsd", "scaling_exponent"):
        values[key] = detail[key]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
