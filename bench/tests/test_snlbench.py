"""Tests of the benchmark's own code, on tiny instances."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import snloc.reducer  # noqa: E402
import snloc.solver  # noqa: E402
from snloc import StepLevel  # noqa: E402
from snlbench import harness  # noqa: E402
from snlbench.harness import fit_exponent, run_workload  # noqa: E402
from snlbench.workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    why="two small sparse instances per pass",
    sizes=(40, 80),
    radii=(0.5, 0.35),
    level=StepLevel.L4,
    sigma=0.0,
    rmsd_max=1e-6,
)


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_printed_metric_names_match_benchmark_json():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run_workload(TINY, seed=1, seconds=0.01, trace=trace)
        assert result["correct"], result["records"]
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_run_restores_the_solver_modules():
    before = (snloc.solver.run, snloc.reducer.rigid_clique_union, snloc.reducer._is_feasible)
    result = run_workload(TINY, seed=2, seconds=0.01, trace=True)
    assert (snloc.solver.run, snloc.reducer.rigid_clique_union, snloc.reducer._is_feasible) == before
    assert result["spans"] and all(spans[0][0] == "solver.localize" for spans in result["spans"])


def test_exponent_fit_recovers_a_known_slope():
    ns = [500, 1000, 2000, 4000] * 2
    times = [3e-6 * n**1.5 for n in ns]
    assert fit_exponent(ns, times) == pytest.approx(1.5, abs=1e-9)
    assert fit_exponent([1000, 1000], [1.0, 2.0]) == 0.0


def test_injected_bad_result_raises_failed_frac(monkeypatch):
    real = harness.localize

    def shifted(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.positioned = {u: p + 1e-3 for u, p in rep.positioned.items()}
        return rep

    good = run_workload(TINY, seed=3, seconds=0.01, trace=False)
    assert good["correct"] and good["detail"]["failed_frac"] == 0.0
    monkeypatch.setattr(harness, "localize", shifted)
    bad = run_workload(TINY, seed=3, seconds=0.01, trace=False)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"]
    assert bad["detail"]["failed_frac"] == 1.0


def test_raising_solve_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness, "localize", boom)
    bad = run_workload(TINY, seed=3, seconds=0.01, trace=False)
    assert bad["failed"] == bad["attempted"] >= 1
    assert "injected" in bad["records"][0]["error"]


def test_noise_floor_applies_to_the_run_mean():
    floor = replace(TINY, mean_rmsd_min=1e-3)
    result = run_workload(floor, seed=3, seconds=0.01, trace=False)
    assert result["failed"] == result["attempted"]


def test_same_seed_repeats_counts_and_another_seed_changes_instances():
    a = run_workload(TINY, seed=5, seconds=0.01, trace=True)
    b = run_workload(TINY, seed=5, seconds=0.01, trace=True)
    c = run_workload(TINY, seed=6, seconds=0.01, trace=True)
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}  # noqa: E731
    keep = lambda r: [(x["seed"], x["positioned"], x.get("step_counts")) for x in r["records"]]  # noqa: E731
    assert counts(a) == counts(b)
    assert keep(a) == keep(b)
    assert {x["seed"] for x in a["records"]}.isdisjoint(x["seed"] for x in c["records"])
    assert TINY.instance_seeds(5, 0) != TINY.instance_seeds(5, 1)


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "noisy-dense", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_seeds_are_deterministic():
    wl = WORKLOADS["rigid-scaling"]
    assert wl.instance_seeds(7, 2) == wl.instance_seeds(7, 2)
    assert len(set(wl.instance_seeds(7, 2))) == len(wl.sizes)
    assert np.allclose([r * r * n for n, r in zip(wl.sizes, wl.radii)], wl.radii[0] ** 2 * wl.sizes[0])
