import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "scale_probe.py"


def test_scale_probe_runs_one_process_per_size(tmp_path):
    out = tmp_path / "probe.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "204", "304", "--out", str(out)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=204", "n=304"]
    assert all("MB after set-up" in line and "MB after solve" in line for line in lines)
    records = json.loads(out.read_text())
    assert [r["n"] for r in records] == [204, 304]
    for r in records:
        assert r["sigma"] == 0.0 and r["level"] == 2
        assert r["radius"] == pytest.approx(0.07 * (2004 / r["n"]) ** 0.5)
        assert r["setup_s"] == pytest.approx(r["generate_s"] + r["build_s"])
        assert r["solve_s"] > 0 and r["peak_rss_mb"] > 0
        # the high-water mark right after set-up, apart from the solve's
        assert 0 < r["setup_rss_mb"] <= r["peak_rss_mb"]
        assert r["positioned"] == r["sensors"] == r["n"] - 4


def test_scale_probe_sets_up_noisy_distances(tmp_path):
    out = tmp_path / "probe.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "204", "--sigma", "1e-4",
                           "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    (r,) = json.loads(out.read_text())
    assert r["n"] == 204 and r["sigma"] == 1e-4
    assert r["positioned"] == r["sensors"] == 200


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_scale_probe_rejects_a_bad_sigma(sigma):
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "204", "--sigma", sigma],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "--sigma" in done.stderr


def test_scale_probe_takes_a_level_and_a_radius(tmp_path):
    out = tmp_path / "probe.json"
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "204", "304", "--level", "4",
                           "--radius", "0.25", "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    records = json.loads(out.read_text())
    assert [(r["n"], r["level"], r["radius"]) for r in records] == [(204, 4, 0.25), (304, 4, 0.25)]
    for r in records:
        assert 0 < r["positioned"] <= r["sensors"]


@pytest.mark.parametrize("option, value", [("--level", "0"), ("--level", "5"), ("--level", "2.5"),
                                           ("--radius", "0"), ("--radius", "-0.1"),
                                           ("--radius", "nan"), ("--radius", "inf")])
def test_scale_probe_rejects_a_bad_level_or_radius(option, value):
    done = subprocess.run([sys.executable, str(TOOL), "--sizes", "204", option, value],
                          capture_output=True, text=True)
    assert done.returncode == 2 and option in done.stderr
