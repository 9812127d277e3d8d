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
    records = json.loads(out.read_text())
    assert [r["n"] for r in records] == [204, 304]
    for r in records:
        assert r["setup_s"] == pytest.approx(r["generate_s"] + r["build_s"])
        assert r["solve_s"] > 0 and r["peak_rss_mb"] > 0
        assert r["positioned"] == r["sensors"] == r["n"] - 4
