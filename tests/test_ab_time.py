import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"
SRC = str(ROOT / "src")


def test_ab_time_runs_one_round_of_one_pass():
    done = subprocess.run([sys.executable, str(TOOL), "--a", SRC, "--b", SRC,
                           "--workload", "singular-sparse", "--passes", "1", "--rounds", "1"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert re.fullmatch(r"round 0: A \d+\.\d{4} s, B \d+\.\d{4} s, B/A \d+\.\d{3}", lines[0])
    assert re.fullmatch(r"median B/A \d+\.\d{3}; B faster in [01] of 1 rounds", lines[1])


def test_ab_time_rejects_an_unknown_workload():
    done = subprocess.run([sys.executable, str(TOOL), "--a", SRC, "--b", SRC,
                           "--workload", "no-such-workload"], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown workload" in done.stderr
