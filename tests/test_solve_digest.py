import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"
SMALLEST = ["L2-200", "L4-354"]


def load_tool():
    spec = importlib.util.spec_from_file_location("solve_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_digest_against_itself(tmp_path):
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    run = [sys.executable, str(TOOL), "--only", *SMALLEST]
    subprocess.run(run + ["--out", str(first)], check=True)
    done = subprocess.run(run + ["--out", str(second), "--against", str(first)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines == [f"{name}: counts equal, sets equal, max coordinate difference 0"
                     for name in SMALLEST] + [
        "2 of 2 equal (counts, sets); largest coordinate difference 0"]
    # each instance's RMSD against the truth is stored, finite as every
    # sensor of these instances is positioned
    with np.load(first) as digest:
        for name in SMALLEST:
            assert 0.0 <= float(digest[f"{name}.rmsd"]) < 1e-9


def test_solve_digest_flags_differences(tmp_path, capsys):
    tool = load_tool()
    ids = np.arange(3)
    digest = {"a.counts": np.array('{"rigid_union": 2}'), "a.ids": ids,
              "a.coords": np.zeros((3, 2))}
    assert tool.compare(["a"], digest, digest)
    for key, value in (("a.counts", np.array('{"rigid_union": 3}')), ("a.ids", ids + 1)):
        assert not tool.compare(["a"], digest, {**digest, key: value})
    assert not tool.compare(["a"], digest, {})
    moved = {**digest, "a.coords": np.full((3, 2), 1e-9)}
    assert tool.compare(["a"], digest, moved)
    assert "max coordinate difference 1e-09" in capsys.readouterr().out
    # a differing set reports both positioned counts and compares the
    # coordinates of the common nodes
    grown = {"a.counts": digest["a.counts"], "a.ids": np.arange(4),
             "a.coords": np.vstack([np.zeros((3, 2)), [[1.0, 1.0]]])}
    grown["a.coords"][2] = 2e-9
    assert not tool.compare(["a"], grown, digest)
    assert capsys.readouterr().out.splitlines()[0] == (
        "a: counts equal, sets DIFFER (3 -> 4 positioned), max coordinate difference 2e-09"
        " over the 3 common nodes")
    # the summary counts the instances that agree and takes the largest
    # difference over all of them
    two = {**digest, "b.counts": digest["a.counts"], "b.ids": ids, "b.coords": np.zeros((3, 2))}
    assert not tool.compare(["a", "b"], two, {**two, "a.coords": moved["a.coords"], "b.ids": ids + 1})
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 of 2 equal (counts, sets); largest coordinate difference 1e-09")


def test_solve_digest_prints_rmsd_moves(tmp_path, capsys):
    # where the coordinates differ, the RMSDs are printed old -> new; a
    # digest without RMSDs, as written before they were stored, compares
    # as before
    tool = load_tool()
    ids = np.arange(3)
    old = {"a.counts": np.array("{}"), "a.ids": ids, "a.coords": np.zeros((3, 2)),
           "a.rmsd": np.array(2e-12)}
    new = {**old, "a.coords": np.full((3, 2), 1e-9), "a.rmsd": np.array(3e-9)}
    assert tool.compare(["a"], new, old)
    assert capsys.readouterr().out.splitlines()[0] == (
        "a: counts equal, sets equal, max coordinate difference 1e-09, rmsd 2e-12 -> 3e-09")
    assert tool.compare(["a"], old, {**old, "a.rmsd": np.array(5e-12)})
    assert capsys.readouterr().out.splitlines()[0] == (
        "a: counts equal, sets equal, max coordinate difference 0")
    no_rmsd = {key: value for key, value in old.items() if key != "a.rmsd"}
    assert tool.compare(["a"], new, no_rmsd)
    assert capsys.readouterr().out.splitlines()[0] == (
        "a: counts equal, sets equal, max coordinate difference 1e-09")
