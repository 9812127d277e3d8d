import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "solve_digest.py"
SMALLEST = ["L2-200", "L4-354"]
FIELDS = ("counts", "ids", "coords", "rmsd", "setup_s", "solve_s", "setup_rss_mb", "peak_rss_mb",
          "alone")


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
    # each instance's line is followed by its old -> new line
    assert lines[::2] == [f"{name}: counts equal, sets equal, max coordinate difference 0"
                          for name in SMALLEST] + [
        "2 of 2 equal (counts, sets); largest coordinate difference 0"]
    for line, positioned in zip(lines[1::2], (196, 291)):
        assert re.fullmatch(rf"  positioned {positioned} -> {positioned}, rmsd (\S+) -> \1, "
                            r"solve \S+ -> \S+ s", line), line
    # each instance's RMSD against the truth is stored, finite as every
    # sensor of these instances is positioned
    with np.load(first) as digest:
        for name in SMALLEST:
            assert 0.0 <= float(digest[f"{name}.rmsd"]) < 1e-9
            assert {f"{name}.{field}" for field in FIELDS} <= set(digest.files)
            assert digest[f"{name}.setup_s"] > 0 and digest[f"{name}.solve_s"] > 0
            # the high-water mark right after set-up, apart from the solve's
            assert 0 < digest[f"{name}.setup_rss_mb"] <= digest[f"{name}.peak_rss_mb"]
            # both ran in one process
            assert not digest[f"{name}.alone"]
        assert digest["L2-200.ids"].size == 200 - 4
        assert 0 < digest["L4-354.ids"].size <= 354 - 8


SCALE_NAMES = ["exact-L2-8004", "noisy-L2-8004"]


@pytest.fixture(scope="module")
def scale_digest(tmp_path_factory):
    """The ``--scale`` records of the two smallest L2 instances, solved once
    for the tests that read them."""
    out = tmp_path_factory.mktemp("scale") / "scale.npz"
    done = subprocess.run([sys.executable, str(TOOL), "--scale", "--only", *SCALE_NAMES,
                           "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    with np.load(out) as digest:
        return dict(digest)


def test_solve_digest_solves_each_scale_instance_alone(scale_digest, tmp_path):
    digest = scale_digest
    for name in SCALE_NAMES:
        assert {f"{name}.{field}" for field in FIELDS} <= set(digest)
        assert digest[f"{name}.alone"]
        assert 0 < digest[f"{name}.setup_rss_mb"] <= digest[f"{name}.peak_rss_mb"]
        assert digest[f"{name}.ids"].size == 8000
    # in one process the second set-up would read the first solve's peak
    assert digest["noisy-L2-8004.setup_rss_mb"] < digest["exact-L2-8004.peak_rss_mb"]
    # the lists do not mix
    done = subprocess.run([sys.executable, str(TOOL), "--scale", "--only", "L2-200",
                           "--out", str(tmp_path / "scale.npz")], capture_output=True, text=True)
    assert done.returncode == 2 and "unknown instances: L2-200" in done.stderr


def test_solve_digest_sets_up_noisy_scale_distances(scale_digest):
    # the noisy instance is the exact one's draw with sigma 1e-4 on its
    # distances: every sensor is still positioned, now off the truth
    cases = {c[0]: c for c in load_tool().scale_instances()}
    exact, noisy = cases["exact-L2-8004"], cases["noisy-L2-8004"]
    assert exact[5] == 0.0 and noisy[5] == 1e-4
    assert noisy[1:5] + noisy[6:] == exact[1:5] + exact[6:]
    assert scale_digest["noisy-L2-8004.ids"].size == 8000
    assert float(scale_digest["exact-L2-8004.rmsd"]) < 1e-9
    assert 1e-9 < float(scale_digest["noisy-L2-8004.rmsd"]) < 1e-2


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


def test_solve_digest_prints_old_to_new_and_flags_slow_solves(capsys):
    # under each instance's line: positioned count, RMSD and solve seconds,
    # old -> new; a solve that ran alone and took more than 1.3 times as
    # long is flagged, in print only
    tool = load_tool()
    old = {"a.counts": np.array("{}"), "a.ids": np.arange(3), "a.coords": np.zeros((3, 2)),
           "a.rmsd": np.array(2e-12), "a.solve_s": np.array(1.0)}
    grown = {**old, "a.ids": np.arange(4), "a.coords": np.zeros((4, 2)),
             "a.rmsd": np.array(3e-12), "a.solve_s": np.array(1.5), "a.alone": np.array(True)}
    assert not tool.compare(["a"], grown, old)
    assert capsys.readouterr().out.splitlines()[1] == (
        "  positioned 3 -> 4, rmsd 2e-12 -> 3e-12, solve 1 -> 1.5 s, SLOWER by more than 1.3x")
    slow = {**old, "a.solve_s": np.array(1.5), "a.alone": np.array(True)}
    assert tool.compare(["a"], slow, old)
    assert capsys.readouterr().out.splitlines()[1] == (
        "  positioned 3 -> 3, rmsd 2e-12 -> 2e-12, solve 1 -> 1.5 s, SLOWER by more than 1.3x")
    # no flag at 1.3 times, nor for an instance that shared its process
    for solve_s, alone in ((1.3, True), (1.5, False)):
        assert tool.compare(["a"], {**slow, "a.solve_s": np.array(solve_s),
                                    "a.alone": np.array(alone)}, old)
        assert "SLOWER" not in capsys.readouterr().out
    # a digest written before times were stored prints none
    untimed = {key: value for key, value in old.items() if key != "a.solve_s"}
    assert tool.compare(["a"], slow, untimed)
    assert capsys.readouterr().out.splitlines()[1] == "  positioned 3 -> 3, rmsd 2e-12 -> 2e-12"
