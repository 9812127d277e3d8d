import csv

import numpy as np
import pytest

from snloc.cli import (
    CSV_FIELDS,
    ExperimentConfig,
    emit_csv,
    main,
    run_experiment,
)
from snloc.edm_core import RankTolerance
from snloc.errors import InvalidConfig
from snloc.faces import Tolerances
from snloc.instance import (
    build_partial_edm,
    generate_instance,
    read_solution,
    write_problem,
)
from snloc.reducer import StepLevel
from snloc.solver import localize

TINY = dict(n=50, m=4, r=2, radio_range=0.45, trials=2, seed=1)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ExperimentConfig(n=4, m=4, trials=1)
    with pytest.raises(InvalidConfig):
        ExperimentConfig(trials=0)


@pytest.mark.parametrize("level", [0, 5])
def test_config_rejects_invalid_level(level):
    # used to raise the bare "not a valid StepLevel" ValueError
    with pytest.raises(InvalidConfig):
        ExperimentConfig(level=level)


def test_run_experiment_tiny():
    row = run_experiment(ExperimentConfig(**TINY))
    assert row.trials == 2
    assert row.successful == 2
    assert row.avg_positioned == 46.0
    assert row.avg_rmsd <= 1e-9
    assert row.avg_degree > 0


def test_run_experiment_complete_graph():
    # radio range above the box diameter: a single trial must position all
    # sensors essentially exactly
    row = run_experiment(
        ExperimentConfig(n=30, m=4, r=2, radio_range=1.5, trials=1, seed=2)
    )
    assert row.successful == 1
    assert row.avg_positioned == 26.0
    assert row.avg_rmsd <= 1e-9
    assert row.avg_degree == pytest.approx(29.0)


def test_run_experiment_deterministic_modulo_time():
    a = run_experiment(ExperimentConfig(**TINY))
    b = run_experiment(ExperimentConfig(**TINY))
    rec_a, rec_b = a.as_record(), b.as_record()
    rec_a.pop("avg_cpu_seconds")
    rec_b.pop("avg_cpu_seconds")
    assert rec_a == rec_b


def test_run_experiment_failure_row():
    row = run_experiment(
        ExperimentConfig(n=100, m=4, r=2, radio_range=0.02, trials=2, seed=0)
    )
    assert row.successful == 0
    assert row.avg_positioned == 0.0
    assert row.avg_max_error is None
    assert row.as_record()["avg_max_error"] == ""


def test_emit_csv_round_trip(tmp_path):
    row = run_experiment(ExperimentConfig(**TINY))
    path = tmp_path / "rows.csv"
    emit_csv([row], path)
    with open(path) as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 1
    assert got[0]["n"] == "50"
    assert float(got[0]["avg_positioned"]) == row.avg_positioned
    assert set(got[0]) == set(CSV_FIELDS)


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",") == CSV_FIELDS


def test_main_experiment_with_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        [
            "--n", "50", "--anchors", "4", "--dim", "2",
            "--radio-range", "0.45", "--trials", "1", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "successful=1" in printed
    assert out.exists()


def test_main_problem_file_round_trip(tmp_path, capsys):
    inst = generate_instance(40, 4, 2, seed=9, radio_range=0.5)
    pedm = build_partial_edm(inst)
    problem = tmp_path / "prob.snl"
    solution = tmp_path / "sol.txt"
    trace = tmp_path / "trace.log"
    write_problem(problem, pedm, inst.anchors)
    code = main(
        [
            "--problem", str(problem),
            "--solution", str(solution),
            "--trace", str(trace),
        ]
    )
    assert code == 0
    got = read_solution(solution)
    report = localize(pedm, inst.anchors, level=StepLevel.L2)
    assert set(got) == set(report.positioned)
    for node, coords in got.items():
        assert np.allclose(coords, report.positioned[node], atol=1e-12)
    assert trace.read_text().startswith("step=")


@pytest.mark.parametrize("flags, message", [
    (["--tol", "2"], "relative_cut"), (["--tol", "nan"], "relative_cut"),
    (["--feas-tol", "nan"], "feas_tol"), (["--feas-tol", "-1"], "feas_tol"),
    (["--max-clique-size", "0"], "max_size"),
], ids=["tol-2", "tol-nan", "feas-tol-nan", "feas-tol-negative", "clique-size-0"])
def test_cli_rejects_invalid_tolerances_with_a_usage_error(flags, message, tmp_path, capsys):
    # --feas-tol nan used to run silently, and --tol 2 died with a bare
    # ValueError traceback
    inst = generate_instance(50, 4, 2, seed=1, radio_range=0.45)
    problem = tmp_path / "prob.snl"
    write_problem(problem, build_partial_edm(inst), inst.anchors)
    experiment = ["--n", "50", "--anchors", "4", "--radio-range", "0.45", "--trials", "1"]
    for argv in (experiment + flags, ["--problem", str(problem)] + flags):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_tolerances_default_to_the_noise(tmp_path, monkeypatch):
    # the flags' old defaults (--tol 1e-9, --feas-tol 1e-6) were always
    # passed, so a noisy run got feas_tol=1e-6 instead of 10 sigma
    import snloc.cli

    seen = []

    def recording_localize(*args, **kwargs):
        seen.append(kwargs["tol"])
        return localize(*args, **kwargs)

    monkeypatch.setattr(snloc.cli, "localize", recording_localize)
    experiment = ["--n", "50", "--anchors", "4", "--radio-range", "0.45",
                  "--noise", "1e-4", "--trials", "1"]
    assert main(experiment) == 0
    assert seen.pop() == Tolerances.for_noise(1e-4)
    inst = generate_instance(50, 4, 2, seed=1, radio_range=0.45, noise_factor=1e-3)
    problem = tmp_path / "prob.snl"
    write_problem(problem, build_partial_edm(inst), inst.anchors)
    main(["--problem", str(problem)])
    assert seen.pop() == Tolerances.for_noise(1e-3)
    # a flag the user gives still wins over the noise-derived value
    main(experiment + ["--feas-tol", "1e-5"])
    assert seen.pop() == Tolerances.for_noise(1e-4, feas_tol=1e-5)
    main(["--problem", str(problem), "--tol", "1e-7", "--feas-tol", "1e-5"])
    assert seen.pop() == Tolerances.for_noise(
        1e-3, rank=RankTolerance(relative_cut=1e-7), feas_tol=1e-5)
