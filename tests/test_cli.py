import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from string_sausage import survival
from string_sausage.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_OK,
    MODEL_DEFAULTS,
    build_parser,
    main,
    parse_config,
    run_config,
    write_rows,
)
from string_sausage.geometry import sausage_volume_hit_or_miss
from string_sausage.rng import MC, substream
from string_sausage.simulate import simulate
from string_sausage.spectral import ModelParams
from string_sausage.traps import Box, PoissonEnvironment


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def test_survival_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out = run_cli(
        [
            "survival", "--hard", "--d", "2", "--J", "1", "--nu", "1", "--a", "0.3",
            "--T", "0.5", "--n", "100", "--seed", "7", "--threads", "1",
            "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert rec["method"] == "hard_direct"
    assert 0.0 <= rec["p_hat"] <= 1.0
    assert rec["stderr"] >= 0.0
    lo, hi = rec["ci95"]
    assert lo <= rec["p_hat"] <= hi and hi > lo
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 2


@pytest.mark.parametrize("flags", [["--hard"], ["--via-volume"], ["--soft"], ["--env", "ENV"]])
def test_survival_json_is_worker_invariant(flags, capsys, tmp_path):
    env = tmp_path / "env.json"
    env.write_text(PoissonEnvironment(np.array([[0.8, 0.0]]), Box([-3, -3], [3, 3]), 1.0).to_json())
    flags = [str(env) if f == "ENV" else f for f in flags]
    outs = []
    for threads in ("1", "2"):
        code, out = run_cli(["survival", *flags, "--nu", "0.2", "--T", "0.5", "--n", "100",
                             "--seed", "3", "--threads", threads], capsys)
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]
    rec = last_json(outs[0])
    assert 0 < rec["ess"] <= 100 and 0 < rec["max_weight_share"] <= 1


def test_unknown_subcommand_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "string_sausage.cli", "frobnicate"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_missing_seed_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "string_sausage.cli", "survival", "--hard"],
        capture_output=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("seed", ["-1", "-2", str(1 << 64)])
def test_seed_outside_64_bits_exit_2(seed, capsys):
    # checked before any work: at T=0 the estimate draws no stream at all
    assert main(["survival", "--hard", "--T", "0", "--n", "100", "--seed", seed, "--threads", "1"]) == EXIT_CONFIG
    assert f"seed {seed} must lie in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["scaling-check", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", str((1 << 64) - 1)],
         "must lie in [0, 2**64 - 1): scaling-check runs its unit-J side at seed + 1"),
        (["diagnostics", "--chain", "--seed", str((1 << 64) - 2)],
         "must lie in [0, 2**64 - 2): diagnostics --chain also runs seed + 1 and seed + 2"),
    ],
    ids=["scaling_check", "diagnostics_chain"],
)
def test_derived_seed_outside_64_bits_exit_2(argv, cause, capsys):
    assert main(argv) == EXIT_CONFIG
    assert cause in capsys.readouterr().err


# The CLI in a child whose address space is capped at 8 GiB, so an
# allocation of hundreds of GiB fails at once on any machine.
CAPPED_CHILD = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30))\n"
    "from string_sausage.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def run_capped(argv):
    return subprocess.run([sys.executable, "-c", CAPPED_CHILD, *argv], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})


def test_unallocatable_path_exit_2():
    # 1e9 steps need about 490 GiB of noise, for a pool's block or one replica
    # alone, and 15 GiB for a Brownian path in d=2
    for argv in (["survival", "--hard", "--T", "1", "--n", "100", "--threads", "1"],
                 ["simulate"], ["sausage"], ["sausage", "--method", "wiener"]):
        proc = run_capped([*argv, "--seed", "1", "--dt", "1e-9"])
        assert proc.returncode == EXIT_CONFIG, (argv, proc.stderr)
        assert "config error: a path of 1000000000 steps" in proc.stderr


@pytest.mark.parametrize("command", ["sausage", "run"])
def test_unallocatable_samples_exit_2(command, tmp_path):
    # 1e12 hit-or-miss samples in d=2 need about 15 TiB
    config = tmp_path / "sausage.json"
    config.write_text(json.dumps({"experiment": "sausage", "seed": 1, "n_mc": 10 ** 12}))
    if command == "sausage":
        proc = run_capped(["sausage", "--seed", "1", "--n-mc", str(10 ** 12)])
    else:
        proc = run_capped(["run", "--config", str(config)])
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "config error: 1000000000000 hit-or-miss samples do not fit in memory" in proc.stderr


@pytest.mark.parametrize(
    "argv, count",
    [(["survival", "--hard", "--threads", "1"], 10 ** 12),
     (["survival", "--hard", "--threads", "2"], 10 ** 12 // 8),
     (["scaling-check", "--threads", "1"], 10 ** 12), (["run"], 10 ** 12)],
    ids=["survival", "survival_pool", "scaling-check", "run"],
)
def test_unallocatable_replica_count_exit_2(argv, count, tmp_path):
    # 1e12 replica weights need 7.3 TiB, and each of the 8 chunks of a 2-worker pool 931 GiB
    if argv == ["run"]:
        config = tmp_path / "survival.json"
        config.write_text(json.dumps({"experiment": "survival", "seed": 1, "n_replicas": 10 ** 12,
                                      "T": 0.1, "threads": 1}))
        argv = ["run", "--config", str(config)]
    else:
        argv = [*argv, "--n", str(10 ** 12), "--seed", "1", "--T", "0.1"]
    proc = run_capped(argv)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert f"config error: the weights of {count} replicas do not fit in memory" in proc.stderr


@pytest.mark.parametrize(
    "flags", [["--soft", "--height", "1", "--threads", "1"], ["--soft", "--height", "1", "--threads", "2"],
              ["--hard", "--threads", "1"]],
    ids=["soft", "soft_pool", "hard"],
)
def test_unallocatable_traps_exit_2(flags):
    # nu = 1e9 over a box of about 12 draws about 1.2e10 traps, 179 GiB
    argv = ["survival", "--d", "2", "--K", "16", "--M", "64", "--dt", "0.05", "--T", "1", *flags,
            "--n", "100", "--seed", "1", "--nu", "1e9"]
    proc = run_capped(argv)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "traps (nu=1000000000.0 over a box of volume" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--J", "1e300", "--seed", "1"],
     ["survival", "--hard", "--J", "1e200", "--n", "100", "--seed", "1", "--threads", "1"]],
    ids=["simulate", "survival"],
)
def test_overflowing_circle_length_exit_2(argv, capsys):
    assert main(argv) == EXIT_CONFIG
    assert "J**2 overflows" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--nu", "0"], ["--nu", "1e-320"], ["--J", "1e150"]],
                         ids=["no_traps", "subnormal_nu", "huge_J"])
def test_diagnostics_without_a_finite_clearing_bound_exit_2(flags, capsys):
    assert main(["diagnostics", *flags, "--seed", "7"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "no finite clearing bound" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--T", "0.24", "--seed", "1"],
     ["sausage", "--T", "0.24", "--n-mc", "1000", "--seed", "1"],
     ["survival", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", "5"],
     ["scaling-check", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", "5"],
     ["diagnostics", "--M", "256", "--K", "64", "--seed", "7"],
     ["fit", "--input", "FIT"],
     ["run", "--config", "RUN"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_csv_exit_2_without_a_summary(argv, capsys, tmp_path):
    # --csv is opened before the command runs, so a command whose --csv
    # cannot be opened does no work and prints nothing to stdout
    fit, run = tmp_path / "fit.csv", tmp_path / "run.json"
    fit.write_text("T,neg_log_S\n" + "".join(f"{T},{7.0 * T ** 0.5}\n" for T in (1, 2, 4, 16)))
    run.write_text(json.dumps({"seed": 5, "n_replicas": 100, "T": 0.24, "threads": 1}))
    argv = [{"FIT": str(fit), "RUN": str(run)}.get(a, a) for a in argv]
    assert main([*argv, "--csv", str(tmp_path / "missing" / "x.csv")]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


# the flags that read or write a file, each with the command line it needs
FILE_FLAGS = {
    "csv": ["fit", "--input", "FIT"],
    "out": ["simulate", "--T", "0.24", "--seed", "1"],
    "save-env": ["survival", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", "5"],
    "env": ["survival", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", "5"],
    "config": ["run"],
    "input": ["fit"],
}


@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_file_path_through_a_regular_file_exit_2(flag, capsys, tmp_path):
    # a path whose parent is a regular file raises NotADirectoryError, an OSError
    fit, regular = tmp_path / "fit.csv", tmp_path / "regular"
    fit.write_text("T,neg_log_S\n1,7\n2,9.9\n4,14\n16,28\n")
    regular.write_text("")
    argv = [str(fit) if a == "FIT" else a for a in FILE_FLAGS[flag]]
    assert main([*argv, f"--{flag}", str(regular / "x")]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.csv", "regular"]


@pytest.mark.parametrize(
    "argv, side",
    [(["simulate", "--seed", "7", "--out", "SIDE"], "side.npz"),
     (["survival", "--T", "0.24", "--n", "100", "--threads", "1", "--seed", "5", "--save-env", "SIDE"],
      "side.json")],
    ids=["simulate_out", "survival_save_env"],
)
def test_unwritable_csv_leaves_no_side_file(argv, side, capsys, tmp_path):
    argv = [str(tmp_path / side) if a == "SIDE" else a for a in argv]
    assert main([*argv, "--csv", str(tmp_path / "missing" / "x.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_existing_empty_csv_gets_the_header(capsys, tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("")
    assert run_cli(["simulate", "--T", "0.24", "--seed", "1", "--csv", str(csv_path)], capsys)[0] == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER) and len(lines) == 4


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_into_a_pipe_gets_the_header(capsys):
    # a pipe cannot tell its position: it is a fresh stream, headed like an empty file
    r, w = os.pipe()
    with os.fdopen(r) as fh:
        code, _ = run_cli(["simulate", "--T", "0.24", "--seed", "1", "--csv", f"/dev/fd/{w}"], capsys)
        os.close(w)
        lines = fh.read().splitlines()
    assert code == EXIT_OK
    assert lines[0] == ",".join(CSV_HEADER) and len(lines) == 4


def test_failed_command_leaves_its_new_csv_empty_for_the_next_run(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    assert main(["survival", "--n", "50", "--threads", "1", "--seed", "1", "--csv", str(csv_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err and csv_path.read_text() == ""
    assert run_cli(["simulate", "--T", "0.24", "--seed", "1", "--csv", str(csv_path)], capsys)[0] == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert [line.split(",")[6] for line in lines[1:]] == ["final_radius", "final_range", "max_radius"]


def test_worker_count_reads_no_environment(monkeypatch):
    # the worker count is --threads, a `run` config's threads, or every core
    # this process may run on: `survival` sees an `os` without `environ`, so
    # reading any variable (a former knob set to 0, say) fails
    monkeypatch.setattr(survival, "os", SimpleNamespace(cpu_count=lambda: 8, sched_getaffinity=lambda pid: {0, 3}))
    assert survival.n_workers() == 2  # the affinity under taskset or a cpuset, not the 8 cores
    monkeypatch.setattr(survival, "os", SimpleNamespace(cpu_count=lambda: 8))
    assert survival.n_workers() == 8  # no affinity on this platform
    monkeypatch.setattr(survival, "os", SimpleNamespace(cpu_count=lambda: None))
    assert survival.n_workers() == 1


def test_bad_model_params_exit_2(capsys):
    code, _ = run_cli(
        ["survival", "--hard", "--a", "7.0", "--n", "100", "--seed", "1", "--threads", "1"],
        capsys,
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--T", "inf"], "T must be finite"),
        (["--dt", "inf"], "dt must be finite"),
        (["--dt", "5", "--T", "1"], "not a whole number of steps of dt=5.0: the nearest horizons on the grid are 0 and 5"),
        (["--eps-tail", "nan"], "eps_tail must be finite"),
        (["--J", "nan"], "J must be finite"),
        (["--nu", "inf"], "nu must be finite"),
        (["--T", "0.25"], "horizon T=0.25 is not a whole number of steps of dt=0.02: "
                          "the nearest horizons on the grid are 0.24 and 0.26"),
        (["--T", "1", "--dt", "0.3"], "the nearest horizons on the grid are 0.9 and 1.2"),
        (["--dt", "1e-320"], "horizon T=1.0 is not a finite number of steps of dt=1e-320"),
    ],
    ids=["T_inf", "dt_inf", "horizon_below_one_step", "eps_tail_nan", "J_nan", "nu_inf",
         "horizon_off_the_step_grid", "step_off_the_horizon", "subnormal_step"],
)
def test_non_finite_model_values_exit_2(argv, cause, capsys):
    code = main(["survival", "--hard", "--n", "100", "--seed", "1", "--threads", "1", *argv])
    assert code == EXIT_CONFIG
    assert cause in capsys.readouterr().err


def write_env(path):
    env = PoissonEnvironment(np.array([[0.5, 0.5]]), Box(np.zeros(2), np.ones(2)), 1.0)
    path.write_text(env.to_json())
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "50", "--threads", "1"],
        ["--n", "100", "--threads", "0"],
        ["--n", "5", "--threads", "1", "--env", "ENV_FILE"],
        ["--soft", "--via-volume", "--n", "100", "--threads", "1"],
        ["--via-volume", "--env", "ENV_FILE", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "-1", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "-1", "--env", "ENV_FILE", "--T", "0", "--n", "100"],
        ["--hard", "--height", "2", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "nan", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "inf", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "nan", "--env", "ENV_FILE", "--n", "100", "--threads", "1"],
        ["--soft", "--height", "inf", "--env", "ENV_FILE", "--n", "100", "--threads", "1"],
        ["--n", "100", "--threads", "1", "--env", "TMP_DIR"],
        # the worker count is checked before the exact T = 0 estimate returns
        ["--hard", "--T", "0", "--n", "100", "--threads", "0"],
        ["--via-volume", "--T", "0", "--n", "100", "--threads", "0"],
        ["--soft", "--T", "0", "--n", "100", "--threads", "0"],
        ["--env", "ENV_FILE", "--T", "0", "--n", "100", "--threads", "0"],
        # a mean trap count past numpy's Poisson limit names nu and the box
        ["--hard", "--nu", "1e300", "--T", "0.24", "--n", "100", "--threads", "1"],
        # a frozen field is not resampled: nothing runs and no file is written
        ["--env", "ENV_FILE", "--save-env", "SIDE", "--n", "100", "--threads", "1"],
    ],
    ids=[
        "too_few_replicas", "zero_threads", "quenched_too_few_replicas",
        "soft_via_volume", "quenched_via_volume", "negative_height", "quenched_negative_height_T_zero",
        "height_without_soft", "nan_height", "inf_height", "quenched_nan_height",
        "quenched_inf_height", "env_is_directory", "zero_threads_T_zero_hard",
        "zero_threads_T_zero_via_volume", "zero_threads_T_zero_soft", "zero_threads_T_zero_env",
        "huge_intensity", "quenched_save_env",
    ],
)
def test_bad_survival_input_exit_2(argv, capsys, tmp_path):
    side = tmp_path / "side.json"
    files = {"ENV_FILE": write_env(tmp_path / "env.json"), "TMP_DIR": str(tmp_path), "SIDE": str(side)}
    argv = [files.get(a, a) for a in argv]
    code = main(["survival", "--T", "0.5", "--seed", "1", *argv])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    if "--height" in argv:
        assert "height" in err
    if "1e300" in argv:
        assert "traps (nu=1e+300 over a box of volume" in err and "lam" not in err
    if "--save-env" in argv:
        assert "--save-env applies to annealed survival only" in err and not side.exists()


@pytest.mark.parametrize(
    "text, argv, cause",
    [
        ('{"nu": 1}', [], "'box'"),
        # six coordinates would also read as three 2-D traps
        ('{"nu": 1, "box": {"lower": [0, 0], "upper": [1, 1]}, '
         '"points": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]}', [], "shape (n, 2)"),
        (None, ["--d", "3"], "dimension 2"),
        ("[]", [], "must be an object"),
        ('{"nu": [1], "box": {"lower": [0, 0], "upper": [1, 1]}, "points": [[0.5, 0.5]]}', [],
         "'nu' has the wrong type"),
        ('{"nu": 1, "box": 5, "points": [[0.5, 0.5]]}', [], "'box' has the wrong type"),
        ('{"nu": 1, "box": {"lower": [NaN, 0], "upper": [1, 1]}, "points": []}', [], "must be finite"),
        ('{"nu": 1, "box": {"lower": [0, 0], "upper": [Infinity, 1]}, "points": [[0.5, 0.5]]}', [],
         "must be finite"),
        # the field's nu becomes the estimate's, through ModelParams' own checks
        ('{"nu": -0.5, "box": {"lower": [0, 0], "upper": [1, 1]}, "points": [[0.5, 0.5]]}', [],
         "nu must be >= 0"),
        ('{"nu": NaN, "box": {"lower": [0, 0], "upper": [1, 1]}, "points": [[0.5, 0.5]]}', [],
         "nu must be finite"),
    ],
    ids=["missing_key", "points_of_wrong_dimension", "box_dimension_differs_from_d",
         "not_an_object", "nu_of_wrong_type", "box_of_wrong_type", "box_with_nan", "box_with_inf",
         "negative_nu", "nan_nu"],
)
def test_malformed_env_file_exit_2(text, argv, cause, capsys, tmp_path):
    env_file = tmp_path / "env.json"
    if text is None:
        write_env(env_file)
    else:
        env_file.write_text(text)
    code = main(["survival", "--T", "0.5", "--n", "100", "--seed", "1", "--threads", "1",
                 "--env", str(env_file), *argv])
    assert code == EXIT_CONFIG
    assert cause in capsys.readouterr().err


def test_scaling_check_subcommand(capsys):
    code, out = run_cli(
        [
            "scaling-check", "--J", "2", "--nu", "0.25", "--a", "0.2", "--T", "0.5",
            "--n", "100", "--seed", "3", "--threads", "1",
        ],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert "original" in rec and "scaled" in rec
    assert isinstance(rec["overlap"], bool)
    assert rec["informative"] is True
    assert len(rec["original"]["ci95"]) == 2


def test_scaling_check_at_a_shared_boundary_is_not_informative(capsys):
    # at the default nu and a no path survives on either side: both p_hat are
    # 0, so the intervals overlap whatever the scaling
    code, out = run_cli(["scaling-check", "--J", "2", "--n", "200", "--seed", "3", "--threads", "1"], capsys)
    assert code == EXIT_OK
    rec = last_json(out)
    assert rec["original"]["p_hat"] == rec["scaled"]["p_hat"] == 0.0
    assert rec["overlap"] is True and rec["informative"] is False


def test_diagnostics_chain_reports_under_resolution(capsys, tmp_path):
    # at the default dt the center of mass moves about 0.5 per step, well
    # above Lambda/10, so tau detection is under-resolved
    csv_path = tmp_path / "rows.csv"
    with pytest.warns(UserWarning, match="too coarse"):
        code, out = run_cli(
            ["diagnostics", "--d", "2", "--a", "0.3", "--seed", "7", "--chain", "--csv", str(csv_path)],
            capsys,
        )
    assert code == EXIT_OK
    chain = last_json(out)["chain"]
    assert chain["resolved"] is False
    assert chain["step_limit"] == chain["Lambda"] / 10.0
    assert chain["max_step"] >= chain["step_limit"]
    # the chain's trace runs to 3 L rounded up to the step grid, and its row reports that horizon
    [rec] = [r for r in csv.DictReader(csv_path.read_text().splitlines()) if r["method"] == "chain_intervals"]
    steps = float(rec["T"]) / 0.02
    assert abs(steps - round(steps)) < 1e-6 and 0 <= float(rec["T"]) - 3 * chain["L"] < 0.02


def test_diagnostics_chain_pins_three_intervals(capsys):
    with pytest.warns(UserWarning, match="too coarse"):
        code, out = run_cli(
            ["diagnostics", "--chain", "--seed", "5", "--T", "80", "--K", "8", "--M", "32",
             "--dt", "0.05", "--eps-tail", "5e-3"],
            capsys,
        )
    assert code == EXIT_OK
    chain = last_json(out)["chain"]
    assert chain["S"] == [4.65, 32.15, 40.900000000000006]
    assert chain["T_seq"] == [27.5, 36.25, 64.45]
    assert chain["n_tau"] == 4 and chain["n_intervals"] == 3


def test_simulate_subcommand(capsys, tmp_path):
    out_npz = tmp_path / "trace.npz"
    code, out = run_cli(
        ["simulate", "--d", "2", "--seed", "1", "--out", str(out_npz)], capsys
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert len(rec["final_com"]) == 2
    assert rec["final_radius"] >= 0
    assert out_npz.exists()
    # a horizon off the step grid would simulate to another time than the one reported
    assert main(["simulate", "--T", "0.25", "--seed", "7"]) == EXIT_CONFIG
    assert "nearest horizons on the grid are 0.24 and 0.26" in capsys.readouterr().err


def test_simulate_out_without_suffix_reports_the_file_written(capsys, tmp_path):
    code, out = run_cli(["simulate", "--T", "0.1", "--seed", "1", "--out", str(tmp_path / "trace_out")], capsys)
    assert code == EXIT_OK
    written = tmp_path / "trace_out.npz"
    assert last_json(out)["out"] == str(written)
    assert written.exists() and not (tmp_path / "trace_out").exists()


def test_model_defaults_are_model_params_defaults():
    assert MODEL_DEFAULTS == {f.name: f.default for f in dataclasses.fields(ModelParams)}


def test_simulate_out_is_the_library_default_path(capsys, tmp_path):
    """Bare `simulate` flags and `ModelParams()` sample the same path."""
    out_npz = tmp_path / "f.npz"
    code, _ = run_cli(["simulate", "--seed", "7", "--out", str(out_npz)], capsys)
    assert code == EXIT_OK
    with np.load(out_npz) as saved:
        np.testing.assert_array_equal(saved["coeffs"], simulate(ModelParams(), 7).coeffs)


def test_sausage_subcommand(capsys):
    code, out = run_cli(
        ["sausage", "--d", "2", "--seed", "2", "--method", "hit_or_miss", "--n-mc", "5000"],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert rec["volume"] > 0


def test_sausage_with_no_hit_keeps_an_open_interval(capsys):
    # in d = 9 the sausage fills under 4e-5 of its padded box: none of 1000
    # samples hits, the stderr is 0, and the Wilson interval is still open
    code, out = run_cli(["sausage", "--d", "9", "--T", "0.24", "--n-mc", "1000", "--seed", "1"], capsys)
    assert code == EXIT_OK
    rec = last_json(out)
    assert (rec["volume"], rec["stderr"]) == (0.0, 0.0)
    lo, hi = rec["ci95"]
    assert lo == 0.0 < hi


@pytest.mark.parametrize("a", ["1e-320", "5e-324"])
def test_subnormal_trap_radius_exit_0(a, capsys, tmp_path):
    # the raster's cell side is subnormal or 0: no raster is built, and the
    # exact stage finds no sample within the radius, so no volume and every
    # path survives
    flags = ["--a", a, "--T", "0.24", "--seed", "1"]
    pool = ["--n", "100", "--threads", "1"]
    code, out = run_cli(["sausage", *flags, "--n-mc", "1000"], capsys)
    assert code == EXIT_OK and last_json(out)["volume"] == 0.0
    code, out = run_cli(["survival", "--hard", "--via-volume", *flags, *pool], capsys)
    assert code == EXIT_OK and last_json(out)["p_hat"] == 1.0
    code, out = run_cli(["scaling-check", "--via-volume", *flags, *pool], capsys)
    assert code == EXIT_OK and last_json(out)["original"]["p_hat"] == 1.0
    sweep = {"experiment": "survival", "method": "hard_via_volume", "seed": 1, "n_replicas": 100,
             "T": [0.24, 0.5], "a": float(a), "threads": 1}
    code, _ = run_config_file(tmp_path / "sweep.json", sweep, capsys)
    assert code == EXIT_OK


def test_subnormal_voxel_size_exit_2(capsys):
    # a / 4 = 2.5e-321: every voxel count overflows, which is the grid-size
    # error, without a numpy warning from casting the counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sausage", "--method", "voxel", "--a", "1e-320", "--T", "0.24", "--seed", "1"]) == EXIT_CONFIG
    assert "voxel grid too large" in capsys.readouterr().err


def test_sausage_replica_draws_its_own_samples(capsys):
    # replica r's hit-or-miss samples come from (MC, r), as in replica r of `survival --via-volume`
    code, out = run_cli(["sausage", "--T", "0.5", "--seed", "5", "--replica", "3", "--n-mc", "2000"], capsys)
    assert code == EXIT_OK
    p = ModelParams(**{**MODEL_DEFAULTS, "T": 0.5})
    cloud = simulate(p, 5, replica=3).cloud()
    volume = sausage_volume_hit_or_miss(cloud, p.a, 2000, substream(5, MC, 3)).volume
    assert last_json(out)["volume"] == volume
    assert volume != sausage_volume_hit_or_miss(cloud, p.a, 2000, substream(5, MC, 0)).volume


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--threads", "1"],
        ["sausage", "--threads", "1"],
        ["diagnostics", "--threads", "1"],
        ["diagnostics", "--n-smoothing", "5"],
        ["diagnostics", "--n-lambda", "5"],
    ],
    ids=["simulate_threads", "sausage_threads", "diagnostics_threads", "n_smoothing", "n_lambda"],
)
def test_flag_the_command_does_not_read_exit_2(argv, capsys):
    # only survival and scaling-check run a replica pool; diagnostics' sample sizes are fixed
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--voxel-size", "0.01"], "--voxel-size applies"),
        (["--method", "wiener", "--voxel-size", "0.01"], "--voxel-size applies"),
        (["--method", "voxel", "--n-mc", "5"], "--n-mc applies"),
    ],
    ids=["voxel_size_with_hit_or_miss", "voxel_size_with_wiener", "n_mc_with_voxel"],
)
def test_sausage_ignored_flag_exit_2(argv, cause, capsys):
    assert main(["sausage", "--T", "0.2", "--seed", "7", *argv]) == EXIT_CONFIG
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("voxel", ["0", "-0.05", "nan"])
def test_sausage_bad_voxel_size_exit_2(voxel, capsys):
    argv = ["sausage", "--method", "voxel", "--voxel-size", voxel, "--d", "2", "--T", "0.2", "--seed", "1"]
    assert main(argv) == EXIT_CONFIG
    assert "voxel_size" in capsys.readouterr().err


def test_sausage_wiener_reports_its_method(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out = run_cli(["sausage", "--T", "0.2", "--dt", "0.0001", "--seed", "7", "--method", "wiener",
                         "--n-mc", "2000", "--csv", str(csv_path)], capsys)
    assert code == EXIT_OK
    [rec] = csv.DictReader(csv_path.read_text().splitlines())
    assert last_json(out)["method"] == rec["method"] == "wiener"


def test_fit_subcommand(capsys, tmp_path):
    data = tmp_path / "fit.csv"
    rows = ["T,neg_log_S"] + [f"{T},{7.0 * T ** 0.5}" for T in (1, 2, 4, 8, 16)]
    data.write_text("\n".join(rows) + "\n")
    code, out = run_cli(["fit", "--input", str(data)], capsys)
    assert code == EXIT_OK
    rec = last_json(out)
    assert abs(rec["gamma_hat"] - 0.5) < 1e-9


def test_fit_csv_row_carries_no_model(capsys, tmp_path):
    # horizons below one default step: the row must not be built from a default model
    data, out_csv = tmp_path / "fit.csv", tmp_path / "rows.csv"
    Ts = (0.0004, 0.001, 0.002, 0.004)
    data.write_text("\n".join(["T,neg_log_S"] + [f"{T},{3.0 * T ** 0.5}" for T in Ts]) + "\n")
    code, out = run_cli(["fit", "--input", str(data), "--csv", str(out_csv)], capsys)
    assert code == EXIT_OK
    assert abs(last_json(out)["gamma_hat"] - 0.5) < 1e-9
    [rec] = csv.DictReader(out_csv.read_text().splitlines())
    assert (rec["experiment"], rec["method"], rec["T"], rec["n"]) == ("fit", "gamma_hat", "0.004", "4")
    assert [rec[k] for k in ("d", "J", "nu", "a", "seed", "resolution_tag")] == [""] * 6


def test_fit_bad_columns_exit_2(capsys, tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("x,y\n1,2\n")
    code, _ = run_cli(["fit", "--input", str(data)], capsys)
    assert code == EXIT_CONFIG


def test_fit_blank_stderr_exit_2(capsys, tmp_path):
    # a weighted fit needs every stderr; dropping the column for all rows would hide the gap
    data = tmp_path / "gap.csv"
    data.write_text("T,neg_log_S,stderr\n1,7.0,0.1\n2,9.9,\n4,14.0,0.2\n8,19.8,0.3\n16,28.0,0.4\n")
    assert main(["fit", "--input", str(data)]) == EXIT_CONFIG
    assert "blank stderr" in capsys.readouterr().err


FULL = "T,neg_log_S,stderr"


@pytest.mark.parametrize("header, row, message", [
    (FULL, "2,nan,0.1", "-log S values must be finite"),
    (FULL, "2,inf,0.1", "-log S values must be finite"),
    (FULL, "0,9.9,0.1", "horizons T must be finite and > 0"),
    (FULL, "2,9.9,-0.1", "stderr values must be finite and >= 0"),
    (FULL, "2", "fit input row 2 does not have the 3 fields of its header"),
    ("T,neg_log_S", "2", "fit input row 2 does not have the 2 fields of its header"),
    ("T,neg_log_S", "2,9.9,0.1", "fit input row 2 does not have the 2 fields of its header"),
], ids=["nan", "inf", "zero_T", "negative_stderr", "short_row", "short_row_no_stderr", "long_row"])
def test_fit_bad_row_exit_2(capsys, tmp_path, header, row, message):
    # none of these may reach the fit, whose NaN would print as non-JSON "NaN"
    width = header.count(",") + 1
    good = [",".join(r.split(",")[:width]) for r in ("1,7.0,0.1", "4,14.0,0.2", "8,19.8,0.3", "16,28.0,0.4")]
    data = tmp_path / "bad.csv"
    data.write_text("\n".join([header, good[0], row, *good[1:]]) + "\n")
    assert main(["fit", "--input", str(data)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_parse_config_flat_and_json(capsys, tmp_path):
    cfg = {"experiment": "survival", "seed": 5, "T": [1.0, 2.0]}
    js = tmp_path / "c.json"
    js.write_text(json.dumps(cfg))
    assert parse_config(str(js)) == cfg
    # the flat `key = value` form is not a config format
    flat = tmp_path / "c.cfg"
    flat.write_text("experiment = survival\nseed = 5\nT = [1.0, 2.0]\n")
    assert main(["run", "--config", str(flat)]) == EXIT_CONFIG
    assert "bad JSON config" in capsys.readouterr().err


def test_run_config_sweep_cardinality():
    cfg = {
        "experiment": "survival", "seed": 9, "n_replicas": 100, "threads": 1,
        "T": [0.24, 0.5, 0.76, 1.0], "nu": 0.5,
    }
    rows, summary = run_config(cfg)
    assert len(rows) == 4
    assert summary["n_rows"] == 4


def test_run_config_zero_intensity_all_survive():
    cfg = {"experiment": "survival", "seed": 9, "n_replicas": 100, "threads": 1, "nu": [0.0], "T": [0.5, 1.0]}
    rows, _ = run_config(cfg)
    assert all(r["estimate"] == 1.0 for r in rows)


def test_run_config_defaults_match_survival_flags(capsys, tmp_path):
    """A `run` config with only a seed gives the row of bare `survival` flags."""
    flags_csv, run_csv = tmp_path / "flags.csv", tmp_path / "run.csv"
    code, _ = run_cli(["survival", "--seed", "1", "--threads", "1", "--csv", str(flags_csv)], capsys)
    assert code == EXIT_OK
    rows, _ = run_config({"seed": 1, "threads": 1})
    with open(run_csv, "a", newline="", encoding="utf-8") as fh:
        write_rows(fh, rows)
    assert run_csv.read_text() == flags_csv.read_text()


def test_run_config_defaults_match_sausage_flags(capsys):
    """A sausage `run` config with only a seed gives the volume of bare `sausage` flags."""
    code, out = run_cli(["sausage", "--seed", "1"], capsys)
    assert code == EXIT_OK
    [rec], _ = run_config({"experiment": "sausage", "seed": 1})
    assert (rec["estimate"], rec["stderr"], rec["n"]) == tuple(last_json(out)[k] for k in ("volume", "stderr", "n"))


def test_run_config_requires_seed():
    with pytest.raises(Exception):
        run_config({"experiment": "survival"})


def test_run_twice_identical_csv(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "survival", "seed": 11, "n_replicas": 100, "threads": 1, "T": [0.5]}))
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _ = run_cli(["run", "--config", str(cfg), "--csv", str(path)], capsys)
        assert code == EXIT_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def run_config_file(cfg, config, capsys):
    cfg.write_text(json.dumps(config))
    code = main(["run", "--config", str(cfg)])
    return code, capsys.readouterr().err


def test_run_bad_config_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    code, err = run_config_file(cfg, {"experiment": "warp", "seed": 1}, capsys)
    assert code == EXIT_CONFIG and "warp" in err
    code, _ = run_cli(["run", "--config", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_CONFIG
    code, _ = run_cli(["run", "--config", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG
    for threads in ("two", 1.5, True):
        code, err = run_config_file(cfg, {"seed": 1, "n_replicas": 100, "threads": threads}, capsys)
        assert code == EXIT_CONFIG and "worker count" in err, threads
    for config, key in (
        ({"seed": [1]}, "seed"), ({"seed": 1, "n_replicas": {"a": 1}}, "n_replicas"),
        ({"seed": 1, "K": [16]}, "K"),
        # fractional or boolean values for integer keys are not truncated
        ({"seed": 1.7}, "seed"), ({"seed": True}, "seed"), ({"seed": 1, "n_replicas": 100.9}, "n_replicas"),
        ({"seed": 1, "K": 16.8}, "K"), ({"seed": 1, "d": True}, "d"), ({"seed": 1, "M": 64.5}, "M"),
        ({"seed": 1, "experiment": "sausage", "n_mc": [2000]}, "n_mc"),
    ):
        code, err = run_config_file(cfg, config, capsys)
        assert code == EXIT_CONFIG and f"config value {key} =" in err, config
    # an off-grid horizon anywhere in a sweep stops the run before its first point
    code, err = run_config_file(cfg, {"seed": 1, "n_replicas": 100, "threads": 1, "T": [0.5, 0.25]}, capsys)
    assert code == EXIT_CONFIG and "horizon T=0.25 is not a whole number of steps of dt=0.02" in err


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_run_seed_outside_64_bits_exit_2(seed, capsys, tmp_path):
    config = {"seed": seed, "n_replicas": 100, "threads": 1, "T": 0.24}
    code, err = run_config_file(tmp_path / "c.json", config, capsys)
    assert code == EXIT_CONFIG and f"seed {seed} must lie in [0, 2**64)" in err


def test_run_derived_seed_outside_64_bits_exit_2(capsys, tmp_path):
    # three grid points run at seed, seed + 1 and seed + 2, all checked before the first
    config = {"seed": (1 << 64) - 3, "n_replicas": 100, "threads": 1, "T": [0.24, 0.5, 0.76]}
    code, _ = run_config_file(tmp_path / "c.json", config, capsys)
    assert code == EXIT_OK
    config["seed"] += 1
    code, err = run_config_file(tmp_path / "c.json", config, capsys)
    assert code == EXIT_CONFIG
    assert f"seed {config['seed']} must lie in [0, 2**64 - 2): run uses seed + i for grid point i of 3" in err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"seed": 3, "n_replica": 100}, "n_replica"),
        ({"seed": 3, "csv": "out.csv"}, "csv"),
        ({"seed": 3, "json_summary": "summary.json"}, "json_summary"),
        ({"seed": 3, "n_mc": 5}, "n_mc"),
        ({"experiment": "sausage", "seed": 3, "threads": 1}, "threads"),
        ({"experiment": "sausage", "seed": 3, "method": "hard_via_volume"}, "method"),
    ],
    ids=["typo_n_replica", "csv", "json_summary", "n_mc_under_survival", "threads_under_sausage",
         "method_under_sausage"],
)
def test_run_config_unread_key_exit_2(config, key, capsys, tmp_path):
    code, err = run_config_file(tmp_path / "c.json", config, capsys)
    assert code == EXIT_CONFIG
    assert f"config key(s) {key} not read" in err


def test_readme_command_lines_parse():
    """Every `string-sausage` line of the README's command-line block parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("string-sausage ")]
    assert len(lines) == 8
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0], line


def test_quenched_roundtrip_via_env_file(capsys, tmp_path):
    env_file = tmp_path / "env.json"
    code, _ = run_cli(
        [
            "survival", "--hard", "--nu", "0.5", "--T", "0.5", "--n", "100",
            "--seed", "13", "--threads", "1", "--save-env", str(env_file),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert env_file.exists()
    code, out = run_cli(
        [
            "survival", "--hard", "--nu", "0.5", "--T", "0.5", "--n", "100",
            "--seed", "13", "--threads", "1", "--env", str(env_file),
        ],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert rec["method"] == "quenched_hard"


def test_quenched_row_reports_the_field_intensity(capsys, tmp_path):
    # a field saved at --nu 0.3 and run without --nu: the row reads the
    # field's nu, not the flag's default 1.0
    env_file, rows = tmp_path / "env.json", tmp_path / "rows.csv"
    common = ["survival", "--hard", "--T", "0.24", "--n", "101", "--seed", "5", "--threads", "1"]
    assert run_cli([*common, "--nu", "0.3", "--save-env", str(env_file)], capsys)[0] == EXIT_OK
    assert PoissonEnvironment.from_json(env_file.read_text()).nu == 0.3
    assert run_cli([*common, "--env", str(env_file), "--csv", str(rows)], capsys)[0] == EXIT_OK
    [rec] = csv.DictReader(rows.read_text().splitlines())
    assert (rec["method"], rec["nu"]) == ("quenched_hard", "0.3")


@pytest.mark.parametrize("kind", ["hard", "soft"])
def test_quenched_method_name_at_T_zero(kind, capsys, tmp_path):
    env_file = write_env(tmp_path / "env.json")
    code, out = run_cli(
        ["survival", f"--{kind}", "--T", "0", "--n", "100", "--seed", "1", "--threads", "1",
         "--env", env_file],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert (rec["method"], rec["p_hat"]) == (f"quenched_{kind}", 1.0)
    assert rec["ci95"] == [1.0, 1.0]


@pytest.mark.parametrize(
    "flags", [["--hard"], ["--hard", "--via-volume"], ["--soft"]],
    ids=["hard_direct", "hard_via_volume", "soft"],
)
def test_survival_interval_is_exact_at_T_zero(flags, capsys):
    # at T=0 every path survives: the estimate is exact, not n Bernoulli draws
    code, out = run_cli(
        ["survival", *flags, "--T", "0", "--n", "100", "--seed", "1", "--threads", "1"], capsys
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert (rec["p_hat"], rec["stderr"], rec["ci95"]) == (1.0, 0.0, [1.0, 1.0])
