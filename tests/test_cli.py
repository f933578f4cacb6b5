import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from string_sausage.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_OK,
    main,
    parse_config,
    run_config,
    write_rows,
)
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


def test_bad_model_params_exit_2(capsys):
    code, _ = run_cli(
        ["survival", "--hard", "--a", "7.0", "--n", "100", "--seed", "1", "--threads", "1"],
        capsys,
    )
    assert code == EXIT_CONFIG


def write_env(path):
    env = PoissonEnvironment(np.array([[0.5, 0.5]]), Box(np.zeros(2), np.ones(2)), 1.0)
    path.write_text(env.to_json())
    return str(path)


@pytest.mark.parametrize(
    "argv, threads_env",
    [
        (["--n", "50", "--threads", "1"], None),
        (["--n", "100", "--threads", "0"], None),
        (["--n", "100"], "two"),
        (["--n", "5", "--threads", "1", "--env", "ENV_FILE"], None),
        (["--soft", "--via-volume", "--n", "100", "--threads", "1"], None),
        (["--via-volume", "--env", "ENV_FILE", "--n", "100", "--threads", "1"], None),
        (["--soft", "--height", "-1", "--n", "100", "--threads", "1"], None),
        (["--soft", "--height", "-1", "--env", "ENV_FILE", "--T", "0", "--n", "100"], None),
        (["--hard", "--height", "2", "--n", "100", "--threads", "1"], None),
        (["--n", "100", "--threads", "1", "--env", "TMP_DIR"], None),
    ],
    ids=[
        "too_few_replicas", "zero_threads", "non_integer_threads_env", "quenched_too_few_replicas",
        "soft_via_volume", "quenched_via_volume", "negative_height", "quenched_negative_height_T_zero",
        "height_without_soft", "env_is_directory",
    ],
)
def test_bad_survival_input_exit_2(argv, threads_env, capsys, monkeypatch, tmp_path):
    if threads_env is None:
        monkeypatch.delenv("STRING_SAUSAGE_THREADS", raising=False)
    else:
        monkeypatch.setenv("STRING_SAUSAGE_THREADS", threads_env)
    files = {"ENV_FILE": write_env(tmp_path / "env.json"), "TMP_DIR": str(tmp_path)}
    argv = [files.get(a, a) for a in argv]
    code = main(["survival", "--T", "0.5", "--seed", "1", *argv])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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
    ],
    ids=["missing_key", "points_of_wrong_dimension", "box_dimension_differs_from_d",
         "not_an_object", "nu_of_wrong_type", "box_of_wrong_type"],
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
    assert len(rec["original"]["ci95"]) == 2


def test_diagnostics_chain_reports_under_resolution(capsys):
    # at the default dt the center of mass moves about 0.5 per step, well
    # above Lambda/10, so tau detection is under-resolved
    with pytest.warns(UserWarning, match="too coarse"):
        code, out = run_cli(
            ["diagnostics", "--d", "2", "--a", "0.3", "--seed", "7", "--chain",
             "--n-smoothing", "2", "--n-lambda", "50"],
            capsys,
        )
    assert code == EXIT_OK
    chain = last_json(out)["chain"]
    assert chain["resolved"] is False
    assert chain["step_limit"] == chain["Lambda"] / 10.0
    assert chain["max_step"] >= chain["step_limit"]


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


def test_sausage_subcommand(capsys):
    code, out = run_cli(
        ["sausage", "--d", "2", "--seed", "2", "--method", "hit_or_miss", "--n-mc", "5000"],
        capsys,
    )
    assert code == EXIT_OK
    rec = last_json(out)
    assert rec["volume"] > 0


def test_fit_subcommand(capsys, tmp_path):
    data = tmp_path / "fit.csv"
    rows = ["T,neg_log_S"] + [f"{T},{7.0 * T ** 0.5}" for T in (1, 2, 4, 8, 16)]
    data.write_text("\n".join(rows) + "\n")
    code, out = run_cli(["fit", "--input", str(data)], capsys)
    assert code == EXIT_OK
    rec = last_json(out)
    assert abs(rec["gamma_hat"] - 0.5) < 1e-9


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


def test_parse_config_flat_and_json(tmp_path):
    flat = tmp_path / "c.cfg"
    flat.write_text("experiment = survival\nseed = 5\nT = [1.0, 2.0]\n# comment\n")
    cfg = parse_config(str(flat))
    assert cfg == {"experiment": "survival", "seed": 5, "T": [1.0, 2.0]}
    js = tmp_path / "c.json"
    js.write_text(json.dumps(cfg))
    assert parse_config(str(js)) == cfg


def test_run_config_sweep_cardinality():
    cfg = {
        "experiment": "survival", "seed": 9, "n_replicas": 100, "threads": 1,
        "T": [0.25, 0.5, 0.75, 1.0], "nu": 0.5,
    }
    rows, summary = run_config(cfg)
    assert len(rows) == 4
    assert summary["n_rows"] == 4


def test_run_config_zero_intensity_all_survive():
    cfg = {"experiment": "survival", "seed": 9, "n_replicas": 100, "threads": 1, "nu": [0.0], "T": [0.5, 1.0]}
    rows, _ = run_config(cfg)
    assert all(r["estimate"] == 1.0 for r in rows)


def test_run_config_defaults_match_survival_flags(capsys, tmp_path):
    """A `run` config with only a seed models the same string as bare `survival` flags."""
    flags_csv, run_csv = tmp_path / "flags.csv", tmp_path / "run.csv"
    code, _ = run_cli(["survival", "--seed", "1", "--n", "100", "--threads", "1",
                       "--csv", str(flags_csv)], capsys)
    assert code == EXIT_OK
    rows, _ = run_config({"seed": 1})
    write_rows(str(run_csv), rows)
    [flags], [run] = (list(csv.DictReader(p.read_text().splitlines())) for p in (flags_csv, run_csv))
    for col in ("d", "J", "nu", "a", "T", "resolution_tag"):
        assert run[col] == flags[col], col


def test_run_config_requires_seed():
    with pytest.raises(Exception):
        run_config({"experiment": "survival"})


def test_run_twice_identical_csv(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = survival\nseed = 11\nn_replicas = 100\nthreads = 1\nT = [0.5]\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _ = run_cli(["run", "--config", str(cfg), "--csv", str(path)], capsys)
        assert code == EXIT_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_run_bad_config_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = warp\nseed = 1\n")
    code, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == EXIT_CONFIG
    code, _ = run_cli(["run", "--config", str(tmp_path / "missing.cfg")], capsys)
    assert code == EXIT_CONFIG
    code, _ = run_cli(["run", "--config", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG
    for threads in ('"two"', "1.5"):
        cfg.write_text(f"seed = 1\nn_replicas = 100\nthreads = {threads}\n")
        code, _ = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG, threads
    for line in ("seed = [1]", 'seed = 1\nn_replicas = {"a": 1}', "seed = 1\nK = [16]"):
        cfg.write_text(line + "\n")
        code, _ = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG, line


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
