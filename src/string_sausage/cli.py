"""Experiment runner CLI.

Subcommands: simulate | sausage | survival | scaling-check | diagnostics |
fit | run.  Every command prints a JSON summary to stdout and, when --csv
is given, appends rows under the stable schema

    experiment,d,J,nu,a,T,method,estimate,stderr,n,seed,resolution_tag

Numbers are written with full round-trip precision (repr).  Exit codes:
0 success, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import rng as streams
from .asymptotics import (
    choose_E,
    calibrate_lambda,
    chain_L,
    clearing_bound,
    clearing_exponent,
    exponent_fit,
    gspace_ratio,
    max_com_step,
    range_smoothing_check,
    stopping_chain,
)
from .geometry import (
    box_counting_dimension,
    sausage_volume_hit_or_miss,
    sausage_volume_voxel,
    wiener_sausage_volume,
)
from .simulate import brownian_path, simulate
from .spectral import ModelParams, sample_stationary_field
from .statistics import range_of
from .survival import (
    annealed_hard,
    annealed_soft,
    environment_for_cloud,
    quenched,
    scaling_check,
)
from .traps import PoissonEnvironment

CSV_HEADER = [
    "experiment",
    "d",
    "J",
    "nu",
    "a",
    "T",
    "method",
    "estimate",
    "stderr",
    "n",
    "seed",
    "resolution_tag",
]

EXIT_OK = 0
EXIT_CONFIG = 2


# model defaults shared by the subcommand flags and `run` configs
MODEL_DEFAULTS = {
    "d": 2, "J": 1.0, "nu": 1.0, "a": 0.3, "K": 16, "M": 64, "dt": 0.02, "T": 1.0, "eps_tail": 2e-3,
}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def resolution_tag(p: ModelParams) -> str:
    return f"K{p.K}_M{p.M}_dt{repr(p.dt)}"


def write_rows(path: str | None, rows: list[dict]) -> None:
    if path is None:
        return
    target = Path(path)
    new = not target.exists()
    with open(target, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in CSV_HEADER])


def row(experiment: str, p: ModelParams, method: str, estimate, stderr, n, seed) -> dict:
    return {
        "experiment": experiment,
        "d": p.d,
        "J": p.J,
        "nu": p.nu,
        "a": p.a,
        "T": p.T,
        "method": method,
        "estimate": estimate,
        "stderr": stderr,
        "n": n,
        "seed": seed,
        "resolution_tag": resolution_tag(p),
    }


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


# ---------------------------------------------------------------------------
# argument plumbing


def add_model_args(sp: argparse.ArgumentParser) -> None:
    for name, default in MODEL_DEFAULTS.items():
        sp.add_argument(
            "--" + name.replace("_", "-"), type=type(default), default=default,
            help="accepted neglected stationary variance per mode coefficient" if name == "eps_tail" else None,
        )
    sp.add_argument("--seed", type=int, required=True, help="master seed (no wall-clock default)")
    sp.add_argument("--csv", type=str, default=None, help="append result rows to this CSV file")
    sp.add_argument("--threads", type=int, default=None, help="worker count (default: cores, or STRING_SAUSAGE_THREADS)")


def params_from(args) -> ModelParams:
    return ModelParams(**{name: getattr(args, name) for name in MODEL_DEFAULTS})


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    p = params_from(args)
    trace = simulate(p, args.seed, replica=args.replica)
    rec = trace.path_record()
    final_range = range_of(trace.values[-1])
    summary = {
        "command": "simulate",
        "final_com": rec.X[-1].tolist(),
        "final_radius": float(rec.R[-1]),
        "final_range": final_range,
        "max_radius": float(rec.R.max()),
        "n_snapshots": trace.n_snapshots,
        "resolution_tag": resolution_tag(p),
    }
    rows = [
        row("simulate", p, "final_radius", float(rec.R[-1]), 0.0, 1, args.seed),
        row("simulate", p, "final_range", final_range, 0.0, 1, args.seed),
        row("simulate", p, "max_radius", float(rec.R.max()), 0.0, 1, args.seed),
    ]
    if args.out is not None:
        np.savez(
            args.out,
            times=trace.times,
            coeffs=trace.coeffs,
            com=rec.X,
            radius=rec.R,
        )
        summary["out"] = args.out
    write_rows(args.csv, rows)
    emit(summary)
    return EXIT_OK


def cmd_sausage(args) -> int:
    p = params_from(args)
    rows = []
    summary = {"command": "sausage", "resolution_tag": resolution_tag(p)}
    if args.method in ("hit_or_miss", "voxel"):
        cloud = simulate(p, args.seed, replica=args.replica).cloud()
        if args.method == "hit_or_miss":
            est = sausage_volume_hit_or_miss(
                cloud, p.a, args.n_mc, streams.substream(args.seed, streams.MC, 0)
            )
        else:
            voxel = args.voxel_size if args.voxel_size is not None else p.a / 4.0
            est = sausage_volume_voxel(cloud, p.a, voxel)
    elif args.method == "wiener":
        path = brownian_path(p.d, p.T, p.dt, args.seed, replica=args.replica)
        est = wiener_sausage_volume(
            path, p.a, args.n_mc, streams.substream(args.seed, streams.MC, 0)
        )
    else:
        raise ValueError(f"unknown sausage method {args.method!r}")
    summary.update(volume=est.volume, stderr=est.stderr, method=est.method, n=est.n_samples)
    rows.append(row("sausage", p, f"{args.method}", est.volume, est.stderr, est.n_samples, args.seed))
    write_rows(args.csv, rows)
    emit(summary)
    return EXIT_OK


def cmd_survival(args) -> int:
    p = params_from(args)
    if args.soft and args.hard:
        raise ValueError("choose exactly one of --hard / --soft")
    if args.via_volume and (args.soft or args.env is not None):
        raise ValueError("--via-volume applies to annealed hard survival only")
    if args.height is not None and not args.soft:
        raise ValueError("--height applies to --soft only")
    height = (1.0 if args.height is None else args.height) if args.soft else None
    if args.env is not None:
        text = Path(args.env).read_text(encoding="utf-8")
        env = PoissonEnvironment.from_json(text)
        est = quenched(p, env, args.n, args.seed, height=height, workers=args.threads)
    elif args.soft:
        est = annealed_soft(p, height, args.n, args.seed, workers=args.threads)
    else:
        method = "hard_via_volume" if args.via_volume else "hard_direct"
        est = annealed_hard(p, args.n, args.seed, method=method, workers=args.threads)
    if args.save_env is not None:
        cloud = simulate(p, args.seed, replica=0).cloud()
        env = environment_for_cloud(cloud, p.nu, p.a, streams.substream(args.seed, streams.ENV, 0))
        Path(args.save_env).write_text(env.to_json(), encoding="utf-8")
    emit(
        {
            "command": "survival",
            "method": est.method,
            "p_hat": est.p_hat,
            "stderr": est.stderr,
            "ci95": est.ci95(),
            "n": est.n_replicas,
            "seed": args.seed,
            "resolution_tag": resolution_tag(p),
        }
    )
    write_rows(
        args.csv, [row("survival", p, est.method, est.p_hat, est.stderr, est.n_replicas, args.seed)]
    )
    return EXIT_OK


def cmd_scaling_check(args) -> int:
    p = params_from(args)
    method = "hard_via_volume" if args.via_volume else "hard_direct"
    report = scaling_check(p, args.n, args.seed, method=method, workers=args.threads)
    o, s = report.original, report.scaled
    emit(
        {
            "command": "scaling-check",
            "original": {"p_hat": o.p_hat, "stderr": o.stderr, "ci95": o.ci95(), "J": p.J},
            "scaled": {"p_hat": s.p_hat, "stderr": s.stderr, "ci95": s.ci95(), "J": 1.0},
            "overlap": report.overlap,
            "n": args.n,
            "seed": args.seed,
        }
    )
    write_rows(
        args.csv,
        [
            row("scaling_check", o.params, f"{method}_J{p.J}", o.p_hat, o.stderr, o.n_replicas, args.seed),
            row("scaling_check", s.params, f"{method}_unitJ", s.p_hat, s.stderr, s.n_replicas, args.seed + 1),
        ],
    )
    return EXIT_OK


def cmd_diagnostics(args) -> int:
    p = params_from(args)
    rng = streams.substream(args.seed, streams.AUX, 0)
    summary: dict = {"command": "diagnostics", "resolution_tag": resolution_tag(p)}
    rows = []

    # range-smoothing inequality on random band-limited inputs
    n_fail = 0
    for t in (1.0, 2.0):
        for _ in range(args.n_smoothing):
            f = sample_stationary_field(p, rng)
            if not range_smoothing_check(p, f, t).holds:
                n_fail += 1
    summary["range_smoothing_failures"] = n_fail
    rows.append(row("diagnostics", p, "range_smoothing_failures", float(n_fail), 0.0,
                    2 * args.n_smoothing, args.seed))

    # local-Brownian energy ratios
    pairs = [(0.0, 2.0 ** -m) for m in range(1, 8)]
    g = gspace_ratio(1.0, pairs)
    summary["gspace"] = {"c1": g.c1, "c2": g.c2, "spread": g.spread, "bounded": g.bounded}
    rows.append(row("diagnostics", p, "gspace_spread", g.spread, 0.0, len(pairs), args.seed))

    # box-counting sanity: straight segment has dimension 1
    seg = np.zeros((4096, max(2, p.d)))
    seg[:, 0] = np.linspace(0.0, 1.0, 4096)
    scales = np.array([2.0 ** -e for e in range(2, 9)])
    bc = box_counting_dimension(seg, scales)
    summary["box_count_segment_slope"] = bc.slope
    rows.append(row("diagnostics", p, "box_count_segment_slope", bc.slope, 0.0,
                    len(scales), args.seed))

    # clearing bound: closed form vs numeric maximization
    cb = clearing_bound(p.d, p.nu, p.a, p.J, max(p.T, 1.0), logC0=-1.0)
    alphas = np.linspace(cb.alpha_star * 0.5, cb.alpha_star * 1.5, 100001)
    A = p.nu * p.J ** (p.d / 2.0) * cb.c_d * 2.0 ** p.d
    B = max(p.T, 1.0) * 1.0 / p.J ** 2
    numeric = float(np.max(clearing_exponent(alphas, A, B, p.d)))
    rel = abs(numeric - cb.exponent_value) / abs(cb.exponent_value)
    summary["clearing"] = {
        "alpha_star": cb.alpha_star,
        "exponent_value": cb.exponent_value,
        "numeric_relative_gap": rel,
        "clearing_probability": cb.clearing_probability,
    }
    rows.append(row("diagnostics", p, "clearing_alpha_star", cb.alpha_star, 0.0, 1, args.seed))

    # stopping chain on one long trace
    if args.chain:
        E = choose_E(p.d, p.a)
        L = chain_L(p.a, E)
        Lambda = calibrate_lambda(p, L, n_rep=args.n_lambda, seed=args.seed + 1)
        horizon = max(p.T, 3.0 * L)
        chain_params = dataclasses.replace(p, T=horizon)
        trace = simulate(chain_params, args.seed, replica=0)
        chain = stopping_chain(trace, Lambda, seed=args.seed + 2)
        step = max_com_step(trace.path_record())
        summary["chain"] = {
            "resolved": step < Lambda / 10.0,
            "max_step": step,
            "step_limit": Lambda / 10.0,
            "Lambda": chain.Lambda,
            "delta": chain.delta,
            "L": chain.L,
            "n_tau": int(chain.tau.shape[0]),
            "n_intervals": chain.n_intervals,
            "S": chain.S.tolist(),
            "T_seq": chain.T_seq.tolist(),
        }
        rows.append(row("diagnostics", chain_params, "chain_intervals",
                        float(chain.n_intervals), 0.0, 1, args.seed))

    write_rows(args.csv, rows)
    emit(summary)
    return EXIT_OK


def cmd_fit(args) -> int:
    Ts, y, se = [], [], []
    with open(args.input, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        if "T" not in cols or "neg_log_S" not in cols:
            raise ValueError("fit input needs columns T,neg_log_S[,stderr]")
        for rec in reader:
            Ts.append(float(rec["T"]))
            y.append(float(rec["neg_log_S"]))
            if "stderr" in cols:
                if not rec["stderr"]:
                    raise ValueError(f"fit input row {len(Ts)} has a blank stderr")
                se.append(float(rec["stderr"]))
    stderr = np.asarray(se) if se else None
    fit = exponent_fit(Ts, y, stderr)
    emit(
        {
            "command": "fit",
            "gamma_hat": fit.gamma_hat,
            "gamma_stderr": fit.gamma_stderr,
            "ci95": fit.ci95(),
            "intercept": fit.intercept,
            "n": len(Ts),
        }
    )
    if args.csv:
        p = ModelParams(d=1, T=max(Ts))
        write_rows(args.csv, [row("fit", p, "gamma_hat", fit.gamma_hat, fit.gamma_stderr,
                                  len(Ts), 0)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# config-driven sweep


def parse_config(path: str) -> dict:
    """JSON object, or flat `key = value` lines with JSON-parsed values."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad JSON config: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        return obj
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            config[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            config[key.strip()] = value
    return config


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _convert(name: str, value, kind: type):
    """`kind(value)`, with a value of the wrong type, a boolean or, for an
    integer key, a fractional number reported as a config error."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or fractional:
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"config value {name} = {value!r} cannot be read as {kind.__name__}") from None


def run_config(config: dict) -> tuple[list[dict], dict]:
    if "seed" not in config:
        raise ValueError("config must set `seed` explicitly")
    seed = _convert("seed", config["seed"], int)
    experiment = config.get("experiment", "survival")
    n_rep = _convert("n_replicas", config.get("n_replicas", 200), int)
    workers = config.get("threads")
    method = config.get("method", "hard_direct")
    sweeps = {
        name: [_convert(name, v, float) for v in _as_list(config.get(name, MODEL_DEFAULTS[name]))]
        for name in ("T", "J", "nu", "a")
    }
    for name, values in sweeps.items():
        if not values:
            raise ValueError(f"sweep axis {name} is empty")
    base = {
        name: _convert(name, config.get(name, MODEL_DEFAULTS[name]), type(MODEL_DEFAULTS[name]))
        for name in ("d", "K", "M", "dt", "eps_tail")
    }
    rows = []
    idx = 0
    for T in sweeps["T"]:
        for J in sweeps["J"]:
            for nu in sweeps["nu"]:
                for a in sweeps["a"]:
                    p = ModelParams(J=J, nu=nu, a=a, T=T, **base)
                    if experiment == "survival":
                        est = annealed_hard(p, n_rep, seed + idx, method=method, workers=workers)
                        rows.append(row("survival", p, est.method, est.p_hat, est.stderr,
                                        est.n_replicas, seed + idx))
                    elif experiment == "sausage":
                        cloud = simulate(p, seed + idx, replica=0).cloud()
                        est = sausage_volume_hit_or_miss(
                            cloud, p.a, _convert("n_mc", config.get("n_mc", 20000), int),
                            streams.substream(seed + idx, streams.MC, 0),
                        )
                        rows.append(row("sausage", p, est.method, est.volume, est.stderr,
                                        est.n_samples, seed + idx))
                    else:
                        raise ValueError(f"unknown experiment {experiment!r}")
                    idx += 1
    summary = {
        "command": "run",
        "experiment": experiment,
        "n_rows": len(rows),
        "seed": seed,
    }
    return rows, summary


def cmd_run(args) -> int:
    config = parse_config(args.config)
    rows, summary = run_config(config)
    out_csv = args.csv or config.get("csv")
    write_rows(out_csv, rows)
    out_json = config.get("json_summary")
    if out_json:
        Path(out_json).write_text(json.dumps(summary, sort_keys=True), encoding="utf-8")
    emit(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="string-sausage",
        description="Simulation experiments for a random string among Poissonian traps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one trajectory and report path statistics")
    add_model_args(sp)
    sp.add_argument("--replica", type=int, default=0)
    sp.add_argument("--out", type=str, default=None, help="save the trace as .npz")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sausage", help="estimate a sausage volume")
    add_model_args(sp)
    sp.add_argument("--replica", type=int, default=0)
    sp.add_argument("--method", choices=["hit_or_miss", "voxel", "wiener"], default="hit_or_miss")
    sp.add_argument("--n-mc", type=int, default=20000)
    sp.add_argument("--voxel-size", type=float, default=None)
    sp.set_defaults(fn=cmd_sausage)

    sp = sub.add_parser("survival", help="estimate annealed or quenched survival")
    add_model_args(sp)
    sp.add_argument("--hard", action="store_true", default=False)
    sp.add_argument("--soft", action="store_true", default=False)
    sp.add_argument("--height", type=float, default=None, help="soft indicator height (default 1)")
    sp.add_argument("--via-volume", action="store_true", help="use the Poisson-identity estimator")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--env", type=str, default=None, help="fixed environment JSON (quenched)")
    sp.add_argument("--save-env", type=str, default=None, help="sample and save an environment JSON")
    sp.set_defaults(fn=cmd_survival)

    sp = sub.add_parser("scaling-check", help="compare survival at J with its unit-J image")
    add_model_args(sp)
    sp.add_argument("--via-volume", action="store_true")
    sp.add_argument("--n", type=int, default=200)
    sp.set_defaults(fn=cmd_scaling_check)

    sp = sub.add_parser("diagnostics", help="inequality, series, and stopping-chain diagnostics")
    add_model_args(sp)
    sp.add_argument("--n-smoothing", type=int, default=100)
    sp.add_argument("--n-lambda", type=int, default=1000)
    sp.add_argument("--chain", action="store_true", help="also build a stopping chain (slow)")
    sp.set_defaults(fn=cmd_diagnostics)

    sp = sub.add_parser("fit", help="fit the growth exponent of -log S against T")
    sp.add_argument("--input", type=str, required=True, help="CSV with columns T,neg_log_S[,stderr]")
    sp.add_argument("--csv", type=str, default=None)
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("run", help="execute a config-driven sweep")
    sp.add_argument("--config", type=str, required=True)
    sp.add_argument("--csv", type=str, default=None)
    sp.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
