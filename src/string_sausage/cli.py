"""Experiment runner CLI.

Subcommands: simulate | sausage | survival | scaling-check | diagnostics |
fit | run.  `main` is the one boundary with the outside: it opens --csv
for appending before the command runs, and once the command has returned
its rows and its JSON summary, appends the rows under the stable schema
`CSV_HEADER` (headed when the file is empty) and then prints the summary to
stdout.  Numbers are written with full round-trip precision (repr).  Exit
codes: 0 success, 2 configuration or file error (`ValueError`, `OSError`),
which prints no summary and may leave a new --csv empty.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
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
    range_smoothing_check,
    stopping_chain,
)
from .geometry import (
    box_counting_dimension,
    sausage_volume_voxel,
    wiener_sausage_volume,
)
from .simulate import brownian_path, simulate
from .spectral import ModelParams, sample_stationary_field
from .statistics import range_of
from .survival import (
    annealed_hard,
    annealed_soft,
    quenched,
    replica_environment,
    replica_volume,
    scaling_check,
)
from .traps import PoissonEnvironment

CSV_HEADER = "experiment,d,J,nu,a,T,method,estimate,stderr,n,seed,resolution_tag".split(",")

EXIT_OK = 0
EXIT_CONFIG = 2


# model defaults shared by the subcommand flags and `run` configs, in field order
MODEL_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ModelParams)}
# replica and hit-or-miss sample counts shared by the subcommand flags and `run` configs
N_REPLICAS = 200
N_MC = 20000
# `diagnostics` sample sizes: stationary fields per smoothing time, windows calibrating Lambda
N_SMOOTHING = 100
N_LAMBDA = 1000

# the keys a `run` config may set for each experiment; any other key is a config error
RUN_KEYS = {
    "survival": {"experiment", "seed", "n_replicas", "threads", "method", *MODEL_DEFAULTS},
    "sausage": {"experiment", "seed", "n_mc", *MODEL_DEFAULTS},
}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def resolution_tag(p: ModelParams) -> str:
    return f"K{p.K}_M{p.M}_dt{repr(p.dt)}"


def write_rows(fh, rows: list[dict]) -> None:
    """Append `rows` to the open CSV file `fh`, after the header if it is
    empty or a stream (a pipe starts empty)."""
    writer = csv.writer(fh)
    if not fh.seekable() or fh.tell() == 0:
        writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in CSV_HEADER])


def row(experiment: str, p: ModelParams, method: str, estimate, stderr, n, seed) -> dict:
    values = (experiment, p.d, p.J, p.nu, p.a, p.T, method, estimate, stderr, n, seed, resolution_tag(p))
    return dict(zip(CSV_HEADER, values))


# ---------------------------------------------------------------------------
# argument plumbing


def master_seed(value, count: int = 1, use: str = "") -> int:
    """A master seed in [0, 2**64), from which a command runs the `count` seeds seed + i that `use` names."""
    seed = int(value)
    if not 0 <= seed < streams.SEED_LIMIT:
        raise ValueError(f"seed {seed} must lie in [0, 2**64)")
    if seed + count > streams.SEED_LIMIT:
        raise ValueError(f"seed {seed} must lie in [0, 2**64 - {count - 1}): {use}")
    return seed


def add_model_args(sp: argparse.ArgumentParser, threads: bool = False) -> None:
    """The model flags, --seed and --csv; --threads only for the commands with a replica pool."""
    for name, default in MODEL_DEFAULTS.items():
        sp.add_argument(
            "--" + name.replace("_", "-"), type=type(default), default=default,
            help="accepted neglected stationary variance per mode coefficient" if name == "eps_tail" else None,
        )
    sp.add_argument("--seed", type=int, required=True, help="master seed in [0, 2**64) (no wall-clock default)")
    sp.add_argument("--csv", type=str, default=None, help="append result rows to this CSV file")
    if threads:
        sp.add_argument("--threads", type=int, default=None, help="worker count (default: every core this process may run on)")


def params_from(args) -> ModelParams:
    return ModelParams(**{name: getattr(args, name) for name in MODEL_DEFAULTS})


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> tuple[list[dict], dict]:
    p = params_from(args)
    trace = simulate(p, args.seed, replica=args.replica)
    radius = trace.radius
    final_range = range_of(trace.values[-1])
    summary = {
        "command": "simulate",
        "final_com": trace.com[-1].tolist(),
        "final_radius": float(radius[-1]),
        "final_range": final_range,
        "max_radius": float(radius.max()),
        "n_snapshots": trace.n_snapshots,
        "resolution_tag": resolution_tag(p),
    }
    rows = [
        row("simulate", p, "final_radius", float(radius[-1]), 0.0, 1, args.seed),
        row("simulate", p, "final_range", final_range, 0.0, 1, args.seed),
        row("simulate", p, "max_radius", float(radius.max()), 0.0, 1, args.seed),
    ]
    if args.out is not None:
        # np.savez appends .npz to a name without it; report the file written
        out = args.out if args.out.endswith(".npz") else args.out + ".npz"
        np.savez(out, times=trace.times, coeffs=trace.coeffs, com=trace.com, radius=radius)
        summary["out"] = out
    return rows, summary


def cmd_sausage(args) -> tuple[list[dict], dict]:
    p = params_from(args)
    if args.voxel_size is not None and args.method != "voxel":
        raise ValueError("--voxel-size applies to --method voxel only")
    if args.n_mc is not None and args.method == "voxel":
        raise ValueError("--n-mc applies to --method hit_or_miss and wiener only")
    n_mc = N_MC if args.n_mc is None else args.n_mc
    seed, r = args.seed, args.replica
    if args.method == "wiener":
        path = brownian_path(p.d, p.T, p.dt, seed, replica=r)
        est = wiener_sausage_volume(path, p.a, n_mc, streams.substream(seed, streams.MC, r), p.dt)
    elif args.method == "hit_or_miss":
        est = replica_volume(simulate(p, seed, replica=r), seed, r, n_mc, streams.new_generator())
    else:
        voxel = args.voxel_size if args.voxel_size is not None else p.a / 4.0
        if voxel == 0 and args.voxel_size is None:
            raise ValueError(f"trap radius a={p.a!r} is too small for a voxel grid: "
                             "its default side a/4 underflows to 0")
        est = sausage_volume_voxel(simulate(p, seed, replica=r).cloud(), p.a, voxel)
    return [row("sausage", p, args.method, est.volume, est.stderr, est.n_samples, args.seed)], {
        "ci95": est.ci95(), "command": "sausage", "method": args.method, "n": est.n_samples,
        "resolution_tag": resolution_tag(p), "stderr": est.stderr, "volume": est.volume,
    }


def cmd_survival(args) -> tuple[list[dict], dict]:
    p = params_from(args)
    if args.soft and args.hard:
        raise ValueError("choose exactly one of --hard / --soft")
    if args.via_volume and (args.soft or args.env is not None):
        raise ValueError("--via-volume applies to annealed hard survival only")
    if args.height is not None and not args.soft:
        raise ValueError("--height applies to --soft only")
    if args.save_env is not None and args.env is not None:
        raise ValueError("--save-env applies to annealed survival only")
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
        env = replica_environment(
            simulate(p, args.seed, replica=0).cloud(), p, args.seed, 0, streams.new_generator()
        )
        Path(args.save_env).write_text(env.to_json(), encoding="utf-8")
    return [row("survival", est.params, est.method, est.p_hat, est.stderr, est.n_replicas, args.seed)], {
        "command": "survival",
        "method": est.method,
        "p_hat": est.p_hat,
        "stderr": est.stderr,
        "ci95": est.ci95(),
        "n": est.n_replicas,
        "seed": args.seed,
        "resolution_tag": resolution_tag(p),
        "ess": est.ess,
        "max_weight_share": est.max_weight_share,
    }


def cmd_scaling_check(args) -> tuple[list[dict], dict]:
    p = params_from(args)
    master_seed(args.seed, 2, "scaling-check runs its unit-J side at seed + 1")
    method = "hard_via_volume" if args.via_volume else "hard_direct"
    report = scaling_check(p, args.n, args.seed, method=method, workers=args.threads)
    o, s = report.original, report.scaled
    rows = [
        row("scaling_check", o.params, f"{method}_J{p.J}", o.p_hat, o.stderr, o.n_replicas, args.seed),
        row("scaling_check", s.params, f"{method}_unitJ", s.p_hat, s.stderr, s.n_replicas, args.seed + 1),
    ]
    return rows, {
        "command": "scaling-check",
        "original": {"p_hat": o.p_hat, "stderr": o.stderr, "ci95": o.ci95(), "J": p.J},
        "scaled": {"p_hat": s.p_hat, "stderr": s.stderr, "ci95": s.ci95(), "J": 1.0},
        "overlap": report.overlap,
        "informative": report.informative,
        "n": args.n,
        "seed": args.seed,
    }


def cmd_diagnostics(args) -> tuple[list[dict], dict]:
    p = params_from(args)
    if args.chain:
        master_seed(args.seed, 3, "diagnostics --chain also runs seed + 1 and seed + 2")
    rng = streams.substream(args.seed, streams.AUX, 0)
    summary: dict = {"command": "diagnostics", "resolution_tag": resolution_tag(p)}
    rows = []

    # range-smoothing inequality on random band-limited inputs
    n_fail = 0
    for t in (1.0, 2.0):
        for _ in range(N_SMOOTHING):
            f = sample_stationary_field(p, rng)
            if not range_smoothing_check(p, f, t).holds:
                n_fail += 1
    summary["range_smoothing_failures"] = n_fail
    rows.append(row("diagnostics", p, "range_smoothing_failures", float(n_fail), 0.0,
                    2 * N_SMOOTHING, args.seed))

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
    numeric = float(np.max(clearing_exponent(alphas, cb.A, cb.B, p.d)))
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
        Lambda = calibrate_lambda(p, L, n_rep=N_LAMBDA, seed=args.seed + 1)
        horizon = max(p.T, math.ceil(3.0 * L / p.dt) * p.dt)  # 3L, rounded up to the step grid
        chain_params = dataclasses.replace(p, T=horizon)
        trace = simulate(chain_params, args.seed, replica=0)
        chain = stopping_chain(trace, Lambda, seed=args.seed + 2)
        summary["chain"] = {
            "resolved": chain.resolved,
            "max_step": chain.max_step,
            "step_limit": chain.step_limit,
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
    return rows, summary


def cmd_fit(args) -> tuple[list[dict], dict]:
    Ts, y, se = [], [], []
    with open(args.input, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        if "T" not in cols or "neg_log_S" not in cols:
            raise ValueError("fit input needs columns T,neg_log_S[,stderr]")
        for rec in reader:
            if None in rec or None in rec.values():
                raise ValueError(f"fit input row {len(Ts) + 1} does not have the {len(cols)} fields of its header")
            Ts.append(float(rec["T"]))
            y.append(float(rec["neg_log_S"]))
            if "stderr" in cols:
                if not rec["stderr"]:
                    raise ValueError(f"fit input row {len(Ts)} has a blank stderr")
                se.append(float(rec["stderr"]))
    stderr = np.asarray(se) if se else None
    fit = exponent_fit(Ts, y, stderr)
    # the fit input carries no model or seed: its row leaves those columns empty
    return [dict.fromkeys(CSV_HEADER, "") | {
        "experiment": "fit", "T": max(Ts), "method": "gamma_hat", "estimate": fit.gamma_hat,
        "stderr": fit.gamma_stderr, "n": len(Ts),
    }], {
        "command": "fit",
        "gamma_hat": fit.gamma_hat,
        "gamma_stderr": fit.gamma_stderr,
        "ci95": fit.ci95(),
        "intercept": fit.intercept,
        "n": len(Ts),
    }


# ---------------------------------------------------------------------------
# config-driven sweep


def parse_config(path: str) -> dict:
    """The `run` config: one JSON object."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON config: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    return obj


def _as_list(v):
    return v if isinstance(v, list) else [v]


def _convert(name: str, value, kind: type):
    """`kind(value)` of a JSON number: any other value (a string, a list, a
    boolean) or, for an integer key, a fractional number is a config error."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or fractional:
            raise ValueError
        return kind(value)
    except (OverflowError, ValueError):
        raise ValueError(f"config value {name} = {value!r} cannot be read as {kind.__name__}") from None


def run_config(config: dict) -> tuple[list[dict], dict]:
    experiment = config.get("experiment", "survival")
    if not isinstance(experiment, str) or experiment not in RUN_KEYS:
        raise ValueError(f"unknown experiment {experiment!r}")
    unread = sorted(set(config) - RUN_KEYS[experiment])
    if unread:
        raise ValueError(f"config key(s) {', '.join(unread)} not read by experiment {experiment!r}")
    if "seed" not in config:
        raise ValueError("config must set `seed` explicitly")
    sweeps = {
        name: [_convert(name, v, float) for v in _as_list(config.get(name, MODEL_DEFAULTS[name]))]
        for name in ("T", "J", "nu", "a")
    }
    for name, values in sweeps.items():
        if not values:
            raise ValueError(f"sweep axis {name} is empty")
    grid = list(itertools.product(*sweeps.values()))
    # the grid points that differ in T alone form a group, which shares one seed and one set of paths
    n_groups = len(grid) // len(sweeps["T"])
    seed = master_seed(_convert("seed", config["seed"], int), n_groups,
                       f"run uses seed + g for group g of {n_groups} (the grid points that differ in T alone)")
    base = {
        name: _convert(name, config.get(name, MODEL_DEFAULTS[name]), type(MODEL_DEFAULTS[name]))
        for name in ("d", "K", "M", "dt", "eps_tail")
    }
    if experiment == "survival":
        n_rep = _convert("n_replicas", config.get("n_replicas", N_REPLICAS), int)
        workers = config.get("threads")
        method = config.get("method", "hard_direct")

        def estimate(longest: ModelParams, group: list, group_seed: int) -> list[dict]:
            ests = annealed_hard(longest, n_rep, group_seed, method=method, workers=workers,
                                 horizons=[p.T for p in group])
            return [row("survival", p, est.method, est.p_hat, est.stderr, est.n_replicas, group_seed)
                    for p, est in zip(group, ests)]
    else:
        n_mc = _convert("n_mc", config.get("n_mc", N_MC), int)

        def estimate(longest: ModelParams, group: list, group_seed: int) -> list[dict]:
            trace, gen = simulate(longest, group_seed, replica=0), streams.new_generator()
            ests = [replica_volume(trace.prefix(p), group_seed, 0, n_mc, gen) for p in group]
            return [row("sausage", p, est.method, est.volume, est.stderr, est.n_samples, group_seed)
                    for p, est in zip(group, ests)]
    # every grid point's model is checked before the first one runs
    points = [ModelParams(T=T, J=J, nu=nu, a=a, **base) for T, J, nu, a in grid]
    # T is the grid's slowest axis: group g holds the points g, g + n_groups, ...
    groups = [points[g::n_groups] for g in range(n_groups)]
    results = [estimate(max(group, key=lambda p: p.T), group, seed + g) for g, group in enumerate(groups)]
    rows = [results[g][t] for t in range(len(sweeps["T"])) for g in range(n_groups)]
    summary = {
        "command": "run",
        "experiment": experiment,
        "n_rows": len(rows),
        "seed": seed,
    }
    return rows, summary


def cmd_run(args) -> tuple[list[dict], dict]:
    return run_config(parse_config(args.config))


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
    sp.add_argument("--n-mc", type=int, default=None,
                    help=f"samples for hit_or_miss and wiener (default {N_MC})")
    sp.add_argument("--voxel-size", type=float, default=None)
    sp.set_defaults(fn=cmd_sausage)

    sp = sub.add_parser("survival", help="estimate annealed or quenched survival")
    add_model_args(sp, threads=True)
    sp.add_argument("--hard", action="store_true", default=False)
    sp.add_argument("--soft", action="store_true", default=False)
    sp.add_argument("--height", type=float, default=None, help="soft indicator height (default 1)")
    sp.add_argument("--via-volume", action="store_true", help="use the Poisson-identity estimator")
    sp.add_argument("--n", type=int, default=N_REPLICAS)
    sp.add_argument("--env", type=str, default=None, help="fixed environment JSON (quenched)")
    sp.add_argument("--save-env", type=str, default=None, help="sample and save an environment JSON")
    sp.set_defaults(fn=cmd_survival)

    sp = sub.add_parser("scaling-check", help="compare survival at J with its unit-J image")
    add_model_args(sp, threads=True)
    sp.add_argument("--via-volume", action="store_true")
    sp.add_argument("--n", type=int, default=N_REPLICAS)
    sp.set_defaults(fn=cmd_scaling_check)

    sp = sub.add_parser("diagnostics", help="inequality, series, and stopping-chain diagnostics")
    add_model_args(sp)
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
        if hasattr(args, "seed"):
            master_seed(args.seed)
        # without --csv the rows go to the null device
        with open(os.devnull if args.csv is None else args.csv, "a", newline="", encoding="utf-8") as fh:
            rows, summary = args.fn(args)
            write_rows(fh, rows)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
