"""The four benchmark workloads: inputs from the seed, CLI calls, checks.

Every workload uses the criterion-05 model (d=2 K=16 M=64 dt=0.05 nu=1
a=0.3 eps_tail=2e-3).  Operation k of a run with workload seed s passes the
CLI the noise seed s*1000 + 10*k, so the five sweep rows (seed + 0..4) of
one operation never share a stream with another operation.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

MODEL = ["--d", "2", "--K", "16", "--M", "64", "--dt", "0.05",
         "--nu", "1", "--a", "0.3", "--eps-tail", "2e-3"]
N_REPLICAS = 2000
TINY_REPLICAS = 100  # annealed_hard refuses fewer than 100
SWEEP_T = [1.0, 2.0, 4.0, 8.0, 16.0]
TINY_SWEEP_T = [0.25, 0.5, 1.0, 2.5]  # exponent_fit needs >= 4 horizons over a decade
SWEEP_REPLICAS = 100

# Quenched field: one frozen pattern of 25 traps, uniform in the disk of
# radius 2.8 about the origin (density ~1 = nu), turned about the origin by
# an angle drawn from the workload seed.  The string law is isotropic, so
# every seed has the same quenched survival and cost; only the noise moves
# p_hat, its stderr and time_to_1pct_s.  A fresh Poisson field per seed
# moved (stderr/p_hat)^2 by a factor 2.4 across six seeds.
PATTERN_SEED = 20221206
PATTERN_TRAPS = 25
PATTERN_RADIUS = 2.8
ENV_HALF_WIDTH = 2.85

# References recorded when the benchmark was defined, from pooled untraced
# runs (see perfbench/README.md for how).  Value and standard error.
REF_SURVIVAL_T1 = (0.0024674, 0.0000076)
REF_VOLUME_SE_N2000 = 0.000053  # stderr of one n=2000 volume-identity call
REF_QUENCHED = (0.81181, 0.00022)
REF_GAMMA = (0.5011, 0.0036)
# Standard deviation of one sweep's gamma_hat over 33 seeds.  The fit's own
# stderr (median 0.0094) is half of it, because the T=16 row has an
# effective sample size near 1, so this stands in for it.
GAMMA_SPREAD = 0.0204

CHECK_SIGMAS = 4.0


def op_seed(seed: int, k: int) -> int:
    return seed * 1000 + 10 * k


@dataclass
class Outcome:
    """What one operation (one workload estimate) produced."""

    replicas: int
    estimate: dict
    signature: str  # CLI output that must repeat byte for byte for one input
    errors: list = field(default_factory=list)


def _within(value, se, ref, ref_se) -> bool:
    return abs(value - ref) <= CHECK_SIGMAS * math.hypot(se, ref_se)


def _survival_output(code, out, errors) -> dict | None:
    if code != 0:
        errors.append(f"exit code {code}")
        return None
    try:
        est = json.loads(out.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        errors.append("no JSON summary on stdout")
        return None
    if not all(isinstance(est.get(key), float) and math.isfinite(est[key])
               for key in ("p_hat", "stderr")):
        errors.append(f"non-finite estimate {est!r}")
        return None
    return est


def _pooled_relvar(outcomes) -> float:
    """Variance of one replica's weight over the squared mean, pooled over a run."""
    n = [o.estimate["n"] for o in outcomes]
    p = [o.estimate["p_hat"] for o in outcomes]
    s2 = [o.estimate["stderr"] ** 2 * k for o, k in zip(outcomes, n)]
    N = sum(n)
    mean = sum(k * x for k, x in zip(n, p)) / N
    var = (sum((k - 1) * v for k, v in zip(n, s2))
           + sum(k * (x - mean) ** 2 for k, x in zip(n, p))) / (N - 1)
    return var / (mean * mean)


class Workload:
    name = ""
    threads = 1

    def n(self, tiny: bool) -> int:
        return TINY_REPLICAS if tiny else N_REPLICAS

    def write_inputs(self, seed: int, k: int, workdir: Path, tiny: bool, threads: int) -> list:
        """Write the operation's input files; return the argv of its CLI call."""
        raise NotImplementedError

    def op(self, call, seed, k, workdir, tiny, threads, tag) -> Outcome:
        raise NotImplementedError

    def relvar(self, outcomes) -> float:
        """Relative variance per replica: (stderr/estimate)^2 times replicas.

        time_to_1pct_s is the wall time per replica times this over 0.01^2.
        """
        return _pooled_relvar(outcomes)


class _Survival(Workload):
    flags: list = []

    def write_inputs(self, seed, k, workdir, tiny, threads):
        return ["survival", *MODEL, "--T", "1", *self.flags, "--n", str(self.n(tiny)),
                "--threads", str(threads), "--seed", str(op_seed(seed, k))]

    def op(self, call, seed, k, workdir, tiny, threads, tag):
        errors = []
        argv = self.write_inputs(seed, k, workdir, tiny, threads)
        code, out = call(argv)
        est = _survival_output(code, out, errors)
        if est is None:
            return Outcome(0, {}, out, errors)
        self.check(est, errors)
        return Outcome(est["n"], est, out, errors)

    def check(self, est, errors):
        raise NotImplementedError


class AnnealedDirect(_Survival):
    name = "annealed_direct"
    flags = ["--hard"]

    def check(self, est, errors):
        # Compared with the volume-identity reference: the Poisson identity of
        # criterion 05.  With ~5 survivors the reported Wald stderr is 0 when
        # none survive, so the binomial stderr at the reference stands in.
        ref, ref_se = REF_SURVIVAL_T1
        se = max(est["stderr"], math.sqrt(ref * (1 - ref) / est["n"]))
        if not _within(est["p_hat"], se, ref, ref_se):
            errors.append(f"p_hat {est['p_hat']} off the reference {ref}")
        est["ci95_overlaps_volume"] = (
            abs(est["p_hat"] - ref) <= 1.96 * (est["stderr"] + REF_VOLUME_SE_N2000))

    def relvar(self, outcomes):
        # Bernoulli variance at the reference survival: the run's few
        # survivors would make its own variance swing by tens of percent.
        ref = REF_SURVIVAL_T1[0]
        return (1 - ref) / ref


class AnnealedVolume(_Survival):
    name = "annealed_volume"
    flags = ["--hard", "--via-volume"]

    def check(self, est, errors):
        ref, ref_se = REF_SURVIVAL_T1
        if not _within(est["p_hat"], est["stderr"], ref, ref_se):
            errors.append(f"p_hat {est['p_hat']} off the reference {ref}")


def trap_pattern() -> list:
    rng = random.Random(PATTERN_SEED)
    points = []
    while len(points) < PATTERN_TRAPS:
        x, y = (rng.uniform(-PATTERN_RADIUS, PATTERN_RADIUS) for _ in range(2))
        if x * x + y * y <= PATTERN_RADIUS ** 2:
            points.append((x, y))
    return points


class QuenchedSoft(_Survival):
    name = "quenched_soft"
    threads = 2
    flags = ["--soft", "--height", "1"]

    def write_inputs(self, seed, k, workdir, tiny, threads):
        theta = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        points = [[c * x - s * y, s * x + c * y] for x, y in trap_pattern()]
        env = {"nu": 1.0,
               "box": {"lower": [-ENV_HALF_WIDTH] * 2, "upper": [ENV_HALF_WIDTH] * 2},
               "points": points}
        path = workdir / "env.json"
        path.write_text(json.dumps(env), encoding="utf-8")
        return [*super().write_inputs(seed, k, workdir, tiny, threads), "--env", str(path)]

    def check(self, est, errors):
        ref, ref_se = REF_QUENCHED
        if not _within(est["p_hat"], est["stderr"], ref, ref_se):
            errors.append(f"p_hat {est['p_hat']} off the reference {ref}")


class ExponentSweep(Workload):
    name = "exponent_sweep"

    def n(self, tiny):
        return SWEEP_REPLICAS * len(TINY_SWEEP_T if tiny else SWEEP_T)

    def write_inputs(self, seed, k, workdir, tiny, threads):
        config = {"experiment": "survival", "method": "hard_via_volume",
                  "seed": op_seed(seed, k), "n_replicas": SWEEP_REPLICAS,
                  "T": TINY_SWEEP_T if tiny else SWEEP_T,
                  "d": 2, "K": 16, "M": 64, "dt": 0.05, "nu": 1.0, "a": 0.3,
                  "eps_tail": 2e-3, "threads": threads}
        path = workdir / f"sweep-{k}-t{threads}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["run", "--config", str(path)]

    def op(self, call, seed, k, workdir, tiny, threads, tag):
        errors = []
        rows_path = workdir / f"sweep-{k}-{tag}.csv"
        rows_path.unlink(missing_ok=True)  # the CLI appends
        code, out = call([*self.write_inputs(seed, k, workdir, tiny, threads),
                          "--csv", str(rows_path)])
        if code != 0 or not rows_path.exists():
            errors.append(f"run: exit code {code}, rows written: {rows_path.exists()}")
            return Outcome(0, {}, out, errors)
        rows_text = rows_path.read_text(encoding="utf-8")
        rows = list(csv.DictReader(rows_text.splitlines()))
        fit_path = workdir / f"fit-{k}-{tag}.csv"
        with open(fit_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["T", "neg_log_S", "stderr"])
            for r in rows:
                p, se = float(r["estimate"]), float(r["stderr"])
                if not (0.0 < p < 1.0 and math.isfinite(se)):
                    errors.append(f"T={r['T']}: estimate {p} stderr {se}")
                    return Outcome(0, {}, rows_text, errors)
                writer.writerow([r["T"], repr(-math.log(p)), repr(se / p)])
        code, fit_out = call(["fit", "--input", str(fit_path)])
        signature = rows_text + fit_out
        if code != 0:
            errors.append(f"fit: exit code {code}")
            return Outcome(0, {}, signature, errors)
        fit = json.loads(fit_out.strip().splitlines()[-1])
        est = {"gamma_hat": fit["gamma_hat"], "gamma_stderr": fit["gamma_stderr"],
               "rows": [(float(r["T"]), float(r["estimate"]), float(r["stderr"])) for r in rows]}
        if not all(math.isfinite(est[key]) for key in ("gamma_hat", "gamma_stderr")):
            errors.append(f"non-finite fit {fit!r}")
        elif not tiny and not _within(fit["gamma_hat"], GAMMA_SPREAD, *REF_GAMMA):
            errors.append(f"gamma_hat {fit['gamma_hat']} off the reference {REF_GAMMA[0]}")
        return Outcome(SWEEP_REPLICAS * len(rows), est, signature, errors)

    def relvar(self, outcomes):
        # Projected at GAMMA_SPREAD: one sweep's own stderr ranges
        # 0.006-0.013 with the seed.
        return (GAMMA_SPREAD / REF_GAMMA[0]) ** 2 * self.n(False)


WORKLOADS = {w.name: w for w in (AnnealedDirect(), AnnealedVolume(), ExponentSweep(), QuenchedSoft())}
