"""Annealed and quenched survival estimation among Poisson traps.

Hard obstacles kill on contact with the closed ball B(xi, a); survival can
equivalently be estimated through the Poisson identity
S_T = E exp(-nu |sausage|).  Soft indicator obstacles weight each path by
exp(-int int V), where V is `height` times the number of traps within the
same radius a.  Contact is tested at the sampled (s, x) points only, so
finite resolution overestimates survival.

`_estimate` is the one estimator body: `annealed_hard`, `annealed_soft`
and `quenched` check their arguments and hand it a per-replica weight,
`_hard`, `_hard_volume` or `_soft`.  `annealed_hard` may also hand it
several horizons: each replica's path is then evolved to the longest once,
and every horizon weighs its prefix.  The hard and soft weights draw traps
from (ENV, r) around the replica's cloud when no environment is given and
otherwise use the frozen one.  Each chunk of replicas keeps one generator
for these draws, re-keyed to the replica's stream when it draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng as streams
from .geometry import PointCloud, SausageEstimate, bounding_box, sausage_volume_hit_or_miss
from .simulate import Trace, simulate, traces
from .spectral import ModelParams
from .statistics import wilson95
from .traps import PoissonEnvironment, any_contact, path_functional, sample_environment

ENV_PAD_MARGIN = 0.5
# methods whose replica weight is a survival indicator
INDICATOR_METHODS = ("hard_direct", "quenched_hard")


@dataclass(frozen=True)
class SurvivalEstimate:
    """`ess` = (sum w)^2 / sum w^2 and `max_weight_share` = max w / sum w of
    the replica weights w (both 0 when every weight is 0)."""

    p_hat: float
    stderr: float
    n_replicas: int
    method: str
    params: ModelParams
    ess: float = 0.0
    max_weight_share: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0 + 1e-12:
            raise ValueError("p_hat must lie in [0, 1]")

    def ci95(self) -> tuple[float, float]:
        """95% interval: the point itself at no steps, where survival is
        exactly 1; Wilson score for the indicator means, open even where p_hat
        is 0 or 1 and `stderr` is 0; p_hat +- 1.96 stderr clipped to [0, 1] otherwise."""
        if self.params.n_steps == 0:
            return (self.p_hat, self.p_hat)
        if self.method not in INDICATOR_METHODS:
            return (max(0.0, self.p_hat - 1.96 * self.stderr), min(1.0, self.p_hat + 1.96 * self.stderr))
        return wilson95(self.p_hat, self.n_replicas)


def scaled_unit_params(params: ModelParams) -> ModelParams:
    """Unit-J parameter set whose discretized survival law matches `params`.

    The J -> 1 diffusive scaling map sends (T, nu, a) to
    (T J^-2, nu J^{d/2}, a J^{-1/2}); potentials gain height J^3.  The
    sampling grid is mapped along with the model (dt -> dt J^-2, same M
    and K), so the two discretizations are images of each other under the
    exact scaling map.
    """
    J = params.J
    return replace(
        params,
        J=1.0,
        nu=params.nu * J ** (params.d / 2.0),
        a=params.a / math.sqrt(J),
        dt=params.dt / J ** 2,
        T=params.T / J ** 2,
    )


def environment_for_cloud(
    cloud: PointCloud, nu: float, a: float, rng: np.random.Generator
) -> PoissonEnvironment:
    """Sample traps in the cloud's bounding box padded by a + safety margin.

    Traps farther than `a` from every string point cannot interact, so the
    padded-box restriction of the infinite process is exact in law.
    """
    return sample_environment(bounding_box(cloud, a + ENV_PAD_MARGIN), nu, rng)


def replica_environment(
    cloud: PointCloud, params: ModelParams, seed: int, r: int, gen: np.random.Generator
) -> PoissonEnvironment:
    """Replica r's traps around its cloud, drawn from the stream (ENV, r), keyed on `gen`."""
    return environment_for_cloud(cloud, params.nu, params.a, streams.rekey(gen, seed, streams.ENV, r))


def _hard(
    trace: Trace, seed: int, r: int, gen: np.random.Generator, env: PoissonEnvironment | None
) -> float:
    """Survival indicator against `env`, or, when `env` is None, against
    replica r's traps, whose padded box covers every trap that can touch
    the cloud."""
    cloud, p = trace.cloud(), trace.params
    if env is None:
        env = replica_environment(cloud, p, seed, r, gen)
    return float(not any_contact(cloud, env, p.a))


def replica_volume(
    trace: Trace, seed: int, r: int, n_mc: int, gen: np.random.Generator
) -> SausageEstimate:
    """Hit-or-miss volume of replica r's radius-a sausage, from the samples
    (MC, r), keyed on `gen`."""
    return sausage_volume_hit_or_miss(
        trace.cloud(), trace.params.a, n_mc, streams.rekey(gen, seed, streams.MC, r)
    )


def _hard_volume(trace: Trace, seed: int, r: int, gen: np.random.Generator, n_mc: int) -> float:
    return math.exp(-trace.params.nu * replica_volume(trace, seed, r, n_mc, gen).volume)


def _soft(
    trace: Trace, seed: int, r: int, gen: np.random.Generator, env: PoissonEnvironment | None,
    height: float,
) -> float:
    """exp(-path functional) against `env`, or, when `env` is None, against
    replica r's traps."""
    p = trace.params
    if env is None:
        env = replica_environment(trace.cloud(), p, seed, r, gen)
    return math.exp(-path_functional(trace.snapshots(), env, p.a, height, dt=p.dt, dx=p.J / p.M))


def _weight_rows(n_h: int, n_rep: int) -> np.ndarray:
    """Rows of replica weights (n_h, n_rep), each 1 until weighed."""
    try:
        return np.ones((n_h, n_rep))
    except MemoryError:
        raise ValueError(f"the weights of {n_rep} replicas do not fit in memory") from None


def _replica_batch(args) -> np.ndarray:
    """Weights `weight(trace, seed, r, gen, *extra)` for one chunk of
    consecutive replicas, one row per horizon (n_h, len(replicas)): each
    replica's path is evolved to `params.T` once, by the chunk's one `traces`
    generator, and each horizon weighs its prefix; `gen` is the chunk's one
    generator for the replicas' own draws."""
    weight, params, horizons, seed, replicas, extra = args
    weights = _weight_rows(len(horizons), len(replicas))
    paths, gen = traces(params, seed, replicas), streams.new_generator()
    for i, r in enumerate(replicas):
        trace = simulate(params, seed, replica=r, paths=paths)
        for h, p in enumerate(horizons):
            weights[h, i] = weight(trace.prefix(p), seed, r, gen, *extra)
        del trace  # so that its block is freed before `traces` evolves the next
    return weights


def n_workers(requested: int | None = None) -> int:
    """Worker count: `requested`, else every core this process may run on
    (its CPU affinity, where the platform reports one)."""
    if requested is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if isinstance(requested, bool) or not isinstance(requested, int) or requested < 1:
        raise ValueError(f"worker count must be an integer >= 1, got {requested!r}")
    return requested


def _run_batches(
    weight, params: ModelParams, horizons: list, seed: int, extra: tuple, n_rep: int, workers: int
) -> np.ndarray:
    """Replica-parallel execution with an order-independent merge.

    Replicas are split into contiguous chunks; each chunk's output is keyed
    by replica index, so the concatenated result never depends on worker
    scheduling.
    """
    replicas = range(n_rep)
    if workers <= 1:
        return _replica_batch((weight, params, horizons, seed, replicas, extra))
    chunk = max(1, math.ceil(n_rep / (workers * 4)))
    chunks = [replicas[i : i + chunk] for i in range(0, n_rep, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_replica_batch, [(weight, params, horizons, seed, c, extra) for c in chunks]))
    return np.concatenate(parts, axis=1)


def _estimate(
    weight, extra: tuple, method: str, params: ModelParams, n_rep: int, seed: int,
    workers: int | None, horizons: list[float] | None = None,
) -> SurvivalEstimate | list[SurvivalEstimate]:
    """The one estimator body: the mean of the replica weights
    `weight(trace, seed, r, gen, *extra)` over r = 0..n_rep-1, with the binomial
    stderr for the indicator methods and the sample stderr otherwise.

    With `horizons`, horizons T in [0, params.T], one estimate per horizon,
    in order: each replica's path is evolved to params.T once and each
    horizon weighs its prefix.  A path is a bit-exact prefix of its longer
    path, so each estimate equals the one at `replace(params, T=T)` alone.
    Horizons of one step count share one row of weights; at no steps the
    time integral is empty, so every weight is 1.
    """
    if n_rep < 100:
        raise ValueError("need n_rep >= 100")
    w = n_workers(workers)
    Ts = [params.T] if horizons is None else horizons
    points = [params if T == params.T else replace(params, T=T) for T in Ts]
    longer = [p.T for p in points if p.n_steps > params.n_steps]
    if longer:
        raise ValueError(f"horizon T={longer[0]!r} is past the paths' horizon T={params.T!r}")
    steps = {p.n_steps: p for p in points}
    live = [p for n, p in steps.items() if n > 0]
    rows = {0: _weight_rows(1, n_rep)[0]} if 0 in steps else {}
    if live:
        rows.update(zip((p.n_steps for p in live), _run_batches(weight, params, live, seed, extra, n_rep, w)))
    estimates = []
    for p in points:
        weights = rows[p.n_steps]
        mean = float(np.mean(weights))
        if method in INDICATOR_METHODS:
            stderr = math.sqrt(mean * (1.0 - mean) / n_rep)
        else:
            stderr = float(np.std(weights, ddof=1) / math.sqrt(n_rep))
        total, square = float(weights.sum()), float((weights * weights).sum())
        estimates.append(SurvivalEstimate(
            min(mean, 1.0), stderr, n_rep, method, p,
            total * total / square if square > 0 else 0.0,
            float(weights.max()) / total if total > 0 else 0.0,
        ))
    return estimates[0] if horizons is None else estimates


def annealed_hard(
    params: ModelParams,
    n_rep: int,
    seed: int,
    method: str = "hard_direct",
    n_mc: int = 2000,
    workers: int | None = None,
    horizons: list[float] | None = None,
) -> SurvivalEstimate | list[SurvivalEstimate]:
    """Annealed hard-obstacle survival S_T.

    method='hard_direct' averages the contact indicator over independent
    (noise, environment) pairs; method='hard_via_volume' averages
    exp(-nu * sausage volume) over noise replicas via the Poisson identity.
    Both estimate the same quantity.

    With `horizons`, horizons T in [0, params.T], one estimate per horizon,
    in order: each replica's path is evolved to params.T once and each
    horizon weighs its prefix, so the estimate at T equals
    `annealed_hard(replace(params, T=T), n_rep, seed, ...)` bit for bit, and
    the estimates at different horizons share their replicas.
    """
    if method not in ("hard_direct", "hard_via_volume"):
        raise ValueError(f"unknown method {method!r}")
    weight, extra = (_hard, (None,)) if method == "hard_direct" else (_hard_volume, (n_mc,))
    return _estimate(weight, extra, method, params, n_rep, seed, workers, horizons)


def annealed_soft(
    params: ModelParams,
    height: float,
    n_rep: int,
    seed: int,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Annealed soft-obstacle survival: mean of exp(-path functional) for the
    indicator potential of height `height` on the balls B(xi, params.a)."""
    if not 0 <= height < math.inf:
        raise ValueError(f"soft indicator height must be finite and >= 0, got {height!r}")
    return _estimate(_soft, (None, height), "soft_weight", params, n_rep, seed, workers)


def quenched(
    params: ModelParams,
    env: PoissonEnvironment,
    n_rep: int,
    seed: int,
    height: float | None = None,
    workers: int | None = None,
) -> SurvivalEstimate:
    """Survival over noise with the trap configuration held fixed: hard traps
    when `height` is None, else the soft indicator of that height.

    The supplied environment is taken as the whole trap field (no traps
    outside its box), so trajectory coverage is not enforced.
    """
    if env is None:
        raise ValueError("quenched estimation requires an explicit environment")
    if env.box.d != params.d:
        raise ValueError(f"environment has dimension {env.box.d}, the string d={params.d}")
    if height is not None and not 0 <= height < math.inf:
        raise ValueError(f"soft indicator height must be finite and >= 0, got {height!r}")
    params = replace(params, nu=env.nu)  # the estimate reports the field's intensity
    if height is None:
        return _estimate(_hard, (env,), "quenched_hard", params, n_rep, seed, workers)
    return _estimate(_soft, (env, height), "quenched_soft", params, n_rep, seed, workers)


@dataclass(frozen=True)
class ScalingReport:
    original: SurvivalEstimate
    scaled: SurvivalEstimate

    @property
    def overlap(self) -> bool:
        lo1, hi1 = self.original.ci95()
        lo2, hi2 = self.scaled.ci95()
        return max(lo1, lo2) <= min(hi1, hi2)

    @property
    def informative(self) -> bool:
        """False when both estimates sit at the same boundary (both 0 or
        both 1), where the intervals overlap whatever the scaling."""
        p1, p2 = self.original.p_hat, self.scaled.p_hat
        return not (p1 == p2 and p1 in (0.0, 1.0))


def scaling_check(
    params: ModelParams,
    n_rep: int,
    seed: int,
    method: str = "hard_direct",
    workers: int | None = None,
) -> ScalingReport:
    """Estimate S_T at J and at the scaled unit-J parameters with independent seeds."""
    original = annealed_hard(params, n_rep, seed, method=method, workers=workers)
    scaled = annealed_hard(
        scaled_unit_params(params), n_rep, seed + 1, method=method, workers=workers
    )
    return ScalingReport(original, scaled)
