import collections
import gc
import importlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from string_sausage import rng as streams
from string_sausage import survival
from string_sausage.geometry import bounding_box
from string_sausage.rng import ENV, MC, NOISE, new_generator, substream
from string_sausage.simulate import MAX_BLOCK, Trace, replica_block, simulate, traces
from string_sausage.spectral import ModelParams
from string_sausage.survival import (
    SurvivalEstimate,
    annealed_hard,
    annealed_soft,
    environment_for_cloud,
    quenched,
    scaled_unit_params,
    scaling_check,
)
from string_sausage.traps import Box, PoissonEnvironment, _reach, sample_environment


def params(**kw):
    defaults = dict(d=2, K=8, M=32, dt=0.1, T=0.5, nu=1.0, a=0.3, eps_tail=5e-3)
    defaults.update(kw)
    return ModelParams(**defaults)


def make_env(points, lo, hi, nu=1.0):
    box = Box(np.asarray(lo, float), np.asarray(hi, float))
    return PoissonEnvironment(np.asarray(points, float), box, nu)


PATHS = ("hard_direct", "hard_via_volume", "annealed_soft", "quenched_hard", "quenched_soft")


def estimate(path, p, n_rep, seed, workers=1, env=None):
    """The estimate of one estimator path; the soft ones at height 1, the quenched ones on `env`."""
    if path in ("hard_direct", "hard_via_volume"):
        return annealed_hard(p, n_rep, seed=seed, method=path, n_mc=1000, workers=workers)
    if path == "annealed_soft":
        return annealed_soft(p, 1.0, n_rep, seed=seed, workers=workers)
    height = 1.0 if path == "quenched_soft" else None
    return quenched(p, env, n_rep, seed=seed, height=height, workers=workers)


def test_quenched_hard_contact():
    # every replica starts as the zero string, so a trap within a of the
    # origin kills it at time 0, and a trap far from any path never does
    p = params()
    env_far = make_env([[40.0, 40.0]], [-50, -50], [50, 50])
    env_near = make_env([[0.1, 0.0]], [-2, -2], [4, 4])
    assert quenched(p, env_far, 100, seed=3, workers=1).p_hat == 1.0
    assert quenched(p, env_near, 100, seed=3, workers=1).p_hat == 0.0


def test_environment_for_cloud_covers_padded_box():
    p = params()
    cloud = simulate(p, 3).cloud()
    env = environment_for_cloud(cloud, p.nu, p.a, substream(3, ENV, 0))
    padded = bounding_box(cloud, p.a)
    assert np.all(env.box.lower <= padded.lower)
    assert np.all(env.box.upper >= padded.upper)


def touches(cloud, traps, a):
    """No-cull oracle: every trap against every point, each pair's squared
    distance summed on its own."""
    return bool((((cloud.points[:, None, :] - traps[None, :, :]) ** 2).sum(axis=2) <= a * a).any())


def test_hard_weights_match_a_no_cull_oracle():
    # criterion-05 replicas: the box is drawn around each cloud from its
    # axis min and max, independently of the cloud's cached bounds; 4 of the 400 survive
    p = ModelParams(d=2, K=16, M=64, dt=0.05, T=1.0, nu=1.0, a=0.3, eps_tail=2e-3)
    seed, n = 42, 400
    pad = p.a + survival.ENV_PAD_MARGIN
    weights, gen = [], new_generator()  # re-keyed per replica, as a chunk's is
    for r, trace in enumerate(traces(p, seed, range(n))):
        cloud = trace.cloud()
        points = trace.values.reshape(-1, p.d)
        box = Box(points.min(axis=0) - pad, points.max(axis=0) + pad)
        traps = sample_environment(box, p.nu, substream(seed, ENV, r)).points
        weight = survival._hard(trace, seed, r, gen, None)
        assert weight == float(not touches(cloud, traps, p.a))
        np.testing.assert_array_equal(survival.replica_environment(cloud, p, seed, r, gen).points, traps)
        weights.append(weight)
    assert sum(weights) == 4
    assert annealed_hard(p, n, seed, workers=1).p_hat == np.mean(weights)


def test_quenched_hard_weights_match_the_oracle_where_the_cull_drops_traps():
    # a frozen field much wider than any cloud: the cull keeps 1 to 11 of
    # the 60 traps, and 8 of the 100 paths survive
    p = ModelParams(d=2, K=16, M=64, dt=0.05, T=1.0, a=0.3, eps_tail=2e-3)
    box = Box(np.full(2, -6.0), np.full(2, 6.0))
    env = PoissonEnvironment(box.sample_uniform(60, substream(42, ENV, 0)), box, 1.0)
    weights = []
    for r, trace in enumerate(traces(p, 42, range(100))):
        cloud = trace.cloud()
        kept = _reach(*cloud.bounds, env, p.a)
        assert len(kept) < env.n_points // 2
        weights.append(survival._hard(trace, 42, r, new_generator(), env))
        assert weights[-1] == float(not touches(cloud, env.points, p.a))
        assert touches(cloud, env.points, p.a) == touches(cloud, kept, p.a)
    assert sum(weights) == 8


def test_annealed_zero_intensity_survives():
    p = params(nu=0.0)
    est = annealed_hard(p, 100, seed=1, workers=1)
    assert est.p_hat == 1.0
    assert est.stderr == 0.0


def test_annealed_T_zero_is_one():
    # 1e-9 is no step of dt 0.1: like T = 0 it estimates exactly 1, even for
    # the zero string inside a trap at the origin
    env = make_env([[0.0, 0.0]], [-2, -2], [2, 2])
    for path in PATHS:
        zero, tiny = (estimate(path, params(T=T), 100, 1, env=env) for T in (0.0, 1e-9))
        assert (zero.p_hat, zero.stderr, zero.ess, zero.max_weight_share) == (1.0, 0.0, 100.0, 0.01)
        assert replace(tiny, params=zero.params) == zero and tiny.ci95() == zero.ci95() == (1.0, 1.0)


def test_annealed_needs_replicas_and_known_method():
    p = params()
    with pytest.raises(ValueError):
        annealed_hard(p, 50, seed=1)
    with pytest.raises(ValueError):
        annealed_hard(p, 100, seed=1, method="bogus")
    with pytest.raises(ValueError, match="bogus"):
        annealed_hard(params(T=0.0), 100, seed=1, method="bogus")


def test_annealed_hard_monotone_in_intensity():
    lo = annealed_hard(params(nu=0.05), 150, seed=5, workers=1)
    hi = annealed_hard(params(nu=1.5), 150, seed=5, workers=1)
    assert lo.p_hat >= hi.p_hat


def test_soft_zero_height_survives():
    p = params()
    est = annealed_soft(p, 0.0, 100, seed=2, workers=1)
    assert est.p_hat == 1.0


def test_soft_below_hard_at_large_height():
    """exp(-large occupation) <= contact indicator replica by replica, so the
    soft estimate cannot exceed hard survival by more than MC noise."""
    p = params()
    soft = annealed_soft(p, 50.0, 150, seed=3, workers=1)
    hard = annealed_hard(p, 150, seed=3, workers=1)
    assert soft.p_hat <= hard.p_hat + 4 * (soft.stderr + hard.stderr) + 1e-9


def test_quenched_empty_environment():
    p = params()
    env = make_env(np.empty((0, 2)), [-5, -5], [5, 5])
    est = quenched(p, env, 100, seed=4, workers=1)
    assert est.p_hat == 1.0


def test_quenched_dense_environment_kills():
    p = params()
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 25), np.linspace(-3, 3, 25)), axis=-1)
    env = make_env(grid.reshape(-1, 2), [-3.5, -3.5], [3.5, 3.5])
    est = quenched(p, env, 100, seed=4, workers=1)
    assert est.p_hat == 0.0


def test_scaling_transform_values():
    p = params(J=2.0, nu=1.0, a=0.3, T=1.0, d=2)
    s = scaled_unit_params(p)
    assert s.J == 1.0
    assert abs(s.T - 0.25) < 1e-15
    assert abs(s.nu - 2.0) < 1e-15
    assert abs(s.a - 0.3 / math.sqrt(2.0)) < 1e-15
    assert abs(s.dt - p.dt / 4.0) < 1e-15
    assert (s.d, s.K, s.M) == (p.d, p.K, p.M)


def test_scaled_unit_params_are_exact_images():
    """With the same seed the scaled run is the exact diffusive image of the
    original: u~(t~, x~) = u(J^2 t~, J x~) / sqrt(J) at every sample point."""
    p = params(J=4.0, dt=0.08, T=0.4, M=32, K=8)
    q = scaled_unit_params(p)
    assert q.n_steps == p.n_steps
    tr_p = simulate(p, 99)
    tr_q = simulate(q, 99)
    np.testing.assert_allclose(tr_q.values, tr_p.values / math.sqrt(p.J), atol=1e-12)


def test_scaling_check_runs_and_overlaps():
    p = params(J=2.0, nu=0.25, a=0.2, T=0.5)
    rep = scaling_check(p, 150, seed=6, workers=1)
    assert rep.overlap
    assert rep.original.n_replicas == rep.scaled.n_replicas == 150


@pytest.mark.parametrize("path", PATHS)
def test_every_estimator_is_worker_invariant(path):
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))
    serial, parallel = (estimate(path, params(nu=0.5), 100, 10, workers, env) for workers in (1, 2))
    assert serial.stderr > 0  # a constant weight would pass vacuously
    assert (serial.p_hat, serial.stderr) == (parallel.p_hat, parallel.stderr)
    assert (serial.ess, serial.max_weight_share) == (parallel.ess, parallel.max_weight_share)


@pytest.mark.parametrize("path, T, block", [
    pytest.param("hard_via_volume", 5.0, MAX_BLOCK, id="hard_via_volume"),
    pytest.param("quenched_soft", 5.0, MAX_BLOCK, id="quenched_soft"),
    pytest.param("quenched_soft", 80.0, 4, id="quenched_soft_long_path"),
])
def test_estimates_do_not_depend_on_blocks_or_workers(path, T, block, monkeypatch):
    # 101 replicas at 3 workers give chunks of 9: at T=5 each chunk is one block
    # of 9 against the serial run's 64 + 37, transformed 4 paths at a time; the
    # long path's blocks of 4 straddle the serial run's block boundaries
    p = params(nu=0.5, T=T)
    assert replica_block(p) == block
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))
    opened = collections.Counter()
    original = streams.rekey
    monkeypatch.setattr(streams, "rekey", lambda gen, *a: opened.update([a[1:]]) or original(gen, *a))
    serial = estimate(path, p, 101, 8, 1, env)
    monkeypatch.setattr(streams, "rekey", original)
    # every replica's path stream is opened once, none past the last replica
    assert sorted(k for k in opened if k[0] == NOISE) == [(NOISE, r) for r in range(101)]
    assert set(opened.values()) == {1}
    # and its volume samples once; the quenched replicas draw nothing else
    own = [(MC, r) for r in range(101)] if path == "hard_via_volume" else []
    assert opened == collections.Counter([(NOISE, r) for r in range(101)] + own)
    parallel = estimate(path, p, 101, 8, 3, env)
    assert serial.stderr > 0
    assert (serial.p_hat, serial.stderr, serial.ess) == (parallel.p_hat, parallel.stderr, parallel.ess)


@pytest.mark.parametrize("method, tag", [("hard_direct", ENV), ("hard_via_volume", MC)])
def test_replica_streams_rekey_two_generators(method, tag, monkeypatch):
    # a chunk builds one generator for its paths and one for its traps or
    # volume samples, and re-keys them per replica: no Philox per stream
    built, opened = [], collections.Counter()
    philox, rekey = streams.Philox, streams.rekey
    monkeypatch.setattr(streams, "Philox", lambda *a, **k: built.append(a) or philox(*a, **k))
    monkeypatch.setattr(streams, "rekey", lambda gen, *a: opened.update([a[1:]]) or rekey(gen, *a))
    annealed_hard(params(nu=0.5), 101, seed=8, method=method, n_mc=1000, workers=1)
    assert len(built) == 2
    assert opened == collections.Counter([(NOISE, r) for r in range(101)] + [(tag, r) for r in range(101)])


@pytest.mark.parametrize("method", ["hard_direct", "hard_via_volume"])
def test_horizons_weigh_prefixes_of_one_path_per_replica(method, monkeypatch):
    # each replica's path is evolved once, to the longest horizon, and each
    # horizon's estimate equals the one at that horizon alone
    p, horizons = params(nu=0.5, T=1.0), [0.5, 0.0, 1.0, 0.2, 0.5]
    evolved = collections.Counter()
    original = survival.simulate
    monkeypatch.setattr(survival, "simulate", lambda q, *a, **k: evolved.update([q.T]) or original(q, *a, **k))
    shared = annealed_hard(p, 101, seed=4, method=method, n_mc=1000, workers=1, horizons=horizons)
    assert evolved == {1.0: 101}
    monkeypatch.setattr(survival, "simulate", original)
    for T, est in zip(horizons, shared):
        assert est == annealed_hard(replace(p, T=T), 101, seed=4, method=method, n_mc=1000, workers=1)
    assert shared[1].p_hat == 1.0 and shared[0].stderr > 0
    with pytest.raises(ValueError, match="horizon T=1.1 is past the paths' horizon T=1.0"):
        annealed_hard(p, 101, seed=4, method=method, workers=1, horizons=[0.5, 1.1])


def test_no_path_array_outlives_the_estimate(monkeypatch):
    # `simulate` keeps its last block of paths only while a chunk is served
    p = params(T=5.0)
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 1.0, substream(12, ENV, 0))
    arrays = []

    def watched(*args, **kwargs):
        trace = simulate(*args, **kwargs)
        for view in (trace.coeffs, trace.values):
            while view.base is not None:
                view = view.base
            arrays.append(weakref.ref(view))
        return trace

    monkeypatch.setattr(survival, "simulate", watched)
    for run in (
        lambda: annealed_hard(p, 100, seed=3, method="hard_via_volume", n_mc=1000, workers=1),
        lambda: quenched(p, env, 100, seed=3, height=1.0, workers=1),
    ):
        arrays.clear()
        run()
        gc.collect()
        assert len(arrays) == 200 and not [a for a in arrays if a() is not None]


def test_a_chunk_holds_one_block_of_paths_at_a_time(monkeypatch):
    # when `traces` evolves a block, no earlier block is referenced, by the
    # replica loop's last trace or its prefixes either
    p = params(T=5.0)
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 1.0, substream(12, ENV, 0))
    sim = importlib.import_module("string_sausage.simulate")
    evolve, blocks = sim.evolve, []

    def watched(*args):
        assert [b for b in blocks if b() is not None] == []
        block = evolve(*args)
        blocks.append(weakref.ref(block))
        return block

    monkeypatch.setattr(sim, "evolve", watched)
    for run in (
        lambda: annealed_hard(p, 100, seed=3, method="hard_via_volume", n_mc=1000, workers=1,
                              horizons=[1.0, 5.0]),
        lambda: quenched(p, env, 100, seed=3, height=1.0, workers=1),
    ):
        blocks.clear()
        run()
        assert len(blocks) == 2


def _known_weight(trace, seed, r, gen, kind):
    return {"ramp": r + 1.0, "one_in_four": float(r % 4 == 0), "zero": 0.0}[kind]


def test_weight_diagnostics_on_known_weights():
    p = params()
    ramp = survival._estimate(_known_weight, ("ramp",), "w", p, 100, 1, 1)
    assert ramp.ess == pytest.approx(5050.0 ** 2 / 338350.0, rel=1e-15)  # sum k, sum k^2
    assert ramp.max_weight_share == pytest.approx(100.0 / 5050.0, rel=1e-15)
    quarter = survival._estimate(_known_weight, ("one_in_four",), "hard_direct", p, 100, 1, 1)
    assert (quarter.p_hat, quarter.ess, quarter.max_weight_share) == (0.25, 25.0, 1 / 25)
    zero = survival._estimate(_known_weight, ("zero",), "hard_direct", p, 100, 1, 1)
    assert (zero.p_hat, zero.ess, zero.max_weight_share) == (0.0, 0.0, 0.0)
    # 0.3 and 0.1 * 3 are both 3 steps of dt 0.1: one weight call per replica serves both
    calls = []
    a, b = survival._estimate(lambda trace, seed, r, gen: calls.append(r) or 0.5, (), "w", p, 100, 1, 1,
                              horizons=[0.3, 0.1 * 3])
    assert calls == list(range(100)) and a.params.T != b.params.T and replace(b, params=a.params) == a


def test_parallel_merge_is_order_independent():
    p = params()
    serial = annealed_hard(p, 120, seed=9, workers=1)
    parallel = annealed_hard(p, 120, seed=9, workers=3)
    assert serial.p_hat == parallel.p_hat
    assert serial.stderr == parallel.stderr


# (p_hat, stderr) recorded on the current random-stream layout; a change to
# that layout re-records them on purpose, any other change must keep them.
PINNED_ESTIMATES = {
    "hard_direct": (0.17, 0.0375632799419859),
    "hard_via_volume": (0.16766363171252777, 0.004419876189608633),
    "annealed_soft": (0.9318518068523008, 0.007201589430301944),
    "quenched_hard": (0.04, 0.019595917942265423),
    "quenched_soft": (0.9185899912220493, 0.007367975389074344),
}


@pytest.mark.parametrize("path", list(PINNED_ESTIMATES))
def test_estimates_are_pinned(path):
    p = params(nu=0.5)
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))
    if path in ("hard_direct", "hard_via_volume"):
        est = annealed_hard(p, 100, seed=17, method=path, n_mc=1000, workers=1)
    elif path == "annealed_soft":
        est = annealed_soft(p, 1.0, 100, seed=17, workers=1)
    else:
        height = 1.0 if path == "quenched_soft" else None
        est = quenched(p, env, 100, seed=17, height=height, workers=1)
    if path in ("hard_direct", "quenched_hard"):  # indicator means: exact
        assert (est.p_hat, est.stderr) == PINNED_ESTIMATES[path]
    else:
        assert (est.p_hat, est.stderr) == pytest.approx(PINNED_ESTIMATES[path], rel=1e-12)


def test_indicator_interval_is_wilson():
    p = params()
    lo, hi = SurvivalEstimate(0.0, 0.0, 100, "hard_direct", p).ci95()
    assert lo == 0.0
    assert hi == pytest.approx(1.96 ** 2 / (100 + 1.96 ** 2))  # 0.0370, not 0
    lo, hi = SurvivalEstimate(1.0, 0.0, 100, "quenched_hard", p).ci95()
    assert hi == 1.0
    assert lo == pytest.approx(100 / (100 + 1.96 ** 2))
    # weighted means keep the normal interval, clipped to [0, 1]
    weighted = SurvivalEstimate(0.5, 0.01, 100, "hard_via_volume", p)
    assert weighted.ci95() == pytest.approx((0.5 - 0.0196, 0.5 + 0.0196))
    assert SurvivalEstimate(1e-10, 1e-10, 100, "hard_via_volume", p).ci95() == (0.0, pytest.approx(2.96e-10))
    assert SurvivalEstimate(0.995, 0.01, 100, "soft_weight", p).ci95() == (pytest.approx(0.9754), 1.0)


# Per estimator path, the `survival` module names a replica calls once, and
# whether it builds the trace's cloud.  The benchmark's tracer wraps these
# names in the module namespace, so each call must go through it.
TRACED_NAMES = (
    "simulate", "environment_for_cloud", "sample_environment", "any_contact",
    "path_functional", "sausage_volume_hit_or_miss",
)
TRACED_USE = {
    "hard_direct": ({"simulate", "environment_for_cloud", "sample_environment", "any_contact"}, True),
    "hard_via_volume": ({"simulate", "sausage_volume_hit_or_miss"}, True),
    "annealed_soft": ({"simulate", "environment_for_cloud", "sample_environment", "path_functional"},
                      True),
    "quenched_hard": ({"simulate", "any_contact"}, True),
    "quenched_soft": ({"simulate", "path_functional"}, False),
}


@pytest.mark.parametrize("path", list(TRACED_USE))
def test_replicas_call_the_traced_names(path, monkeypatch):
    module = importlib.import_module("string_sausage.survival")
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(Trace, "cloud", counting("cloud", Trace.cloud))
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))
    estimate(path, params(nu=0.5), 100, 17, env=env)
    used, builds_cloud = TRACED_USE[path]
    assert {name: calls[name] for name in TRACED_NAMES} == {
        name: 100 if name in used else 0 for name in TRACED_NAMES
    }
    assert calls["cloud"] == (100 if builds_cloud else 0)
