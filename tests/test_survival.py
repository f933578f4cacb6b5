import collections
import importlib
import math

import numpy as np
import pytest

from string_sausage.geometry import bounding_box
from string_sausage.rng import ENV, substream
from string_sausage.simulate import Trace, simulate
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
from string_sausage.traps import Box, PoissonEnvironment, sample_environment


def params(**kw):
    defaults = dict(d=2, K=8, M=32, dt=0.1, T=0.5, nu=1.0, a=0.3, eps_tail=5e-3)
    defaults.update(kw)
    return ModelParams(**defaults)


def make_env(points, lo, hi, nu=1.0):
    box = Box(np.asarray(lo, float), np.asarray(hi, float))
    return PoissonEnvironment(np.asarray(points, float), box, nu)


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


def test_annealed_zero_intensity_survives():
    p = params(nu=0.0)
    est = annealed_hard(p, 100, seed=1, workers=1)
    assert est.p_hat == 1.0
    assert est.stderr == 0.0


def test_annealed_T_zero_is_one():
    p = params(T=0.0)
    for method in ("hard_direct", "hard_via_volume"):
        est = annealed_hard(p, 100, seed=1, method=method, workers=1)
        assert est.p_hat == 1.0


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


@pytest.mark.parametrize(
    "path", ["hard_direct", "hard_via_volume", "annealed_soft", "quenched_hard", "quenched_soft"]
)
def test_every_estimator_is_worker_invariant(path):
    p = params(nu=0.5)
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))

    def estimate(workers):
        if path in ("hard_direct", "hard_via_volume"):
            return annealed_hard(p, 100, seed=10, method=path, n_mc=1000, workers=workers)
        if path == "annealed_soft":
            return annealed_soft(p, 1.0, 100, seed=10, workers=workers)
        height = 1.0 if path == "quenched_soft" else None
        return quenched(p, env, 100, seed=10, height=height, workers=workers)

    serial, parallel = estimate(1), estimate(2)
    assert serial.stderr > 0  # a constant weight would pass vacuously
    assert (serial.p_hat, serial.stderr) == (parallel.p_hat, parallel.stderr)


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
    # weighted means keep the normal interval
    weighted = SurvivalEstimate(0.5, 0.01, 100, "hard_via_volume", p)
    assert weighted.ci95() == pytest.approx((0.5 - 0.0196, 0.5 + 0.0196))


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
    p = params(nu=0.5)
    env = sample_environment(Box(np.full(2, -3.0), np.full(2, 3.0)), 0.5, substream(12, ENV, 0))
    if path in ("hard_direct", "hard_via_volume"):
        module.annealed_hard(p, 100, seed=17, method=path, n_mc=1000, workers=1)
    elif path == "annealed_soft":
        module.annealed_soft(p, 1.0, 100, seed=17, workers=1)
    else:
        height = 1.0 if path == "quenched_soft" else None
        module.quenched(p, env, 100, seed=17, height=height, workers=1)
    used, builds_cloud = TRACED_USE[path]
    assert {name: calls[name] for name in TRACED_NAMES} == {
        name: 100 if name in used else 0 for name in TRACED_NAMES
    }
    assert calls["cloud"] == (100 if builds_cloud else 0)
