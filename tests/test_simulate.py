import math

import numpy as np

from string_sausage.rng import substream
from string_sausage.simulate import Trace, brownian_path, simulate
from string_sausage.spectral import ModelParams, evaluate


def params(**kw):
    defaults = dict(d=2, K=8, M=32, dt=0.1, T=0.5, eps_tail=5e-3)
    defaults.update(kw)
    return ModelParams(**defaults)


def test_simulate_is_deterministic():
    p = params()
    a = simulate(p, 42, replica=3)
    b = simulate(p, 42, replica=3)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_replicas_differ():
    p = params()
    a = simulate(p, 42, replica=0)
    b = simulate(p, 42, replica=1)
    assert not np.array_equal(a.coeffs[-1], b.coeffs[-1])


def test_trace_values_match_evaluate():
    p = params()
    tr = simulate(p, 7)
    for i in (0, 2, tr.n_snapshots - 1):
        np.testing.assert_allclose(tr.values[i], evaluate(tr.state(i)).values, atol=1e-12)


def test_trace_cloud_shape_and_meta():
    p = params()
    tr = simulate(p, 7)
    cloud = tr.cloud()
    assert cloud.points.shape == (tr.n_snapshots * p.M, p.d)
    assert cloud.meta["dt"] == p.dt
    assert cloud.meta["T"] == p.T


def test_path_record_consistency():
    p = params()
    tr = simulate(p, 9)
    rec = tr.path_record()
    assert rec.times.shape[0] == tr.n_snapshots
    # radius recomputed from samples agrees
    i = tr.n_snapshots - 1
    dev = tr.values[i] - rec.X[i][None, :]
    assert abs(rec.R[i] - np.sqrt((dev ** 2).sum(axis=1)).max()) < 1e-12


def test_brownian_path_statistics():
    ends = np.array([brownian_path(2, 1.0, 0.1, seed=3, replica=r).points[-1] for r in range(500)])
    for j in range(2):
        v = ends[:, j].var()
        assert abs(v - 1.0) < 4 * math.sqrt(2.0 / 499)
    assert brownian_path(2, 1.0, 0.1, seed=3).points.shape == (11, 2)
