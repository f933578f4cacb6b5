import importlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from series_oracle import evaluate_at, grid
from string_sausage import rng as streams
from string_sausage.rng import AUX, NOISE, substream
from string_sausage.simulate import Trace, brownian_path, replica_block, simulate, traces
from string_sausage.spectral import ModelParams, mode_rates


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


def test_simulate_is_the_exact_recurrence_on_one_stream():
    p = params(J=2.0, T=0.7)
    n, K = p.n_steps, p.K
    draws = substream(42, NOISE, 3).standard_normal((n, p.d, 2 * K + 1))
    lam = mode_rates(K) / p.J ** 2
    decay = np.exp(-lam * p.dt)
    sd = np.sqrt((1.0 - decay ** 2) / (2.0 * lam))
    expected = np.zeros((n + 1, p.d, 2 * K + 1))
    for i in range(n):
        prev = expected[i]
        expected[i + 1, :, 0] = prev[:, 0] + math.sqrt(p.dt) * draws[i, :, 0]
        for k in range(K):
            for col in (1 + k, 1 + K + k):
                expected[i + 1, :, col] = prev[:, col] * decay[k] + sd[k] * draws[i, :, col]
    np.testing.assert_array_equal(simulate(p, 42, replica=3).coeffs, expected)


def test_simulate_opens_one_stream(monkeypatch):
    calls = []
    original = streams.rekey

    def counting(gen, *args):
        calls.append(args)
        return original(gen, *args)

    monkeypatch.setattr(streams, "rekey", counting)
    tr = simulate(params(T=1.0), 5, replica=2)
    assert tr.n_snapshots == 11
    assert calls == [(5, NOISE, 2)]


@pytest.mark.parametrize("T, per_transform", [(0.5, 40), (25.0, 1)])
def test_block_served_traces_equal_standalone(T, per_transform, monkeypatch):
    p = params(T=T)
    size = replica_block(p)
    assert size > per_transform  # a block's values come from several transforms
    sim = importlib.import_module("string_sausage.simulate")
    opened, transformed = [], []
    original, transform = streams.rekey, sim.grid_values
    # two blocks walked as `survival` walks a chunk, from an unaligned replica
    paths = traces(p, 31, range(3, 3 + 2 * size))
    for r in range(3, 3 + 2 * size):
        monkeypatch.setattr(streams, "rekey", lambda *a: opened.append(a[3]) or original(*a))
        monkeypatch.setattr(sim, "grid_values", lambda q, c: transformed.append(len(c)) or transform(q, c))
        served = simulate(p, 31, replica=r, paths=paths)
        monkeypatch.setattr(streams, "rekey", original)
        monkeypatch.setattr(sim, "grid_values", transform)
        alone = simulate(p, 31, replica=r)
        np.testing.assert_array_equal(served.coeffs, alone.coeffs)
        np.testing.assert_array_equal(served.values, alone.values)
        for array in (served.coeffs, served.values):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0
    assert opened == list(range(3, 3 + 2 * size))  # each stream once, in replica order
    # each block's paths transformed per_transform at a time, each path once
    sub_blocks = [min(per_transform, size - i) for i in range(0, size, per_transform)]
    assert transformed == 2 * sub_blocks


def test_traces_drop_a_block_before_the_next(monkeypatch):
    # when a block or sub-block is made, no earlier one is still referenced
    p = params(T=0.5)
    size = replica_block(p)
    sim = importlib.import_module("string_sausage.simulate")
    made = {"evolve": [], "grid_values": []}

    def watch(name):
        original = getattr(sim, name)

        def watched(*args):
            assert [a for a in made["grid_values"] if a() is not None] == []
            if name == "evolve":
                assert [a for a in made["evolve"] if a() is not None] == []
            array = original(*args)
            made[name].append(weakref.ref(array))
            return array
        monkeypatch.setattr(sim, name, watched)

    watch("evolve")
    watch("grid_values")
    paths = traces(p, 31, range(2 * size + 1))
    for r in range(2 * size + 1):
        assert simulate(p, 31, replica=r, paths=paths).values.shape == (p.n_steps + 1, p.M, p.d)
    # blocks of 64 transformed 40 + 24 at a time, then a block of one
    assert (size, len(made["evolve"]), len(made["grid_values"])) == (64, 3, 5)


def test_trace_values_match_pointwise_series():
    p = params()
    tr = simulate(p, 7)
    for i in (0, 2, tr.n_snapshots - 1):
        np.testing.assert_allclose(tr.values[i], evaluate_at(p, tr.coeffs[i], grid(p)), atol=1e-12)


def test_trace_cloud_shape():
    p = params()
    tr = simulate(p, 7)
    assert tr.cloud().points.shape == (tr.n_snapshots * p.M, p.d)


def test_trace_com_and_radius_consistency():
    p = params()
    tr = simulate(p, 9)
    com, R = tr.com, tr.radius
    assert com.shape == (tr.n_snapshots, p.d) and R.shape == (tr.n_snapshots,)
    # at each time, the center is the grid mean and the radius is recomputed from the samples
    for i in range(tr.n_snapshots):
        np.testing.assert_allclose(com[i], tr.values[i].mean(axis=0), atol=1e-12)
        dev = tr.values[i] - com[i][None, :]
        assert abs(R[i] - np.sqrt((dev ** 2).sum(axis=1)).max()) < 1e-12


def test_brownian_path_statistics():
    ends = np.array([brownian_path(2, 1.0, 0.1, seed=3, replica=r).points[-1] for r in range(500)])
    for j in range(2):
        v = ends[:, j].var()
        assert abs(v - 1.0) < 4 * math.sqrt(2.0 / 499)
    assert brownian_path(2, 1.0, 0.1, seed=3).points.shape == (11, 2)
    with pytest.raises(ValueError, match="the nearest horizons on the grid are 0.9 and 1.2"):
        brownian_path(2, 1.0, 0.3, seed=3)
    # the cloud holds the read-only coordinate rows the steps were summed
    # into, bit-equal to stacking the origin on the summed (n, d) steps
    for d in (1, 2, 3):
        points = brownian_path(d, 1.0, 0.01, seed=3, replica=d).points
        assert points.base.shape == (d, 101) and np.shares_memory(points, points.base)
        assert points.base.flags.c_contiguous and not points.flags.writeable
        steps = substream(3, AUX, d).standard_normal((100, d)) * math.sqrt(0.01)
        np.testing.assert_array_equal(points, np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)]))
    # so a long path's peak memory is its steps and its rows, with no third copy
    tracemalloc.start()
    try:
        brownian_path(3, 1.0, 1e-5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 3 * 100_001 * 8
