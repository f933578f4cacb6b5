import math

import numpy as np
import pytest

from string_sausage.geometry import PointCloud, bounding_box
from string_sausage.rng import ENV, substream
from string_sausage.simulate import simulate
from string_sausage.spectral import FieldSamples, ModelParams
from string_sausage.statistics import BATCH_VALUES
from string_sausage.traps import (
    Box,
    PoissonEnvironment,
    any_contact,
    path_functional,
    sample_environment,
)


def brute_contacts(queries, traps, a):
    """Pair oracle: the (query, trap) closed-ball contact matrix, every pair
    tested at once, with no cull and no blocks."""
    queries = np.atleast_2d(queries)
    return ((queries[:, None, :] - traps[None, :, :]) ** 2).sum(axis=2) <= a * a


def pairs(queries, env, a):
    """Contact pairs counted by `path_functional` on one snapshot, at unit
    height and unit quadrature weights."""
    return path_functional([FieldSamples(np.atleast_2d(queries))], env, a, 1.0, 1.0, 1.0)


def test_box_basics():
    box = Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert box.d == 2
    assert abs(box.volume - 4.0) < 1e-15
    with pytest.raises(ValueError):
        Box(np.array([0.0]), np.array([0.0]))
    # non-finite bounds: NaN passes the extent test, and inf would give an infinite volume
    for lo, hi in [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)]:
        with pytest.raises(ValueError, match="finite"):
            Box(np.array([0.0, lo]), np.array([1.0, hi]))


def test_distance_queries_against_brute_force():
    rng = substream(1, ENV, 0)
    pts = rng.uniform(-2, 2, size=(300, 2))
    env = PoissonEnvironment(pts, Box(np.full(2, -2.0), np.full(2, 2.0)), 1.0)
    for _ in range(30):
        z = rng.uniform(-2.5, 2.5, size=2)
        r = rng.uniform(0.05, 1.0)
        # independent oracle: scalar loop over the traps
        inside = sum(math.dist(z, p) <= r for p in pts)
        assert pairs(z, env, r) == inside


def test_distance_queries_empty_environment():
    env = PoissonEnvironment(np.empty((0, 2)), Box(np.zeros(2), np.ones(2)), 1.0)
    assert pairs(np.zeros(2), env, 1.0) == 0
    assert not any_contact(PointCloud(np.zeros(2)), env, 1.0)


def test_sample_environment_poisson_count():
    box = Box(np.zeros(2), np.full(2, 4.0))  # volume 16
    counts = [
        sample_environment(box, 2.0, substream(2, ENV, r)).n_points for r in range(400)
    ]
    mean = np.mean(counts)
    # Poisson(32): se of the mean over 400 draws is sqrt(32/400)
    assert abs(mean - 32.0) < 4 * math.sqrt(32.0 / 400)
    assert abs(np.var(counts) - 32.0) < 4 * 32.0 * math.sqrt(2.0 / 399)


def test_sample_environment_zero_intensity():
    box = Box(np.zeros(2), np.ones(2))
    env = sample_environment(box, 0.0, substream(3, ENV, 0))
    assert env.n_points == 0
    assert not any_contact(PointCloud(np.array([[0.5, 0.5]])), env, 0.3)


def test_potential_hard_and_soft():
    """Hard contact and soft occupation counts at single query points."""
    box = Box(np.full(2, -2.0), np.full(2, 2.0))
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    env = PoissonEnvironment(pts, box, 1.0)
    a = 0.3
    assert any_contact(PointCloud(np.array([0.1, 0.0])), env, a)
    assert not any_contact(PointCloud(np.array([0.5, 0.5])), env, a)
    # one-point snapshots give the count at each point
    assert [pairs(q, env, a) for q in [[0.1, 0.0], [0.9, 0.9], [0.5, 0.5]]] == [1, 1, 0]
    # contact boundary is closed
    assert any_contact(PointCloud(np.array([0.3, 0.0])), env, a)
    assert pairs(np.array([0.3, 0.0]), env, a) == 1


def assert_kernels_agree_with_brute_force(queries, env, a):
    """The (query, trap) contact matrix, after checking both kernels against it."""
    contacts = brute_contacts(queries, env.points, a)
    assert pairs(queries, env, a) == contacts.sum()
    assert any_contact(PointCloud(queries), env, a) == bool(contacts.any())
    return contacts


def test_contact_counts_brute_force():
    # queries in a sub-box, so the reach cull drops some traps, and enough
    # of them that the reachable traps span several blocks
    for d in (1, 2, 3):
        rng = substream(4, ENV, d)
        traps = rng.uniform(-1, 1, size=(150, d))
        env = PoissonEnvironment(traps, Box(np.full(d, -1.0), np.full(d, 1.0)), 1.0)
        queries = rng.uniform(-0.5, 0.5, size=(2000, d))
        touched = assert_kernels_agree_with_brute_force(queries, env, 0.25).any(axis=0)
        assert BATCH_VALUES // 2000 < touched.sum() < 150


@pytest.mark.parametrize("d", [1, 2, 3])
def test_contact_kernel_edge_cases(d):
    box = Box(np.full(d, -4.0), np.full(d, 4.0))
    a = 0.3
    axis = np.eye(d)[:1]

    def counts(queries, traps):
        env = PoissonEnvironment(traps, box, 1.0)
        per_point = assert_kernels_agree_with_brute_force(queries, env, a).sum(axis=1).tolist()
        assert [pairs(q, env, a) for q in queries] == per_point
        return per_point

    # a point at distance exactly a: the closed-ball tie is a contact
    assert counts(a * axis, np.zeros((1, d))) == [1]
    # a trap whose gap to the points' box is exactly a along one axis is kept
    queries = np.vstack([np.zeros((1, d)), np.ones((1, d))])
    assert counts(queries, -a * axis) == [1, 0]
    # every trap out of reach: beyond a in some coordinate
    assert counts(queries, np.vstack([np.full((1, d), 2.0), -1.5 * axis])) == [0, 0]
    # an empty field
    assert counts(queries, np.empty((0, d))) == [0, 0]
    # points of another dimension than the traps
    with pytest.raises(ValueError, match="dimension"):
        pairs(np.zeros((2, d + 1)), PoissonEnvironment(np.zeros((1, d)), box, 1.0), a)
    with pytest.raises(ValueError, match="dimension"):
        any_contact(PointCloud(np.zeros((2, d + 1))), PoissonEnvironment(np.zeros((1, d)), box, 1.0), a)


def test_path_functional_counts_occupation():
    box = Box(np.full(1, -5.0), np.full(1, 5.0))
    traps = np.array([[0.0]])
    env = PoissonEnvironment(traps, box, 1.0)
    inside = FieldSamples(np.full((4, 1), 0.2))  # all 4 points inside B(0, 0.5)
    outside = FieldSamples(np.full((4, 1), 2.0))
    total = path_functional([inside, outside], env, 0.5, 3.0, dt=0.1, dx=0.25)
    assert abs(total - 3.0 * 0.1 * 0.25 * 4) < 1e-12


def test_path_functional_equals_per_snapshot_counts():
    # the one query over all snapshots against one query per snapshot
    p = ModelParams(d=2, K=16, M=64, dt=0.05, T=1.0, eps_tail=2e-3)
    trace = simulate(p, 21, replica=4)
    box = Box(np.full(2, -2.0), np.full(2, 2.0))
    env = PoissonEnvironment(box.sample_uniform(25, substream(21, ENV, 0)), box, 1.0)
    a, height = 0.3, 1.0
    dx = p.J / p.M
    per_snapshot = sum(int(brute_contacts(v, env.points, a).sum()) for v in trace.values)
    assert per_snapshot > 0
    assert path_functional(trace.snapshots(), env, a, height, p.dt, dx) == height * p.dt * dx * per_snapshot


@pytest.mark.parametrize("T, traps_per_mask", [(1.0, 6), (16.0, 1)])
def test_path_functional_matches_pair_oracle_in_both_block_regimes(T, traps_per_mask):
    p = ModelParams(d=2, K=16, M=64, dt=0.05, T=T, eps_tail=2e-3)
    trace = simulate(p, 22, replica=1)
    # 1,344 and 20,544 points per path
    assert max(1, BATCH_VALUES // (trace.n_snapshots * p.M)) == traps_per_mask
    # the box of the survival draws, a + 0.5 around the path: the cull drops
    # 25 and 14 of the 40 traps
    box = bounding_box(trace.cloud(), 0.8)
    env = PoissonEnvironment(box.sample_uniform(40, substream(22, ENV, 1)), box, 1.0)
    a, height, dx = 0.3, 2.0, p.J / p.M
    contacts = np.sum([brute_contacts(v, env.points, a).sum(axis=0) for v in trace.values], axis=0)
    assert 1 < np.count_nonzero(contacts) < 40
    expected = height * p.dt * dx * int(contacts.sum())
    assert path_functional(trace.snapshots(), env, a, height, p.dt, dx) == expected


def test_environment_json_round_trip():
    rng = substream(5, ENV, 0)
    box = Box(np.zeros(2), np.ones(2) * 3.0)
    env = sample_environment(box, 1.5, rng)
    clone = PoissonEnvironment.from_json(env.to_json())
    np.testing.assert_allclose(clone.points, env.points)
    assert clone.nu == env.nu
    np.testing.assert_allclose(clone.box.lower, env.box.lower)


def test_environment_rejects_outside_points():
    box = Box(np.zeros(2), np.ones(2))
    pts = np.array([[2.0, 2.0]])
    with pytest.raises(ValueError):
        PoissonEnvironment(pts, box, 1.0)


def test_environment_points_must_match_box_dimension():
    box = Box(np.zeros(2), np.ones(2))
    assert PoissonEnvironment([], box, 1.0).points.shape == (0, 2)
    with pytest.raises(ValueError, match="shape"):
        PoissonEnvironment(np.full((2, 3), 0.5), box, 1.0)  # would reshape to three 2-D traps
