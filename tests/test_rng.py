import numpy as np
import pytest

from string_sausage.rng import AUX, ENV, MC, NOISE, substream


def test_same_path_reproduces():
    a = substream(42, NOISE, 3, 7).standard_normal(16)
    b = substream(42, NOISE, 3, 7).standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    draws = {
        tuple(path): substream(1, *path).standard_normal(4).tobytes()
        for path in [(NOISE, 0, 0), (NOISE, 0, 1), (NOISE, 1, 0), (ENV, 0, 0), (MC, 0, 0)]
    }
    assert len(set(draws.values())) == len(draws)


def test_distinct_seeds_differ():
    a = substream(1, AUX, 0).standard_normal(4)
    b = substream(2, AUX, 0).standard_normal(4)
    assert not np.array_equal(a, b)


def test_path_length_matters():
    # (tag,) and (tag, 0) must be distinct streams even though the counter
    # words coincide; the key encodes the path length
    a = substream(9, AUX).standard_normal(4)
    b = substream(9, AUX, 0).standard_normal(4)
    assert not np.array_equal(a, b)


def test_path_validation():
    with pytest.raises(ValueError):
        substream(0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        substream(0, -1)
    with pytest.raises(ValueError):
        substream(0, 1 << 64)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError):
            substream(seed, AUX, 0)


def test_seeds_past_2_63_keep_their_own_streams():
    # numpy casts a list holding words of 2**63 and above through float64:
    # handed as lists, 2**64 - 1 would draw the noise of seed 0, and
    # 2**63 + 5 that of 2**63
    seeds = [0, 1 << 63, (1 << 63) + 5, (1 << 64) - 1]
    draws = {substream(seed, NOISE, 3).standard_normal(4).tobytes() for seed in seeds}
    assert len(draws) == len(seeds)
    paths = [(NOISE, 0), (NOISE, 1 << 63), (NOISE, (1 << 64) - 1)]
    assert len({substream(1, *path).standard_normal(4).tobytes() for path in paths}) == len(paths)


def test_streams_are_statistically_plausible():
    x = np.concatenate([substream(7, NOISE, r, 0).standard_normal(100) for r in range(100)])
    assert abs(x.mean()) < 4 / np.sqrt(x.size)
    assert abs(x.var() - 1.0) < 0.05
