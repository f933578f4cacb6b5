import numpy as np
import pytest
from numpy.random import Generator, Philox

from string_sausage.rng import AUX, ENV, MC, NOISE, new_generator, rekey, substream


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


def fresh(seed, *path):
    """The stream built anew: counter (0, *path, 0...), key (seed, len(path))."""
    counter = np.array([0, *path] + [0] * (3 - len(path)), np.uint64)
    return Generator(Philox(counter=counter, key=np.array([seed, len(path)], np.uint64)))


def library_draws(gen):
    """One of each draw the library makes, in turn on one generator."""
    block = np.empty((3, 2, 5))
    gen.standard_normal(out=block)
    return [block, gen.random((4, 2)), gen.poisson(7.5), gen.uniform(-1.0, 2.0, (3, 2))]


STREAMS = [
    (0,),
    (1 << 63, AUX),
    ((1 << 64) - 1, NOISE, 1 << 63),
    (12, ENV, (1 << 64) - 1, 3),
    ((1 << 63) + 5, MC, 7, (1 << 63) + 1),
]


@pytest.mark.parametrize("stream", STREAMS, ids=["path0", "path1", "path2", "path3", "path3_high_words"])
def test_rekey_equals_a_fresh_generator(stream):
    gen = new_generator()
    for left in (lambda g: None, lambda g: g.bit_generator.random_raw(),
                 lambda g: g.integers(0, 10, dtype=np.uint32)):
        # a generator left at a fresh state, mid-buffer, or holding half a
        # 64-bit word (has_uint32) carries none of it into the next stream
        left(gen)
        assert rekey(gen, *stream) is gen
        for got, want in zip(library_draws(gen), library_draws(fresh(*stream))):
            np.testing.assert_array_equal(got, want)
        left(gen)
        rekey(gen, *stream)
        want = fresh(*stream)
        np.testing.assert_array_equal(gen.integers(0, 1 << 32, 5, dtype=np.uint32),
                                      want.integers(0, 1 << 32, 5, dtype=np.uint32))
        np.testing.assert_array_equal(gen.bit_generator.random_raw(3), want.bit_generator.random_raw(3))
        np.testing.assert_array_equal(substream(*stream).standard_normal(4), fresh(*stream).standard_normal(4))


def test_rekey_validates_before_it_keys():
    gen = rekey(new_generator(), 3, NOISE, 1)
    state = gen.bit_generator.state
    for bad in [(3, 1, 2, 3, 4), (-1, NOISE), (3, 1 << 64)]:
        with pytest.raises(ValueError):
            rekey(gen, *bad)
    np.testing.assert_array_equal(gen.bit_generator.state["state"]["counter"], state["state"]["counter"])
