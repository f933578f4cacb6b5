"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random draw in the library comes from a Philox generator whose
256-bit counter block is set from a stream path of up to three
non-negative integers and whose key holds the master seed and the path
length.  Distinct paths give statistically independent streams, so replicas
can run in any order (or in parallel) and still produce bit-identical
results.  Each logical unit owns one stream:

- (NOISE, r): the whole base path of replica r, every time step drawn in
  order from the one stream;
- (NOISE, r, level): reserved for the bridge draws of refinement level
  `level` of replica r, so that adding levels never moves the base path;
- (ENV, r) and (MC, r): the trap field and the hit-or-miss volume samples
  of replica r;
- AUX: diagnostics, oracles and demos.

A stream is opened by keying a generator: `rekey` sets its Philox state to
the stream's counter and key with an empty buffer, so its draws are
bit-equal to those of a new generator built for that stream, whatever the
generator drew before.  A loop over replicas builds one generator
(`new_generator`) and re-keys it for each replica just before that
replica draws, which costs about a fifth of building one; `substream` is a
new generator keyed once, for callers that hold several streams at a time.
"""

from __future__ import annotations

from numpy.random import Generator, Philox

SEED_LIMIT = 1 << 64  # seeds and stream path components lie in [0, SEED_LIMIT)

# Stream tags.  Each estimator draws from its own tag so that adding draws
# to one component never perturbs another.
NOISE = 1
ENV = 2
MC = 3
AUX = 5


def new_generator() -> Generator:
    """A new Philox generator for `rekey` to key; it draws from no stream
    of the library until keyed."""
    return Generator(Philox(0))


def rekey(gen: Generator, master_seed: int, *path: int) -> Generator:
    """Key the Philox generator `gen` to a counter-derived stream and return it.

    ``master_seed`` and the up to three ``path`` integers (e.g. tag,
    replica, level) lie in [0, 2**64).  The path occupies the high words of
    the Philox counter; the low word is left at zero, giving each stream
    2**64 blocks of headroom before it could run into a sibling.  The key
    holds the seed and the path length.  The buffer is emptied, so nothing
    `gen` drew before carries into the stream.
    """
    if len(path) > 3:
        raise ValueError("stream path may have at most 3 components")
    words = [int(master_seed), *map(int, path)]
    if not all(0 <= w < SEED_LIMIT for w in words):
        raise ValueError(f"seed and stream path components must lie in [0, 2**64), got {words}")
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, *words[1:]] + [0] * (3 - len(path)), "key": [words[0], len(path)]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def substream(master_seed: int, *path: int) -> Generator:
    """A new generator keyed to the stream (master_seed; *path) by `rekey`."""
    return rekey(new_generator(), master_seed, *path)
