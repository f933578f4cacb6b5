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
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

SEED_LIMIT = 1 << 64  # seeds and stream path components lie in [0, SEED_LIMIT)

# Stream tags.  Each estimator draws from its own tag so that adding draws
# to one component never perturbs another.
NOISE = 1
ENV = 2
MC = 3
AUX = 5


def substream(master_seed: int, *path: int) -> Generator:
    """Return the Generator for a counter-derived stream.

    ``master_seed`` and the up to three ``path`` integers (e.g. tag,
    replica, level) lie in [0, 2**64).  The path occupies the high words of
    the Philox counter; the low word is left at zero, giving each stream
    2**64 blocks of headroom before it could run into a sibling.  Counter
    and key are handed to Philox as uint64 arrays: from a list, numpy would
    cast words of 2**63 and above through float64.
    """
    if len(path) > 3:
        raise ValueError("stream path may have at most 3 components")
    words = [int(master_seed), *map(int, path)]
    if not all(0 <= w < SEED_LIMIT for w in words):
        raise ValueError(f"seed and stream path components must lie in [0, 2**64), got {words}")
    counter = np.array([0, *words[1:]] + [0] * (3 - len(path)), np.uint64)
    key = np.array([words[0], len(path)], np.uint64)
    return Generator(Philox(counter=counter, key=key))
