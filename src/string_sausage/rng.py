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

_MASK64 = (1 << 64) - 1

# Stream tags.  Each estimator draws from its own tag so that adding draws
# to one component never perturbs another.
NOISE = 1
ENV = 2
MC = 3
AUX = 5


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for a counter-derived stream.

    ``path`` is up to three non-negative integers (e.g. tag, replica,
    level).  The path occupies the high words of the Philox counter; the low
    word is left at zero, giving each stream 2**64 blocks of headroom
    before it could run into a sibling.
    """
    if len(path) > 3:
        raise ValueError("stream path may have at most 3 components")
    counter = [0, 0, 0, 0]
    for i, p in enumerate(path):
        p = int(p)
        if p < 0:
            raise ValueError("stream path components must be non-negative")
        counter[i + 1] = p & _MASK64
    key = [int(master_seed) & _MASK64, len(path)]
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
