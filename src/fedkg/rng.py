"""Counter-based RNG derivation.

Every random decision in a run is drawn from a generator derived from
(master seed, role, *counters), so streams are independent of execution
order and parallel clients cannot perturb each other.
"""

from __future__ import annotations

import numpy as np

# Role tags for stream derivation. Values are part of the reproducibility
# contract: changing them changes every seeded run.
ROLE_PARAMS = 0
ROLE_USERS = 1
ROLE_DATA = 2
ROLE_SELECT = 3
ROLE_CLIENT = 4
ROLE_SERVE = 5
ROLE_EVAL = 6
ROLE_GRADCHECK = 99  # gradcheck's random instances, outside any run


def derive_rng(master_seed: int, role: int, *counters: int) -> np.random.Generator:
    """Return a fresh generator for (master_seed, role, counters).

    SeedSequence pads entropy shorter than its four-word pool with zeros,
    so keys differing only by trailing zeros within four words give the same
    stream: derive_rng(7, 6, 20) is derive_rng(7, 6, 20, 0). So the per-pass
    evaluation key (seed, ROLE_EVAL, round) is safe only while no ROLE_EVAL
    stream takes a fourth counter. Keys all below 2**32 go in as the uint32
    words SeedSequence would make of the list (a larger key spans words).
    """
    entropy = [int(master_seed), int(role), *map(int, counters)]
    if min(entropy) >= 0 and max(entropy) < 1 << 32:
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))
