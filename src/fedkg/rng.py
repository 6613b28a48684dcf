"""Counter-based RNG derivation.

Every random decision in a run is drawn from a generator derived from
(master seed, role, *counters), so streams are independent of execution
order and parallel clients cannot perturb each other.

`derive_rng` defines a stream; `derive_rngs` derives many at once, each
with exactly the state `derive_rng` gives its key (its oracle). A round's
keys, (seed, role, round, client) as four uint32 words, fill numpy's
SeedSequence's default pool of four words exactly: for those it replays
SeedSequence column-wise over the batch, and hands each PCG64 the four
uint64 words SeedSequence would, so PCG64 seeds itself in C; it builds
PCG64 generators only. Any other key (a negative one, one past 2**32, or
one of another length) goes to `derive_rng` itself, one key at a time.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715


def _hash_constants(h: int, mult: int, count: int) -> np.ndarray:
    """A hash's first `count` constants, h, h * mult, ... (mod 2**32), as a uint32 column."""
    steps = accumulate(range(count - 1), lambda c, _: c * mult & 0xFFFFFFFF, initial=h)
    return np.array(list(steps), dtype=np.uint32)[:, None]


class _PoolWords(ISeedSequence):
    """Answers PCG64's one seeding request with words computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self.words


def _pcg64_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(column).generate_state(4, np.uint64) for each column of a
    (4, n) uint32 array, as (n, 4) uint64. A mixing step's hashes of one
    source row, one per destination row in order, run as one operation."""
    ha = _hash_constants(_INIT_A, _MULT_A, 17)

    def hashmix(v, at, rows):  # hash steps at..at+rows-1, one per row
        v = (v ^ ha[at:at + rows]) * ha[at + 1:at + rows + 1]
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_MULT_L * x - _MIX_MULT_R * y
        return r ^ r >> 16

    pool = hashmix(entropy, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    hb = _hash_constants(_INIT_B, _MULT_B, 9)
    out = (np.concatenate([pool, pool]) ^ hb[:-1]) * hb[1:]
    out = (out ^ out >> 16).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


def derive_rngs(keys: list[tuple[int, ...]]) -> list[np.random.Generator]:
    """[derive_rng(*key) for key in keys], hashing all keys of four uint32 words at once."""
    replay = [len(key) == 4 and min(key) >= 0 and max(key) < 1 << 32 for key in keys]
    words = iter(_pcg64_words(np.array([key for key, r in zip(keys, replay) if r],
                                       dtype=np.uint32).reshape(-1, 4).T))
    return [np.random.Generator(np.random.PCG64(_PoolWords(next(words)))) if r
            else derive_rng(*key) for key, r in zip(keys, replay)]
