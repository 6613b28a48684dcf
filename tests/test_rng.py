import numpy as np
import pytest

from fedkg.rng import ROLE_CLIENT, ROLE_EVAL, ROLE_SERVE, derive_rng, derive_rngs


def test_trailing_zero_counters_give_the_same_stream():
    # the reason every stream of a role takes the same number of counters
    base = derive_rng(7, ROLE_EVAL, 20)
    assert base.bit_generator.state == derive_rng(7, ROLE_EVAL, 20, 0).bit_generator.state
    # the padding fills SeedSequence's four-word pool, no further
    assert base.bit_generator.state != derive_rng(7, ROLE_EVAL, 20, 0, 0).bit_generator.state
    assert np.array_equal(derive_rng(7, ROLE_EVAL, 20).random(8),
                          derive_rng(7, ROLE_EVAL, 20, 0).random(8))
    for other in [(7, ROLE_EVAL, 20, 1), (7, ROLE_EVAL, 21), (7, ROLE_EVAL, 0, 20),
                  (8, ROLE_EVAL, 20)]:
        assert derive_rng(*other).bit_generator.state != base.bit_generator.state, other


@pytest.mark.parametrize("keys, words", [
    ((0, 1, 2**32 - 1), True),        # every key one uint32 word
    ((2**32 - 1, 6, 0, 1), True),
    ((2**32, 4, 1), False),           # a key of two words
    ((7, 2**64 + 5, 3, 0), False),    # a key of three words
])
def test_derive_rng_is_seed_sequence_of_the_key_list(monkeypatch, keys, words):
    expected = np.random.default_rng(np.random.SeedSequence(list(keys))).bit_generator.state
    seen = []
    seed_sequence = np.random.SeedSequence

    def recording(entropy):
        seen.append(entropy)
        return seed_sequence(entropy)

    monkeypatch.setattr(np.random, "SeedSequence", recording)
    assert derive_rng(*keys).bit_generator.state == expected
    # the uint32 path hands SeedSequence the words it would make of the list
    assert isinstance(seen[0], np.ndarray) == words
    if words:
        assert seen[0].dtype == np.uint32 and seen[0].tolist() == list(keys)


def test_role_table_is_pinned():
    # role values key every seeded stream: a change re-seeds every run and instance
    from fedkg import rng
    roles = {name: value for name, value in vars(rng).items() if name.startswith("ROLE_")}
    assert roles == {"ROLE_PARAMS": 0, "ROLE_USERS": 1, "ROLE_DATA": 2, "ROLE_SELECT": 3,
                     "ROLE_CLIENT": 4, "ROLE_SERVE": 5, "ROLE_EVAL": 6, "ROLE_GRADCHECK": 99}


# every key shape derive_rngs must reproduce: 3 to 6 ints, seeds and counters at the
# uint32 edges and past them (2**32 and 2**64 + 5 add words, 2**33 a counter word)
_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 + 5)
_COUNTERS = (0, 2**32 - 1, 2**33)
_KEYS = ([(seed, ROLE_EVAL, c, *more) for seed in _SEEDS for c in _COUNTERS
          for more in [(), (5, 6), (5, 6, 7)]]
         + [(seed, role, c, user) for seed in _SEEDS for c in _COUNTERS
            for role in (ROLE_CLIENT, ROLE_SERVE) for user in (0, 2**32 - 1)])


def _assert_same_streams(keys, rngs):
    assert len(rngs) == len(keys)
    for key, rng in zip(keys, rngs):
        want = derive_rng(*key)
        assert rng.bit_generator.state == want.bit_generator.state, key
        assert rng.random(8).tobytes() == want.random(8).tobytes(), key


def test_derive_rngs_is_derive_rng_of_each_key():
    # one batch mixes roles, key lengths and word counts, interleaved, so each
    # result must come back at its own key's place
    assert {len(k) for k in _KEYS} == {3, 4, 5, 6}
    _assert_same_streams(_KEYS, derive_rngs(_KEYS))
    _assert_same_streams(_KEYS[::-1], derive_rngs(_KEYS[::-1]))


@pytest.mark.parametrize("key", [_KEYS[0], _KEYS[-1], (7, ROLE_CLIENT, 0, 3),
                                 (2**64 + 5, ROLE_SERVE, 2**33, 2**32 - 1)])
def test_derive_rngs_of_one_key(key):
    _assert_same_streams([key], derive_rngs([key]))


def test_a_rounds_keys_never_reach_derive_rng(monkeypatch):
    # a 64-client batch's (seed, role, round, client) keys, four uint32 words each,
    # take the batched replay; only the other shapes fall back to derive_rng
    from fedkg import rng
    keys = [(2**32 - 1, role, 3, user) for user in range(64)
            for role in (ROLE_CLIENT, ROLE_SERVE)]
    fallback = []

    def refusing(*key):
        if len(key) == 4 and min(key) >= 0 and max(key) < 2**32:
            raise AssertionError(f"round key {key} reached derive_rng")
        fallback.append(key)
        return derive_rng(*key)

    monkeypatch.setattr(rng, "derive_rng", refusing)
    _assert_same_streams(keys, derive_rngs(keys))
    assert fallback == []
    other = [(2**32, ROLE_CLIENT, 3, 0), (7, ROLE_EVAL, 3)]
    _assert_same_streams(keys + other, derive_rngs(keys + other))
    assert fallback == other


def test_derive_rngs_of_no_keys_is_empty():
    assert derive_rngs([]) == []


def test_derive_rngs_seeds_pcg64_from_four_uint64_words_only():
    rng = derive_rngs([(7, ROLE_CLIENT, 0, 3)])[0]
    assert isinstance(rng.bit_generator, np.random.PCG64)
    words = rng.bit_generator.seed_seq
    assert words.generate_state(4, np.uint64).dtype == np.uint64
    for request in [(4,), (4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64)]:
        with pytest.raises(ValueError, match="4 uint64 words"):
            words.generate_state(*request)


def test_derive_rngs_rejects_a_negative_key():
    with pytest.raises(ValueError):
        derive_rng(7, ROLE_CLIENT, -1, 0)
    with pytest.raises(ValueError, match="negative"):
        derive_rngs([(7, ROLE_CLIENT, 0, 0), (7, ROLE_CLIENT, -1, 0)])
