import numpy as np
import pytest

from fedkg.rng import ROLE_EVAL, derive_rng


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
