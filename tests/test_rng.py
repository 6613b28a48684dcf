import numpy as np

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
