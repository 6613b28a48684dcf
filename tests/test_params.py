import warnings

import numpy as np
import pytest

from fedkg.model import SparseGrad
from fedkg.params import (apply_global_update, gather, init_params,
                          load_checkpoint, save_checkpoint)
from fedkg.rng import derive_rng
from fedkg.server import AggregatedGradient


def test_init_lastfm_sizes_and_bound():
    # Last.FM scale: 9,366 entities, 60 relations, d=16; bound 1/sqrt(16)
    state = init_params(9366, 60, 16, derive_rng(0, 0))
    assert state.entity_emb.shape == (9366, 16)
    assert state.relation_emb.shape == (60, 16)
    assert np.all(np.abs(state.entity_emb) <= 0.25)
    assert np.all(np.abs(state.relation_emb) <= 0.25)


def test_init_boundary_dims():
    state = init_params(1, 1, 1, derive_rng(1, 0))
    assert state.entity_emb.shape == (1, 1)
    assert state.relation_emb.shape == (1, 1)
    assert np.all(np.abs(state.entity_emb) <= 1.0)


def test_init_same_seed_bitwise_identical():
    a = init_params(20, 5, 8, derive_rng(2, 0), depth=2)
    b = init_params(20, 5, 8, derive_rng(2, 0), depth=2)
    assert np.array_equal(a.entity_emb, b.entity_emb)
    assert np.array_equal(a.relation_emb, b.relation_emb)
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params(0, 1, 4, derive_rng(3, 0))


def test_gather_empty():
    state = init_params(5, 2, 4, derive_rng(4, 0))
    ents, rels = gather(state, [], [])
    assert ents.shape == (0, 4) and rels.shape == (0, 4)


def test_gather_read_back_and_isolation():
    state = init_params(5, 2, 4, derive_rng(5, 0))
    state.entity_emb[3] = 1.0
    ents, _ = gather(state, [3], [])
    assert np.array_equal(ents[0], np.ones(4))
    ents[0][0] = 99.0
    assert state.entity_emb[3, 0] == 1.0


def test_gather_invalid_id():
    state = init_params(5, 2, 4, derive_rng(6, 0))
    with pytest.raises(KeyError):
        gather(state, [7], [])
    with pytest.raises(KeyError):
        gather(state, [], [5])
    with pytest.raises(KeyError):
        gather(state, [-1], [])


def test_gather_reflects_update():
    state = init_params(5, 2, 4, derive_rng(7, 0))
    before, _ = gather(state, [1], [])
    avg = AggregatedGradient(entity=SparseGrad([1], np.full((1, 4), 0.5)))
    apply_global_update(state, avg, eta=0.1)
    after, _ = gather(state, [1], [])
    assert np.allclose(after[0], before[0] - 0.05)


def test_gather_rows_follow_id_order():
    state = init_params(5, 3, 4, derive_rng(18, 0))
    ents, rels = gather(state, np.array([4, 0, 2]), np.array([2, 1]))
    assert np.array_equal(ents, state.entity_emb[[4, 0, 2]])
    assert np.array_equal(rels, state.relation_emb[[2, 1]])


def test_update_direct_arithmetic():
    state = init_params(2, 1, 2, derive_rng(8, 0))
    state.entity_emb[0] = [1.0, 1.0]
    avg = AggregatedGradient(entity=SparseGrad([0], [[0.5, 0.5]]))
    apply_global_update(state, avg, eta=0.02)
    assert np.allclose(state.entity_emb[0], [0.99, 0.99])


def test_update_lastfm_eta():
    # Last.FM learning rate 5e-4: theta=1, g=1 -> 0.9995
    state = init_params(1, 1, 1, derive_rng(9, 0))
    state.entity_emb[0, 0] = 1.0
    avg = AggregatedGradient(entity=SparseGrad([0], [[1.0]]))
    apply_global_update(state, avg, eta=5e-4)
    assert np.isclose(state.entity_emb[0, 0], 0.9995)


def test_update_empty_gradient_is_identity():
    state = init_params(4, 2, 3, derive_rng(10, 0))
    snapshot = state.entity_emb.copy()
    apply_global_update(state, AggregatedGradient(), eta=0.5)
    assert np.array_equal(state.entity_emb, snapshot)


def test_update_zero_gradient_is_identity():
    state = init_params(4, 2, 3, derive_rng(11, 0))
    snapshot = state.entity_emb.copy()
    avg = AggregatedGradient(entity=SparseGrad(np.arange(4), np.zeros((4, 3))))
    apply_global_update(state, avg, eta=0.5)
    assert np.array_equal(state.entity_emb, snapshot)


def test_update_rejects_nan_and_leaves_state_unchanged():
    state = init_params(4, 2, 3, derive_rng(12, 0))
    snap_e = state.entity_emb.copy()
    snap_r = state.relation_emb.copy()
    avg = AggregatedGradient(entity=SparseGrad([0, 2], [[0.1, np.nan, 0.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        apply_global_update(state, avg, eta=0.1)
    assert np.array_equal(state.entity_emb, snap_e)
    assert np.array_equal(state.relation_emb, snap_r)


def _grad(ids, width=3):
    return SparseGrad(ids, np.ones((len(ids), width)))


@pytest.mark.parametrize("avg, error", [
    (AggregatedGradient(entity=_grad([-1, 0])), KeyError),
    (AggregatedGradient(entity=_grad([0, 4])), KeyError),
    (AggregatedGradient(entity=_grad([0]), relation=_grad([2])), KeyError),
    (AggregatedGradient(entity=_grad([0, 1], width=2)), ValueError),
    (AggregatedGradient(entity=_grad([0]), relation=_grad([1], width=4)), ValueError),
    (AggregatedGradient(entity=_grad([0]), model=[(np.ones((2, 2)), np.ones(3))]),
     ValueError),
    (AggregatedGradient(entity=_grad([2, 0])), ValueError),
    (AggregatedGradient(entity=_grad([1, 1])), ValueError),
    (AggregatedGradient(entity=_grad([0]), model=[(np.ones((3, 3)), np.ones(3))] * 2),
     ValueError),
    (AggregatedGradient(entity=_grad([0]),
                        model=[(np.ones((3, 3)), np.array([0.0, np.inf, 0.0]))]), ValueError),
], ids=["negative-entity", "entity-past-end", "relation-past-end",
        "narrow-entity-row", "wide-relation-row", "model-shape",
        "unsorted-entity-ids", "repeated-entity-ids", "extra-model-layer",
        "non-finite-model-grad"])
def test_update_rejects_malformed_and_leaves_state_unchanged(avg, error):
    state = init_params(4, 2, 3, derive_rng(19, 0))
    def snapshot():
        return [a.tobytes() for a in (state.entity_emb, state.relation_emb,
                                      *state.model.weights, *state.model.biases)]

    before = snapshot()
    with pytest.raises(error):
        apply_global_update(state, avg, eta=0.1)
    assert snapshot() == before


@pytest.mark.parametrize("filtered", [True, False], ids=["warnings-error", "no-filter"])
@pytest.mark.parametrize("avg, eta", [
    # the entity step is finite, the relation step overflows: unguarded, the entity
    # table was written before the relation multiply warned
    (AggregatedGradient(entity=SparseGrad([1], [[0.5, 0.0, 0.0]]),
                        relation=SparseGrad([0], [[1e308, 0.0, 0.0]])), 2.0),
    # every step overflows: unguarded and unfiltered, both tables went non-finite
    (AggregatedGradient(entity=SparseGrad([1], [[9e306, 0.0, 0.0]]),
                        relation=SparseGrad([0], [[9e306, 0.0, 0.0]])), 100.0),
    (AggregatedGradient(entity=_grad([0]),
                        model=[(np.zeros((3, 3)), np.array([0.0, 1e308, 0.0]))]), 2.0),
], ids=["relation-overflows", "both-overflow", "model-bias-overflows"])
def test_update_step_that_overflows_is_rejected_before_any_write(avg, eta, filtered):
    state = init_params(4, 2, 3, derive_rng(19, 1), depth=1)
    before = [a.tobytes() for a in (state.entity_emb, state.relation_emb,
                                    *state.model.weights, *state.model.biases)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error" if filtered else "always")
        with pytest.raises(ValueError, match="not finite"):
            apply_global_update(state, avg, eta=eta)
    assert not caught
    assert [a.tobytes() for a in (state.entity_emb, state.relation_emb,
                                  *state.model.weights, *state.model.biases)] == before


def test_update_linearity():
    rng = derive_rng(13, 0)
    base = init_params(6, 3, 4, derive_rng(14, 0))
    g1 = SparseGrad(np.arange(6), rng.normal(size=(6, 4)))
    g2 = SparseGrad(np.arange(3, 6), rng.normal(size=(3, 4)))
    seq = base.copy()
    apply_global_update(seq, AggregatedGradient(entity=g1), eta=0.3)
    apply_global_update(seq, AggregatedGradient(entity=g2), eta=0.3)
    combined = g1.rows().copy()
    combined[3:] += g2.rows()
    once = base.copy()
    apply_global_update(once, AggregatedGradient(entity=SparseGrad(np.arange(6), combined)),
                        eta=0.3)
    assert np.allclose(seq.entity_emb, once.entity_emb, rtol=1e-10, atol=1e-14)


def test_untouched_rows_unchanged():
    state = init_params(6, 3, 4, derive_rng(15, 0))
    snapshot = state.entity_emb.copy()
    avg = AggregatedGradient(entity=SparseGrad([2], np.ones((1, 4))))
    apply_global_update(state, avg, eta=0.1)
    for row in (0, 1, 3, 4, 5):
        assert np.array_equal(state.entity_emb[row], snapshot[row])
    assert not np.array_equal(state.entity_emb[2], snapshot[2])


def test_checkpoint_roundtrip_bitwise(tmp_path):
    state = init_params(7, 3, 5, derive_rng(16, 0), depth=2, mode="transform")
    users = derive_rng(17, 0).normal(size=(4, 5))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, state, users, extra={"seed": 3})
    loaded, loaded_users, extra = load_checkpoint(path)
    assert np.array_equal(loaded.entity_emb, state.entity_emb)
    assert np.array_equal(loaded.relation_emb, state.relation_emb)
    assert loaded.model.mode == "transform"
    for wa, wb in zip(loaded.model.weights, state.model.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(loaded.model.biases, state.model.biases):
        assert np.array_equal(ba, bb)
    assert np.array_equal(loaded_users, users)
    assert extra == {"seed": 3}


def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    import numpy.lib.format

    state = init_params(7, 3, 5, derive_rng(19, 0), depth=2, mode="transform")
    path = str(tmp_path / "checkpoint.npz")
    save_checkpoint(path, state, extra={"round": 1})
    before = (tmp_path / "checkpoint.npz").read_bytes()
    real_write, calls = numpy.lib.format.write_array, []

    def failing_write(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write(*args, **kwargs)

    monkeypatch.setattr(numpy.lib.format, "write_array", failing_write)
    newer = init_params(7, 3, 5, derive_rng(20, 0), depth=2, mode="transform")
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, newer, extra={"round": 2})
    monkeypatch.undo()
    assert (tmp_path / "checkpoint.npz").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]
    loaded, _, extra = load_checkpoint(path)
    assert np.array_equal(loaded.entity_emb, state.entity_emb) and extra == {"round": 1}


def test_checkpoint_with_legacy_dim_key_loads(tmp_path):
    # checkpoints written before the embedding width was read from the
    # arrays carried a redundant `dim` entry
    state = init_params(5, 2, 3, derive_rng(18, 0), depth=1)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, state)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    assert "dim" not in arrays
    np.savez(path, dim=np.array(3), **arrays)
    loaded, user_emb, extra = load_checkpoint(path)
    assert np.array_equal(loaded.entity_emb, state.entity_emb)
    assert np.array_equal(loaded.relation_emb, state.relation_emb)
    assert np.array_equal(loaded.model.weights[0], state.model.weights[0])
    assert user_emb is None and extra is None
