import math

import numpy as np
import pytest

from fedkg.config import BOUNDS, ConfigError
from fedkg.model import GradientPacket, SparseGrad
from fedkg.privacy import (DpConfig, NegativePoolError, generate_request_items,
                           interaction_budget, ldp_encrypt, privacy_budget)
from fedkg.rng import derive_rng


def _packet(entity=None, relation=None, model=None, user=None, weight=1):
    ent = SparseGrad()
    for idx, vec in (entity or {}).items():
        ent.add(idx, np.asarray(vec, dtype=float))
    rel = SparseGrad()
    for idx, vec in (relation or {}).items():
        rel.add(idx, np.asarray(vec, dtype=float))
    return GradientPacket(entity_grads=ent, relation_grads=rel,
                          model_grads=model or [],
                          user_grad=None if user is None else np.asarray(user, float),
                          weight=weight, loss=0.5)


# --- request generation -----------------------------------------------------

def test_no_obfuscation_passthrough():
    cfg = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan = generate_request_items({4, 9}, [1, 2, 3], cfg, derive_rng(0, 0))
    assert sorted(plan.request_items) == [4, 9]
    assert plan.local_labels == [1, 1]
    assert sum(plan.local_labels) == 2  # no flips: one positive per interaction


def test_request_has_no_duplicates_and_aligned_labels():
    cfg = DpConfig(flip_rate=0.2, pseudo_count=3)
    plan = generate_request_items({1, 5, 7}, [2, 4, 6, 8], cfg, derive_rng(1, 0))
    assert len(plan.request_items) == len(set(plan.request_items)) == 6
    assert len(plan.local_labels) == 6
    assert set(plan.local_labels) <= {0, 1}
    # the json wire needs Python ints
    assert all(type(x) is int for x in plan.request_items + plan.local_labels)


def test_flip_fraction_binomial_three_sigma():
    # 10,000 candidate labels at q=0.1: flipped fraction within 0.1 +- 0.009
    interactions = set(range(5000))
    negatives = list(range(5000, 10000))
    cfg = DpConfig(flip_rate=0.1, pseudo_count=5000)
    plan = generate_request_items(interactions, negatives, cfg, derive_rng(2, 0))
    flipped = 0
    for item, label in zip(plan.request_items, plan.local_labels):
        original = 1 if item in interactions else 0
        flipped += int(label != original)
    frac = flipped / 10_000
    assert abs(frac - 0.1) < 0.009


def test_flip_independence_pairwise_correlation():
    # correlation between two items' flip indicators over 10^4 trials ~ 0
    cfg = DpConfig(flip_rate=0.3, pseudo_count=0)
    rng = derive_rng(3, 0)
    n = 10_000
    a = np.empty(n)
    b = np.empty(n)
    for t in range(n):
        plan = generate_request_items({1, 2}, [], cfg, rng)
        by_item = dict(zip(plan.request_items, plan.local_labels))
        a[t] = 1 - by_item[1]  # flipped iff label moved away from 1
        b[t] = 1 - by_item[2]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n)


def test_insufficient_negatives_is_config_error():
    cfg = DpConfig(pseudo_count=5)
    with pytest.raises(NegativePoolError):
        generate_request_items({1}, [2, 3], cfg, derive_rng(4, 0))
    # one item short (pool == count - 1), at a set count and at parity, with the text
    # `fedkg train`'s pre-check prints too
    for pseudo, negatives in ((3, [2, 3]), (None, [])):
        count = 1 if pseudo is None else pseudo
        with pytest.raises(NegativePoolError, match=f"^needs {count} pseudo items but has "
                                                    f"only {len(negatives)} unobserved items$"):
            generate_request_items({1}, negatives, DpConfig(pseudo_count=pseudo),
                                   derive_rng(4, 0))


def test_parity_default_pseudo_count():
    cfg = DpConfig(flip_rate=0.0, pseudo_count=None)
    plan = generate_request_items({1, 2, 3}, list(range(10, 20)), cfg, derive_rng(5, 0))
    assert len(plan.request_items) == 6  # 3 real + 3 pseudo


def test_request_strict_superset_with_pseudo_items():
    interactions = {1, 2, 3}
    cfg = DpConfig(flip_rate=0.1, pseudo_count=2)
    for seed in range(30):
        plan = generate_request_items(interactions, [7, 8, 9], cfg, derive_rng(6, seed))
        assert set(plan.request_items) != interactions
        assert set(plan.request_items) > interactions


def test_flip_rate_validation():
    with pytest.raises(ValueError):
        DpConfig(flip_rate=0.5)
    with pytest.raises(ValueError):
        DpConfig(flip_rate=-0.1)


@pytest.mark.parametrize("field,value", [("delta", math.nan), ("lam", math.nan),
                                         ("lam", math.inf)])
def test_laplace_settings_reject_nan_and_infinite_scale(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: "):
        DpConfig(**{field: value})


def test_infinite_clip_threshold_means_no_clipping():
    cfg = DpConfig(delta=math.inf, lam=0.0, flip_rate=0.0, pseudo_count=0)
    out = ldp_encrypt(_packet(entity={3: [1e9, -1e9]}), cfg, derive_rng(7, 0))
    assert out.entity_grads.entries[3].tolist() == [1e9, -1e9]


# --- gradient LDP -----------------------------------------------------------

def test_clip_only_examples():
    cfg = DpConfig(delta=0.1, lam=0.0, flip_rate=0.0, pseudo_count=0)
    packet = _packet(entity={3: [0.5, -0.05]})
    out = ldp_encrypt(packet, cfg, derive_rng(7, 0))
    assert out.entity_grads.entries[3][0] == 0.1  # clipped exactly
    assert out.entity_grads.entries[3][1] == -0.05  # inside threshold


def test_clip_bounds_every_uploaded_element():
    rng = derive_rng(8, 0)
    cfg = DpConfig(delta=0.2, lam=0.0, flip_rate=0.0, pseudo_count=0)
    packet = _packet(entity={i: rng.normal(size=4) for i in range(5)},
                     relation={0: rng.normal(size=4)},
                     model=[(rng.normal(size=(4, 4)), rng.normal(size=4))],
                     user=rng.normal(size=4))
    out = ldp_encrypt(packet, cfg, rng)
    for vec in out.entity_grads.entries.values():
        assert np.all(np.abs(vec) <= 0.2)
    for vec in out.relation_grads.entries.values():
        assert np.all(np.abs(vec) <= 0.2)
    for dw, db in out.model_grads:
        assert np.all(np.abs(dw) <= 0.2) and np.all(np.abs(db) <= 0.2)


def test_user_grad_stripped_before_upload():
    cfg = DpConfig(delta=1.0, lam=0.0, flip_rate=0.0, pseudo_count=0)
    packet = _packet(entity={0: [0.1]}, user=[9.9], weight=3)
    packet.client_id = 11
    out = ldp_encrypt(packet, cfg, derive_rng(9, 0))
    assert out.user_grad is None
    assert packet.user_grad is not None  # input untouched
    assert type(out) is GradientPacket
    assert (out.weight, out.loss, out.client_id) == (3, 0.5, 11)


def test_laplace_noise_statistics():
    # Last.FM-scale lambda = 1e-4; zero gradient isolates pure noise
    lam = 1e-4
    n = 100_000
    cfg = DpConfig(delta=1.0, lam=lam, flip_rate=0.0, pseudo_count=0)
    packet = _packet(entity={0: np.zeros(n)})
    out = ldp_encrypt(packet, cfg, derive_rng(10, 0))
    noise = out.entity_grads.entries[0]
    assert abs(noise.mean()) < 3 * lam * math.sqrt(2.0 / n)
    mle_scale = np.abs(noise).mean()
    assert abs(mle_scale - lam) / lam < 0.05


def reference_ldp(packet, cfg, rng):
    """Clip and draw row by row: entity rows, relation rows, then dW, db per layer."""
    def protect(vec):
        return np.clip(vec, -cfg.delta, cfg.delta) + rng.laplace(0.0, cfg.lam, size=vec.shape)

    return ([protect(row) for row in packet.entity_grads.rows()],
            [protect(row) for row in packet.relation_grads.rows()],
            [(protect(dw), protect(db)) for dw, db in packet.model_grads])


def test_ldp_encrypt_matches_per_row_reference_stream():
    cfg = DpConfig(delta=0.5, lam=1e-2, flip_rate=0.0, pseudo_count=0)
    clipped = 0
    for trial in range(30):
        rng = derive_rng(11, trial)
        d = int(rng.integers(1, 5))
        packet = _packet(
            entity={int(i): rng.normal(size=d)
                    for i in rng.choice(20, size=int(rng.integers(1, 8)), replace=False)},
            relation={int(i): rng.normal(size=d)
                      for i in rng.choice(4, size=int(rng.integers(0, 3)), replace=False)},
            model=[(rng.normal(size=(d, d)), rng.normal(size=d))
                   for _ in range(int(rng.integers(0, 3)))],
            user=rng.normal(size=d))
        clipped += sum(int(np.sum(np.abs(a) > cfg.delta)) for a in
                       [packet.entity_grads.rows(), *(a for p in packet.model_grads for a in p)])
        ours, theirs = derive_rng(12, trial), derive_rng(12, trial)
        out = ldp_encrypt(packet, cfg, ours)
        ent, rel, model = reference_ldp(packet, cfg, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(out.entity_grads.ids(), packet.entity_grads.ids())
        assert np.array_equal(out.relation_grads.ids(), packet.relation_grads.ids())
        assert np.array_equal(out.entity_grads.rows(),
                              np.reshape(ent, packet.entity_grads.rows().shape))
        assert np.array_equal(out.relation_grads.rows(),
                              np.reshape(rel, packet.relation_grads.rows().shape))
        assert len(out.model_grads) == len(model)
        for (dw, db), (rw, rb) in zip(out.model_grads, model):
            assert np.array_equal(dw, rw) and np.array_equal(db, rb)
    assert clipped > 0


@pytest.mark.parametrize("relations, layers, lam", [
    (0, 2, 1e-2),  # an empty relation part
    (2, 0, 1e-2),  # no model layers
    (2, 1, 0.0),   # clip only
])
def test_ldp_encrypt_leaves_its_input_untouched(relations, layers, lam):
    rng = np.random.default_rng(8)
    d = 3
    packet = _packet(entity={i: 4 * rng.normal(size=d) for i in (2, 5, 9)},
                     relation={i: 4 * rng.normal(size=d) for i in range(relations)},
                     model=[(4 * rng.normal(size=(d, d)), 4 * rng.normal(size=d))
                            for _ in range(layers)],
                     user=rng.normal(size=d))
    arrays = [packet.entity_grads.rows(), packet.relation_grads.rows(),
              *(a for pair in packet.model_grads for a in pair)]
    inputs = [*arrays, packet.entity_grads.ids(), packet.relation_grads.ids(), packet.user_grad]
    before = [(a.dtype, a.shape, a.tobytes()) for a in inputs]
    cfg = DpConfig(delta=0.5, lam=lam, flip_rate=0.0, pseudo_count=0)
    out = ldp_encrypt(packet, cfg, derive_rng(4, relations, layers))
    assert [(a.dtype, a.shape, a.tobytes()) for a in inputs] == before
    assert any(np.any(np.abs(a) > cfg.delta) for a in arrays)  # the clip had work to do
    protected = [out.entity_grads.rows(), out.relation_grads.rows(),
                 *(a for pair in out.model_grads for a in pair)]
    assert [a.shape for a in protected] == [a.shape for a in arrays]
    for a in protected:
        assert not any(np.shares_memory(a, b) for b in inputs)


def test_privacy_budget_formula():
    assert privacy_budget(0.1, 1e-4) == 2 * 0.1 / 1e-4
    assert abs(privacy_budget(0.1, 1e-4) - 2000.0) < 1e-9
    lam = 0.34
    assert privacy_budget(lam / 2, lam) == 1.0
    assert privacy_budget(0.2, 1e-4) == 2 * privacy_budget(0.1, 1e-4)
    assert privacy_budget(0.1, 0.0) == math.inf


@pytest.mark.parametrize("delta, lam, field, key", [
    (0.5, math.inf, "lam", "noise_scale"), (0.5, math.nan, "lam", "noise_scale"),
    (math.nan, 1e-4, "delta", "clip_threshold"), (-1.0, 1e-4, "delta", "clip_threshold"),
    (0.0, 1e-4, "delta", "clip_threshold")])
def test_privacy_budget_rejects_what_dp_config_rejects(delta, lam, field, key):
    with pytest.raises(ConfigError) as want:
        DpConfig(delta=delta, lam=lam)
    with pytest.raises(ConfigError) as got:
        privacy_budget(delta, lam)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{field}: {key} must be {BOUNDS[key][1]}, got ")


@pytest.mark.parametrize("flip_rate", [0.5, -0.1, math.nan])
def test_interaction_budget_rejects_what_dp_config_rejects(flip_rate):
    with pytest.raises(ConfigError) as want:
        DpConfig(flip_rate=flip_rate)
    with pytest.raises(ConfigError) as got:
        interaction_budget(flip_rate)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"flip_rate: flip_rate must be {BOUNDS['flip_rate'][1]}, ")


def test_interaction_budget_inverts_keep_probability():
    eps = interaction_budget(0.1)
    assert abs(eps - math.log(9.0)) < 1e-12
    # keep probability e^eps / (e^eps + 1) recovers 0.9
    assert abs(math.exp(eps) / (math.exp(eps) + 1) - 0.9) < 1e-12
    assert interaction_budget(0.0) == math.inf
