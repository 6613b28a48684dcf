import numpy as np
import pytest

from fedkg.cli import build_dataset, round_config, setup_state
from fedkg.config import ExperimentConfig
from fedkg.kg import Triple, build_kg
from fedkg.messages import RequestMessage
from fedkg.model import GradientPacket, SparseGrad
from fedkg.params import init_params
from fedkg.rng import derive_rng
from fedkg.server import (RequestError, aggregate, run_round, select_clients,
                          serve_request, train)


def _random_packet(rng, client_id, d=3, n_layers=1, id_pool=range(10)):
    ent = SparseGrad()
    for idx in rng.choice(list(id_pool), size=rng.integers(1, 5), replace=False):
        ent.add(int(idx), rng.normal(size=d))
    rel = SparseGrad()
    for idx in rng.choice(4, size=rng.integers(1, 3), replace=False):
        rel.add(int(idx), rng.normal(size=d))
    model = [(rng.normal(size=(d, d)), rng.normal(size=d)) for _ in range(n_layers)]
    return GradientPacket(entity_grads=ent, relation_grads=rel, model_grads=model,
                          user_grad=None, weight=int(rng.integers(1, 6)),
                          loss=float(rng.random()), client_id=client_id)


def brute_force_mean(packets):
    """Independent per-coordinate weighted-mean oracle."""
    ordered = sorted(packets, key=lambda p: p.client_id)
    ent, rel = {}, {}
    for store, attr in ((ent, "entity_grads"), (rel, "relation_grads")):
        ids = sorted({i for p in ordered for i in getattr(p, attr).ids()})
        for idx in ids:
            num, den = 0.0, 0.0
            for p in ordered:
                grads = getattr(p, attr)
                if idx in grads:
                    num = num + p.weight * grads.entries[idx]
                    den += p.weight
            store[idx] = num / den
    total = sum(p.weight for p in ordered)
    model = []
    for layer in range(len(ordered[0].model_grads)):
        nw = sum(p.weight * p.model_grads[layer][0] for p in ordered)
        nb = sum(p.weight * p.model_grads[layer][1] for p in ordered)
        model.append((nw / total, nb / total))
    return ent, rel, model


# --- selection ---------------------------------------------------------------

def test_select_all():
    assert select_clients(5, 5, derive_rng(0, 0)) == [0, 1, 2, 3, 4]


def test_select_lastfm_scale_distinct():
    # 32 of 1,872 clients
    chosen = select_clients(1872, 32, derive_rng(1, 0))
    assert len(chosen) == len(set(chosen)) == 32
    assert all(0 <= c < 1872 for c in chosen)


def test_select_seed_determinism():
    assert select_clients(100, 10, derive_rng(2, 0)) == select_clients(100, 10, derive_rng(2, 0))
    assert select_clients(100, 10, derive_rng(2, 0)) != select_clients(100, 10, derive_rng(3, 0))


def test_select_too_many_is_error():
    with pytest.raises(ValueError):
        select_clients(4, 5, derive_rng(4, 0))


# --- request serving ---------------------------------------------------------

def test_serve_ships_at_most_anchor_plus_k_vectors():
    triples = [Triple(0, 0, t) for t in range(1, 8)]
    kg = build_kg(triples, 8, 1)
    params = init_params(8, 1, 4, derive_rng(5, 0), depth=1)
    resp = serve_request(RequestMessage(0, [0]), kg, params, 4, 1, derive_rng(6, 0))
    assert len(resp.entity_rows) == len(resp.subgraph.entities) <= 5


def test_serve_only_subgraph_rows():
    triples = [Triple(0, 0, 1), Triple(2, 0, 3)]
    kg = build_kg(triples, 6, 1)
    params = init_params(6, 1, 4, derive_rng(7, 0), depth=1)
    resp = serve_request(RequestMessage(0, [0]), kg, params, 2, 1, derive_rng(8, 0))
    assert np.array_equal(resp.entity_rows, params.entity_emb[resp.subgraph.entities])
    assert np.array_equal(resp.relation_rows, params.relation_emb[resp.subgraph.relations])
    assert 2 not in resp.subgraph.entities and 3 not in resp.subgraph.entities


def test_serve_depth_zero_anchors_and_model_only():
    kg = build_kg([Triple(0, 0, 1)], 3, 1)
    params = init_params(3, 1, 4, derive_rng(9, 0), depth=0)
    resp = serve_request(RequestMessage(0, [0, 1]), kg, params, 4, 0, derive_rng(10, 0))
    assert resp.subgraph.entities.tolist() == [0, 1]
    assert resp.entity_rows.shape == (2, 4)
    assert resp.relation_rows.shape == (0, 4)
    assert resp.model.depth == 0


def test_serve_unknown_item_names_id():
    kg = build_kg([Triple(0, 0, 1)], 2, 1)
    params = init_params(2, 1, 4, derive_rng(11, 0), depth=1)
    with pytest.raises(RequestError, match="7"):
        serve_request(RequestMessage(0, [7]), kg, params, 2, 1, derive_rng(12, 0))


# --- aggregation -------------------------------------------------------------

def test_aggregate_weighted_mean_example():
    a = GradientPacket(SparseGrad(), SparseGrad(), [], None, 1, 0.0, client_id=0)
    a.entity_grads.add(5, np.array([2.0]))
    b = GradientPacket(SparseGrad(), SparseGrad(), [], None, 3, 0.0, client_id=1)
    b.entity_grads.add(5, np.array([6.0]))
    avg = aggregate([a, b])
    assert avg.entity[5][0] == 5.0  # (1*2 + 3*6) / 4, exactly


def test_aggregate_single_packet_unchanged():
    rng = derive_rng(13, 0)
    p = _random_packet(rng, client_id=0)
    avg = aggregate([p])
    for idx in p.entity_grads.ids():
        assert np.allclose(avg.entity[idx], p.entity_grads.entries[idx], rtol=1e-12)


def test_aggregate_disjoint_entities_keep_sole_contributor():
    a = GradientPacket(SparseGrad(), SparseGrad(), [], None, 2, 0.0, client_id=0)
    a.entity_grads.add(1, np.array([3.0]))
    b = GradientPacket(SparseGrad(), SparseGrad(), [], None, 5, 0.0, client_id=1)
    b.entity_grads.add(2, np.array([-4.0]))
    avg = aggregate([a, b])
    ent, _, _ = brute_force_mean([a, b])
    assert np.allclose(avg.entity[1], 3.0, rtol=1e-12)
    assert np.allclose(avg.entity[2], -4.0, rtol=1e-12)
    assert np.allclose(avg.entity[1], ent[1], rtol=1e-12)


def test_aggregate_matches_brute_force_oracle():
    rng = derive_rng(14, 0)
    for trial in range(25):
        packets = [_random_packet(rng, client_id=c)
                   for c in range(int(rng.integers(1, 7)))]
        avg = aggregate(packets)
        ent, rel, model = brute_force_mean(packets)
        for idx, vec in ent.items():
            np.testing.assert_allclose(avg.entity[idx], vec, rtol=1e-12)
        for idx, vec in rel.items():
            np.testing.assert_allclose(avg.relation[idx], vec, rtol=1e-12)
        for (aw, ab), (ow, ob) in zip(avg.model, model):
            np.testing.assert_allclose(aw, ow, rtol=1e-12)
            np.testing.assert_allclose(ab, ob, rtol=1e-12)


def test_aggregate_permutation_invariant_bitwise():
    rng = derive_rng(15, 0)
    packets = [_random_packet(rng, client_id=c) for c in range(5)]
    fwd = aggregate(packets)
    rev = aggregate(packets[::-1])
    mid = aggregate([packets[2], packets[0], packets[4], packets[1], packets[3]])
    for other in (rev, mid):
        for part in ("entity", "relation"):
            ours, theirs = getattr(fwd, part), getattr(other, part)
            assert np.array_equal(ours.ids(), theirs.ids())
            assert np.array_equal(ours.rows(), theirs.rows())


def sequential_mean(packets, attr):
    """Per-id accumulation in client-id order, one id at a time."""
    num, den = {}, {}
    for p in sorted(packets, key=lambda p: p.client_id):
        w = float(p.weight)
        grads = getattr(p, attr)
        for idx, row in zip(grads.ids().tolist(), grads.rows()):
            if idx in num:
                num[idx] = num[idx] + w * row
                den[idx] += w
            else:
                num[idx] = w * row
                den[idx] = w
    return {idx: num[idx] / den[idx] for idx in sorted(num)}


def test_aggregate_matches_sequential_reference_bitwise():
    rng = derive_rng(17, 0)
    for trial in range(25):
        packets = [_random_packet(rng, client_id=c) for c in range(int(rng.integers(2, 7)))]
        packets[0].entity_grads.add(50, np.full(3, -0.0))  # touched by one client only
        packets[-1].relation_grads = SparseGrad()
        order = rng.permutation(len(packets))
        avg = aggregate([packets[i] for i in order])
        for part, attr in (("entity", "entity_grads"), ("relation", "relation_grads")):
            want = sequential_mean(packets, attr)
            got = getattr(avg, part)
            assert got.ids().tolist() == list(want)
            assert got.rows().tobytes() == np.array(list(want.values())).tobytes()
        assert 50 in avg.entity


def test_aggregate_equal_weights_is_plain_mean():
    rng = derive_rng(16, 0)
    packets = []
    for c in range(3):
        p = GradientPacket(SparseGrad(), SparseGrad(), [], None, 4, 0.0, client_id=c)
        p.entity_grads.add(0, rng.normal(size=3))
        packets.append(p)
    avg = aggregate(packets)
    plain = np.mean([p.entity_grads.entries[0] for p in packets], axis=0)
    np.testing.assert_allclose(avg.entity[0], plain, rtol=1e-12)


def test_aggregate_empty_is_contract_violation():
    with pytest.raises(ValueError):
        aggregate([])


# --- rounds ------------------------------------------------------------------

def _small_federation(**overrides):
    cfg = ExperimentConfig(users=20, items=16, attributes=4, relations=2,
                           interactions_per_user=5, clients_per_round=6,
                           max_rounds=5, eval_every=0, seed=123, **overrides)
    dataset = build_dataset(cfg)
    params, user_emb, clients = setup_state(cfg, dataset)
    return cfg, dataset, params, user_emb, clients


def test_round_zero_gradients_leave_state_unchanged():
    cfg, dataset, params, user_emb, clients = _small_federation(noise_scale=0.0)
    user_emb[...] = 0.0  # zero readout gradient -> zero uploaded gradients
    snap_e = params.entity_emb.copy()
    snap_r = params.relation_emb.copy()
    snap_w = [w.copy() for w in params.model.weights]
    run_round(params, dataset.kg, clients, round_config(cfg, dataset), 0)
    assert np.array_equal(params.entity_emb, snap_e)
    assert np.array_equal(params.relation_emb, snap_r)
    for w, snap in zip(params.model.weights, snap_w):
        assert np.array_equal(w, snap)


def test_round_updates_state():
    cfg, dataset, params, user_emb, clients = _small_federation()
    snap = params.entity_emb.copy()
    report = run_round(params, dataset.kg, clients, round_config(cfg, dataset), 0)
    assert report.participants == 6
    assert report.mean_loss > 0
    assert not np.array_equal(params.entity_emb, snap)


def test_round_failure_is_atomic():
    from fedkg.rng import ROLE_SELECT

    cfg, dataset, params, user_emb, clients = _small_federation()
    rcfg = round_config(cfg, dataset)
    selected = select_clients(len(clients), rcfg.clients_per_round,
                              derive_rng(rcfg.seed, ROLE_SELECT, 0))
    clients[selected[2]].interactions.add(dataset.num_entities + 40)
    snap_e = params.entity_emb.copy()
    snap_users = user_emb.copy()
    with pytest.raises(RequestError):
        run_round(params, dataset.kg, clients, rcfg, 0)
    assert np.array_equal(params.entity_emb, snap_e)
    assert np.array_equal(user_emb, snap_users)


def test_round_parallel_matches_sequential_bitwise():
    runs = {}
    for workers in (1, 4):
        cfg, dataset, params, user_emb, clients = _small_federation(workers=workers)
        rcfg = round_config(cfg, dataset)
        for r in range(3):
            run_round(params, dataset.kg, clients, rcfg, r)
        runs[workers] = (params.entity_emb.copy(), user_emb.copy())
    assert np.array_equal(runs[1][0], runs[4][0])
    assert np.array_equal(runs[1][1], runs[4][1])


def test_json_transport_matches_memory_bitwise():
    runs = {}
    for transport in ("memory", "json"):
        cfg, dataset, params, user_emb, clients = _small_federation(transport=transport)
        rcfg = round_config(cfg, dataset)
        for r in range(2):
            run_round(params, dataset.kg, clients, rcfg, r)
        runs[transport] = params.entity_emb.copy()
    assert np.array_equal(runs["memory"], runs["json"])


def test_train_zero_rounds_noop():
    cfg, dataset, params, user_emb, clients = _small_federation()
    snap = params.entity_emb.copy()
    history = train(params, dataset.kg, clients, user_emb, dataset,
                    round_config(cfg, dataset), max_rounds=0)
    assert history == []
    assert np.array_equal(params.entity_emb, snap)


def test_train_patience_stops_on_plateau():
    # depth 0 makes evaluation sampling-free, so a frozen model plateaus exactly
    cfg, dataset, params, user_emb, clients = _small_federation(eta=1e-12, depth=0)
    rcfg = round_config(cfg, dataset)
    history = train(params, dataset.kg, clients, user_emb, dataset, rcfg,
                    max_rounds=50, eval_every=1, patience=2)
    # first eval sets the best; the next `patience` evals never improve
    assert len(history) == 3


def test_train_history_length_matches_eval_schedule():
    cfg, dataset, params, user_emb, clients = _small_federation()
    history = train(params, dataset.kg, clients, user_emb, dataset,
                    round_config(cfg, dataset), max_rounds=6, eval_every=2,
                    patience=100)
    assert len(history) == 3
    assert [h["round"] for h in history] == [1, 3, 5]
