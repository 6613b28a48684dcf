import dataclasses
import hashlib
import threading
import time

import numpy as np
import pytest

from fedkg.cli import build_dataset, round_config, setup_state
from fedkg.client import build_request, local_train, merge_graphs
from fedkg.config import ExperimentConfig
from fedkg.data import unobserved_items
from fedkg.kg import build_kg
from fedkg.messages import GradientUpload, RequestMessage
from fedkg.model import GradientPacket, SparseGrad
from fedkg.params import apply_global_update, init_params
from fedkg.privacy import ldp_encrypt
from fedkg.rng import ROLE_CLIENT, ROLE_SELECT, ROLE_SERVE, derive_rng
from fedkg.server import (AggregatedGradient, RequestError, UploadError, aggregate, run_round,
                          select_clients, serve_request, train)


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
    triples = [(0, 0, t) for t in range(1, 8)]
    kg = build_kg(triples, 8, 1)
    params = init_params(8, 1, 4, derive_rng(5, 0), depth=1)
    resp = serve_request(RequestMessage(0, [0]), kg, params, 4, 1, derive_rng(6, 0))
    assert len(resp.entity_rows) == len(resp.subgraph.entities) <= 5


def test_serve_only_subgraph_rows():
    triples = [(0, 0, 1), (2, 0, 3)]
    kg = build_kg(triples, 6, 1)
    params = init_params(6, 1, 4, derive_rng(7, 0), depth=1)
    resp = serve_request(RequestMessage(0, [0]), kg, params, 2, 1, derive_rng(8, 0))
    assert np.array_equal(resp.entity_rows, params.entity_emb[resp.subgraph.entities])
    assert np.array_equal(resp.relation_rows, params.relation_emb[resp.subgraph.relations])
    assert 2 not in resp.subgraph.entities and 3 not in resp.subgraph.entities


def test_serve_depth_zero_anchors_and_model_only():
    kg = build_kg([(0, 0, 1)], 3, 1)
    params = init_params(3, 1, 4, derive_rng(9, 0), depth=0)
    resp = serve_request(RequestMessage(0, [0, 1]), kg, params, 4, 0, derive_rng(10, 0))
    assert resp.subgraph.entities.tolist() == [0, 1]
    assert resp.entity_rows.shape == (2, 4)
    assert resp.relation_rows.shape == (0, 4)
    assert resp.model.depth == 0


def test_serve_unknown_item_names_id():
    kg = build_kg([(0, 0, 1)], 2, 1)
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


def test_aggregate_rejects_mismatched_model_layers():
    def packet(client_id, weight, shapes):
        return GradientPacket(SparseGrad(), SparseGrad(),
                              [(np.ones((r, c)), np.ones(r)) for r, c in shapes],
                              None, weight, 0.0, client_id=client_id)

    for first, second in (((2, 2), (2, 2)), ((2, 2),)), (((2, 2),), ((2, 2), (2, 2))):
        for order in ((0, 1), (1, 0)):  # either packet may come first
            packets = [packet(0, 1, first), packet(1, 3, second)]
            with pytest.raises(ValueError, match="model gradients"):
                aggregate([packets[i] for i in order])
    with pytest.raises(ValueError, match="model gradients"):
        aggregate([packet(0, 1, [(2, 2)]), packet(1, 3, [(2, 3)])])


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


def test_round_failure_is_atomic(monkeypatch):
    from fedkg import server
    from fedkg.rng import ROLE_SELECT

    def nan_upload(target):
        def encrypt(packet, config, rng):
            protected = ldp_encrypt(packet, config, rng)
            if packet.client_id == target:
                protected.entity_grads.rows()[0] = np.nan
            return protected
        return encrypt

    # the failing client is the last selected, so at workers=3 the batches before
    # its own have already trained and stepped their users when it fails
    for workers in (1, 3):
        for failure in ("client-leg", "global-update"):
            monkeypatch.undo()
            cfg, dataset, params, user_emb, clients = _small_federation(workers=workers)
            rcfg = round_config(cfg, dataset)
            selected = select_clients(len(clients), rcfg.clients_per_round,
                                      derive_rng(rcfg.seed, ROLE_SELECT, 0))
            if failure == "client-leg":  # the server rejects the request
                clients[selected[-1]].interactions.add(dataset.kg.num_entities + 40)
                error, match = RequestError, "unknown item"
            else:  # every leg succeeds; apply_global_update rejects the NaN row
                monkeypatch.setattr(server, "ldp_encrypt", nan_upload(selected[-1]))
                error, match = ValueError, "non-finite"
            before = params.copy()
            snap_users = user_emb.copy()
            with pytest.raises(error, match=match):
                run_round(params, dataset.kg, clients, rcfg, 0)
            assert np.array_equal(params.entity_emb, before.entity_emb), (workers, failure)
            assert np.array_equal(user_emb, snap_users), (workers, failure)
            for got, want in zip([params.relation_emb, *params.model.weights,
                                  *params.model.biases],
                                 [before.relation_emb, *before.model.weights,
                                  *before.model.biases]):
                assert np.array_equal(got, want), (workers, failure)


def test_round_batches_run_one_at_a_time_in_client_order_off_the_callers_thread(monkeypatch):
    from fedkg import server
    from fedkg.rng import ROLE_SELECT

    batch_round = server._batch_round
    for workers in (2, 3):
        cfg, dataset, params, user_emb, clients = _small_federation(workers=workers)
        rcfg = round_config(cfg, dataset)
        selected = select_clients(len(clients), rcfg.clients_per_round,
                                  derive_rng(rcfg.seed, ROLE_SELECT, 0))
        lock = threading.Lock()
        active, peak, calls = [0], [0], []

        def record(members, *args):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                calls.append(([m.user_id for m in members], threading.get_ident()))
            try:
                time.sleep(0.02)  # a batch on another thread would enter meanwhile
                return batch_round(members, *args)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(server, "_batch_round", record)
        run_round(params, dataset.kg, clients, rcfg, 0)
        assert peak[0] == 1, workers
        assert [ids for ids, _ in calls] == \
            [part.tolist() for part in np.array_split(selected, workers)], workers
        assert threading.get_ident() not in {thread for _, thread in calls}, workers


def test_round_runs_start_to_finish_on_one_thread(monkeypatch):
    # workers > 1: serving, aggregation and the update all run on one worker thread;
    # workers = 1: all on the caller's
    from fedkg import server

    for workers in (1, 2, 3):
        monkeypatch.undo()
        cfg, dataset, params, user_emb, clients = _small_federation(workers=workers)
        threads = {}

        def on_thread(name):
            fn = getattr(server, name)

            def wrapped(*args):
                threads.setdefault(name, set()).add(threading.get_ident())
                return fn(*args)
            return wrapped

        for name in ("_batch_round", "aggregate", "apply_global_update"):
            monkeypatch.setattr(server, name, on_thread(name))
        run_round(params, dataset.kg, clients, round_config(cfg, dataset), 0)
        assert set(threads) == {"_batch_round", "aggregate", "apply_global_update"}
        (thread,) = set.union(*threads.values())
        assert (thread == threading.get_ident()) == (workers == 1), workers


def test_round_interrupt_rolls_back(monkeypatch):
    # a KeyboardInterrupt after a batch has trained and stepped its users
    from fedkg import server

    batch_round = server._batch_round

    def interrupted(*args):
        batch_round(*args)
        raise KeyboardInterrupt

    monkeypatch.setattr(server, "_batch_round", interrupted)
    for workers in (1, 3):
        cfg, dataset, params, user_emb, clients = _small_federation(workers=workers)
        before = params.copy()
        snap_users = user_emb.copy()
        with pytest.raises(KeyboardInterrupt):
            run_round(params, dataset.kg, clients, round_config(cfg, dataset), 0)
        assert np.array_equal(user_emb, snap_users), workers
        for got, want in zip([params.entity_emb, params.relation_emb, *params.model.weights,
                              *params.model.biases],
                             [before.entity_emb, before.relation_emb, *before.model.weights,
                              *before.model.biases]):
            assert np.array_equal(got, want), workers


def _unbound(case, target, num_entities):
    """ldp_encrypt stand-in that breaks one binding of `target`'s upload."""
    def encrypt(packet, config, rng):
        protected = ldp_encrypt(packet, config, rng)
        if packet.client_id != target:
            return protected
        if case == "unserved-entity":  # in range, finite, never served
            ent = protected.entity_grads
            extra = int(np.setdiff1d(np.arange(num_entities), ent.ids())[0])
            ids = np.sort(np.append(ent.ids(), extra))
            rows = np.insert(ent.rows(), np.searchsorted(ids, extra), 0.25, axis=0)
            protected.entity_grads = SparseGrad(ids, rows)
        elif case == "dropped-relation":
            rel = protected.relation_grads
            protected.relation_grads = SparseGrad(rel.ids()[1:], rel.rows()[1:])
        elif case == "inflated-weight":
            protected.weight += 5
        elif case == "dropped-layer":
            protected.model_grads = protected.model_grads[:-1]
        elif case == "reshaped-dw":
            dw, db = protected.model_grads[0]
            protected.model_grads = [(dw.reshape(1, -1), db), *protected.model_grads[1:]]
        else:  # "other-client"
            protected.client_id = target + 1000
        return protected
    return encrypt


@pytest.mark.parametrize("case", ["unserved-entity", "dropped-relation",
                                  "inflated-weight", "other-client", "dropped-layer",
                                  "reshaped-dw"])
def test_round_rejects_upload_not_bound_to_what_was_served(monkeypatch, case):
    from fedkg import server
    from fedkg.rng import ROLE_SELECT

    cfg, dataset, params, user_emb, clients = _small_federation()
    rcfg = round_config(cfg, dataset)
    target = select_clients(len(clients), rcfg.clients_per_round,
                            derive_rng(rcfg.seed, ROLE_SELECT, 0))[3]
    monkeypatch.setattr(server, "ldp_encrypt", _unbound(case, target, dataset.kg.num_entities))
    before = params.copy()
    snap_users = user_emb.copy()
    with pytest.raises(UploadError, match=f"client {target}"):
        run_round(params, dataset.kg, clients, rcfg, 0)
    assert np.array_equal(params.entity_emb, before.entity_emb)
    assert np.array_equal(params.relation_emb, before.relation_emb)
    for w, b, w0, b0 in zip(params.model.weights, params.model.biases,
                            before.model.weights, before.model.biases):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    assert np.array_equal(user_emb, snap_users)


def test_round_trains_every_batch_on_one_read_only_global_model(monkeypatch):
    from fedkg import server
    from fedkg.client import build_request, local_train, merge_graphs
    from fedkg.privacy import DpConfig

    cfg, dataset, params, user_emb, clients = _small_federation(
        workers=2, mode="transform", epochs=2, depth=2)
    rcfg = round_config(cfg, dataset)
    models = []

    def capture(states, graph, model, eta, epochs):
        models.append(model)
        return local_train(states, graph, model, eta, epochs)

    monkeypatch.setattr(server, "local_train", capture)
    run_round(params, dataset.kg, clients, rcfg, 0)
    assert len(models) == 2
    for model in models:
        for layer, own in zip([*model.weights, *model.biases],
                              [*params.model.weights, *params.model.biases]):
            assert np.shares_memory(layer, own) and not layer.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                layer[...] = 0.0

    # a single client served the global model steps only its own copies
    client = clients[0]
    plan, msg = build_request(client, unobserved_items(client.interactions, rcfg.num_items),
                              DpConfig(flip_rate=0.0, pseudo_count=1), derive_rng(5, 0))
    response = serve_request(msg, dataset.kg, params, 2, 2, derive_rng(5, 1))
    assert response.model is params.model
    before = params.copy()
    packet = local_train(client, merge_graphs(plan, response, client.user_embedding),
                         response.model, eta=0.5, epochs=2)
    assert any(np.any(dw != 0) for dw, _ in packet.model_grads)
    for got, want in zip([*params.model.weights, *params.model.biases],
                         [*before.model.weights, *before.model.biases]):
        assert np.array_equal(got, want)


def test_negative_pool_matches_setdiff1d_reference():
    rng = np.random.default_rng(3)
    for case in range(200):
        num_items = int(rng.integers(0, 60))
        ids = rng.integers(-20, num_items + 20, size=int(rng.integers(0, 30)))
        interactions = {int(i) for i in ids}
        want = np.setdiff1d(np.arange(num_items),
                            np.array(sorted(interactions), dtype=np.int64))
        got = unobserved_items(interactions, num_items)
        assert got.dtype == want.dtype and np.array_equal(got, want), case
        crng_a, crng_b = np.random.default_rng(case), np.random.default_rng(case)
        assert np.array_equal(crng_a.permutation(got), crng_b.permutation(want))


def test_round_parallel_matches_sequential_bitwise():
    # workers is the number of contiguous batches of the 6 clients; 4 gives (2, 2, 1, 1),
    # 8 six batches of one and two empty parts, which are skipped
    for setting in ({}, {"transport": "json", "depth": 2, "epochs": 2}):
        runs = {}
        for workers in (1, 2, 3, 4, 6, 8):
            cfg, dataset, params, user_emb, clients = _small_federation(workers=workers,
                                                                        **setting)
            rcfg = round_config(cfg, dataset)
            wire = []
            for r in range(3):
                run_round(params, dataset.kg, clients, rcfg, r, wire_sink=wire.append)
            runs[workers] = [params.entity_emb, params.relation_emb, *params.model.weights,
                             *params.model.biases, user_emb,
                             np.frombuffer(b"".join(wire), dtype=np.uint8)]
        assert bool(setting) == (len(runs[1][-1]) > 0)
        for workers, arrays in runs.items():
            assert all(np.array_equal(a, b) for a, b in zip(runs[1], arrays)), (setting, workers)


def _reference_round(params, kg, clients, cfg, round_index):
    """One round rebuilt from per-client parts; returns its mean loss and wire bytes.

    Per selected client, in id order, on its own streams: an np.setdiff1d
    pool and its permutation, the request, serving, merging, local_train on
    that client alone and LDP, each server-bound message round-tripped
    through its bytes over json. Then a dict-per-id weighted mean in client
    order, the sums starting from -0.0, and the global update.
    """
    selected = select_clients(len(clients), cfg.clients_per_round,
                              derive_rng(cfg.seed, ROLE_SELECT, round_index))
    packets, wire = [], []
    for cid in selected:
        client = clients[cid]
        crng = derive_rng(cfg.seed, ROLE_CLIENT, round_index, cid)
        srng = derive_rng(cfg.seed, ROLE_SERVE, round_index, cid)
        pool = np.setdiff1d(np.arange(cfg.num_items),
                            np.array(sorted(client.interactions), dtype=np.int64))
        plan, msg = build_request(client, crng.permutation(pool), cfg.dp, crng)
        if cfg.transport == "json":
            wire.append(msg.to_json_bytes())
            msg = RequestMessage.from_json_bytes(wire[-1])
        response = serve_request(msg, kg, params, cfg.sample_size, cfg.depth, srng)
        graph = merge_graphs(plan, response, client.user_embedding)
        packet = ldp_encrypt(local_train(client, graph, params.model, cfg.eta, cfg.epochs),
                             cfg.dp, crng)
        if cfg.transport == "json":
            wire.append(GradientUpload.from_packet(packet).to_json_bytes())
            packet = GradientUpload.from_json_bytes(wire[-1]).to_packet()
        packets.append(packet)

    weights = [float(p.weight) for p in packets]
    sparse = []
    for attr in ("entity_grads", "relation_grads"):
        num, den = {}, {}
        for w, p in zip(weights, packets):
            grads = getattr(p, attr)
            for idx, row in zip(grads.ids().tolist(), grads.rows()):
                num[idx] = num.get(idx, -0.0) + w * row
                den[idx] = den.get(idx, 0.0) + w
        ids = sorted(num)
        sparse.append(SparseGrad(ids, [num[i] / den[i] for i in ids]) if ids else SparseGrad())
    total = sum(weights)
    model = []
    for layer, (dw0, db0) in enumerate(packets[0].model_grads):
        nw, nb = np.zeros_like(dw0), np.zeros_like(db0)
        for w, p in zip(weights, packets):
            nw += w * p.model_grads[layer][0]
            nb += w * p.model_grads[layer][1]
        model.append((nw / total, nb / total))
    apply_global_update(params, AggregatedGradient(*sparse, model), cfg.eta)
    return float(np.mean([p.loss for p in packets])), wire


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("transport", ["memory", "json"])
@pytest.mark.parametrize("setting", [{}, {"depth": 2, "epochs": 2}],
                         ids=["readme", "depth2-epochs2"])
def test_round_matches_per_client_reference_bitwise(setting, transport, workers):
    # the README config (seed 7), and H = 2 with two local epochs
    runs = []
    for _ in range(2):
        cfg = ExperimentConfig(workers=workers, transport=transport, **setting)
        dataset = build_dataset(cfg)
        runs.append((dataset, *setup_state(cfg, dataset)))
    rcfg = round_config(cfg, dataset)
    (dataset, params, user_emb, clients), (ref_data, ref_params, ref_users, ref_clients) = runs
    for r in range(3):
        wire = []
        report = run_round(params, dataset.kg, clients, rcfg, r, wire_sink=wire.append)
        loss, ref_wire = _reference_round(ref_params, ref_data.kg, ref_clients, rcfg, r)
        assert report.mean_loss == loss
        assert wire == ref_wire and bool(wire) == (transport == "json")
        for got, want in zip([params.entity_emb, params.relation_emb, *params.model.weights,
                              *params.model.biases, user_emb],
                             [ref_params.entity_emb, ref_params.relation_emb,
                              *ref_params.model.weights, *ref_params.model.biases, ref_users]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), r


def test_wire_bytes_pinned_without_noise():
    # with lambda = 0 the wire carries the raw gradients, signs of zero included
    digest = hashlib.sha256()
    for mode in ("replace", "transform"):
        cfg, dataset, params, user_emb, clients = _small_federation(
            transport="json", noise_scale=0.0, depth=2, epochs=2, mode=mode)
        rcfg = round_config(cfg, dataset)
        for r in range(3):
            run_round(params, dataset.kg, clients, rcfg, r, wire_sink=digest.update)
    assert digest.hexdigest() == \
        "409cdaaee9c9d5f90bb92cebdd71a38b7f3b3b08a53222804d4421b6def2fcbe"


def test_json_transport_matches_memory_bitwise():
    runs = {}
    for transport in ("memory", "json"):
        cfg, dataset, params, user_emb, clients = _small_federation(transport=transport)
        rcfg = round_config(cfg, dataset)
        for r in range(2):
            run_round(params, dataset.kg, clients, rcfg, r)
        runs[transport] = params.entity_emb.copy()
    assert np.array_equal(runs["memory"], runs["json"])


@pytest.mark.parametrize("field, value", [("workers", 0), ("workers", -2),
                                          ("transport", "JSON"), ("transport", ""),
                                          ("epochs", 0), ("sample_size", 0),
                                          ("clients_per_round", 0), ("depth", -1),
                                          ("eta", 0.0), ("eta", -1.0), ("eta", float("nan")),
                                          ("eta", float("inf")), ("seed", -1)])
def test_round_config_rejects_workers_and_transport_outside_bounds(field, value):
    cfg, dataset, *_ = _small_federation()
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(round_config(cfg, dataset), **{field: value})


@pytest.mark.parametrize("eval_every, patience", [(-3, 0), (-3, 10), (2, 0)])
def test_train_rejects_schedule_outside_config_bounds(eval_every, patience):
    cfg, dataset, params, user_emb, clients = _small_federation()
    snap = params.entity_emb.copy()
    with pytest.raises(ValueError, match="eval_every must be >= 0|patience must be >= 1"):
        train(params, dataset.kg, clients, user_emb, dataset, round_config(cfg, dataset),
              max_rounds=6, eval_every=eval_every, patience=patience)
    assert np.array_equal(params.entity_emb, snap)


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
