"""Trace counters against a brute-force recount of one round, and tracing inertness."""

import numpy as np
import pytest

from fedkg import server
from fedkg.cli import build_dataset, round_config, setup_state
from fedkg.client import build_request, local_train, merge_graphs
from fedkg.config import ExperimentConfig
from fedkg.messages import GradientUpload, RequestMessage
from fedkg.privacy import ldp_encrypt
from fedkg.rng import ROLE_CLIENT, ROLE_SELECT, ROLE_SERVE, derive_rng
from layers import boundary_targets, layer_metrics, layer_targets
from tracer import Tracer

ROUND = 2


@pytest.fixture(scope="module")
def setting():
    # a small clip threshold and a high flip rate so both ratios are well inside (0, 1)
    cfg = ExperimentConfig(users=30, items=24, attributes=6, clients_per_round=6,
                           depth=2, transport="json", clip_threshold=0.005,
                           flip_rate=0.3, seed=11)
    dataset = build_dataset(cfg)
    return cfg, dataset, round_config(cfg, dataset)


def _traced_round(setting):
    cfg, dataset, rcfg = setting
    params, _, clients = setup_state(cfg, dataset)
    tr = Tracer()
    tr.install(boundary_targets() + layer_targets())
    try:
        server.run_round(params, dataset.kg, clients, rcfg, ROUND)
    finally:
        tr.uninstall()
    return tr, params, clients


def _brute_force(setting) -> dict:
    """Replay the round's client legs by hand and count element by element."""
    cfg, dataset, rcfg = setting
    params, _, clients = setup_state(cfg, dataset)
    selected = server.select_clients(len(clients), rcfg.clients_per_round,
                                     derive_rng(cfg.seed, ROLE_SELECT, ROUND))
    counts = dict(flipped=0, items=0, clipped=0, elements=0, upload_bytes=0)
    entity_ids, relation_ids = set(), set()
    for cid in selected:
        client = clients[cid]
        crng = derive_rng(cfg.seed, ROLE_CLIENT, ROUND, cid)
        srng = derive_rng(cfg.seed, ROLE_SERVE, ROUND, cid)
        pool = np.setdiff1d(np.arange(rcfg.num_items),
                            np.array(sorted(client.interactions), dtype=np.int64))
        negatives = [int(i) for i in crng.permutation(pool)]
        plan, msg = build_request(client, negatives, rcfg.dp, crng)
        for item, label in zip(plan.request_items, plan.local_labels):
            counts["items"] += 1
            counts["flipped"] += int(label != int(item in client.interactions))
        msg = RequestMessage.from_json_bytes(msg.to_json_bytes())
        response = server.serve_request(msg, dataset.kg, params, rcfg.sample_size,
                                        rcfg.depth, srng)
        graph = merge_graphs(plan, response, client.user_embedding)
        packet = local_train(client, graph, response.model, rcfg.eta, rcfg.epochs)
        vectors = list(packet.entity_grads.entries.values()) + \
            list(packet.relation_grads.entries.values()) + \
            [a for pair in packet.model_grads for a in pair]
        for vec in vectors:
            for x in np.ravel(vec):
                counts["elements"] += 1
                counts["clipped"] += int(abs(x) > rcfg.dp.delta)
        raw = GradientUpload.from_packet(ldp_encrypt(packet, rcfg.dp, crng)).to_json_bytes()
        counts["upload_bytes"] += len(raw)
        entity_ids |= set(packet.entity_grads.entries)
        relation_ids |= set(packet.relation_grads.entries)
    counts["rows_out"] = len(entity_ids) + len(relation_ids)
    return counts


def test_counters_match_brute_force_recount(setting):
    tr, _, _ = _traced_round(setting)
    want = _brute_force(setting)
    got = layer_metrics(tr)
    assert 0 < want["flipped"] < want["items"]
    assert 0 < want["clipped"] < want["elements"]
    assert got["privacy.flip_frac"] == want["flipped"] / want["items"]
    assert got["privacy.clip_frac"] == want["clipped"] / want["elements"]
    assert got["server.aggregate.rows_out"] == want["rows_out"]
    assert got["messages.upload_bytes"] == want["upload_bytes"]  # one round


def test_traced_round_is_bitwise_untraced_round(setting):
    cfg, dataset, rcfg = setting
    tr, traced_params, traced_clients = _traced_round(setting)
    params, _, clients = setup_state(cfg, dataset)
    report = server.run_round(params, dataset.kg, clients, rcfg, ROUND)
    assert np.array_equal(traced_params.entity_emb, params.entity_emb)
    assert np.array_equal(traced_params.relation_emb, params.relation_emb)
    for a, b in zip(traced_params.model.weights, params.model.weights):
        assert np.array_equal(a, b)
    for a, b in zip(traced_clients, clients):
        assert np.array_equal(a.user_embedding, b.user_embedding)
    assert tr.counters["participants"] == report.participants
