import numpy as np
import pytest

from fedkg.client import ClientState, ProtocolError, build_request, local_train, merge_graphs
from fedkg.kg import build_kg
from fedkg.model import backward, forward_loss
from fedkg.params import init_params
from fedkg.privacy import DpConfig
from fedkg.rng import derive_rng
from fedkg.server import serve_request


def _setup(num_entities=12, num_items=8, depth=1, k=2, seed=0, mode="transform"):
    rng = derive_rng(seed, 50)
    triples = [(i, i % 2, num_items + (i % 3)) for i in range(num_items)]
    kg = build_kg(triples, num_entities, 2)
    params = init_params(num_entities, 2, 4, rng, depth=depth, mode=mode)
    client = ClientState(user_id=3, user_embedding=rng.uniform(-0.5, 0.5, 4),
                         interactions={1, 4, 6})
    return kg, params, client


def _serve(client, kg, params, dp, k=2, depth=1, seed=0):
    crng = derive_rng(seed, 51, client.user_id)
    negatives = [i for i in range(8) if i not in client.interactions]
    plan, msg = build_request(client, negatives, dp, crng)
    response = serve_request(msg, kg, params, k, depth, derive_rng(seed, 52))
    return plan, msg, response


def test_request_without_obfuscation_equals_interactions():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg = build_request(client, [0, 2], dp, derive_rng(1, 0))
    assert set(msg.items) == client.interactions
    assert plan.local_labels == [1, 1, 1]


def test_request_serialization_has_no_private_fields():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.2, pseudo_count=2)
    _, msg = build_request(client, [0, 2, 3], dp, derive_rng(2, 0))
    raw = msg.to_json_bytes()
    assert b"label" not in raw and b"embedding" not in raw and b"user_emb" not in raw


def test_request_same_seed_identical():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.3, pseudo_count=2)
    plan_a, msg_a = build_request(client, [0, 2, 3], dp, derive_rng(3, 0))
    plan_b, msg_b = build_request(client, [0, 2, 3], dp, derive_rng(3, 0))
    assert msg_a == msg_b
    assert plan_a.local_labels == plan_b.local_labels


def test_merge_depth_zero_anchors_only():
    kg, params, client = _setup(depth=0)
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp, depth=0)
    graph = merge_graphs(plan, response, client.user_embedding)
    assert graph.subgraph.entities.tolist() == sorted(client.interactions)
    assert graph.entity_rows.shape == (len(client.interactions), 4)
    assert graph.subgraph.layers == []


def test_merge_entity_count_bound():
    # 2 anchors, K=4, H=1: at most 2 anchors + 8 sampled entities
    kg, params, _ = _setup()
    client = ClientState(user_id=1, user_embedding=np.zeros(4), interactions={1, 4})
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp, k=4, depth=1)
    graph = merge_graphs(plan, response, client.user_embedding)
    assert len(graph.entity_rows) == len(graph.subgraph.entities) <= 10


def test_merge_shared_anchor_neighbor_single_vector():
    # anchors 0 and 1 are linked, so 1 appears in 0's receptive field too
    kg = build_kg([(0, 0, 1)], 2, 1)
    params = init_params(2, 1, 4, derive_rng(4, 0), depth=1)
    client = ClientState(user_id=0, user_embedding=np.zeros(4), interactions={0, 1})
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp, k=2, depth=1)
    graph = merge_graphs(plan, response, client.user_embedding)
    assert graph.subgraph.entities.tolist() == [0, 1]
    assert len(graph.entity_rows) == 2  # one shared vector per entity id


def test_merge_missing_anchor_is_protocol_error():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp)
    full_ids, full_rows = response.subgraph.ids[0], response.entity_rows
    response.subgraph.ids[0] = full_ids[1:]
    with pytest.raises(ProtocolError):
        merge_graphs(plan, response, client.user_embedding)
    response.subgraph.ids[0], response.entity_rows = full_ids, full_rows[1:]
    with pytest.raises(ProtocolError):
        merge_graphs(plan, response, client.user_embedding)


def test_local_train_records_forward_loss():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp)
    graph = merge_graphs(plan, response, client.user_embedding)
    expected_loss, _ = forward_loss(graph, response.model)
    packet = local_train(client, graph, response.model, eta=0.0001, epochs=1)
    assert abs(packet.loss - expected_loss) < 1e-15
    assert packet.weight == len(plan.request_items)


def test_local_train_updates_own_user_embedding():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    before = client.user_embedding.copy()
    plan, msg, response = _serve(client, kg, params, dp)
    graph = merge_graphs(plan, response, client.user_embedding)
    packet = local_train(client, graph, response.model, eta=0.5, epochs=1)
    assert np.allclose(client.user_embedding, before - 0.5 * packet.user_grad)


def test_local_train_epochs_differ():
    kg, params, client = _setup()
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)

    def fresh():
        c = ClientState(client.user_id, client.user_embedding.copy(),
                        set(client.interactions))
        plan, msg, response = _serve(c, kg, params, dp)
        return c, merge_graphs(plan, response, c.user_embedding), response.model

    packets = [local_train(*fresh(), eta=0.2, epochs=epochs) for epochs in (1, 2)]
    one, two = packets
    idx = one.entity_grads.ids()[0]
    assert not np.allclose(one.entity_grads.entries[idx],
                           two.entity_grads.entries[idx])

    # the upload sums both epochs; the second sees rows, model and user stepped
    c, graph, model = fresh()
    first = backward(graph, model)
    c.user_embedding -= 0.2 * first.user_grad
    graph.entity_rows = graph.entity_rows - 0.2 * first.entity_grads.rows()
    graph.relation_rows = graph.relation_rows - 0.2 * first.relation_grads.rows()
    model = model.copy()
    for layer, (dw, db) in enumerate(first.model_grads):
        model.weights[layer] -= 0.2 * dw
        model.biases[layer] -= 0.2 * db
    second = backward(graph, model)
    assert np.array_equal(two.entity_grads.ids(), graph.subgraph.entities)
    assert np.array_equal(two.entity_grads.rows(),
                          first.entity_grads.rows() + second.entity_grads.rows())


def test_local_train_near_zero_packet_at_flat_optimum():
    # saturated predictions match their labels: the clamped loss is flat
    kg, params, _ = _setup(mode="replace")
    client = ClientState(user_id=2, user_embedding=np.full(4, 50.0),
                         interactions={1, 4})
    dp = DpConfig(flip_rate=0.0, pseudo_count=0)
    plan, msg, response = _serve(client, kg, params, dp)
    response.entity_rows[...] = 50.0
    graph = merge_graphs(plan, response, client.user_embedding)
    packet = local_train(client, graph, response.model, eta=0.1, epochs=1)
    norm = sum(float(np.abs(v).sum()) for v in packet.entity_grads.entries.values())
    assert norm == 0.0
