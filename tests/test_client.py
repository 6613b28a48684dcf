from dataclasses import replace

import numpy as np
import pytest

from fedkg import model
from fedkg.cli import build_dataset, round_config, setup_state
from fedkg.client import ClientState, ProtocolError, build_request, local_train, merge_graphs
from fedkg.config import ExperimentConfig
from fedkg.kg import build_kg
from fedkg.model import backward, broadcast_model, forward_loss, stack_graphs
from fedkg.params import init_params
from fedkg.privacy import DpConfig
from fedkg.rng import derive_rng
from fedkg.server import run_round, serve_request


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


@pytest.mark.parametrize("epochs", [0, -1])
def test_local_train_rejects_no_epochs(epochs):
    kg, params, client = _setup()
    plan, msg, response = _serve(client, kg, params, DpConfig(flip_rate=0.0, pseudo_count=0))
    before = client.user_embedding.copy()
    graph = merge_graphs(plan, response, client.user_embedding)
    with pytest.raises(ValueError, match="epochs"):
        local_train(client, graph, response.model, eta=0.1, epochs=epochs)
    assert np.array_equal(client.user_embedding, before)


@pytest.mark.parametrize("epochs", [1, 2])
def test_local_train_non_finite_is_a_value_error_leaving_the_user_unchanged(epochs):
    # an infinite row makes inf - inf (invalid) inside the forward pass: under
    # pytest's warnings-as-errors filter that was a RuntimeWarning; under any
    # filter it is now the ValueError, with the user embedding never stepped
    kg, params, client = _setup()
    plan, msg, response = _serve(client, kg, params, DpConfig(flip_rate=0.0, pseudo_count=0))
    before = client.user_embedding.copy()
    graph = merge_graphs(plan, response, client.user_embedding)
    graph.entity_rows = graph.entity_rows.copy()  # a served reply's rows are read-only
    graph.entity_rows[-1] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        local_train(client, graph, response.model, eta=0.1, epochs=epochs)
    assert client.user_embedding.tobytes() == before.tobytes()


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
    plan, msg, served = _serve(client, kg, params, dp)
    response = replace(served, entity_rows=np.full_like(served.entity_rows, 50.0))
    graph = merge_graphs(plan, response, client.user_embedding)
    packet = local_train(client, graph, response.model, eta=0.1, epochs=1)
    norm = sum(float(np.abs(v).sum()) for v in packet.entity_grads.entries.values())
    assert norm == 0.0


def _batch_members(depth, mode, seed):
    """A KG whose items 0-2 have no edges, and 2-5 clients.

    Client 0 requests only isolated items (0 and the negatives 1, 2);
    client 1 has one isolated anchor among 1-4 linked ones, as do the rest.
    """
    rng = derive_rng(seed, 60)
    num_items, num_attrs = 10, 6
    triples = [(i, int(rng.integers(0, 2)), num_items + int(rng.integers(0, num_attrs)))
               for i in range(3, num_items) for _ in range(2)]
    kg = build_kg(triples, num_items + num_attrs, 2)
    params = init_params(num_items + num_attrs, 2, 4, rng, depth=depth, mode=mode)
    clients = [ClientState(0, rng.uniform(-0.5, 0.5, 4), {0})]
    for cid in range(1, int(rng.integers(2, 6))):
        items = rng.choice(np.arange(3, num_items), size=int(rng.integers(1, 5)), replace=False)
        interactions = {int(i) for i in items} | ({0} if cid == 1 else set())
        clients.append(ClientState(cid, rng.uniform(-0.5, 0.5, 4), interactions))
    return kg, params, clients


def _train_members(kg, params, clients, depth, epochs, batched):
    """Serve every client from its own streams, then train them batched or one by one."""
    dp = DpConfig(flip_rate=0.2, pseudo_count=2)
    states, graphs = [], []
    for c in clients:
        state = ClientState(c.user_id, c.user_embedding.copy(), set(c.interactions))
        negatives = [i for i in range(10) if i not in c.interactions]
        plan, msg = build_request(state, negatives, dp, derive_rng(7, 51, c.user_id))
        response = serve_request(msg, kg, params, 2, depth, derive_rng(7, 52, c.user_id))
        states.append(state)
        graphs.append(merge_graphs(plan, response, state.user_embedding))
    if batched:
        packets = local_train(states, stack_graphs(graphs),
                              broadcast_model(params.model, len(states)), 0.3, epochs)
    else:
        packets = [local_train(s, g, params.model, 0.3, epochs) for s, g in zip(states, graphs)]
    return states, packets, graphs


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("mode", ["replace", "transform"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_batch_equals_single_client_oracle(depth, mode, epochs):
    isolated = mixed = 0
    for seed in range(6):
        kg, params, clients = _batch_members(depth, mode, seed)
        states, packets, graphs = _train_members(kg, params, clients, depth, epochs, True)
        oracle_states, oracles, _ = _train_members(kg, params, clients, depth, epochs, False)
        assert len(packets) == len(clients)
        for state, packet, o_state, oracle in zip(states, packets, oracle_states, oracles):
            assert np.array_equal(state.user_embedding, o_state.user_embedding)
            assert packet.client_id == oracle.client_id == state.user_id
            assert packet.weight == oracle.weight and packet.loss == oracle.loss
            for got, want in ((packet.entity_grads, oracle.entity_grads),
                              (packet.relation_grads, oracle.relation_grads)):
                assert np.array_equal(got.ids(), want.ids())
                assert np.array_equal(got.rows(), want.rows())
            assert len(packet.model_grads) == len(oracle.model_grads) == depth
            for (dw, db), (ow, ob) in zip(packet.model_grads, oracle.model_grads):
                assert np.array_equal(dw, ow) and np.array_equal(db, ob)
            assert np.array_equal(packet.user_grad, oracle.user_grad)
        if depth:
            assert graphs[0].subgraph.layers[0].isolated.all()
            isolated += bool(graphs[1].subgraph.layers[0].isolated.any())
        mixed += len({p.weight for p in packets}) > 1
    assert mixed and (isolated or not depth)


@pytest.mark.parametrize("epochs", [1, 2, 4])
def test_local_epochs_keep_the_batch_size_groups(epochs, monkeypatch):
    # epochs step the batch in place, so its cached size groups (one _groups
    # call for the anchors and one per layer) serve every epoch
    cfg = ExperimentConfig(users=40, items=30, attributes=5, clients_per_round=3, depth=2,
                           seed=5, epochs=epochs)
    dataset = build_dataset(cfg)
    params, _, clients = setup_state(cfg, dataset)
    calls, groups = [], model._groups
    monkeypatch.setattr(model, "_groups", lambda offsets: calls.append(1) or groups(offsets))
    run_round(params, dataset.kg, clients, round_config(cfg, dataset), 0)
    assert len(calls) == 3
