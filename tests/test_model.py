import math

import numpy as np
import pytest

from fedkg.gradcheck import max_relative_error, random_instance
from fedkg.kg import Layer, Subgraph, build_kg, sample_subgraph
from fedkg.model import (LocalGraph, ModelParams, attention_weights, backward, segment_sum,
                         bce_loss, forward_loss, init_model_params, propagate,
                         sigmoid, softmax)
from fedkg.rng import derive_rng


def _graph(user, anchors, layers, ent_vecs, rel_vecs):
    """Build a LocalGraph from (item, label) anchors and per-layer samples.

    layers[l] maps each center of depth l to its (relation, neighbor) rows;
    an empty list marks an isolated center.
    """
    ids = [np.array([a for a, _ in anchors], dtype=np.int64)]
    for layer in layers:
        ids.append(np.array(sorted({n for rows in layer.values() for _, n in rows}),
                            dtype=np.int64))
    relations = np.array(sorted({r for layer in layers for rows in layer.values()
                                 for r, _ in rows}), dtype=np.int64)
    built = []
    for lvl, layer in enumerate(layers):
        centers = ids[lvl].tolist()
        assert sorted(layer) == sorted(centers)
        live = [layer[c] for c in centers if len(layer[c])]
        k = len(live[0]) if live else 0
        built.append(Layer(
            isolated=np.array([len(layer[c]) == 0 for c in centers]),
            rel_rows=np.searchsorted(relations, [[r for r, _ in rows] for rows in live]
                                     ).reshape(len(live), k),
            tail_rows=np.searchsorted(ids[lvl + 1], [[n for _, n in rows] for rows in live]
                                      ).reshape(len(live), k)))
    entities = np.unique(np.concatenate(ids))
    sub = Subgraph(ids=ids, layers=built, entities=entities, relations=relations)
    d = len(user)
    return LocalGraph(user=np.asarray(user, dtype=float),
                      labels=np.array([y for _, y in anchors], dtype=float),
                      subgraph=sub,
                      entity_rows=np.array([ent_vecs[e] for e in entities],
                                           dtype=float).reshape(-1, d),
                      relation_rows=np.array([rel_vecs[r] for r in relations],
                                             dtype=float).reshape(-1, d))


# --- attention -------------------------------------------------------------

def test_attention_identical_relations_split_evenly():
    w = attention_weights(np.array([0.3, -0.2]), [np.array([1.0, 2.0])] * 2)
    assert np.allclose(w, [0.5, 0.5])


def test_attention_two_orthogonal_relations():
    # scores (1, 0) -> [e/(e+1), 1/(e+1)]
    w = attention_weights(np.array([1.0, 0.0]),
                          [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    e = math.e
    assert np.allclose(w, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
    assert abs(w[0] - 0.7311) < 1e-4 and abs(w[1] - 0.2689) < 1e-4


def test_attention_singleton():
    w = attention_weights(np.array([2.0, 1.0]), [np.array([0.5, 0.5])])
    assert w.tolist() == [1.0]


def test_attention_empty_rejected():
    with pytest.raises(ValueError):
        attention_weights(np.array([1.0]), [])


def test_attention_sums_to_one_many_random_sets():
    rng = derive_rng(20, 0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        u = rng.normal(size=d)
        rels = [rng.normal(size=d) for _ in range(n)]
        w = attention_weights(u, rels)
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w > 0) and np.all(w < 1 + 1e-12)


def test_softmax_shift_invariance_bitwise_on_exact_inputs():
    # dyadic scores keep score+shift exact, so max-subtraction must give
    # bit-identical weights for any shift up to 50
    rng = derive_rng(21, 0)
    for _ in range(50):
        scores = rng.integers(-5120, 5121, size=int(rng.integers(2, 8))) / 1024.0
        base = softmax(scores)
        for shift in (1.0, 7.0, 50.0):
            shifted = softmax(scores + shift)
            assert np.array_equal(base, shifted)


# --- readout / loss ---------------------------------------------------------

# the readout is sigmoid(<user, item>), as in model._forward

def test_predict_orthogonal_is_half():
    assert sigmoid(np.dot([1.0, 0.0], [0.0, 3.0])) == 0.5


def test_predict_inverts_sigmoid_at_point_nine():
    # <u, v> = ln 9 = 2.1972... -> 0.9
    z = math.log(9.0)
    assert abs(sigmoid(np.dot([z, 0.0], [1.0, 0.0])) - 0.9) < 1e-12


def test_predict_saturation_stays_finite():
    p = sigmoid(np.dot([1e4], [-1e4]))
    assert p == 0.0 or (0.0 < p < 1e-300)
    assert math.isfinite(p)
    assert sigmoid(np.dot([1e4], [1e4])) == 1.0


def test_predict_monotone_in_inner_product():
    rng = derive_rng(22, 0)
    u = rng.normal(size=3)
    scales = np.linspace(-4, 4, 21)
    probs = [sigmoid(np.dot(u, s * u)) for s in scales]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def masked_sigmoid(z):
    """Reference: each branch computed only on the elements that take it."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_the_masked_reference():
    # warnings are errors here, so an overflow in the branch not taken would fail
    edges = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
    z = np.concatenate([edges, derive_rng(23, 0).normal(scale=30.0, size=997)])
    for shaped in (z, z.reshape(4, 252)):
        assert sigmoid(shaped).tobytes() == masked_sigmoid(shaped).tobytes()
    for value in edges:
        got = sigmoid(value)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == masked_sigmoid(np.array([value])).tobytes()


def test_bce_known_constant():
    assert abs(bce_loss([0.5], [1]) - math.log(2)) < 1e-12


def test_bce_direct_evaluation():
    assert abs(bce_loss([0.9, 0.1], [1, 0]) - (-math.log(0.9))) < 1e-12


def test_bce_clamp_keeps_finite():
    loss = bce_loss([1.0, 0.0], [1, 0])
    assert 0.0 < loss < 1e-6


def test_bce_empty_rejected():
    with pytest.raises(ValueError):
        bce_loss([], [])


# --- propagation ------------------------------------------------------------

def test_propagate_depth_zero_returns_raw_anchors():
    g = _graph(user=[1.0, 0.0], anchors=[(0, 1), (1, 0)], layers=[],
               ent_vecs={0: [0.2, 0.3], 1: [-0.1, 0.4]}, rel_vecs={})
    params = ModelParams("transform", [], [])
    out = propagate(g, params)
    assert np.array_equal(out, [[0.2, 0.3], [-0.1, 0.4]])


def test_propagate_replace_single_neighbor_copies_it():
    layers = [{0: [(0, 1)]}]
    g = _graph(user=[0.5, 0.5], anchors=[(0, 1)], layers=layers,
               ent_vecs={0: [9.0, 9.0], 1: [0.25, -0.75]}, rel_vecs={0: [1.0, 0.0]})
    params = init_model_params(2, 1, "replace", derive_rng(23, 0))
    out = propagate(g, params)
    assert np.array_equal(out[0], [0.25, -0.75])


def test_propagate_replace_equal_relations_averages():
    layers = [{0: [(0, 1), (0, 2)]}]
    v1, v2 = np.array([0.4, -0.2]), np.array([0.0, 1.0])
    g = _graph(user=[1.0, 2.0], anchors=[(0, 1)], layers=layers,
               ent_vecs={0: [0.0, 0.0], 1: v1, 2: v2}, rel_vecs={0: [0.3, 0.3]})
    params = init_model_params(2, 1, "replace", derive_rng(24, 0))
    out = propagate(g, params)
    assert np.allclose(out[0], 0.5 * v1 + 0.5 * v2, atol=1e-15)


def test_propagate_replace_is_convex_combination():
    rng = derive_rng(25, 0)
    for _ in range(20):
        d = 3
        vecs = {i: rng.normal(size=d) for i in range(1, 5)}
        rels = {i: rng.normal(size=d) for i in range(2)}
        samples = [(int(rng.integers(0, 2)), n) for n in range(1, 5)]
        g = _graph(user=rng.normal(size=d), anchors=[(0, 1)],
                   layers=[{0: samples}], ent_vecs={0: np.zeros(d), **vecs},
                   rel_vecs=rels)
        params = init_model_params(d, 1, "replace", rng)
        out = propagate(g, params)[0]
        stacked = np.stack([vecs[n] for n in range(1, 5)])
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)


def test_propagate_isolated_anchor_keeps_raw_embedding():
    layers = [{0: [], 1: [(0, 0)]}]
    g = _graph(user=[1.0, 0.0], anchors=[(0, 1), (1, 0)], layers=layers,
               ent_vecs={0: [0.7, -0.7], 1: [0.1, 0.1]}, rel_vecs={0: [0.2, 0.2]})
    params = init_model_params(2, 1, "replace", derive_rng(26, 0))
    out = propagate(g, params)
    assert np.array_equal(out[0], [0.7, -0.7])  # degree-0 anchor untouched
    assert np.array_equal(out[1], [0.7, -0.7])  # copied its single neighbor


def test_propagate_transform_matches_manual_two_node():
    layers = [{0: [(0, 1)]}]
    x0, x1, r0 = np.array([0.2, -0.1]), np.array([0.3, 0.5]), np.array([0.1, 0.4])
    u = np.array([0.6, -0.3])
    g = _graph(user=u, anchors=[(0, 1)], layers=layers,
               ent_vecs={0: x0, 1: x1}, rel_vecs={0: r0})
    params = init_model_params(2, 1, "transform", derive_rng(27, 0))
    out = propagate(g, params)
    expected = np.tanh(params.weights[0] @ (x0 + x1) + params.biases[0])
    assert np.allclose(out[0], expected, atol=1e-15)


# --- backward ---------------------------------------------------------------

def test_backward_depth_zero_hand_chain_rule():
    # orthogonal user/item -> yhat = 0.5; label 1 -> d(loss)/d(item) = -0.5 u
    u = np.array([0.8, -0.4])
    item = np.array([-0.4, -0.8])  # orthogonal to u
    g = _graph(user=u, anchors=[(0, 1)], layers=[], ent_vecs={0: item}, rel_vecs={})
    packet = backward(g, ModelParams("transform", [], []))
    assert np.allclose(packet.entity_grads.entries[0], -0.5 * u, atol=1e-12)
    assert packet.weight == 1
    assert abs(packet.loss - math.log(2)) < 1e-12


def test_backward_zero_user_gives_zero_item_grads():
    g = _graph(user=[0.0, 0.0], anchors=[(0, 1), (1, 0)], layers=[],
               ent_vecs={0: [0.5, 0.5], 1: [0.1, -0.1]}, rel_vecs={})
    packet = backward(g, ModelParams("transform", [], []))
    assert np.array_equal(packet.entity_grads.entries[0], np.zeros(2))
    assert np.array_equal(packet.entity_grads.entries[1], np.zeros(2))
    assert not np.allclose(packet.user_grad, 0.0)


def test_backward_clamped_predictions_give_zero_gradients():
    # saturated logit puts the prediction past the clamp: flat loss, zero grads
    u = np.full(2, 100.0)
    g = _graph(user=u, anchors=[(0, 1)], layers=[], ent_vecs={0: u.copy()},
               rel_vecs={})
    packet = backward(g, ModelParams("transform", [], []))
    assert np.array_equal(packet.entity_grads.entries[0], np.zeros(2))
    assert np.array_equal(packet.user_grad, np.zeros(2))


def test_backward_loss_matches_forward():
    graph, params = random_instance(77, 14)
    packet = backward(graph, params)
    loss, _ = forward_loss(graph, params)
    assert packet.loss == loss


def test_backward_matches_finite_differences_sample():
    for idx in range(0, 24, 5):
        graph, params = random_instance(31, idx)
        err = max_relative_error(graph, params, step=1e-5)
        assert err < 1e-4


@pytest.mark.parametrize("mode", ["replace", "transform"])
def test_backward_matches_finite_differences_depth_three(mode):
    # H=3: hop 1 updates depths 0-2, hop 2 depths 0-1, hop 3 the anchors only
    for index in range(4):
        rng = derive_rng(34, index)
        ends = rng.integers(0, 11, size=(18, 2))  # entity 11 stays isolated
        triples = [(int(h), int(r), int(t))
                   for (h, t), r in zip(ends, rng.integers(0, 3, size=18))]
        sub = sample_subgraph(build_kg(triples, 12, 3), [11, 0, 5], 2, 3, rng)
        assert len(sub.layers[2].rel_rows) > 0
        d = 3
        graph = LocalGraph(user=rng.uniform(-0.6, 0.6, d), labels=np.array([1.0, 0.0, 1.0]),
                           subgraph=sub,
                           entity_rows=rng.uniform(-0.6, 0.6, (len(sub.entities), d)),
                           relation_rows=rng.uniform(-0.6, 0.6, (len(sub.relations), d)))
        params = init_model_params(d, 3, mode, rng)
        assert max_relative_error(graph, params, step=1e-5) < 1e-4


def test_backward_weight_equals_anchor_count():
    graph, params = random_instance(32, 13)
    packet = backward(graph, params)
    assert packet.weight == len(graph.subgraph.ids[0])


@pytest.mark.parametrize("start", [0.0, -0.0])
def test_segment_sum_is_bitwise_add_at(start):
    rng = np.random.default_rng(8)
    for case in range(200):
        size = int(rng.integers(0, 6))
        n = int(rng.integers(0, 12)) if size else 0
        shape = (n,) if case % 3 == 0 else (n, int(rng.integers(1, 4)))
        # a few values, both zeros among them, so cancellations and zero signs occur
        rows = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, -0.1, 3e-17], size=shape)
        index = rng.integers(0, max(size, 1), size=n)
        want = np.full((size, *shape[1:]), start)
        np.add.at(want, index, rows)
        columns = rows.reshape(n, int(np.prod(shape[1:]))).T
        got = segment_sum(index, columns, size, start=start).reshape(want.shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
