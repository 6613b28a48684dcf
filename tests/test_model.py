import math

import numpy as np
import pytest

from fedkg import model
from fedkg.gradcheck import max_relative_error, random_instance
from fedkg.kg import Layer, Subgraph, build_kg, sample_subgraph
from fedkg.model import (PROB_CLAMP, LocalGraph, ModelParams, _bce_terms, _per_row,
                         attention_weights, backward, bce_loss, broadcast_model,
                         forward_loss, init_model_params, propagate, segment_sum, sigmoid,
                         softmax, stack_graphs)
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
    # every bin gets terms: a positive column has no zero sum (so it skips
    # the signed-zero pass), beside columns of the mixed values
    for _ in range(50):
        size = int(rng.integers(1, 6))
        index = rng.permutation(np.concatenate([np.arange(size),
                                                rng.integers(0, size, int(rng.integers(0, 8)))]))
        rows = rng.choice([-0.0, 0.0, 1.0, -1.0, 0.1, -0.1, 3e-17], size=(len(index), 3))
        rows[:, 0] = rng.choice([1.0, 0.1, 3e-17], size=len(index))
        want = np.full((size, 3), start)
        np.add.at(want, index, rows)
        got = segment_sum(index, rows.T, size, start=start)
        assert want[:, 0].all()
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# --- stacking ---------------------------------------------------------------

@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_stack_graphs_layout_is_each_subgraph_shifted(depth):
    rng = derive_rng(depth, 63)
    num_items, d = 12, 3
    triples = [(i, int(rng.integers(0, 3)), num_items + int(rng.integers(0, 5)))
               for i in range(3, num_items) for _ in range(2)]  # items 0-2 isolated
    kg = build_kg(triples, num_items + 5, 3)
    # all anchors isolated; a repeated anchor; two more over shared entities
    anchor_sets = [[0, 1, 2], [4, 7, 4], [3, 8], [5, 6, 9, 11]]
    graphs = []
    for anchors in anchor_sets:
        sub = sample_subgraph(kg, anchors, 2, depth, rng)
        graphs.append(LocalGraph(
            user=rng.uniform(-1, 1, d), labels=rng.integers(0, 2, len(anchors)) * 1.0,
            subgraph=sub, entity_rows=rng.uniform(-1, 1, (len(sub.entities), d)),
            relation_rows=rng.uniform(-1, 1, (len(sub.relations), d))))
    if depth:
        assert graphs[0].subgraph.layers[0].isolated.all()

    for stacked in ([graphs[1]], graphs):
        batch = stack_graphs(stacked)
        subs = [g.subgraph for g in stacked]
        assert batch.depth == depth

        def offsets(sizes):
            return np.cumsum([0, *sizes])
        ent_off = offsets([len(s.entities) for s in subs])
        rel_off = offsets([len(s.relations) for s in subs])
        ids_off = [offsets([len(s.ids[lvl]) for s in subs]) for lvl in range(depth + 1)]
        sampled_off = [offsets([len(s.layers[lvl].rel_rows) for s in subs])
                       for lvl in range(depth)]
        assert np.array_equal(batch.anchor_offsets, ids_off[0])
        assert np.array_equal(batch.entity_offsets, ent_off)
        assert np.array_equal(batch.relation_offsets, rel_off)
        assert len(batch.sampled_offsets) == depth
        for got, want in zip(batch.sampled_offsets, sampled_off):
            assert np.array_equal(got, want)

        for b, (graph, sub) in enumerate(zip(stacked, subs)):
            ent, rel = slice(*ent_off[b:b + 2]), slice(*rel_off[b:b + 2])
            assert np.array_equal(batch.users[b], graph.user)
            assert np.array_equal(batch.labels[slice(*ids_off[0][b:b + 2])], graph.labels)
            assert np.array_equal(batch.entities[ent], sub.entities)
            assert np.array_equal(batch.relations[rel], sub.relations)
            assert np.array_equal(batch.entity_rows[ent], graph.entity_rows)
            assert np.array_equal(batch.relation_rows[rel], graph.relation_rows)
            for lvl in range(depth + 1):
                block = batch.ent_rows[lvl][slice(*ids_off[lvl][b:b + 2])]
                assert np.array_equal(block - ent_off[b],
                                      np.searchsorted(sub.entities, sub.ids[lvl]))
            for lvl, (got, want) in enumerate(zip(batch.layers, sub.layers)):
                centers, drawn = slice(*ids_off[lvl][b:b + 2]), slice(*sampled_off[lvl][b:b + 2])
                assert np.array_equal(got.isolated[centers], want.isolated)
                assert np.array_equal(got.rel_rows[drawn] - rel_off[b], want.rel_rows)
                assert np.array_equal(got.tail_rows[drawn] - ids_off[lvl + 1][b],
                                      want.tail_rows)

    deeper = sample_subgraph(kg, [3, 8], 2, depth + 1, rng)
    with pytest.raises(ValueError, match="depth"):
        stack_graphs([graphs[2], LocalGraph(
            user=graphs[2].user, labels=graphs[2].labels, subgraph=deeper,
            entity_rows=np.zeros((len(deeper.entities), d)),
            relation_rows=np.zeros((len(deeper.relations), d)))])


# --- grouped products against the per-client loops -------------------------
# The functions below are the per-client forms the stacked calls replaced:
# one matmul, einsum or reduction per client block. Every result must be
# bitwise theirs.

def _ref_blocks(offsets):
    """(client, start, end) of every non-empty block."""
    bounds = offsets.tolist()
    return [(b, s, e) for b, (s, e) in enumerate(zip(bounds, bounds[1:])) if s < e]


def _ref_forward(batch, params):
    """(alphas, hops, aggs) of the forward pass, one transform matmul per client."""
    sampled = [layer.sampled for layer in batch.layers]
    blocks = [_ref_blocks(off) for off in batch.sampled_offsets]
    alphas = [attention_weights(_per_row(batch.users, off), batch.relation_rows[layer.rel_rows])
              for layer, off in zip(batch.layers, batch.sampled_offsets)]
    hops = [[batch.entity_rows[rows] for rows in batch.ent_rows]]
    aggs = []
    for hop in range(1, batch.depth + 1):
        prev = hops[-1]
        cur = [v.copy() for v in prev[:-1]]
        hop_aggs = []
        for lvl, layer in enumerate(batch.layers[:len(cur)]):
            agg = np.einsum("nk,nkd->nd", alphas[lvl], prev[lvl + 1][layer.tail_rows])
            hop_aggs.append(agg)
            if params.mode == "replace":
                cur[lvl][sampled[lvl]] = agg
            else:
                w, b = params.weights[hop - 1], params.biases[hop - 1]
                pre = prev[lvl][sampled[lvl]] + agg
                for c, s, e in blocks[lvl]:
                    pre[s:e] = pre[s:e] @ w[c].T + b[c]
                cur[lvl][sampled[lvl]] = np.tanh(pre)
        hops.append(cur)
        aggs.append(hop_aggs)
    return alphas, hops, aggs


def _ref_logits(batch, final):
    logits = np.empty(len(final))
    for c, s, e in _ref_blocks(batch.anchor_offsets):
        logits[s:e] = final[s:e] @ batch.users[c]
    return logits


def _ref_backward(batch, params):
    """(entity, relation, model, user, losses), the per-client loops of the backward pass."""
    alphas, hops, aggs = _ref_forward(batch, params)
    counts = np.diff(batch.anchor_offsets)
    d = batch.users.shape[1]
    final = hops[-1][0]
    preds = sigmoid(_ref_logits(batch, final))
    bounds = batch.anchor_offsets.tolist()
    terms = _bce_terms(preds, batch.labels)
    losses = [float(np.mean(terms[s:e])) for s, e in zip(bounds, bounds[1:])]
    dz = (preds - batch.labels) / np.repeat(counts, counts)
    dz[(preds <= PROB_CLAMP) | (preds >= 1.0 - PROB_CLAMP)] = 0.0
    user_grad = np.empty_like(batch.users)
    for c, s, e in _ref_blocks(batch.anchor_offsets):
        user_grad[c] = final[s:e].T @ dz[s:e]

    blocks = [_ref_blocks(off) for off in batch.sampled_offsets]
    adj = [dz[:, None] * _per_row(batch.users, batch.anchor_offsets)]
    dalpha = [np.zeros_like(a) for a in alphas]
    model_grads = [(np.zeros((len(batch.users), d, d)), np.zeros((len(batch.users), d)))
                   for _ in range(params.depth)]
    for hop in range(batch.depth, 0, -1):
        prev = hops[hop - 1]
        below = [np.zeros_like(prev[0])]
        for lvl, layer in enumerate(batch.layers[:len(adj)]):
            g_full = adj[lvl]
            below[lvl][layer.isolated] += g_full[layer.isolated]
            if len(layer.rel_rows) == 0:
                below.append(np.zeros_like(prev[lvl + 1]))
                continue
            sampled = layer.sampled
            g = g_full[sampled]
            if params.mode == "transform":
                out = hops[hop][lvl][sampled]
                dpre = g * (1.0 - out * out)
                x = prev[lvl][sampled] + aggs[hop - 1][lvl]
                w = params.weights[hop - 1]
                dw, db = model_grads[hop - 1]
                dagg = np.empty_like(dpre)
                for c, s, e in blocks[lvl]:
                    dw[c] += dpre[s:e].T @ x[s:e]
                    db[c] += dpre[s:e].sum(axis=0)
                    dagg[s:e] = dpre[s:e] @ w[c]
                below[lvl][sampled] += dagg
            else:
                dagg = g
            dalpha[lvl] += np.einsum("nd,nkd->nk", dagg, prev[lvl + 1][layer.tail_rows])
            below.append(segment_sum(layer.tail_rows.reshape(-1),
                                     ((alphas[lvl] * dagg[:, j, None]).reshape(-1)
                                      for j in range(d)),
                                     len(prev[lvl + 1])))
        adj = below
    ent_grad = segment_sum(np.concatenate(batch.ent_rows),
                           (np.concatenate([a[:, j] for a in adj]) for j in range(d)),
                           len(batch.entities), start=-0.0)

    rel_index, rel_terms = [np.empty(0, dtype=np.int64)], [(np.empty((0, 1)), np.empty((0, d)))]
    for lvl, layer in enumerate(batch.layers):
        if len(layer.rel_rows) == 0:
            continue
        a, da = alphas[lvl], dalpha[lvl]
        ds = a * (da - np.sum(a * da, axis=1, keepdims=True))
        rel_vecs = batch.relation_rows[layer.rel_rows]
        for c, s, e in blocks[lvl]:
            user_grad[c] = user_grad[c] + np.einsum("nk,nkd->d", ds[s:e], rel_vecs[s:e])
        rel_index.append(layer.rel_rows.reshape(-1))
        rel_terms.append((ds, _per_row(batch.users, batch.sampled_offsets[lvl])))
    rel_grad = segment_sum(
        np.concatenate(rel_index),
        (np.concatenate([(ds * users[:, j, None]).reshape(-1) for ds, users in rel_terms])
         for j in range(d)),
        len(batch.relation_rows))
    return ent_grad, rel_grad, model_grads, user_grad, losses


def _grouped_batch(depth, mode, distinct, seed):
    """A batch of 8 clients in shuffled order: anchor counts 4, 4, 4, 6, 6 and 2
    over linked items, one client whose anchors are all isolated (an empty
    sampled block) and one with an isolated anchor among 3."""
    rng = derive_rng(seed, 62)
    num_items, d = 14, 5
    triples = [(i, int(rng.integers(0, 3)), num_items + int(rng.integers(0, 6)))
               for i in range(3, num_items) for _ in range(2)]  # items 0-2 isolated
    kg = build_kg(triples, num_items + 6, 3)
    anchor_sets = [[0, 1, 2], [1, 5, 9]] + [
        sorted(rng.choice(np.arange(3, num_items), size, replace=False).tolist())
        for size in (4, 4, 4, 6, 6, 2)]
    graphs = []
    for i in rng.permutation(len(anchor_sets)):
        sub = sample_subgraph(kg, anchor_sets[i], 3, depth, rng)
        graphs.append(LocalGraph(
            user=rng.uniform(-1, 1, d), labels=rng.integers(0, 2, len(anchor_sets[i])) * 1.0,
            subgraph=sub, entity_rows=rng.uniform(-1, 1, (len(sub.entities), d)),
            relation_rows=rng.uniform(-1, 1, (len(sub.relations), d))))
    b = len(graphs)
    if distinct:  # the epochs > 1 path: each client steps its own layers
        params = ModelParams(mode, [rng.uniform(-1, 1, (b, d, d)) for _ in range(depth)],
                             [rng.uniform(-1, 1, (b, d)) for _ in range(depth)])
    else:
        params = init_model_params(d, depth, mode, rng)
        params.biases = [rng.uniform(-1, 1, d) for _ in range(depth)]
        params = broadcast_model(params, b)
    return stack_graphs(graphs), params


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("mode", ["replace", "transform"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_grouped_products_bitwise_the_per_client_loops(depth, mode, distinct, monkeypatch):
    for seed in range(3):
        batch, params = _grouped_batch(depth, mode, distinct, seed)
        sizes = [len(cs) for cs, _ in batch.anchor_groups]
        assert max(sizes) >= 2 and min(sizes) == 1
        if depth:
            samples = np.diff(batch.sampled_offsets[0])
            assert (samples == 0).sum() == 1 and samples.max() > 0
            group_sizes = [len(cs) for cs, _ in model._groups(batch.sampled_offsets[0])]
            assert max(group_sizes) >= 2

        alphas, hops, aggs = _ref_forward(batch, params)
        state = model._forward(batch, params)
        for got, want in zip(state.alphas, alphas, strict=True):
            assert np.array_equal(got, want)
        for got_hop, want_hop in zip(state.hops, hops, strict=True):
            for got, want in zip(got_hop, want_hop, strict=True):
                assert np.array_equal(got, want)
        for got_hop, want_hop in zip(state.aggs, aggs, strict=True):
            for got, want in zip(got_hop, want_hop, strict=True):
                assert np.array_equal(got, want)

        with monkeypatch.context() as patch:
            patch.setattr(model, "sigmoid", lambda z: z)
            logits = model.readout(batch, hops[-1][0])
        assert np.array_equal(logits, _ref_logits(batch, hops[-1][0]))

        entity, relation, model_grads, user, losses = _ref_backward(batch, params)
        grad = model.backward(batch, params)
        assert grad.losses == losses
        assert forward_loss(batch, params)[0] == losses
        assert np.array_equal(grad.entity, entity)
        assert np.array_equal(np.signbit(grad.entity), np.signbit(entity))
        assert np.array_equal(grad.relation, relation)
        assert np.array_equal(grad.user, user)
        assert len(grad.model) == len(model_grads) == depth
        for (dw, db), (want_w, want_b) in zip(grad.model, model_grads):
            assert np.array_equal(dw, want_w) and np.array_equal(db, want_b)
