"""Relation-aware GNN over merged local graphs, one batch of clients at a time.

Forward pass: per hop, every center entity's vector becomes
phi(sum_k alpha_k * x_neighbor_k), where alpha is a user-specific softmax
attention over the relation embeddings of its sampled neighbor list.
phi is the raw aggregated sum in `replace` mode, or
tanh(W_hop (x_self + sum) + b_hop) in `transform` mode. The prediction
for an anchor item is sigmoid(<user, final item vector>), trained with
mean binary cross-entropy.

The model reads the subgraph's arrays directly (see `kg`): hop values are
one (n_depth, d) matrix per depth, gathered from the graph's entity rows;
layer l combines the rows of depth l that are not isolated with their
tail rows in depth l+1. As in KGCN's receptive field, hop h updates only
depths 0..H-h, the ones a later hop or the readout reads: the hop states
form a triangle from H+1 depths down to the anchors alone. Entity
gradients come back as one row per id in `subgraph.entities`, summed over
depths in depth order.

Every pass runs on a GraphBatch: B clients' LocalGraphs stacked, as in
KGCN's minibatches. Each stacked array holds the clients' blocks in batch
order, and a (B + 1,) offsets array locates them (client b owns rows
off[b]:off[b + 1]); row indices are shifted by those offsets, so no row
is shared across clients and each client keeps its own copies. The
attention, the neighbor sums, tanh and the scatters run once over the
stack, with each row's own client user vector. The steps whose result
mixes rows run per client block, with that client's own model layer: the
readout and its user gradient, the transform matmuls, dW/db and the
attention path of the user gradient. So a client's values are bitwise
the same in any batch, and a single LocalGraph is a batch of one. A
batch's ModelParams is the shared global model broadcast, copy-free and
read-only, along a leading client axis (`broadcast_model`).

The backward pass is hand-derived and exact (checked against central
finite differences); attention weights are shared across hops, so their
adjoints accumulate over hops before the softmax backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .kg import Layer, Subgraph

PROB_CLAMP = 1e-7


@dataclass
class ModelParams:
    """Per-hop transform weights plus the aggregation mode."""

    mode: str  # "replace" | "transform"
    weights: list[np.ndarray]  # depth entries, each (d, d); (B, d, d) in a batch
    biases: list[np.ndarray]  # depth entries, each (d,); (B, d) in a batch

    def __post_init__(self):
        if self.mode not in ("replace", "transform"):
            raise ValueError(f"unknown aggregation mode {self.mode!r}")
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases layer count mismatch")

    @property
    def depth(self) -> int:
        return len(self.weights)

    def copy(self) -> "ModelParams":
        return ModelParams(self.mode, [w.copy() for w in self.weights],
                           [b.copy() for b in self.biases])


def init_model_params(dim: int, depth: int, mode: str,
                      rng: np.random.Generator) -> ModelParams:
    """Uniform +-1/sqrt(dim) weights, zero biases, one layer per hop."""
    bound = 1.0 / np.sqrt(dim)
    weights = [rng.uniform(-bound, bound, size=(dim, dim)) for _ in range(depth)]
    biases = [np.zeros(dim) for _ in range(depth)]
    return ModelParams(mode=mode, weights=weights, biases=biases)


def broadcast_model(model: ModelParams, clients: int) -> ModelParams:
    """The batch form of one model shared by `clients` clients.

    Each layer is an np.broadcast_to view along a leading client axis: no
    copy, and any write to it raises.
    """
    return ModelParams(model.mode,
                       [np.broadcast_to(w, (clients, *w.shape)) for w in model.weights],
                       [np.broadcast_to(b, (clients, *b.shape)) for b in model.biases])


class SparseGrad:
    """Sparse per-id gradient: ids() is a sorted, distinct int64 array and
    rows() the float64 (n, d) matrix whose row i belongs to ids()[i].

    The constructor wraps the arrays as they are; apply_global_update and
    the wire decoder check the invariant. add() and the read-only
    `entries` {id: row} view derived from the arrays exist for the
    acceptance gate and perfbench; nothing in the package uses them.
    """

    def __init__(self, ids=(), rows=None):
        self._ids = np.asarray(ids, dtype=np.int64)
        self._rows = np.empty((0, 0)) if rows is None else np.asarray(rows, dtype=np.float64)

    def ids(self) -> np.ndarray:
        return self._ids

    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def entries(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(self._ids.tolist(), self._rows)))

    def add(self, idx: int, vec: np.ndarray) -> None:
        """Add vec to the row of idx, inserting the id when it is new."""
        rows, idx = dict(self.entries), int(idx)
        rows[idx] = rows[idx] + vec if idx in rows else np.asarray(vec, dtype=np.float64)
        self._ids = np.array(sorted(rows), dtype=np.int64)
        self._rows = np.array([rows[i] for i in self._ids.tolist()], dtype=np.float64)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self.entries[int(idx)]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, idx: int) -> bool:
        return int(idx) in self.entries


@dataclass
class GradientPacket:
    """One client's upload: sparse embedding grads, dense model grads, weight.

    user_grad never leaves the client; ldp_encrypt strips it before upload.
    """

    entity_grads: SparseGrad
    relation_grads: SparseGrad
    model_grads: list[tuple[np.ndarray, np.ndarray]]
    user_grad: np.ndarray | None
    weight: int
    loss: float
    client_id: int = -1


@dataclass
class LocalGraph:
    """Training graph: sampled subgraph, anchor labels and the gathered rows.

    The anchors are subgraph.ids[0]; labels follow their order. Row i of
    entity_rows (relation_rows) is the vector of subgraph.entities[i]
    (subgraph.relations[i]).
    """

    user: np.ndarray
    labels: np.ndarray
    subgraph: Subgraph
    entity_rows: np.ndarray
    relation_rows: np.ndarray


@dataclass
class BatchGradient:
    """A GraphBatch's gradients, stacked as the batch's arrays are."""

    entity: np.ndarray  # one row per batch.entities row
    relation: np.ndarray  # one row per batch.relations row
    model: list[tuple[np.ndarray, np.ndarray]]  # per layer (B, d, d), (B, d)
    user: np.ndarray  # (B, d)
    losses: list[float]


@dataclass
class GraphBatch:
    """B LocalGraphs stacked in batch order (layout in the module docstring)."""

    users: np.ndarray  # (B, d)
    labels: np.ndarray  # anchor labels; blocks by anchor_offsets
    entities: np.ndarray  # each subgraph's entities; blocks by entity_offsets
    relations: np.ndarray  # each subgraph's relations; blocks by relation_offsets
    entity_rows: np.ndarray  # row i is the vector of entities[i]
    relation_rows: np.ndarray  # row i is the vector of relations[i]
    ent_rows: list[np.ndarray]  # per depth, the stacked ids' rows into entity_rows
    layers: list[Layer]  # rel_rows into relations, tail_rows into the next depth's stack
    anchor_offsets: np.ndarray
    entity_offsets: np.ndarray
    relation_offsets: np.ndarray
    sampled_offsets: list[np.ndarray]  # per layer; blocks of rel_rows/tail_rows

    @property
    def depth(self) -> int:
        return len(self.layers)

    def packets(self, grad: BatchGradient) -> list[GradientPacket]:
        """Split a batch gradient into one packet per client (views, batch order)."""
        ent, rel, anchors = self.entity_offsets, self.relation_offsets, self.anchor_offsets
        return [GradientPacket(
            entity_grads=SparseGrad(self.entities[ent[b]:ent[b + 1]],
                                    grad.entity[ent[b]:ent[b + 1]]),
            relation_grads=SparseGrad(self.relations[rel[b]:rel[b + 1]],
                                      grad.relation[rel[b]:rel[b + 1]]),
            model_grads=[(dw[b], db[b]) for dw, db in grad.model],
            user_grad=grad.user[b], weight=int(anchors[b + 1] - anchors[b]),
            loss=grad.losses[b]) for b in range(len(self.users))]


def _offsets(sizes) -> np.ndarray:
    return np.array([0, *accumulate(sizes)], dtype=np.int64)


def _blocks(offsets: np.ndarray) -> list[tuple[int, int, int]]:
    """(client, start, end) of every non-empty block."""
    bounds = offsets.tolist()
    return [(b, s, e) for b, (s, e) in enumerate(zip(bounds, bounds[1:])) if s < e]


def _per_row(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """values[b] repeated over client b's block."""
    return values.repeat(offsets[1:] - offsets[:-1], axis=0)


def stack_graphs(graphs: list[LocalGraph]) -> GraphBatch:
    """Stack LocalGraphs of one depth into a GraphBatch, in list order."""
    subs = [g.subgraph for g in graphs]
    depth = subs[0].depth
    if any(s.depth != depth for s in subs):
        raise ValueError("batched subgraphs differ in depth")
    ent_off = _offsets([len(s.entities) for s in subs])
    rel_off = _offsets([len(s.relations) for s in subs])
    ids_off = [_offsets([len(s.ids[lvl]) for s in subs]) for lvl in range(depth + 1)]
    layers = [Layer(isolated=np.concatenate([s.layers[lvl].isolated for s in subs]),
                    rel_rows=np.concatenate([s.layers[lvl].rel_rows + rel_off[b]
                                             for b, s in enumerate(subs)]),
                    tail_rows=np.concatenate([s.layers[lvl].tail_rows + ids_off[lvl + 1][b]
                                              for b, s in enumerate(subs)]))
              for lvl in range(depth)]
    return GraphBatch(
        users=np.array([g.user for g in graphs], dtype=np.float64),
        labels=np.concatenate([g.labels for g in graphs]),
        entities=np.concatenate([s.entities for s in subs]),
        relations=np.concatenate([s.relations for s in subs]),
        entity_rows=np.concatenate([g.entity_rows for g in graphs]),
        relation_rows=np.concatenate([g.relation_rows for g in graphs]),
        ent_rows=[np.concatenate([np.searchsorted(s.entities, s.ids[lvl]) + ent_off[b]
                                  for b, s in enumerate(subs)]) for lvl in range(depth + 1)],
        layers=layers, anchor_offsets=ids_off[0], entity_offsets=ent_off,
        relation_offsets=rel_off,
        sampled_offsets=[_offsets([len(s.layers[lvl].rel_rows) for s in subs])
                         for lvl in range(depth)])


def as_batch(graph: LocalGraph | GraphBatch,
             params: ModelParams) -> tuple[GraphBatch, ModelParams]:
    """A LocalGraph and its model as a batch of one; a batch as it is.

    A batch of one is `stack_graphs([graph])` and `broadcast_model(params, 1)`
    without the copies and broadcasts: the graph's own arrays need no
    shift, and nothing writes into a batch's arrays.
    """
    if isinstance(graph, GraphBatch):
        return graph, params
    sub = graph.subgraph
    return GraphBatch(
        users=np.array([graph.user], dtype=np.float64), labels=graph.labels,
        entities=sub.entities, relations=sub.relations, entity_rows=graph.entity_rows,
        relation_rows=graph.relation_rows,
        ent_rows=[np.searchsorted(sub.entities, ids) for ids in sub.ids], layers=sub.layers,
        anchor_offsets=_offsets([len(sub.ids[0])]), entity_offsets=_offsets([len(sub.entities)]),
        relation_offsets=_offsets([len(sub.relations)]),
        sampled_offsets=[_offsets([len(layer.rel_rows)]) for layer in sub.layers]), \
        ModelParams(params.mode, [w[None] for w in params.weights],
                    [b[None] for b in params.biases])


def segment_sum(index: np.ndarray, columns, size: int, start: float = 0.0) -> np.ndarray:
    """np.add.at(np.full((size, width), start), index, rows) for a start of +-0.0, bitwise.

    `columns` yields the columns of `rows` one at a time (1-D, in index
    order), so the terms never need to exist as one matrix. One bincount
    per column adds each bin's terms in index order from +0.0, as add.at
    does, at a fraction of its cost. From -0.0, add.at gives the same sums
    except where every term is -0.0, or there is none: there the sum stays
    -0.0.
    """
    sums = []
    for terms in columns:
        # (bincount gives int64 zeros for no terms)
        col = np.bincount(index, weights=terms, minlength=size).astype(np.float64, copy=False)
        if np.signbit(start):
            col[np.bincount(index, weights=(terms != 0) | ~np.signbit(terms),
                            minlength=size) == 0] = -0.0
        sums.append(col)
    return np.stack(sums, axis=1)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_weights(user: np.ndarray, relations: np.ndarray) -> np.ndarray:
    """Softmax over the n user-relation inner products: (..., n, d) -> (..., n).

    `user` is one (d,) vector, or one per leading index of `relations`.
    """
    relations = np.asarray(relations, dtype=np.float64)
    if relations.ndim < 2 or relations.shape[-2] == 0:
        raise ValueError("attention over an empty neighbor list")
    return softmax((relations @ np.asarray(user)[..., None])[..., 0])


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1-1e-7]."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise ValueError("bce_loss over empty predictions")
    if p.shape != y.shape:
        raise ValueError("predictions/labels length mismatch")
    return float(np.mean(_bce_terms(p, y)))


def _bce_terms(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return -(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))


# ---------------------------------------------------------------------------
# Forward pass and cache
# ---------------------------------------------------------------------------

@dataclass
class _ForwardState:
    sampled: list[np.ndarray]  # per layer, Layer.sampled
    blocks: list[list[tuple[int, int, int]]]  # per layer, the client blocks of its samples
    alphas: list[np.ndarray]  # per layer (n_sampled, K)
    hops: list[list[np.ndarray]]  # hops[i][depth], depth <= H-i -> (n_depth, d) after hop i
    aggs: list[list[np.ndarray]]  # aggregated neighbor sums per hop/layer


def _forward(batch: GraphBatch, params: ModelParams) -> _ForwardState:
    if params.depth != batch.depth:
        raise ValueError(
            f"model has {params.depth} layers but subgraph depth is {batch.depth}")

    sampled = [layer.sampled for layer in batch.layers]
    blocks = [_blocks(off) for off in batch.sampled_offsets]
    # Attention is user/relation only, so it is fixed across hops.
    alphas = [attention_weights(_per_row(batch.users, off),
                                batch.relation_rows[layer.rel_rows])
              for layer, off in zip(batch.layers, batch.sampled_offsets)]

    hops = [[batch.entity_rows[rows] for rows in batch.ent_rows]]
    aggs: list[list[np.ndarray]] = []
    for hop in range(1, batch.depth + 1):
        prev = hops[-1]
        cur = [v.copy() for v in prev[:-1]]  # depths 0..H-hop
        hop_aggs: list[np.ndarray] = []
        for lvl, layer in enumerate(batch.layers[:len(cur)]):
            # the (n_sampled, K, d) neighbor rows
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
    return _ForwardState(sampled=sampled, blocks=blocks, alphas=alphas, hops=hops, aggs=aggs)


def _predictions(batch: GraphBatch, final: np.ndarray) -> np.ndarray:
    """sigmoid(<user, final anchor vector>), each anchor with its client's user."""
    logits = np.empty(len(final))
    for c, s, e in _blocks(batch.anchor_offsets):
        logits[s:e] = final[s:e] @ batch.users[c]
    return sigmoid(logits)


def _losses(batch: GraphBatch, predictions: np.ndarray) -> list[float]:
    """Each client's bce_loss, from one pass over the stacked terms."""
    bounds = batch.anchor_offsets.tolist()
    if any(s == e for s, e in zip(bounds, bounds[1:])):
        raise ValueError("bce_loss over empty predictions")
    terms = _bce_terms(predictions, batch.labels)
    return [float(np.mean(terms[s:e])) for s, e in zip(bounds, bounds[1:])]


def propagate(graph: LocalGraph | GraphBatch, params: ModelParams) -> np.ndarray:
    """The (n_anchors, d) final anchor vectors after the subgraph's `depth` hops."""
    return _forward(*as_batch(graph, params)).hops[-1][0]


def forward_loss(graph: LocalGraph | GraphBatch, params: ModelParams):
    """Run the forward pass; return (mean BCE loss, predictions).

    A batch gives one loss per client and the stacked predictions.
    """
    batch, params = as_batch(graph, params)
    predictions = _predictions(batch, propagate(batch, params))
    losses = _losses(batch, predictions)
    return (losses if isinstance(graph, GraphBatch) else losses[0]), predictions


def backward(graph: LocalGraph | GraphBatch, params: ModelParams):
    """Exact gradients of the mean BCE loss w.r.t. every touched parameter.

    Covers all gathered entity vectors, relation vectors (through the
    attention softmax), per-hop transform weights, and the user embedding
    (through both the readout and the attention path). A LocalGraph gives
    a GradientPacket whose weight is the number of anchor items; a
    GraphBatch gives the batch's stacked BatchGradient, each client's
    loss its own mean (`GraphBatch.packets` splits it).
    """
    if isinstance(graph, GraphBatch):
        return _backward(graph, params)
    batch, params = as_batch(graph, params)
    return batch.packets(_backward(batch, params))[0]


def _backward(batch: GraphBatch, params: ModelParams) -> BatchGradient:
    state = _forward(batch, params)
    counts = np.diff(batch.anchor_offsets)
    y = batch.labels
    d = batch.users.shape[1]
    final = state.hops[-1][0]
    preds = _predictions(batch, final)
    losses = _losses(batch, preds)

    # d(loss)/d(logit) of each client's mean; zero where the clamp flattens the loss.
    dz = (preds - y) / np.repeat(counts, counts)
    clamped = (preds <= PROB_CLAMP) | (preds >= 1.0 - PROB_CLAMP)
    dz[clamped] = 0.0

    user_grad = np.empty_like(batch.users)
    for c, s, e in _blocks(batch.anchor_offsets):
        user_grad[c] = final[s:e].T @ dz[s:e]
    dalpha, model_grads, ent_grad = _hop_backward(batch, params, state, dz)

    # Softmax backward, once per layer (weights are shared across hops);
    # the relation rows sum their layers' terms in layer order.
    rel_index, rel_terms = [np.empty(0, dtype=np.int64)], [(np.empty((0, 1)), np.empty((0, d)))]
    for lvl, layer in enumerate(batch.layers):
        if len(layer.rel_rows) == 0:
            continue
        a = state.alphas[lvl]
        da = dalpha[lvl]
        ds = a * (da - np.sum(a * da, axis=1, keepdims=True))
        rel_vecs = batch.relation_rows[layer.rel_rows]  # (n, K, d)
        for c, s, e in state.blocks[lvl]:
            user_grad[c] = user_grad[c] + np.einsum("nk,nkd->d", ds[s:e], rel_vecs[s:e])
        users = _per_row(batch.users, batch.sampled_offsets[lvl])
        rel_index.append(layer.rel_rows.reshape(-1))
        rel_terms.append((ds, users))
    rel_grad = segment_sum(
        np.concatenate(rel_index),
        (np.concatenate([(ds * users[:, j, None]).reshape(-1) for ds, users in rel_terms])
         for j in range(d)),
        len(batch.relation_rows))

    return BatchGradient(entity=ent_grad, relation=rel_grad, model=model_grads,
                         user=user_grad, losses=losses)


def _hop_backward(batch: GraphBatch, params: ModelParams, state: _ForwardState,
                  dz: np.ndarray):
    """Adjoints through the hops, from the final anchors down; frees each hop's states.

    Returns the attention adjoints per layer, the model gradients and the
    entity gradient.
    """
    d = batch.users.shape[1]
    # Adjoints of one hop's states at a time; only the final anchors
    # receive loss gradient.
    adj = [dz[:, None] * _per_row(batch.users, batch.anchor_offsets)]
    dalpha = [np.zeros_like(a) for a in state.alphas]
    model_grads = [(np.zeros((len(batch.users), d, d)), np.zeros((len(batch.users), d)))
                   for _ in range(params.depth)]

    for hop in range(batch.depth, 0, -1):
        prev = state.hops[hop - 1]
        below = [np.zeros_like(prev[0])]  # each layer's scatter starts the next depth
        for lvl, layer in enumerate(batch.layers[:len(adj)]):
            g_full = adj[lvl]
            below[lvl][layer.isolated] += g_full[layer.isolated]
            if len(layer.rel_rows) == 0:
                below.append(np.zeros_like(prev[lvl + 1]))
                continue
            sampled = state.sampled[lvl]
            g = g_full[sampled]
            agg = state.aggs[hop - 1][lvl]
            if params.mode == "transform":
                out = state.hops[hop][lvl][sampled]
                dpre = g * (1.0 - out * out)
                x = prev[lvl][sampled] + agg
                w = params.weights[hop - 1]
                dw, db = model_grads[hop - 1]
                dagg = np.empty_like(dpre)
                for c, s, e in state.blocks[lvl]:
                    dw[c] += dpre[s:e].T @ x[s:e]
                    db[c] += dpre[s:e].sum(axis=0)
                    dagg[s:e] = dpre[s:e] @ w[c]
                below[lvl][sampled] += dagg  # self path
            else:
                dagg = g
            dalpha[lvl] += np.einsum("nd,nkd->nk", dagg, prev[lvl + 1][layer.tail_rows])
            alphas = state.alphas[lvl]
            below.append(segment_sum(layer.tail_rows.reshape(-1),
                                     ((alphas * dagg[:, j, None]).reshape(-1) for j in range(d)),
                                     len(prev[lvl + 1])))
        adj = below
        state.hops.pop()
        state.aggs.pop()

    # One row per entity, its depths summed in depth order; -0.0 is the
    # additive identity, so a single-depth row comes out bitwise unchanged.
    ent_grad = segment_sum(np.concatenate(batch.ent_rows),
                           (np.concatenate([a[:, j] for a in adj]) for j in range(d)),
                           len(batch.entities), start=-0.0)
    return dalpha, model_grads, ent_grad
