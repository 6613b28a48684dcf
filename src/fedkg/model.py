"""Relation-aware GNN over a merged local graph.

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
tail rows in depth l+1. Entity gradients come back as one row per id in
`subgraph.entities`, summed over depths in depth order.

The backward pass is hand-derived and exact (checked against central
finite differences); attention weights are shared across hops, so their
adjoints accumulate over hops before the softmax backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .kg import Subgraph

PROB_CLAMP = 1e-7


@dataclass
class ModelParams:
    """Per-hop transform weights plus the aggregation mode."""

    mode: str  # "replace" | "transform"
    weights: list[np.ndarray]  # depth entries, each (d, d)
    biases: list[np.ndarray]  # depth entries, each (d,)

    def __post_init__(self):
        if self.mode not in ("replace", "transform"):
            raise ValueError(f"unknown aggregation mode {self.mode!r}")
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases layer count mismatch")

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.weights[0].shape[0] if self.weights else 0

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


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtraction)."""
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def attention_weights(user: np.ndarray, relations: list[np.ndarray]) -> np.ndarray:
    """Softmax over inner-product scores between the user and each relation."""
    if len(relations) == 0:
        raise ValueError("attention over an empty neighbor list")
    scores = np.array([float(np.dot(user, r)) for r in relations])
    return softmax(scores)


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def predict(user: np.ndarray, item_final: np.ndarray) -> float:
    """Readout: sigmoid of the user/item inner product."""
    return float(sigmoid(float(np.dot(user, item_final))))


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with predictions clamped to [1e-7, 1-1e-7]."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise ValueError("bce_loss over empty predictions")
    if p.shape != y.shape:
        raise ValueError("predictions/labels length mismatch")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))))


# ---------------------------------------------------------------------------
# Forward pass and cache
# ---------------------------------------------------------------------------

@dataclass
class _ForwardState:
    ent_rows: list[np.ndarray]  # per depth, rows into graph.entity_rows
    alphas: list[np.ndarray]  # per layer (n_sampled, K)
    hops: list[list[np.ndarray]]  # hops[i][depth] -> (n_depth, d) values after hop i
    aggs: list[list[np.ndarray]]  # aggregated neighbor sums per hop/layer
    logits: np.ndarray
    predictions: np.ndarray


def _forward(graph: LocalGraph, params: ModelParams) -> _ForwardState:
    sub = graph.subgraph
    if params.depth != sub.depth:
        raise ValueError(
            f"model has {params.depth} layers but subgraph depth is {sub.depth}")
    u = graph.user

    # Attention is user/relation only, so it is fixed across hops.
    alphas = [softmax(graph.relation_rows[layer.rel_rows] @ u, axis=1)
              for layer in sub.layers]

    ent_rows = [np.searchsorted(sub.entities, ids) for ids in sub.ids]
    hops = [[graph.entity_rows[rows] for rows in ent_rows]]
    aggs: list[list[np.ndarray]] = []
    for hop in range(1, sub.depth + 1):
        prev = hops[-1]
        cur = [v.copy() for v in prev]
        hop_aggs: list[np.ndarray] = []
        for lvl, layer in enumerate(sub.layers):
            sampled = layer.sampled
            nbr = prev[lvl + 1][layer.tail_rows]  # (n_sampled, K, d)
            agg = np.einsum("nk,nkd->nd", alphas[lvl], nbr)
            hop_aggs.append(agg)
            if params.mode == "replace":
                cur[lvl][sampled] = agg
            else:
                w, b = params.weights[hop - 1], params.biases[hop - 1]
                pre = (prev[lvl][sampled] + agg) @ w.T + b
                cur[lvl][sampled] = np.tanh(pre)
        hops.append(cur)
        aggs.append(hop_aggs)

    final_anchor = hops[-1][0]
    logits = final_anchor @ u if len(final_anchor) else np.empty(0)
    preds = sigmoid(logits) if logits.size else np.empty(0)
    return _ForwardState(ent_rows=ent_rows, alphas=alphas, hops=hops, aggs=aggs,
                         logits=logits, predictions=np.atleast_1d(preds))


def propagate(graph: LocalGraph, params: ModelParams, depth: int) -> np.ndarray:
    """Return the (n_anchors, d) matrix of final anchor vectors after `depth` hops."""
    if depth != graph.subgraph.depth:
        raise ValueError(f"requested depth {depth} != subgraph depth {graph.subgraph.depth}")
    return _forward(graph, params).hops[-1][0]


def forward_loss(graph: LocalGraph, params: ModelParams,
                 labels: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Convenience: run the forward pass, return (mean BCE loss, predictions)."""
    state = _forward(graph, params)
    y = graph.labels if labels is None else np.asarray(labels, dtype=np.float64)
    return bce_loss(state.predictions, y), state.predictions


def backward(graph: LocalGraph, params: ModelParams,
             labels: np.ndarray | None = None) -> GradientPacket:
    """Exact gradients of the mean BCE loss w.r.t. every touched parameter.

    Covers all gathered entity vectors, relation vectors (through the
    attention softmax), per-hop transform weights, and the user embedding
    (through both the readout and the attention path). The packet weight is
    the number of anchor items.
    """
    state = _forward(graph, params)
    sub = graph.subgraph
    y = graph.labels if labels is None else np.asarray(labels, dtype=np.float64)
    m = len(y)
    if m == 0:
        raise ValueError("backward over empty anchor list")
    u = graph.user
    d = len(u)
    preds = state.predictions
    loss = bce_loss(preds, y)

    # d(loss)/d(logit); zero where the clamp flattens the loss.
    dz = (preds - y) / m
    clamped = (preds <= PROB_CLAMP) | (preds >= 1.0 - PROB_CLAMP)
    dz[clamped] = 0.0

    user_grad = state.hops[-1][0].T @ dz if m else np.zeros(d)

    # Adjoints per hop state; only the final anchors receive loss gradient.
    adj = [[np.zeros_like(v) for v in hop] for hop in state.hops]
    adj[sub.depth][0] = dz[:, None] * u[None, :]

    dalpha = [np.zeros_like(a) for a in state.alphas]
    model_grads = [(np.zeros((d, d)), np.zeros(d)) for _ in range(params.depth)]

    for hop in range(sub.depth, 0, -1):
        prev = state.hops[hop - 1]
        for lvl, layer in enumerate(sub.layers):
            g_full = adj[hop][lvl]
            adj[hop - 1][lvl][layer.isolated] += g_full[layer.isolated]
            if len(layer.rel_rows) == 0:
                continue
            sampled = layer.sampled
            g = g_full[sampled]
            agg = state.aggs[hop - 1][lvl]
            if params.mode == "transform":
                out = state.hops[hop][lvl][sampled]
                dpre = g * (1.0 - out * out)
                w = params.weights[hop - 1]
                dw, db = model_grads[hop - 1]
                dw += dpre.T @ (prev[lvl][sampled] + agg)
                db += dpre.sum(axis=0)
                dagg = dpre @ w
                adj[hop - 1][lvl][sampled] += dagg  # self path
            else:
                dagg = g
            nbr = prev[lvl + 1][layer.tail_rows]
            dalpha[lvl] += np.einsum("nd,nkd->nk", dagg, nbr)
            contrib = state.alphas[lvl][:, :, None] * dagg[:, None, :]
            np.add.at(adj[hop - 1][lvl + 1], layer.tail_rows.reshape(-1),
                      contrib.reshape(-1, d))
        # Depths deeper than any center layer (the leaves) carry raw values
        # through every hop; pass their adjoint straight through.
        adj[hop - 1][sub.depth] += adj[hop][sub.depth]

    # Softmax backward, once per layer (weights are shared across hops).
    rel_grad = np.zeros_like(graph.relation_rows)
    for lvl, layer in enumerate(sub.layers):
        if len(layer.rel_rows) == 0:
            continue
        a = state.alphas[lvl]
        da = dalpha[lvl]
        ds = a * (da - np.sum(a * da, axis=1, keepdims=True))
        rel_vecs = graph.relation_rows[layer.rel_rows]  # (n, K, d)
        user_grad = user_grad + np.einsum("nk,nkd->d", ds, rel_vecs)
        np.add.at(rel_grad, layer.rel_rows.reshape(-1),
                  ds.reshape(-1)[:, None] * u[None, :])

    # One row per entity, its depths summed in depth order; -0.0 is the
    # additive identity, so a single-depth row comes out bitwise unchanged.
    ent_grad = np.full((len(sub.entities), d), -0.0)
    np.add.at(ent_grad, np.concatenate(state.ent_rows), np.concatenate(adj[0]))

    return GradientPacket(entity_grads=SparseGrad(sub.entities, ent_grad),
                          relation_grads=SparseGrad(sub.relations, rel_grad),
                          model_grads=model_grads, user_grad=user_grad,
                          weight=m, loss=loss)
