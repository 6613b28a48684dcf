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
mixes rows (the readout and its user gradient, the losses, the transform
matmuls, dW/db/dagg and the attention path of the user gradient) run as
one stacked call per block size: the clients whose blocks hold n rows
are gathered into contiguous (G, n, ...) copies, each with its own model
layer, and the result is scattered back. A stacked matmul, einsum or
reduction runs each slice as the per-client call would, so a client's
values are bitwise those of its own call and the same in any batch; a
single LocalGraph is a batch of one, stacked by the same path as any
batch. (One matmul over the concatenated rows of several clients would
not be bitwise.) A batch's ModelParams is the shared global model
broadcast, copy-free and read-only, along a leading client axis
(`broadcast_model`).

The backward pass is hand-derived and exact (checked against central
finite differences); attention weights are shared across hops, so their
adjoints accumulate over hops before the softmax backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .config import check
from .kg import Layer, Subgraph, unique_inverse

PROB_CLAMP = 1e-7


@dataclass
class ModelParams:
    """Per-hop transform weights plus the aggregation mode."""

    mode: str  # "replace" | "transform"
    weights: list[np.ndarray]  # depth entries, each (d, d); (B, d, d) in a batch
    biases: list[np.ndarray]  # depth entries, each (d,); (B, d) in a batch

    def __post_init__(self):
        check("mode", self.mode)
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
    the wire decoder check the invariant. add(), indexing by id and the
    read-only `entries` {id: row} view derived from the arrays exist for
    the acceptance gate and perfbench; nothing in the package uses them.
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

    user_grad and loss (the client's training loss on its own labels) never
    leave the client; ldp_encrypt strips both (sets them to None) before
    upload. The upload (messages.GradientUpload) is the stripped packet itself.
    """

    entity_grads: SparseGrad
    relation_grads: SparseGrad
    model_grads: list[tuple[np.ndarray, np.ndarray]]
    user_grad: np.ndarray | None
    weight: int
    loss: float | None
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
    """B LocalGraphs stacked in batch order (layout in the module docstring).

    An evaluation batch (`field_batch`) shares one Field's read-only rows
    among its users, so its entity/relation offsets are None: packets() is
    for training batches only.
    """

    users: np.ndarray  # (B, d)
    labels: np.ndarray  # anchor labels; blocks by anchor_offsets
    entities: np.ndarray  # each subgraph's entities; blocks by entity_offsets
    relations: np.ndarray  # each subgraph's relations; blocks by relation_offsets
    entity_rows: np.ndarray  # row i is the vector of entities[i]
    relation_rows: np.ndarray  # row i is the vector of relations[i]
    ent_rows: list[np.ndarray]  # per depth, the stacked ids' rows into entity_rows
    layers: list[Layer]  # rel_rows into relations, tail_rows into the next depth's stack
    anchor_offsets: np.ndarray
    entity_offsets: np.ndarray | None
    relation_offsets: np.ndarray | None
    sampled_offsets: list[np.ndarray]  # per layer; blocks of rel_rows/tail_rows

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def anchor_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The anchor blocks' size groups (`_groups`), shared by the readout,
        the losses and the user gradient."""
        return _groups(self.anchor_offsets)

    @cached_property
    def sampled_groups(self) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Per layer, its sampled blocks' size groups (`_groups`)."""
        return [_groups(off) for off in self.sampled_offsets]

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


def _groups(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(clients, rows) per distinct non-zero block size n: the G clients whose
    blocks hold n rows, in batch order, and their (G, n) row indices."""
    sizes = np.diff(offsets)
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order].tolist()
    starts = [i for i, n in enumerate(ordered) if n and (i == 0 or n != ordered[i - 1])]
    return [(order[s:e], offsets[order[s:e], None] + np.arange(ordered[s]))
            for s, e in zip(starts, [*starts[1:], len(ordered)])]


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
    sampled_off = [_offsets([len(s.layers[lvl].rel_rows) for s in subs])
                   for lvl in range(depth)]
    layers = [Layer(isolated=np.concatenate([s.layers[lvl].isolated for s in subs]),
                    rel_rows=np.concatenate([s.layers[lvl].rel_rows for s in subs])
                    + _per_row(rel_off[:-1, None], sampled_off[lvl]),
                    tail_rows=np.concatenate([s.layers[lvl].tail_rows for s in subs])
                    + _per_row(ids_off[lvl + 1][:-1, None], sampled_off[lvl]))
              for lvl in range(depth)]
    return GraphBatch(
        users=np.array([g.user for g in graphs], dtype=np.float64),
        labels=np.concatenate([g.labels for g in graphs]),
        entities=np.concatenate([s.entities for s in subs]),
        relations=np.concatenate([s.relations for s in subs]),
        entity_rows=np.concatenate([g.entity_rows for g in graphs]),
        relation_rows=np.concatenate([g.relation_rows for g in graphs]),
        ent_rows=[np.concatenate([s.ent_rows[lvl] for s in subs])
                  + _per_row(ent_off[:-1], ids_off[lvl]) for lvl in range(depth + 1)],
        layers=layers, anchor_offsets=ids_off[0], entity_offsets=ent_off,
        relation_offsets=rel_off, sampled_offsets=sampled_off)


@dataclass
class Field:
    """A sampled receptive field, its gathered rows and the model that reads them.

    Row i of entity_rows (relation_rows) is the vector of subgraph.entities[i]
    (subgraph.relations[i]); the rows are read-only copies. `model` is the
    global model itself, shared and read-only: local training steps its own
    copies. The server answers a request with one; an evaluation pass scores
    all its users from one sampled around every item (`field_batch`).
    """

    subgraph: Subgraph
    entity_rows: np.ndarray
    relation_rows: np.ndarray
    model: ModelParams

    def __post_init__(self):
        self.entity_rows.flags.writeable = self.relation_rows.flags.writeable = False


def field_batch(field: Field, users: np.ndarray, items: np.ndarray, counts) -> GraphBatch:
    """The GraphBatch that scores users[b] on counts[b] consecutive `items` over `field`.

    Depth 0 holds each user's items in order, and each inner depth the
    distinct tails that user's sampled rows reach (one keyed unique over
    user * n + position). The deepest depth, which no hop updates, is the
    field's own, shared by the block. Every row index points into the
    field's rows, so a user's scores are bitwise those of the field
    restricted to its items and run as that user's own LocalGraph.
    """
    sub, anchors = field.subgraph, _offsets(counts)
    owner, pos = _per_row(np.arange(len(users)), anchors), np.asarray(items, dtype=np.int64)
    ent_rows, layers, sampled_off = [sub.ent_rows[0][pos]], [], []
    for lvl, layer in enumerate(sub.layers):
        isolated = layer.isolated[pos]
        rows, owner = layer.sampled_rows[pos[~isolated]], owner[~isolated]
        tails = layer.tail_rows[rows]
        sampled_off.append(_offsets(np.bincount(owner, minlength=len(users))))
        if lvl + 1 < sub.depth:
            n = len(sub.ids[lvl + 1])
            keys, tails = unique_inverse(owner[:, None] * n + tails)
            owner, pos = np.divmod(keys, n)
            ent_rows.append(sub.ent_rows[lvl + 1][pos])
        else:
            ent_rows.append(sub.ent_rows[-1])
        layers.append(Layer(isolated=isolated, rel_rows=layer.rel_rows[rows], tail_rows=tails))
    return GraphBatch(
        users=np.asarray(users, dtype=np.float64), labels=np.zeros(anchors[-1]),
        entities=sub.entities, relations=sub.relations, entity_rows=field.entity_rows,
        relation_rows=field.relation_rows, ent_rows=ent_rows, layers=layers,
        anchor_offsets=anchors, entity_offsets=None, relation_offsets=None,
        sampled_offsets=sampled_off)


def field_scorer(field: Field, params: ModelParams):
    """The function that scores every field item for a block of users: (U, d) -> (U, n).

    Attention depends only on (user, relation). A center's slots are the
    distinct relations it drew, in ascending order, M <= min(K, R) of them
    in the field (a center with fewer pads with its first relation at count
    0). Its softmax over its draws is sum_m e^t_um S_m / sum_m e^t_um c_m,
    S_m and c_m the sum and count of its draws of slot m's relation, t
    shifted by the largest drawn. Hop 1 reads raw rows: the slots, S, c
    and, in transform mode, W x + b and W S_m (the parts of W (x + agg) +
    b) are made here once from each draw's slot, so neither this set-up
    nor a block grows with R, only with M and K. A layer with one slot (M
    = 1) weighs every draw 1/K for any user, so each state that reads only
    such layers is one read-only (1, d, n) row, made here once per pass.
    A block makes the others, (U, d, n), and the readout: one matmul and
    one sigmoid when every layer has M = 1. Hops >= 2 gather and read each
    draw's coefficient through its slot.

    Every row, weight and user must be finite, and the caller checks it
    (`fedkg evaluate` refuses a checkpoint table that is not): an M = 1
    layer never forms the user's logits, so a NaN or inf relation row
    would not reach its scores as it reaches `field_batch`'s. With finite
    inputs, scores agree with `field_batch`'s to rounding.
    """
    sub, transform = field.subgraph, params.mode == "transform"
    raw = [field.entity_rows[rows].T for rows in sub.ent_rows]  # (d, n) per depth
    slots, draw_slots, hop1 = [], [], []
    for lvl, layer in enumerate(sub.layers):
        # a draw's slot: how many distinct relations its center drew below its own
        order = np.argsort(layer.rel_rows, axis=1)
        ranked = np.take_along_axis(layer.rel_rows, order, axis=1)
        step = np.cumsum(np.diff(ranked, axis=1, prepend=ranked[:, :1]) != 0, axis=1)
        slot = np.empty_like(step)
        np.put_along_axis(slot, order, step, axis=1)
        mask = slot[..., None] == np.arange(slot.max(initial=0) + 1)  # (n_sampled, K, M)
        count = np.einsum("nkm->mn", mask.astype(np.intp))
        # a slot's relation is its first sorted draw's; a pad repeats slot 0's,
        # a drawn one, so the shift stays the largest drawn
        first = np.where(count > 0, np.cumsum(count, axis=0) - count, 0)
        rel = np.take_along_axis(ranked.T, first, axis=0)
        sums = np.einsum("nkm,dnk->mdn", mask, raw[lvl + 1][:, layer.tail_rows])
        w, b = params.weights[0], params.biases[0][:, None]
        if transform:
            sums = w @ sums
        slots.append((rel, count))
        draw_slots.append(slot.T)
        hop1.append((w @ raw[lvl][:, layer.sampled] + b if transform else 0.0,
                     np.where(count[:, None] > 0, sums, 0.0)))

    def advance(hop: int, lvl: int, coef: np.ndarray, states: dict) -> np.ndarray:
        """Depth lvl's state after `hop` hops, from states[hop - 1, lvl] and [.., lvl + 1]."""
        layer, old = sub.layers[lvl], states[hop - 1, lvl]
        if hop == 1:
            base, slot_sums = hop1[lvl]
            # one C-contiguous buffer: the readout matmul rounds by layout
            new = np.multiply(coef[:, 0, None], slot_sums[0],
                              out=np.empty((len(coef), *slot_sums.shape[1:])))
            new += base
            for m in range(1, len(slot_sums)):
                new += coef[:, m, None] * slot_sums[m]
            if transform:
                np.tanh(new, out=new)
        else:
            alpha = coef[:, draw_slots[lvl], np.arange(len(layer.rel_rows))]
            new = np.einsum("ukn,udkn->udn", alpha,
                            states[hop - 1, lvl + 1][:, :, layer.tail_rows.T])
            if transform:
                w, b = params.weights[hop - 1], params.biases[hop - 1][:, None]
                new = np.tanh(w @ (old[:, :, layer.sampled] + new) + b)
        if layer.isolated.any():  # isolated centers keep their state
            full = np.broadcast_to(old, new.shape[:1] + old.shape[1:]).copy()  # U rows, or 1
            full[:, :, layer.sampled] = new
            new = full
        return new

    # depth lvl's state after a hop reads its own and lvl + 1's from the hop before
    hops = [(hop, lvl) for hop in range(1, sub.depth + 1) for lvl in range(sub.depth + 1 - hop)]
    # one relation per center: e^0 / (e^0 K) = 1 / K for any user
    one = [(1.0 / count)[None] if len(rel) == 1 else None for rel, count in slots]
    # the states no user's attention reaches, one read-only (1, d, n) row for the pass
    shared = {(0, lvl): x[None] for lvl, x in enumerate(raw)}
    for hop, lvl in hops:
        if one[lvl] is not None and {(hop - 1, lvl), (hop - 1, lvl + 1)} <= shared.keys():
            shared[hop, lvl] = advance(hop, lvl, one[lvl], shared)
    for state in shared.values():
        state.flags.writeable = False

    def score(users: np.ndarray) -> np.ndarray:
        t = (np.einsum("ud,rd->ur", users, field.relation_rows)  # the same in any block
             if any(coef is None for coef in one) else None)
        coefs = []
        for (rel, count), coef in zip(slots, one):
            if coef is None:
                by_slot = t[:, rel]  # (U, M, n_sampled)
                shift = reduce(np.maximum, by_slot.swapaxes(0, 1))
                e = np.exp(by_slot - shift[:, None])
                coef = e / reduce(np.add, (e * count).swapaxes(0, 1))[:, None]
            coefs.append(coef)
        states = dict(shared)  # and a row per user for each state a user's attention reaches
        for hop, lvl in hops:
            if (hop, lvl) not in states:
                states[hop, lvl] = advance(hop, lvl, coefs[lvl], states)
        return sigmoid((users[:, None] @ states[sub.depth, 0])[:, 0])
    return score


def as_batch(graph: LocalGraph | GraphBatch,
             params: ModelParams) -> tuple[GraphBatch, ModelParams]:
    """A LocalGraph and its model as a batch of one; a batch as it is."""
    if isinstance(graph, GraphBatch):
        return graph, params
    return stack_graphs([graph]), broadcast_model(params, 1)


def segment_sum(index: np.ndarray, columns, size: int) -> np.ndarray:
    """np.add.at(np.zeros((size, width)), index, rows), bitwise.

    `columns` yields the columns of `rows` one at a time (1-D, in index
    order), so the terms never need to exist as one matrix. One bincount
    per column adds each bin's terms in index order from +0.0, as add.at
    does, at a fraction of its cost: each sum is the sequential per-id sum
    from 0.0, so a bin with no terms, or only zeros, reads +0.0.
    """
    # (bincount gives int64 zeros for no terms)
    return np.stack([np.bincount(index, weights=terms, minlength=size) for terms in columns],
                    axis=1).astype(np.float64, copy=False)


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
    """1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below, from one exponential.

    e = e^-|z| is the exponential both branches take, so it never overflows.
    It is made as exp(minimum(z, -z)), which keeps a NaN's sign bit where
    -abs(z) would set it; the result is bitwise the two-branch
    formula everywhere, ±0, ±inf, subnormals and NaN signs included."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
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
    alphas: list[np.ndarray]  # per layer (n_sampled, K)
    hops: list[list[np.ndarray]]  # hops[i][depth], depth <= H-i -> (n_depth, d) after hop i
    aggs: list[list[np.ndarray]]  # aggregated neighbor sums per hop/layer


def _forward(batch: GraphBatch, params: ModelParams) -> _ForwardState:
    if params.depth != batch.depth:
        raise ValueError(
            f"model has {params.depth} layers but subgraph depth is {batch.depth}")

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
                cur[lvl][layer.sampled] = agg
            else:
                w, b = params.weights[hop - 1], params.biases[hop - 1]
                pre = prev[lvl][layer.sampled] + agg
                for cs, rows in batch.sampled_groups[lvl]:
                    pre[rows] = pre[rows] @ w[cs].swapaxes(1, 2) + b[cs][:, None]
                cur[lvl][layer.sampled] = np.tanh(pre)
        hops.append(cur)
        aggs.append(hop_aggs)
    return _ForwardState(alphas=alphas, hops=hops, aggs=aggs)


def readout(batch: GraphBatch, final: np.ndarray) -> np.ndarray:
    """sigmoid(<user, final anchor vector>), each anchor with its client's user."""
    logits = np.empty(len(final))
    for cs, rows in batch.anchor_groups:
        logits[rows] = (final[rows] @ batch.users[cs][:, :, None])[..., 0]
    return sigmoid(logits)


def _losses(batch: GraphBatch, predictions: np.ndarray) -> list[float]:
    """Each client's bce_loss, from one pass over the stacked terms."""
    if (np.diff(batch.anchor_offsets) == 0).any():
        raise ValueError("bce_loss over empty predictions")
    terms = _bce_terms(predictions, batch.labels)
    losses = np.empty(len(batch.users))
    for cs, rows in batch.anchor_groups:
        losses[cs] = terms[rows].mean(axis=1)
    return losses.tolist()


def propagate(graph: LocalGraph | GraphBatch, params: ModelParams) -> np.ndarray:
    """The (n_anchors, d) final anchor vectors after the subgraph's `depth` hops."""
    return _forward(*as_batch(graph, params)).hops[-1][0]


def forward_loss(graph: LocalGraph | GraphBatch, params: ModelParams):
    """Run the forward pass; return (mean BCE loss, predictions).

    A batch gives one loss per client and the stacked predictions.
    """
    batch, params = as_batch(graph, params)
    predictions = readout(batch, propagate(batch, params))
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
    preds = readout(batch, final)
    losses = _losses(batch, preds)

    # d(loss)/d(logit) of each client's mean; zero where the clamp flattens the loss.
    dz = (preds - y) / np.repeat(counts, counts)
    clamped = (preds <= PROB_CLAMP) | (preds >= 1.0 - PROB_CLAMP)
    dz[clamped] = 0.0

    user_grad = np.empty_like(batch.users)
    for cs, rows in batch.anchor_groups:
        user_grad[cs] = (final[rows].swapaxes(1, 2) @ dz[rows][:, :, None])[..., 0]
    dalpha, model_grads, ent_grad = _hop_backward(batch, params, state, dz)

    # Softmax backward, once per layer (weights are shared across hops);
    # the relation rows sum their layers' terms in layer order.
    rel_index, rel_terms = [np.empty(0, dtype=np.int64)], [(np.empty((0, 1)), np.empty((0, d)))]
    for lvl, layer in enumerate(batch.layers):
        a = state.alphas[lvl]
        da = dalpha[lvl]
        ds = a * (da - np.sum(a * da, axis=1, keepdims=True))
        for cs, rows in batch.sampled_groups[lvl]:
            user_grad[cs] = user_grad[cs] + np.einsum(
                "gnk,gnkd->gd", ds[rows], batch.relation_rows[layer.rel_rows[rows]])
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
            g = g_full[layer.sampled]
            agg = state.aggs[hop - 1][lvl]
            if params.mode == "transform":
                out = state.hops[hop][lvl][layer.sampled]
                dpre = g * (1.0 - out * out)
                x = prev[lvl][layer.sampled] + agg
                w = params.weights[hop - 1]
                dw, db = model_grads[hop - 1]
                dagg = np.empty_like(dpre)
                for cs, rows in batch.sampled_groups[lvl]:
                    block = dpre[rows]
                    dw[cs] += block.swapaxes(1, 2) @ x[rows]
                    db[cs] += block.sum(axis=1)
                    dagg[rows] = block @ w[cs]
                below[lvl][layer.sampled] += dagg  # self path
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

    # One row per entity, its depths summed in depth order from +0.0, as
    # every other sum here starts.
    ent_grad = segment_sum(np.concatenate(batch.ent_rows),
                           (np.concatenate([a[:, j] for a in adj]) for j in range(d)),
                           len(batch.entities))
    return dalpha, model_grads, ent_grad
