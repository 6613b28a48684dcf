"""Round orchestration: select, serve, collect, aggregate, update.

A round splits the selected clients, in id order, into `workers`
contiguous batches and runs them in order, each through one function,
`_batch_round`. With `workers > 1` the whole round, `wire_sink` calls
included, runs on one worker thread. A batch derives its members' streams
in one `derive_rngs` call before its per-client loop, then reads top to
bottom: per client, on that client's own streams, the request and
randomized response (crng), serving (srng) and merging; one local_train
over the batch's stacked graphs and the one global model (see `model`);
then per client the LDP step (crng) and the upload, bound to what the
server recorded serving that client. Over the json transport both
server-bound messages reach the server as bytes (`_send`).

Aggregation is the request-size weighted mean of client gradients; sparse
coordinates divide only by the weights of packets that touched them, so
rarely-seen entities are not shrunk by absent clients. Packets are always
reduced in client-id order, so a round's result does not depend on how
its clients are batched.

The sparse parts are a segment reduction: kg.unique_inverse maps the
client-order concatenation of the packets' ids to output rows, and
model.segment_sum adds the weighted rows and the weights to 0.0. It adds
repeated indices in order, as np.add.at from zeros does, so it is bitwise
the sequential per-id sum from 0.0.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .client import ClientState, build_request, local_train, merge_graphs
from .config import check
from .data import unobserved_items
from .kg import KnowledgeGraph, sample_subgraph, unique_inverse
from .messages import GradientUpload, RequestMessage
from .model import Field, GradientPacket, SparseGrad, broadcast_model, segment_sum, stack_graphs
from .params import ParameterState, apply_global_update, gather
from .privacy import DpConfig, ldp_encrypt
from .rng import ROLE_CLIENT, ROLE_SELECT, ROLE_SERVE, derive_rng, derive_rngs


class RequestError(ValueError):
    """Request references an unknown entity id."""


class UploadError(ValueError):
    """Upload does not match the client, request and subgraph the server served."""


@dataclass
class RoundConfig:
    """Hyperparameters of one federated round.

    Construction raises a ConfigError (a ValueError) naming the first field
    outside its key's bound in `config.BOUNDS`, with `validate()`'s text.
    """

    sample_size: int  # neighbor samples per entity (K)
    depth: int  # receptive field depth (H)
    eta: float  # learning rate
    clients_per_round: int
    dp: DpConfig
    num_items: int
    epochs: int = 1
    seed: int = 0
    workers: int = 1  # contiguous batches, run in order; > 1: the round runs on a worker thread
    transport: str = "memory"  # "memory" | "json" (serialize server-bound messages)

    def __post_init__(self):
        for key in ("sample_size", "depth", "eta", "clients_per_round", "epochs", "seed",
                    "workers", "transport"):
            check(key, getattr(self, key))


@dataclass
class AggregatedGradient:
    entity: SparseGrad = field(default_factory=SparseGrad)
    relation: SparseGrad = field(default_factory=SparseGrad)
    model: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


@dataclass
class RoundReport:
    round_index: int
    mean_loss: float  # mean pre-LDP client loss: a simulator diagnostic, not on the wire
    participants: int

    def to_json_record(self) -> dict:
        return {"type": "round", "round": self.round_index,
                "mean_loss": self.mean_loss, "participants": self.participants}


def select_clients(total: int, count: int, rng: np.random.Generator) -> list[int]:
    """Uniform subset without replacement, returned sorted."""
    if count > total:
        raise ValueError(f"cannot select {count} of {total} clients")
    return sorted(int(c) for c in rng.choice(total, size=count, replace=False))


def serve_request(msg: RequestMessage, kg: KnowledgeGraph, params: ParameterState,
                  sample_size: int, depth: int,
                  rng: np.random.Generator) -> Field:
    """Sample the receptive field; ship copies of its rows and the shared, read-only model."""
    for item in msg.items:
        if not 0 <= item < kg.num_entities:
            raise RequestError(f"unknown item id {item}")
    subgraph = sample_subgraph(kg, msg.items, sample_size, depth, rng)
    return Field(subgraph, *gather(params, subgraph.entities, subgraph.relations),
                 params.model)


def aggregate(packets: list[GradientPacket]) -> AggregatedGradient:
    """Request-size weighted mean (per coordinate for the sparse parts).

    Packets are reduced in client-id order regardless of input order, so the
    result is bitwise permutation-invariant. Every packet must carry the
    first packet's model-gradient layer count and shapes. An overflow or an
    inf - inf gives a non-finite mean, never a warning: the update rejects it.
    """
    if not packets:
        raise ValueError("aggregate over zero packets")
    ordered = sorted(packets, key=lambda p: p.client_id)
    shapes = [(dw.shape, db.shape) for dw, db in ordered[0].model_grads]
    for p in ordered[1:]:
        if [(dw.shape, db.shape) for dw, db in p.model_grads] != shapes:
            raise ValueError(f"client {p.client_id} model gradients do not match "
                             f"client {ordered[0].client_id}'s layers {shapes}")
    weights = [float(p.weight) for p in ordered]
    total_weight = sum(weights)
    model_num = [(np.zeros_like(dw), np.zeros_like(db))
                 for dw, db in ordered[0].model_grads]
    with np.errstate(over="ignore", invalid="ignore"):
        for w, p in zip(weights, ordered):
            for (nw, nb), (dw, db) in zip(model_num, p.model_grads):
                nw += w * dw
                nb += w * db
        return AggregatedGradient(
            entity=_segment_mean(weights, [p.entity_grads for p in ordered]),
            relation=_segment_mean(weights, [p.relation_grads for p in ordered]),
            model=[(nw / total_weight, nb / total_weight) for nw, nb in model_num])


def _segment_mean(weights: list[float], grads: list[SparseGrad]) -> SparseGrad:
    """Per-id weighted mean over the packets that carry each id, in list order."""
    touched = [(w, g) for w, g in zip(weights, grads) if len(g)]
    if not touched:
        return SparseGrad()
    ids, segment = unique_inverse(np.concatenate([g.ids() for _, g in touched]))
    num = segment_sum(segment, np.concatenate([w * g.rows() for w, g in touched]).T, len(ids))
    den = segment_sum(segment, [np.repeat([w for w, _ in touched], [len(g) for _, g in touched])],
                      len(ids))[:, 0]
    return SparseGrad(ids, num / den[:, None])


def _send(msg, transport: str, wire: list[bytes] | None):
    """The server-bound message as the server receives it: in memory the
    message itself; over json its bytes, decoded, and kept in `wire` when
    one is given."""
    if transport == "memory":
        return msg
    raw = msg.to_json_bytes()
    if wire is not None:
        wire.append(raw)
    return type(msg).from_json_bytes(raw)


def _batch_round(members: list[ClientState], kg: KnowledgeGraph, params: ParameterState,
                 cfg: RoundConfig, round_index: int, keep_wire: bool
                 ) -> tuple[list[GradientUpload], list[float], list[bytes]]:
    """One batch of client legs; returns the bound uploads, each client's pre-LDP
    loss (which no upload carries) and, with keep_wire, the wire bytes, in
    client order (else no bytes outlive their decode).

    Out per client (request, serve, merge), one local_train over the stacked
    batch, back per client (LDP, upload). Each upload must carry its client's
    id, its request length as the weight, exactly the served entity and
    relation ids, and one (dW, db) per layer of the global model, of its
    shapes; else UploadError.
    """
    legs, graphs = [], []
    rngs = derive_rngs([(cfg.seed, role, round_index, client.user_id)
                        for client in members for role in (ROLE_CLIENT, ROLE_SERVE)])
    for client, crng, srng in zip(members, rngs[0::2], rngs[1::2]):
        wire: list[bytes] | None = [] if keep_wire else None
        pool = unobserved_items(client.interactions, cfg.num_items)
        plan, msg = build_request(client, crng.permutation(pool), cfg.dp, crng)
        msg = _send(msg, cfg.transport, wire)
        response = serve_request(msg, kg, params, cfg.sample_size, cfg.depth, srng)
        graphs.append(merge_graphs(plan, response, client.user_embedding))
        legs.append((crng, msg.client_id, len(msg.items), response.subgraph.entities,
                     response.subgraph.relations, wire))
    batch = stack_graphs(graphs)
    del graphs, plan, response  # the stacked copy is what trains
    packets = local_train(members, batch, broadcast_model(params.model, len(members)),
                          cfg.eta, cfg.epochs)

    layers = [(w.shape, b.shape) for w, b in zip(params.model.weights, params.model.biases)]
    uploads = []
    for packet, (crng, client, items, entities, relations, wire) in zip(packets, legs):
        upload = _send(GradientUpload.from_packet(ldp_encrypt(packet, cfg.dp, crng)),
                       cfg.transport, wire)
        if upload.client_id != client or upload.weight != items or \
                not np.array_equal(upload.entity_grads.ids(), entities) or \
                not np.array_equal(upload.relation_grads.ids(), relations) or \
                [(dw.shape, db.shape) for dw, db in upload.model_grads] != layers:
            raise UploadError(f"upload from client {client} does not match its "
                              f"{items} request items, served subgraph and the model's "
                              f"layers {layers}")
        uploads.append(upload)
    return uploads, [p.loss for p in packets], [raw for *_, wire in legs for raw in wire or ()]


def run_round(params: ParameterState, kg: KnowledgeGraph, clients: list[ClientState],
              cfg: RoundConfig, round_index: int,
              wire_sink=None) -> RoundReport:
    """Execute one full federated round; atomic on failure.

    The selected clients, in id order, are split into `cfg.workers`
    contiguous batches, each trained in one stacked pass, in client order,
    so only one batch's intermediates are alive at a time. With one batch
    the whole round runs on the caller's thread; with more, the whole round
    (selection to report, `wire_sink` calls included) runs on one worker
    thread while the caller waits, so a Ctrl-C reaches the caller only
    after the round has finished or rolled back. Batches read the
    immutable pre-round snapshot (gathers are copies, the model read-only
    views) and clients draw only from their own streams, so the split
    changes no result. Uploads funnel into a sorted reduction. Any failure
    or interrupt, in a client leg, the aggregation or the global update,
    rolls back the selected clients' user embeddings and leaves the global
    state untouched (apply_global_update checks before it writes).
    """
    if cfg.workers == 1:
        return _round(params, kg, clients, cfg, round_index, wire_sink)
    # The worker takes the whole round, so no round data crosses threads: at 2k x 2k,
    # H=2, json, 64 clients on 2 cores, scale-json round_ms.p50 read 54.5 -> 49.1 ms
    # (10 pairs) against a worker for the batches only. The thread stays only for
    # perfbench's pool test, which wants legs off the round's thread; once perfbench
    # keys legs by (round, client), call _round here too.
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_round, params, kg, clients, cfg, round_index, wire_sink).result()


def _round(params: ParameterState, kg: KnowledgeGraph, clients: list[ClientState],
           cfg: RoundConfig, round_index: int, wire_sink) -> RoundReport:
    """run_round's body, on whichever thread runs the round."""
    rng = derive_rng(cfg.seed, ROLE_SELECT, round_index)
    selected = select_clients(len(clients), cfg.clients_per_round, rng)
    saved_users = {cid: clients[cid].user_embedding.copy() for cid in selected}
    try:
        results = [_batch_round([clients[cid] for cid in part], kg, params, cfg, round_index,
                                wire_sink is not None)
                   for part in np.array_split(selected, cfg.workers) if len(part)]
        uploads, losses, wire = (sum(parts, []) for parts in zip(*results))
        apply_global_update(params, aggregate([u.to_packet() for u in uploads]), cfg.eta)
    except BaseException:
        for cid, emb in saved_users.items():
            clients[cid].user_embedding[...] = emb
        raise

    if wire_sink is not None:  # results follow select_clients' sorted order
        for raw in wire:
            wire_sink(raw)

    return RoundReport(round_index=round_index,
                       mean_loss=float(np.mean(losses)),
                       participants=len(selected))


def train(params: ParameterState, kg: KnowledgeGraph, clients: list[ClientState],
          user_emb: np.ndarray, dataset, cfg: RoundConfig, max_rounds: int,
          eval_every: int = 10, patience: int = 10, record_sink=None) -> list[dict]:
    """Run rounds until max_rounds or the validation AUC stops improving.

    Evaluates every eval_every rounds (0: never); stops after `patience`
    (>= 1) evaluations without a new best. Returns the evaluation history;
    every round and evaluation record also goes to record_sink when given,
    the round record before its evaluation, so a sink can act at the end of
    any round.
    """
    from .metrics import evaluate_ctr  # local import: metrics layers on top

    check("eval_every", eval_every)
    check("patience", patience)
    history: list[dict] = []
    best_auc = -np.inf
    stale = 0
    for round_index in range(max_rounds):
        report = run_round(params, kg, clients, cfg, round_index)
        if record_sink is not None:
            record_sink(report.to_json_record())
        if eval_every and (round_index + 1) % eval_every == 0:
            rep = evaluate_ctr(dataset, params, user_emb, cfg.sample_size,
                               cfg.depth, cfg.seed, round_index, split="valid")
            record = {"type": "eval", "round": round_index, "split": "valid",
                      **rep.to_dict()}
            history.append(record)
            if record_sink is not None:
                record_sink(record)
            if rep.auc is not None:
                if rep.auc > best_auc:
                    best_auc = rep.auc
                    stale = 0
                else:
                    stale += 1
                if stale >= patience:
                    break
    return history
