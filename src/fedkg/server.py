"""Round orchestration: select, serve, collect, aggregate, update.

Aggregation is the request-size weighted mean of client gradients; sparse
coordinates divide only by the weights of packets that touched them, so
rarely-seen entities are not shrunk by absent clients. Packets are always
reduced in client-id order, which makes parallel rounds bitwise
reproducible.

The sparse parts are a segment reduction: np.unique maps the client-order
concatenation of the packets' ids to output rows, and np.add.at sums the
weighted rows into a -0.0 matrix and the weights into a 0.0 vector. It
adds repeated indices in order and -0.0 + x == x, so it is bitwise the
sequential per-id sum.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .client import ClientState, build_request, local_train, merge_graphs
from .kg import KnowledgeGraph, sample_subgraph
from .messages import GradientUpload, RequestMessage, SubgraphResponse
from .model import GradientPacket, SparseGrad
from .params import ParameterState, apply_global_update, gather
from .privacy import DpConfig, ldp_encrypt
from .rng import ROLE_CLIENT, ROLE_SELECT, ROLE_SERVE, derive_rng


class RequestError(ValueError):
    """Request references an unknown entity id."""


@dataclass
class RoundConfig:
    """Hyperparameters of one federated round."""

    sample_size: int  # neighbor samples per entity (K)
    depth: int  # receptive field depth (H)
    eta: float  # learning rate
    clients_per_round: int
    dp: DpConfig
    num_items: int
    epochs: int = 1
    seed: int = 0
    workers: int = 1
    transport: str = "memory"  # "memory" | "json" (serialize server-bound messages)


@dataclass
class AggregatedGradient:
    entity: SparseGrad = field(default_factory=SparseGrad)
    relation: SparseGrad = field(default_factory=SparseGrad)
    model: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


@dataclass
class RoundReport:
    round_index: int
    mean_loss: float
    participants: int
    duration: float

    def to_json_record(self) -> dict:
        # duration is wall-clock and would break bitwise-reproducible metrics
        # files, so it stays off the serialized record.
        return {"type": "round", "round": self.round_index,
                "mean_loss": self.mean_loss, "participants": self.participants}


def select_clients(total: int, count: int, rng: np.random.Generator) -> list[int]:
    """Uniform subset without replacement, returned sorted."""
    if count > total:
        raise ValueError(f"cannot select {count} of {total} clients")
    return sorted(int(c) for c in rng.choice(total, size=count, replace=False))


def serve_request(msg: RequestMessage, kg: KnowledgeGraph, params: ParameterState,
                  sample_size: int, depth: int,
                  rng: np.random.Generator) -> SubgraphResponse:
    """Sample the receptive field and ship only the touched embedding rows."""
    for item in msg.items:
        if not 0 <= item < kg.num_entities:
            raise RequestError(f"unknown item id {item}")
    subgraph = sample_subgraph(kg, msg.items, sample_size, depth, rng)
    ent_rows, rel_rows = gather(params, subgraph.entities, subgraph.relations)
    return SubgraphResponse(subgraph=subgraph, entity_rows=ent_rows,
                            relation_rows=rel_rows, model=params.model.copy())


def aggregate(packets: list[GradientPacket]) -> AggregatedGradient:
    """Request-size weighted mean (per coordinate for the sparse parts).

    Packets are reduced in client-id order regardless of input order, so the
    result is bitwise permutation-invariant.
    """
    if not packets:
        raise ValueError("aggregate over zero packets")
    ordered = sorted(packets, key=lambda p: p.client_id)
    weights = [float(p.weight) for p in ordered]
    total_weight = sum(weights)
    model_num = [(np.zeros_like(dw), np.zeros_like(db))
                 for dw, db in ordered[0].model_grads]
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
    ids, segment = np.unique(np.concatenate([g.ids() for _, g in touched]),
                             return_inverse=True)
    num = np.full((len(ids), touched[0][1].rows().shape[1]), -0.0)
    den = np.zeros(len(ids))
    np.add.at(num, segment, np.concatenate([w * g.rows() for w, g in touched]))
    np.add.at(den, segment, np.repeat([w for w, _ in touched], [len(g) for _, g in touched]))
    return SparseGrad(ids, num / den[:, None])


def _client_round(client: ClientState, kg: KnowledgeGraph, params: ParameterState,
                  cfg: RoundConfig, round_index: int) -> tuple[GradientUpload, list[bytes]]:
    """One client's leg of the round; returns the upload and any wire bytes."""
    crng = derive_rng(cfg.seed, ROLE_CLIENT, round_index, client.user_id)
    srng = derive_rng(cfg.seed, ROLE_SERVE, round_index, client.user_id)
    captured: list[bytes] = []

    pool = np.setdiff1d(np.arange(cfg.num_items),
                        np.array(sorted(client.interactions), dtype=np.int64))
    negatives = [int(i) for i in crng.permutation(pool)]

    plan, msg = build_request(client, negatives, cfg.dp, crng)
    if cfg.transport == "json":
        raw = msg.to_json_bytes()
        captured.append(raw)
        msg = RequestMessage.from_json_bytes(raw)

    response = serve_request(msg, kg, params, cfg.sample_size, cfg.depth, srng)
    graph = merge_graphs(plan, response, client.user_embedding)
    packet = local_train(client, graph, response.model, cfg.eta, cfg.epochs)
    protected = ldp_encrypt(packet, cfg.dp, crng)

    upload = GradientUpload.from_packet(protected)
    if cfg.transport == "json":
        raw = upload.to_json_bytes()
        captured.append(raw)
        upload = GradientUpload.from_json_bytes(raw)
    return upload, captured


def run_round(params: ParameterState, kg: KnowledgeGraph, clients: list[ClientState],
              cfg: RoundConfig, round_index: int,
              wire_sink=None) -> RoundReport:
    """Execute one full federated round; atomic on failure.

    Clients run against the immutable pre-round snapshot (their gathers are
    copies) and may execute in parallel; uploads funnel into a sorted
    reduction. Any client failure rolls back the selected clients' user
    embeddings and leaves the global state untouched.
    """
    start = time.perf_counter()
    rng = derive_rng(cfg.seed, ROLE_SELECT, round_index)
    selected = select_clients(len(clients), cfg.clients_per_round, rng)
    saved_users = {cid: clients[cid].user_embedding.copy() for cid in selected}

    try:
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(
                    lambda cid: _client_round(clients[cid], kg, params, cfg, round_index),
                    selected))
        else:
            results = [_client_round(clients[cid], kg, params, cfg, round_index)
                       for cid in selected]
    except Exception:
        for cid, emb in saved_users.items():
            clients[cid].user_embedding[...] = emb
        raise

    uploads = [r[0] for r in results]
    if wire_sink is not None:
        for _, captured in sorted(zip(selected, [r[1] for r in results])):
            for raw in captured:
                wire_sink(raw)

    packets = [u.to_packet() for u in uploads]
    avg = aggregate(packets)
    apply_global_update(params, avg, cfg.eta)

    mean_loss = float(np.mean([u.loss for u in sorted(uploads, key=lambda u: u.client_id)]))
    return RoundReport(round_index=round_index, mean_loss=mean_loss,
                       participants=len(selected),
                       duration=time.perf_counter() - start)


def train(params: ParameterState, kg: KnowledgeGraph, clients: list[ClientState],
          user_emb: np.ndarray, dataset, cfg: RoundConfig, max_rounds: int,
          eval_every: int = 10, patience: int = 10, record_sink=None,
          wire_sink=None, checkpoint_cb=None, checkpoint_every: int = 0
          ) -> list[dict]:
    """Run rounds until max_rounds or the validation AUC stops improving.

    Evaluates every eval_every rounds; stops after `patience` evaluations
    without a new best. Returns the evaluation history; every round and
    evaluation record also goes to record_sink when given.
    """
    from .metrics import evaluate_ctr  # local import: metrics layers on top

    history: list[dict] = []
    best_auc = -np.inf
    stale = 0
    for round_index in range(max_rounds):
        report = run_round(params, kg, clients, cfg, round_index, wire_sink=wire_sink)
        if record_sink is not None:
            record_sink(report.to_json_record())
        if checkpoint_cb is not None and checkpoint_every and \
                (round_index + 1) % checkpoint_every == 0:
            checkpoint_cb(round_index)
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
