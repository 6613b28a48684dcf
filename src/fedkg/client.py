"""Simulated client: request building, graph merging, local training.

The user embedding lives here and is only ever updated by the client
itself; the server sees request item ids and LDP-protected gradients,
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .messages import RequestMessage, SubgraphResponse
from .model import GradientPacket, LocalGraph, ModelParams, backward
from .privacy import DpConfig, RequestPlan, generate_request_items


class ProtocolError(RuntimeError):
    """Server response does not cover the client's request."""


@dataclass
class ClientState:
    user_id: int
    user_embedding: np.ndarray
    interactions: set[int]  # training-split positives only


def build_request(state: ClientState, negatives_pool: list[int], dp: DpConfig,
                  rng: np.random.Generator) -> tuple[RequestPlan, RequestMessage]:
    """Obfuscate the interaction set into a request; labels stay local."""
    plan = generate_request_items(state.interactions, negatives_pool, dp, rng)
    msg = RequestMessage(client_id=state.user_id, items=list(plan.request_items))
    return plan, msg


def merge_graphs(plan: RequestPlan, response: SubgraphResponse,
                 user_embedding: np.ndarray) -> LocalGraph:
    """Join the KG subgraph with the local labels into one training graph."""
    sub = response.subgraph
    if not np.array_equal(sub.ids[0], plan.request_items):
        raise ProtocolError("response anchors do not match the requested items")
    if len(response.entity_rows) != len(sub.entities) or \
            len(response.relation_rows) != len(sub.relations):
        raise ProtocolError("response rows do not cover its subgraph")
    return LocalGraph(user=user_embedding,
                      labels=np.asarray(plan.local_labels, dtype=np.float64),
                      subgraph=sub, entity_rows=response.entity_rows,
                      relation_rows=response.relation_rows)


def local_train(state: ClientState, graph: LocalGraph, model: ModelParams,
                eta: float, epochs: int = 1) -> GradientPacket:
    """Run forward/backward `epochs` times, stepping local copies in between.

    The uploaded gradient is the sum over epochs; the client's own user
    embedding takes a step of size eta after every epoch. The gathered
    rows and a model copy are stepped locally so later epochs see updated
    values; the global state is untouched.
    """
    total: GradientPacket | None = None
    for epoch in range(epochs):
        packet = backward(graph, model)
        state.user_embedding -= eta * packet.user_grad
        if total is None:
            total = packet
        else:
            # every epoch trains the same subgraph, so the id arrays match
            total.entity_grads.rows()[...] += packet.entity_grads.rows()
            total.relation_grads.rows()[...] += packet.relation_grads.rows()
            for (tw, tb), (dw, db) in zip(total.model_grads, packet.model_grads):
                tw += dw
                tb += db
            total.user_grad = total.user_grad + packet.user_grad
            total.loss = packet.loss  # most recent epoch's loss
        if epoch + 1 < epochs:
            graph.entity_rows = graph.entity_rows - eta * packet.entity_grads.rows()
            graph.relation_rows = graph.relation_rows - eta * packet.relation_grads.rows()
            if model.mode == "transform":
                model = model.copy()
                for layer, (dw, db) in enumerate(packet.model_grads):
                    model.weights[layer] -= eta * dw
                    model.biases[layer] -= eta * db
    assert total is not None
    total.client_id = state.user_id
    total.weight = len(graph.labels)
    return total
