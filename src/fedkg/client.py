"""Simulated client: request building, graph merging, local training.

The user embedding lives here and is only ever updated by the client
itself; the server sees request item ids and LDP-protected gradients,
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check
from .messages import RequestMessage, SubgraphResponse
from .model import BatchGradient, LocalGraph, ModelParams, as_batch, backward
from .privacy import DpConfig, RequestPlan, generate_request_items


class ProtocolError(RuntimeError):
    """Server response does not cover the client's request."""


@dataclass
class ClientState:
    user_id: int
    user_embedding: np.ndarray
    interactions: set[int]  # training-split positives only


def build_request(state: ClientState, negatives_pool: list[int] | np.ndarray,
                  dp: DpConfig, rng: np.random.Generator) -> tuple[RequestPlan, RequestMessage]:
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


def local_train(state, graph, model: ModelParams, eta: float, epochs: int = 1):
    """Run forward/backward `epochs` times, stepping the batch in between.

    The uploaded gradient is the sum over epochs; the client's own user
    embedding takes a step of size eta after every epoch. The batch is the
    clients' local copy (`stack_graphs` copies the rows), stepped in place
    so that its cached size groups serve every epoch; the model (transform
    mode) steps into new arrays, the served one being shared and read-only.

    One client trains as a batch of one (`as_batch`). A batch is the
    clients' states, their GraphBatch (`stack_graphs`) and the global
    model lifted to the batch (`broadcast_model`): one backward per epoch
    covers every client, each stepping its own user, rows and model, and
    the result is one packet per client in batch order.
    """
    check("epochs", epochs)
    if isinstance(graph, LocalGraph):
        return local_train([state], *as_batch(graph, model), eta, epochs)[0]
    states, batch = state, graph
    total: BatchGradient | None = None
    for epoch in range(epochs):
        grad = backward(batch, model)
        for client, user_grad in zip(states, grad.user):
            client.user_embedding -= eta * user_grad
        if total is None:
            total = grad
        else:
            # every epoch trains the same subgraphs, so the rows line up
            total.entity += grad.entity
            total.relation += grad.relation
            for (tw, tb), (dw, db) in zip(total.model, grad.model):
                tw += dw
                tb += db
            total.user = total.user + grad.user
            total.losses = grad.losses  # most recent epoch's loss
        if epoch + 1 < epochs:
            batch.users -= eta * grad.user
            batch.entity_rows -= eta * grad.entity
            batch.relation_rows -= eta * grad.relation
            if model.mode == "transform":
                model = ModelParams(model.mode,
                                    [w - eta * g for w, (g, _) in zip(model.weights, grad.model)],
                                    [b - eta * g for b, (_, g) in zip(model.biases, grad.model)])
    packets = batch.packets(total)
    for client, packet in zip(states, packets):
        packet.client_id = client.user_id
    return packets
