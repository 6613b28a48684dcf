"""Finite-difference verification of the hand-derived backward pass.

The oracle only ever calls the forward pass: each parameter coordinate is
perturbed by +-step and the loss difference quotient is compared against
the analytic gradient. Used by the test suite and the `gradcheck` CLI
subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import build_kg, sample_subgraph
from .model import LocalGraph, ModelParams, backward, forward_loss, init_model_params
from .rng import derive_rng


@dataclass
class GradCheckResult:
    instances: int
    max_rel_err: float
    failures: list[int]


def random_instance(seed: int, index: int = 0) -> tuple[LocalGraph, ModelParams]:
    """Small random KG + subgraph + parameters; the labels are the graph's.

    The index cycles through every (d, K, H, mode) combination so a run of
    24+ instances is guaranteed to cover all of them.
    """
    rng = derive_rng(seed, 99, index)
    d = (2, 4)[index % 2]
    k = (1, 2)[(index // 2) % 2]
    depth = (0, 1, 2)[(index // 4) % 3]
    mode = ("replace", "transform")[(index // 12) % 2]

    num_entities = 10
    num_relations = 3
    n_triples = int(rng.integers(8, 16))
    triples = [(int(rng.integers(0, num_entities)),
                 int(rng.integers(0, num_relations)),
                 int(rng.integers(0, num_entities))) for _ in range(n_triples)]
    kg = build_kg(triples, num_entities, num_relations)

    n_anchors = int(rng.integers(1, 3))
    anchors = [int(a) for a in rng.choice(num_entities, size=n_anchors, replace=False)]
    subgraph = sample_subgraph(kg, anchors, k, depth, rng)

    scale = 1.0 / np.sqrt(d)
    entity_rows = rng.uniform(-scale, scale, (len(subgraph.entities), d))
    relation_rows = rng.uniform(-scale, scale, (len(subgraph.relations), d))
    user = rng.uniform(-scale, scale, d)
    labels = np.array([float(rng.integers(0, 2)) for _ in anchors])
    params = init_model_params(d, depth, mode, rng)
    graph = LocalGraph(user=user, labels=labels, subgraph=subgraph,
                       entity_rows=entity_rows, relation_rows=relation_rows)
    return graph, params


def _fd_vector(vec: np.ndarray, loss_fn, step: float) -> np.ndarray:
    grad = np.zeros_like(vec)
    flat = vec.reshape(-1)  # a view, so perturbations reach loss_fn: vec is contiguous
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        lp = loss_fn()
        flat[i] = orig - step
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * step)
    return grad


def finite_difference(graph: LocalGraph, params: ModelParams, step: float = 1e-5) -> dict:
    """Central-difference gradients for every parameter the model touches."""
    def loss_fn() -> float:
        return forward_loss(graph, params)[0]

    fd = {
        "entities": _fd_vector(graph.entity_rows, loss_fn, step),
        "relations": _fd_vector(graph.relation_rows, loss_fn, step),
        "user": _fd_vector(graph.user, loss_fn, step),
        "model": [(_fd_vector(w, loss_fn, step), _fd_vector(b, loss_fn, step))
                  for w, b in zip(params.weights, params.biases)],
    }
    return fd


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    # Denominator floored at 1e-6 so FD roundoff on near-zero gradients
    # does not masquerade as relative error.
    diff = np.abs(a - b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(diff / denom)) if diff.size else 0.0


def max_relative_error(graph: LocalGraph, params: ModelParams, step: float = 1e-5) -> float:
    packet = backward(graph, params)
    fd = finite_difference(graph, params, step)
    worst = _rel_err(packet.user_grad, fd["user"])
    worst = max(worst, _rel_err(packet.entity_grads.rows(), fd["entities"]),
                _rel_err(packet.relation_grads.rows(), fd["relations"]))
    for (adw, adb), (fdw, fdb) in zip(packet.model_grads, fd["model"]):
        worst = max(worst, _rel_err(adw, fdw), _rel_err(adb, fdb))
    return worst


def run_gradient_check(instances: int = 100, step: float = 1e-5,
                       tolerance: float = 1e-4, seed: int = 2024) -> GradCheckResult:
    """Audit `instances` random instances; an error that is not <= tolerance (NaN too) fails."""
    errors = [max_relative_error(*random_instance(seed, i), step) for i in range(instances)]
    return GradCheckResult(instances=instances, max_rel_err=float(np.max(errors, initial=0.0)),
                           failures=[i for i, err in enumerate(errors) if not err <= tolerance])
