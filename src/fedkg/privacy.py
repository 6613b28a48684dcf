"""Local differential privacy mechanisms.

Two mechanisms run on the client: request-item generation (pseudo-item
mixing plus randomized response on the 0/1 interaction labels, keep
probability e^eps / (e^eps + 1)), and gradient protection (per-element
clip to [-delta, +delta] plus i.i.d. Laplace(0, lambda) noise, budget
eps = 2*delta/lambda per gradient element).

Gradient protection copies every uploaded element into one new buffer,
clips it in place and adds one Laplace draw of its size. Buffer order:
entity rows (ids ascending, row-major), relation rows, then each layer's
dW and db; drawn element by element, this equals a per-row loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import GradientPacket, SparseGrad


@dataclass
class DpConfig:
    """Privacy knobs: clip threshold, Laplace scale, flip rate, pseudo-item count."""

    delta: float = 0.5
    lam: float = 1e-4
    flip_rate: float = 0.1
    pseudo_count: int | None = None  # None: parity with the interaction count

    def __post_init__(self):
        if not self.delta > 0:  # inf: no clipping
            raise ValueError(f"delta: clip threshold must be > 0, got {self.delta}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam: laplace scale must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.flip_rate < 0.5:
            raise ValueError("flip rate q must be in [0, 0.5)")
        if self.pseudo_count is not None and self.pseudo_count < 0:
            raise ValueError("pseudo item count must be >= 0")


@dataclass
class RequestPlan:
    """Client-private view of one request: items the server sees, labels it never does."""

    request_items: list[int]
    local_labels: list[int]


class NegativePoolError(ValueError):
    """Not enough non-interacted items to mix in the configured pseudo count."""


def generate_request_items(interactions: set[int], negatives: list[int] | np.ndarray,
                           config: DpConfig, rng: np.random.Generator) -> RequestPlan:
    """Mix pseudo items into the interaction set and flip labels independently.

    Candidates are the interactions (label 1) plus the first pseudo_count
    negatives (label 0), a list or an id array; each label flips with
    probability flip_rate, and the combined list is shuffled so order leaks
    nothing.
    """
    pseudo = len(interactions) if config.pseudo_count is None else config.pseudo_count
    if len(negatives) < pseudo:
        raise NegativePoolError(
            f"need {pseudo} pseudo items but only {len(negatives)} negatives available")
    pseudo_ids = [int(i) for i in negatives[:pseudo]]
    overlap = set(pseudo_ids) & interactions
    if overlap:
        raise NegativePoolError(f"negatives overlap interactions: {sorted(overlap)[:5]}")

    items = sorted(interactions) + pseudo_ids
    labels = np.array([1] * len(interactions) + [0] * pseudo, dtype=np.int64)
    if config.flip_rate > 0 and len(items):
        flips = rng.random(len(items)) < config.flip_rate
        labels = np.where(flips, 1 - labels, labels)
    order = rng.permutation(len(items))
    return RequestPlan(request_items=np.array(items, dtype=np.int64)[order].tolist(),
                       local_labels=labels[order].tolist())


def ldp_encrypt(packet: GradientPacket, config: DpConfig,
                rng: np.random.Generator) -> GradientPacket:
    """Clip every uploaded gradient element and add Laplace noise.

    user_grad is dropped entirely: it never leaves the client.
    """
    parts = [packet.entity_grads.rows(), packet.relation_grads.rows(),
             *(a for pair in packet.model_grads for a in pair)]
    buf = np.concatenate([a.ravel() for a in parts])  # a copy: the input stays as it was
    np.clip(buf, -config.delta, config.delta, out=buf)
    if config.lam > 0:
        buf += rng.laplace(0.0, config.lam, size=buf.size)
    ent, rel, *model = [buf[end - a.size:end].reshape(a.shape)
                        for end, a in zip(accumulate(p.size for p in parts), parts)]
    return GradientPacket(entity_grads=SparseGrad(packet.entity_grads.ids(), ent),
                          relation_grads=SparseGrad(packet.relation_grads.ids(), rel),
                          model_grads=list(zip(model[::2], model[1::2])), user_grad=None,
                          weight=packet.weight, loss=packet.loss, client_id=packet.client_id)


def privacy_budget(delta: float, lam: float) -> float:
    """Gradient-mechanism budget 2*delta/lambda per element; infinite when lambda is 0."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        return math.inf
    return 2.0 * delta / lam


def interaction_budget(flip_rate: float) -> float:
    """Budget implied by a flip rate q: eps = ln((1-q)/q), from keep prob e^eps/(e^eps+1)."""
    if not 0.0 < flip_rate < 0.5:
        return math.inf if flip_rate == 0.0 else float("nan")
    return math.log((1.0 - flip_rate) / flip_rate)
