"""Local differential privacy mechanisms.

Two mechanisms run on the client: request-item generation (pseudo-item
mixing plus randomized response on the 0/1 interaction labels, keep
probability e^eps / (e^eps + 1)), and gradient protection (per-element
clip to [-delta, +delta] plus i.i.d. Laplace(0, lambda) noise, budget
eps = 2*delta/lambda per gradient element).

No bound is stated here: `DpConfig` and both budgets read `config.BOUNDS`
through `FIELD_KEYS`. `pseudo_count` is the one pool rule, round and CLI alike,
over counts: the CLI pre-check reads each pool's size and builds no pool.

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

from .config import check
from .model import GradientPacket, SparseGrad


FIELD_KEYS = {"delta": "clip_threshold", "lam": "noise_scale", "flip_rate": "flip_rate",
              "pseudo_count": "pseudo_items"}


@dataclass
class DpConfig:
    """Privacy knobs: clip threshold, Laplace scale, flip rate, pseudo-item count.

    A field outside its config key's bound in `config.BOUNDS` raises ConfigError
    (a ValueError) naming the field first: `delta: clip_threshold must be > 0, got nan`."""

    delta: float = 0.5
    lam: float = 1e-4
    flip_rate: float = 0.1
    pseudo_count: int | None = None  # None: parity with the interaction count

    def __post_init__(self):
        for name, key in FIELD_KEYS.items():
            check(key, getattr(self, name), name=name)


@dataclass
class RequestPlan:
    """Client-private view of one request: items the server sees, labels it never does."""

    request_items: list[int]
    local_labels: list[int]


class NegativePoolError(ValueError):
    """Not enough non-interacted items to mix in the configured pseudo count."""


def pseudo_count(positives: int, pseudo_count: int | None, pool: int) -> int:
    """Pseudo items a request mixes in: `pseudo_count`, or one per interaction (of
    `positives`) when unset; NegativePoolError when `pool` unobserved items cannot fill it."""
    count = positives if pseudo_count is None else pseudo_count
    if pool < count:
        raise NegativePoolError(f"needs {count} pseudo items but has only {pool} unobserved items")
    return count


def generate_request_items(interactions: set[int], negatives: list[int] | np.ndarray,
                           config: DpConfig, rng: np.random.Generator) -> RequestPlan:
    """Mix pseudo items into the interaction set and flip labels independently.

    Candidates are the interactions (label 1) plus the first pseudo_count
    negatives (label 0), a list or an id array; each label flips with
    probability flip_rate, and the combined list is shuffled so order leaks
    nothing.
    """
    pseudo = pseudo_count(len(interactions), config.pseudo_count, len(negatives))
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

    user_grad and loss are dropped entirely: neither leaves the client.
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
                          weight=packet.weight, loss=None, client_id=packet.client_id)


def privacy_budget(delta: float, lam: float) -> float:
    """Gradient-mechanism budget 2*delta/lambda per element; infinite when lambda is 0."""
    check(FIELD_KEYS["delta"], delta, name="delta")
    check(FIELD_KEYS["lam"], lam, name="lam")
    return math.inf if lam == 0 else 2.0 * delta / lam


def interaction_budget(flip_rate: float) -> float:
    """Budget implied by a flip rate q: eps = ln((1-q)/q), from keep prob e^eps/(e^eps+1)."""
    check(FIELD_KEYS["flip_rate"], flip_rate, name="flip_rate")
    return math.inf if flip_rate == 0 else math.log((1.0 - flip_rate) / flip_rate)
