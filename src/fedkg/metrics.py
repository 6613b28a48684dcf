"""CTR and top-K evaluation: AUC, F1, Recall@K.

AUC is the Mann-Whitney statistic (ties count one half), pooled over all
(user, item) evaluation pairs; Recall@K averages per user over candidates
that exclude train/valid positives.

As KGCN evaluates on one fixed sampled adjacency, an evaluation pass (an
evaluate_ctr call, or the Recall@K part of evaluate_report, on the same
key) scores every user from one field sampled around all items on
derive_rng(seed, ROLE_EVAL, round) and gathered once. A CTR pass takes
its users in order, in contiguous blocks of at most BLOCK_ITEMS
candidates; a user with more is a block alone, and every Recall@K user is
one. A block makes one propagate over `model.field_batch` and one
readout, and each user's scores are bitwise those of the field restricted
to that user's candidates, so they do not depend on the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

import numpy as np

from .data import Dataset, unobserved_items
from .kg import sample_subgraph
from .model import Field, ModelParams, broadcast_model, field_batch, propagate, readout
from .params import ParameterState, gather
from .rng import ROLE_EVAL, derive_rng

# Candidates scored per CTR block. Every block reads the pass's one field;
# larger blocks gain little per-call overhead and hold more rows at once.
BLOCK_ITEMS = 256


@dataclass
class MetricReport:
    auc: float | None
    f1: float
    recall_at_k: dict[int, float] = dc_field(default_factory=dict)
    users_evaluated: int = 0
    positives: int = 0
    negatives: int = 0

    def to_dict(self) -> dict:
        return {"auc": self.auc, "f1": self.f1,
                "recall_at_k": {str(k): v for k, v in sorted(self.recall_at_k.items())},
                "users_evaluated": self.users_evaluated,
                "positives": self.positives, "negatives": self.negatives}


def auc(scores, labels) -> float | None:
    """Probability a random positive outscores a random negative; ties count 1/2.

    Returns None when only one class is present.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a group of tied scores spans ranks end-count+1..end; all get its midpoint
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group]
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1(scores, labels, threshold: float = 0.5) -> float:
    """F1 at a hard threshold; 0 when nothing is predicted positive."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if len(s) == 0:
        raise ValueError("f1 over empty scores")
    pred = s >= threshold
    tp = int(np.sum(pred & (y == 1)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))
    if tp + fp == 0 or tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def recall_from_scores(scores: np.ndarray, candidates: list[int] | np.ndarray,
                       positives: set[int], ks: list[int]) -> dict[int, float]:
    """Top-K recall given precomputed candidate scores; ties break by item id."""
    candidates = np.asarray(candidates, dtype=np.int64)
    order = np.lexsort((candidates, -np.asarray(scores)))
    hits = np.isin(candidates[order], list(positives))
    return {k: int(np.sum(hits[:k])) / len(positives) for k in ks}


def sample_field(dataset: Dataset, params: ParameterState, sample_size: int, depth: int,
                 seed: int, round_index: int) -> Field:
    """The pass's receptive field around every item, and its gathered rows."""
    sub = sample_subgraph(dataset.kg, np.arange(dataset.num_items), sample_size, depth,
                          derive_rng(seed, ROLE_EVAL, round_index))
    return Field(sub, *gather(params, sub.entities, sub.relations))


def score_items(model: ModelParams, field: Field, users: np.ndarray, items: np.ndarray,
                counts: list[int]) -> np.ndarray:
    """Run the trained model for a block of users over their candidate items.

    `items` holds the users' candidates one after another, counts[b] of
    them for user b, whose embedding is users[b]. Returns the scores in
    `items` order.
    """
    batch = field_batch(field, users, items, counts)
    return readout(batch, propagate(batch, broadcast_model(model, len(users))))


def _user_blocks(counts: list[int]):
    """(start, end) of contiguous runs of users holding at most BLOCK_ITEMS
    candidates together; a user with more is a run alone."""
    start = total = 0
    for end, n in enumerate(counts):
        if end > start and total + n > BLOCK_ITEMS:
            yield start, end
            start, total = end, 0
        total += n
    if counts:
        yield start, len(counts)


def evaluate_ctr(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                 sample_size: int, depth: int, seed: int, round_index: int,
                 split: str = "valid") -> MetricReport:
    """Pooled CTR metrics over every user's split positives and negatives."""
    pos_lists, neg_lists = dataset.split_of(split)
    users = [u for u in range(dataset.num_users) if pos_lists[u] and neg_lists[u]]
    if not users:
        return MetricReport(auc=None, f1=0.0)
    counts = [len(pos_lists[u]) + len(neg_lists[u]) for u in users]
    items = np.array([i for u in users for i in (*pos_lists[u], *neg_lists[u])],
                     dtype=np.int64)
    labels = np.array([y for u in users
                       for y in [1] * len(pos_lists[u]) + [0] * len(neg_lists[u])])
    bounds = [0, *accumulate(counts)]
    field = sample_field(dataset, params, sample_size, depth, seed, round_index)
    scores = np.concatenate([
        score_items(params.model, field, user_emb[users[s:e]], items[bounds[s]:bounds[e]],
                    counts[s:e])
        for s, e in _user_blocks(counts)])
    return MetricReport(auc=auc(scores, labels), f1=f1(scores, labels),
                        users_evaluated=len(users),
                        positives=int(labels.sum()),
                        negatives=int(len(labels) - labels.sum()))


def recall_at_k(dataset: Dataset, model: ModelParams, field: Field, user_emb: np.ndarray,
                user: int, ks: list[int]) -> dict[int, float] | None:
    """Recall@K for one user over all items minus train/valid positives."""
    positives = set(dataset.test[user])
    if not positives:
        return None
    candidates = unobserved_items(dataset.train[user] + dataset.valid[user], dataset.num_items)
    scores = score_items(model, field, user_emb[[user]], candidates, [len(candidates)])
    return recall_from_scores(scores, candidates, positives, ks)


def evaluate_report(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                    sample_size: int, depth: int, seed: int, round_index: int,
                    ks: list[int] | None = None, split: str = "test") -> MetricReport:
    """Full evaluation: pooled CTR metrics plus mean per-user Recall@K."""
    report = evaluate_ctr(dataset, params, user_emb, sample_size, depth,
                          seed, round_index, split)
    if ks:
        sums = {k: 0.0 for k in ks}
        counted = 0
        field = sample_field(dataset, params, sample_size, depth, seed, round_index)
        for user in range(dataset.num_users):
            rec = recall_at_k(dataset, params.model, field, user_emb, user, ks)
            if rec is None:
                continue
            counted += 1
            for k in ks:
                sums[k] += rec[k]
        if counted:
            report.recall_at_k = {k: sums[k] / counted for k in ks}
    return report
