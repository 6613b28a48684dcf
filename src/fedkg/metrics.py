"""CTR and top-K evaluation: AUC, F1, Recall@K.

AUC is the Mann-Whitney statistic (ties count one half), pooled over all
(user, item) evaluation pairs; Recall@K averages per user over candidates
that exclude train/valid positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, unobserved_items
from .kg import KnowledgeGraph, sample_subgraph
from .model import LocalGraph, propagate, sigmoid
from .params import ParameterState, gather
from .rng import ROLE_EVAL, derive_rng


@dataclass
class MetricReport:
    auc: float | None
    f1: float
    recall_at_k: dict[int, float] = field(default_factory=dict)
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


def score_items(params: ParameterState, kg: KnowledgeGraph, user_emb: np.ndarray,
                items: list[int] | np.ndarray, sample_size: int, depth: int,
                rng: np.random.Generator) -> np.ndarray:
    """Run the trained model for one user over candidate items."""
    subgraph = sample_subgraph(kg, items, sample_size, depth, rng)
    ent_rows, rel_rows = gather(params, subgraph.entities, subgraph.relations)
    graph = LocalGraph(user=user_emb, labels=np.zeros(len(items)), subgraph=subgraph,
                       entity_rows=ent_rows, relation_rows=rel_rows)
    final = propagate(graph, params.model)
    return np.asarray(sigmoid(final @ user_emb))


def evaluate_ctr(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                 sample_size: int, depth: int, seed: int, round_index: int,
                 split: str = "valid") -> MetricReport:
    """Pooled CTR metrics over every user's split positives and negatives."""
    pos_lists, neg_lists = dataset.split_of(split)
    all_scores: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    users = 0
    for user in range(dataset.num_users):
        pos, neg = pos_lists[user], neg_lists[user]
        if not pos or not neg:
            continue
        users += 1
        items = list(pos) + list(neg)
        rng = derive_rng(seed, ROLE_EVAL, round_index, user)
        scores = score_items(params, dataset.kg, user_emb[user], items,
                             sample_size, depth, rng)
        all_scores.append(scores)
        all_labels.append(np.array([1] * len(pos) + [0] * len(neg)))
    if not all_scores:
        return MetricReport(auc=None, f1=0.0)
    scores = np.concatenate(all_scores)
    labels = np.concatenate(all_labels)
    return MetricReport(auc=auc(scores, labels), f1=f1(scores, labels),
                        users_evaluated=users,
                        positives=int(labels.sum()),
                        negatives=int(len(labels) - labels.sum()))


def recall_at_k(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                user: int, ks: list[int], sample_size: int, depth: int,
                rng: np.random.Generator) -> dict[int, float] | None:
    """Recall@K for one user over all items minus train/valid positives."""
    positives = set(dataset.test[user])
    if not positives:
        return None
    candidates = unobserved_items(dataset.train[user] + dataset.valid[user], dataset.num_items)
    scores = score_items(params, dataset.kg, user_emb[user], candidates,
                         sample_size, depth, rng)
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
        for user in range(dataset.num_users):
            rng = derive_rng(seed, ROLE_EVAL, round_index, dataset.num_users + user)
            rec = recall_at_k(dataset, params, user_emb, user, ks,
                              sample_size, depth, rng)
            if rec is None:
                continue
            counted += 1
            for k in ks:
                sums[k] += rec[k]
        if counted:
            report.recall_at_k = {k: sums[k] / counted for k in ks}
    return report
