"""CTR and top-K evaluation: AUC, F1, Recall@K.

AUC is the Mann-Whitney statistic (ties count one half), pooled over all
(user, item) evaluation pairs; Recall@K averages per user over every item
but the user's positives in the other two splits, by each positive's rank.

As KGCN evaluates on one fixed sampled adjacency, an evaluation pass
scores every user from one field sampled around all items on
derive_rng(seed, ROLE_EVAL, round) and gathered once. Each pass takes its
users in order, in contiguous blocks (`_user_blocks`) of at most
BLOCK_ITEMS own candidates (CTR) or RANK_PAIRS ranked items, all of them
per user (Recall@K); a user with more is a block alone, and its scores are
the same in any block. A Recall@K block is scored in sub-blocks of at most
BLOCK_PAIRS pairs by `model.field_scorer` (whose hop 1 costs M <= min(K, R)
relation-slot passes per sub-block, M the most distinct relations a center
drew, not R; each state reading only M = 1 layers, as on a synthetic field,
is built once per pass, so a sub-block there is the readout); the block then
sets its other-split positives to -inf in one assignment and ranks every
held-out positive against its row in one `recall_from_scores` call.

CTR candidates are laid out user by user, positives then negatives, in one
flat `items` array with 0/1 `labels`, made from the interleaved split lists
by one np.fromiter and one np.repeat of [1, 0] over their sizes: no Python
runs per candidate. A report with Ks scores each (user, item) pair once: its
AUC and F1 read the scores its Recall@K ranks, picked from each ranking
block before it is masked. A valid pass (`evaluate_ctr`), and a report
without Ks, score through `model.field_batch` in CTR blocks instead, each
user's scores bitwise those of the field restricted to its candidates; the
block scorer's agree with them to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate, chain

import numpy as np

from .data import Dataset
from .kg import sample_subgraph
from .model import (Field, ModelParams, broadcast_model, field_batch, field_scorer, propagate,
                    readout)
from .params import ParameterState, gather
from .rng import ROLE_EVAL, derive_rng

# Candidates scored per CTR block. Every block reads the pass's one field;
# larger blocks gain little per-call overhead and hold more rows at once.
BLOCK_ITEMS = 256
# (user, item) pairs per field_scorer call: a per-user (U, d, items) state is
# 0.5 MB at d = 16, small enough to stay in cache through the hops; a state no
# user's attention reaches is one (1, d, items) row, built once per pass.
BLOCK_PAIRS = 4096
# (user, item) pairs per Recall@K ranking block, ranked in one call: recall_at_k
# and recall_from_scores pay a fixed cost per call, so a block spans about eight
# scorer blocks; larger blocks traded peak RSS for the rest of that cost.
RANK_PAIRS = 1 << 15


@dataclass
class MetricReport:
    auc: float | None  # auc and f1 are None when no user was scored
    f1: float | None
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
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def recall_from_scores(scores: np.ndarray, positives, ks: list[int]) -> list[dict[int, float]]:
    """Top-K recall given precomputed item scores; ties break by item id.

    (U, n) scores, whose column j scores item j, give one dict per row u, against
    the non-empty distinct ids positives[u], each in [0, n). A positive's rank is
    the number of items ahead of it in the order (-score, item id), NaN scores
    last, and recall@k is the share of positives ranked below k. All rows'
    positives are counted at once."""
    sizes = np.array([len(pos) for _, pos in zip(scores, positives, strict=True)], dtype=np.int64)
    if not sizes.all():
        raise ValueError(f"row {int(np.argmin(sizes))} has no positives")
    cols = np.fromiter(chain.from_iterable(positives), np.int64, int(sizes.sum()))
    n = scores.shape[1]
    if np.any((cols < 0) | (cols >= n)):
        raise ValueError(f"a positive item id is outside [0, {n})")
    rows = np.repeat(np.arange(len(sizes)), sizes)
    row, own = scores[rows], scores[rows, cols][:, None]
    ranks = (row > own).sum(axis=1)  # a floor: ties, and a NaN score, can only raise it
    near = ranks < max(ks, default=0)  # only a floor below the largest K needs them resolved
    row, own, earlier = row[near], own[near], np.arange(n) < cols[near, None]
    ranks[near] = np.where(np.isnan(own), (row == row) | earlier,  # NaNs rank below numbers
                           (row > own) | (row == own) & earlier).sum(axis=1)
    found = np.array([np.bincount(rows[ranks < k], minlength=len(sizes)) for k in ks]).T
    return [dict(zip(ks, rec)) for rec in (found / sizes[:, None]).tolist()]


def sample_field(dataset: Dataset, params: ParameterState, sample_size: int, depth: int,
                 seed: int, round_index: int) -> Field:
    """The pass's receptive field around every item, with its gathered rows and
    params.model; subgraph.ids[0] is arange(num_items), so an item is its own
    anchor row."""
    sub = sample_subgraph(dataset.kg, np.arange(dataset.num_items), sample_size, depth,
                          derive_rng(seed, ROLE_EVAL, round_index))
    return Field(sub, *gather(params, sub.entities, sub.relations), params.model)


def score_items(model: ModelParams, field: Field, users: np.ndarray, items: np.ndarray,
                counts: list[int]) -> np.ndarray:
    """Run the trained model for a block of users over their candidate items.

    `items` holds the users' candidates one after another, counts[b] of
    them for user b, whose embedding is users[b]. Returns the scores in
    `items` order.
    """
    batch = field_batch(field, users, items, counts)
    return readout(batch, propagate(batch, broadcast_model(model, len(users))))


def _user_blocks(counts: list[int], limit: int):
    """(start, end) of contiguous runs of users holding at most `limit`
    candidates together; a user with more is a run alone."""
    start = total = 0
    for end, n in enumerate(counts):
        if end > start and total + n > limit:
            yield start, end
            start, total = end, 0
        total += n
    if counts:
        yield start, len(counts)


def _ctr_candidates(dataset: Dataset, split: str):
    """The split's CTR users, those with positives and negatives, and their
    candidates user by user, positives then negatives: (users, items, labels,
    sizes), sizes[b] the (positives, negatives) of users[b]."""
    pos_lists, neg_lists = dataset.split_of(split)
    users = [u for u in range(dataset.num_users) if pos_lists[u] and neg_lists[u]]
    lists = [side for u in users for side in (pos_lists[u], neg_lists[u])]
    sizes = np.fromiter(map(len, lists), np.int64, len(lists)).reshape(-1, 2)
    items = np.fromiter(chain.from_iterable(lists), np.int64, int(sizes.sum()))
    labels = np.repeat(np.tile([1, 0], len(users)), sizes.ravel())
    return users, items, labels, sizes


def _ctr_report(scores: list[np.ndarray], labels: np.ndarray, sizes: np.ndarray) -> MetricReport:
    """Pooled CTR metrics over `_ctr_candidates`' layout, scored in blocks."""
    if not len(sizes):
        return MetricReport(auc=None, f1=None)
    scores = np.concatenate(scores)
    positives, negatives = sizes.sum(axis=0).tolist()
    return MetricReport(auc=auc(scores, labels), f1=f1(scores, labels),
                        users_evaluated=len(sizes), positives=positives, negatives=negatives)


def evaluate_ctr(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                 sample_size: int, depth: int, seed: int, round_index: int,
                 split: str = "valid") -> MetricReport:
    """Pooled CTR metrics over every user's split positives and negatives."""
    users, items, labels, sizes = _ctr_candidates(dataset, split)
    counts = sizes.sum(axis=1).tolist()
    bounds = [0, *accumulate(counts)]
    field = sample_field(dataset, params, sample_size, depth, seed, round_index)
    return _ctr_report([
        score_items(params.model, field, user_emb[users[s:e]], items[bounds[s]:bounds[e]],
                    counts[s:e])
        for s, e in _user_blocks(counts, BLOCK_ITEMS)], labels, sizes)


def recall_at_k(dataset: Dataset, scorer, user_emb: np.ndarray, users: list[int],
                ks: list[int], split: str, pairs: tuple[np.ndarray, np.ndarray]):
    """Recall@K of a ranking block of users over every item but their other splits'
    positives; the scorer takes the users in sub-blocks of at most BLOCK_PAIRS pairs.

    Also returns the block's scores at `pairs`, (rows of `users`, item ids), read
    before any score is masked."""
    scores = np.concatenate([
        scorer(user_emb[users[s:e]])
        for s, e in _user_blocks([dataset.num_items] * len(users), BLOCK_PAIRS)])
    picked = scores[pairs]
    lists = {name: dataset.split_of(name)[0] for name in ("train", "valid", "test")}
    other = [lists[name][user] for name in lists if name != split for user in users]
    rows = np.repeat(np.arange(len(other)) % len(users), [len(items) for items in other])
    scores[rows, np.fromiter(chain.from_iterable(other), np.intp, len(rows))] = -np.inf
    return recall_from_scores(scores, [lists[split][user] for user in users], ks), picked


def evaluate_report(dataset: Dataset, params: ParameterState, user_emb: np.ndarray,
                    sample_size: int, depth: int, seed: int, round_index: int,
                    ks: list[int] | None = None, split: str = "test") -> MetricReport:
    """Full evaluation: pooled CTR metrics plus mean per-user Recall@K.

    With Ks, the CTR metrics read the ranking blocks' scores; without, the
    report is `evaluate_ctr`'s."""
    if not ks:
        return evaluate_ctr(dataset, params, user_emb, sample_size, depth, seed,
                            round_index, split)
    field = sample_field(dataset, params, sample_size, depth, seed, round_index)
    scorer = field_scorer(field, params.model)
    users = [u for u, pos in enumerate(dataset.split_of(split)[0]) if pos]
    ctr_users, items, labels, sizes = _ctr_candidates(dataset, split)
    # each CTR candidate's row among the ranked users, who include every CTR user;
    # a ranking block's candidates are one contiguous run
    rows = np.repeat(np.searchsorted(users, ctr_users), sizes.sum(axis=1))
    recs, picked = [], []
    for s, e in _user_blocks([dataset.num_items] * len(users), RANK_PAIRS):
        a, b = np.searchsorted(rows, [s, e])
        block_recs, block_scores = recall_at_k(dataset, scorer, user_emb, users[s:e], ks,
                                               split, (rows[a:b] - s, items[a:b]))
        recs += block_recs
        picked.append(block_scores)
    report = _ctr_report(picked, labels, sizes)
    if recs:  # cumsum adds in user order, where np.sum would add pairwise
        report.recall_at_k = {k: float(np.cumsum([rec[k] for rec in recs])[-1]) / len(recs)
                              for k in ks}
    return report
