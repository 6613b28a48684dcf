import numpy as np

from fedkg.cli import build_dataset, setup_state
from fedkg.config import ExperimentConfig
from fedkg.metrics import (auc, evaluate_ctr, evaluate_report, f1,
                           recall_from_scores)
from fedkg.rng import derive_rng


def pairwise_auc(scores, labels):
    """Independent oracle: count positive-over-negative pairs, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


# --- AUC ---------------------------------------------------------------------

def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_pairwise_example():
    assert auc([0.9, 0.4, 0.35, 0.8], [1, 0, 1, 0]) == 0.5


def test_auc_all_ties():
    assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5


def test_auc_single_class_absent():
    assert auc([0.1, 0.9], [1, 1]) is None
    assert auc([0.1, 0.9], [0, 0]) is None


def test_auc_matches_pairwise_oracle():
    rng = derive_rng(0, 0)
    for _ in range(40):
        n = int(rng.integers(4, 30))
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = derive_rng(1, 0)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(np.exp(4 * scores), labels) == base
    assert auc(scores ** 3 + 7, labels) == base


# --- F1 ----------------------------------------------------------------------

def test_f1_exact_predictions():
    assert f1([0.9, 0.2, 0.8, 0.1], [1, 0, 1, 0]) == 1.0


def test_f1_all_positive_half_right():
    # precision 0.5, recall 1.0 -> 2/3
    assert abs(f1([0.9, 0.9, 0.9, 0.9], [1, 0, 1, 0]) - 2 / 3) < 1e-12


def test_f1_no_predicted_positives_is_zero():
    assert f1([0.1, 0.2], [1, 1]) == 0.0


def test_f1_threshold_extremes():
    rng = derive_rng(2, 0)
    scores = rng.random(30)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    assert f1(scores, labels, threshold=scores.max() + 0.1) == 0.0
    n_pos = labels.sum()
    all_positive_f1 = 2 * (n_pos / 30) / (n_pos / 30 + 1)
    assert abs(f1(scores, labels, threshold=scores.min() - 0.1) - all_positive_f1) < 1e-12


# --- Recall@K ----------------------------------------------------------------

def test_recall_k_covers_all_candidates():
    rec = recall_from_scores(np.array([0.5, 0.1, 0.9]), [3, 4, 5], {4}, ks=[3, 10])
    assert rec[3] == 1.0 and rec[10] == 1.0


def test_recall_top_ranked_positive():
    rec = recall_from_scores(np.array([0.9, 0.1, 0.2]), [7, 8, 9], {7}, ks=[1])
    assert rec[1] == 1.0


def test_recall_non_decreasing_in_k():
    rng = derive_rng(3, 0)
    scores = rng.random(100)
    positives = set(int(x) for x in rng.choice(100, 10, replace=False))
    rec = recall_from_scores(scores, list(range(100)), positives, ks=[1, 5, 10, 50, 100])
    values = [rec[k] for k in (1, 5, 10, 50, 100)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert rec[100] == 1.0


def test_recall_random_scores_hypergeometric_mean():
    # 10 positives in 100 candidates, K=10: E[recall] = 0.1; the mean over
    # 1000 seeded trials sits within 3 sigma of the hypergeometric expectation
    rng = derive_rng(4, 0)
    trials = 1000
    recalls = np.empty(trials)
    for t in range(trials):
        scores = rng.random(100)
        positives = set(int(x) for x in rng.choice(100, 10, replace=False))
        recalls[t] = recall_from_scores(scores, list(range(100)), positives, [10])[10]
    var_single = 10 * 0.1 * 0.9 * (90 / 99) / 100  # Var(hits)/n^2
    sigma_mean = np.sqrt(var_single / trials)
    assert abs(recalls.mean() - 0.1) < 3 * sigma_mean


def test_recall_tie_break_is_deterministic_by_item_id():
    rec = recall_from_scores(np.array([0.5, 0.5, 0.5]), [30, 10, 20], {10}, ks=[1])
    assert rec[1] == 1.0  # lowest item id wins the tie


def loop_rank_auc(scores, labels):
    """Reference: average ranks of tied runs walked in a Python loop."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(y) - n_pos))


def loop_recall(scores, candidates, positives, ks):
    """Reference: Python sort by (-score, item id), hits counted one by one."""
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    ranked = [candidates[i] for i in order]
    return {k: sum(1 for item in ranked[:k] if item in positives) / len(positives)
            for k in ks}


def test_ranking_matches_loop_reference_bitwise():
    rng = derive_rng(5, 0)
    for trial in range(300):
        n = int(rng.integers(2, 60))
        scores = rng.integers(0, int(rng.integers(1, 8)), n) / 7.0 if trial % 2 \
            else rng.random(n)  # odd trials: few distinct values, many ties
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        assert auc(scores, labels) == loop_rank_auc(scores, labels)
        candidates = [int(c) for c in rng.permutation(200)[:n]]
        positives = {int(p) for p in rng.choice(200, int(rng.integers(1, 20)), replace=False)}
        ks = [1, 5, 10, 50]
        expected = loop_recall(scores, candidates, positives, ks)
        assert recall_from_scores(scores, candidates, positives, ks) == expected
        assert recall_from_scores(scores, np.array(candidates), positives, ks) == expected


# --- model-driven evaluation ---------------------------------------------------

def test_evaluate_ctr_untrained_near_chance():
    cfg = ExperimentConfig(users=120, items=60, attributes=6,
                           interactions_per_user=10, seed=11)
    ds = build_dataset(cfg)
    params, user_emb, _ = setup_state(cfg, ds)
    rep = evaluate_ctr(ds, params, user_emb, cfg.sample_size, cfg.depth,
                       cfg.seed, 0, split="test")
    assert rep.users_evaluated > 0
    assert 0.4 < rep.auc < 0.6


def test_evaluate_report_includes_recall():
    cfg = ExperimentConfig(users=25, items=30, attributes=4,
                           interactions_per_user=8, seed=12)
    ds = build_dataset(cfg)
    params, user_emb, _ = setup_state(cfg, ds)
    rep = evaluate_report(ds, params, user_emb, cfg.sample_size, cfg.depth,
                          cfg.seed, 0, ks=[5, 30], split="test")
    assert set(rep.recall_at_k) == {5, 30}
    assert rep.recall_at_k[5] <= rep.recall_at_k[30]
    payload = rep.to_dict()
    assert payload["recall_at_k"]["5"] == rep.recall_at_k[5]
