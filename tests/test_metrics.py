from dataclasses import replace
from functools import partial, reduce
from itertools import accumulate, product

import numpy as np
import pytest

from fedkg import metrics
from fedkg.cli import build_dataset, setup_state
from fedkg.config import ExperimentConfig
from fedkg.data import Dataset, unobserved_items
from fedkg.kg import Layer, Subgraph, build_kg, sample_subgraph
from fedkg.metrics import (auc, evaluate_ctr, evaluate_report, f1,
                           recall_from_scores, sample_field)
from fedkg.model import Field, LocalGraph, field_batch, field_scorer, propagate, sigmoid
from fedkg.params import gather, init_params
from fedkg.rng import ROLE_EVAL, derive_rng


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


def test_f1_empty_rejected():
    with pytest.raises(ValueError, match="f1 over empty scores"):
        f1([], [])


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
    [rec] = recall_from_scores(np.array([[0.5, 0.1, 0.9]]), [{1}], ks=[3, 10])
    assert rec[3] == 1.0 and rec[10] == 1.0


def test_recall_top_ranked_positive():
    [rec] = recall_from_scores(np.array([[0.9, 0.1, 0.2]]), [{0}], ks=[1])
    assert rec[1] == 1.0


def test_recall_non_decreasing_in_k():
    rng = derive_rng(3, 0)
    scores = rng.random(100)
    positives = set(int(x) for x in rng.choice(100, 10, replace=False))
    [rec] = recall_from_scores(scores[None], [positives], ks=[1, 5, 10, 50, 100])
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
        recalls[t] = recall_from_scores(scores[None], [positives], [10])[0][10]
    var_single = 10 * 0.1 * 0.9 * (90 / 99) / 100  # Var(hits)/n^2
    sigma_mean = np.sqrt(var_single / trials)
    assert abs(recalls.mean() - 0.1) < 3 * sigma_mean


def test_recall_tie_break_is_deterministic_by_item_id():
    recs = recall_from_scores(np.full((3, 3), 0.5), [{0}, {1}, {2}], ks=[1, 2])
    assert recs == [{1: 1.0, 2: 1.0}, {1: 0.0, 2: 1.0}, {1: 0.0, 2: 0.0}]  # lowest id first


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
    """Reference: Python sort by (-score, item id), NaN scores last, hits counted
    one by one."""
    def key(i):
        nan = bool(np.isnan(scores[i]))
        return nan, 0.0 if nan else -scores[i], candidates[i]
    order = sorted(range(len(candidates)), key=key)
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
        positives = {int(p) for p in rng.choice(n, int(rng.integers(1, n + 1)), replace=False)}
        ks = [1, 5, 10, 50]
        expected = loop_recall(scores, np.arange(n), positives, ks)
        assert recall_from_scores(scores[None], [positives], ks) == [expected]


def test_block_ranking_matches_loop_reference_bitwise():
    rng = derive_rng(6, 0)
    straddled = 0
    for trial in range(200):
        rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 80))
        scores = rng.integers(0, 4, (rows, n)) / 3.0 if trial % 2 else rng.random((rows, n))
        special = rng.random((rows, n))
        scores[special < 0.1] = np.nan
        scores[(special >= 0.1) & (special < 0.2)] = -np.inf
        positives = [{int(p) for p in rng.choice(n, int(rng.integers(1, n + 1)), replace=False)}
                     for _ in range(rows)]
        ks = sorted({int(k) for k in rng.integers(1, n + 5, 3)})
        want = [loop_recall(row, np.arange(n), pos, ks) for row, pos in zip(scores, positives)]
        assert recall_from_scores(scores, positives, ks) == want, trial
        top = min(max(ks), n)
        keys = np.sort(-scores, axis=1)  # NaN last
        straddled += int(np.sum((top < n) & (keys[:, top - 1] == keys[:, min(top, n - 1)])))
    assert straddled > 50  # ties across the top-th key took the per-row path


@pytest.mark.parametrize("rows,n", [(1, 5000), (64, 300)])
def test_wide_ranking_matches_loop_reference_bitwise(rows, n):
    rng = derive_rng(8, rows)
    scores = rng.integers(0, 40, (rows, n)) / 39.0  # 40 values: long runs of ties
    special = rng.random((rows, n))
    scores[special < 0.05] = np.nan
    scores[(special >= 0.05) & (special < 0.1)] = -np.inf
    positives = [{int(p) for p in rng.choice(n, int(rng.integers(1, 120)), replace=False)}
                 for _ in range(rows)]
    positives[0] |= {0, 1}
    scores[0, :2] = np.nan, -np.inf  # positives scored NaN and -inf
    keys = np.sort(-scores, axis=1)  # NaN last
    assert all(np.any(keys[:, k - 1] == keys[:, k]) for k in (1, 10, 50, 200))  # K-th ties
    for ks in ([1, 10, 50, 200], [1, 10, 50, 200, n + 7]):
        want = [loop_recall(row, np.arange(n), pos, ks) for row, pos in zip(scores, positives)]
        assert recall_from_scores(scores, positives, ks) == want, ks


def test_recall_rejects_an_empty_positive_set():
    with pytest.raises(ValueError, match="row 0"):
        recall_from_scores(np.array([[0.5, 0.2]]), [set()], [1])
    with pytest.raises(ValueError, match="row 2"):
        recall_from_scores(np.zeros((3, 2)), [{0}, {1}, set()], [1])


def test_recall_rejects_score_rows_without_one_positive_set_each():
    for sets in ([{0}, {1}], [{0}, {1}, {0}, {1}]):  # 3 score rows
        with pytest.raises(ValueError):
            recall_from_scores(np.zeros((3, 2)), sets, [1])
    for item in (2, -1):  # a positive that no column scores
        with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
            recall_from_scores(np.zeros((3, 2)), [{0}, {1, item}, {1}], [1])


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


def test_evaluate_ctr_without_an_eligible_user_reports_nothing():
    # every user has valid positives but no valid negatives, so none is scored
    cfg = ExperimentConfig(users=12, items=20, attributes=4, interactions_per_user=6, seed=11)
    ds = build_dataset(cfg)
    ds = replace(ds, valid_neg=[[] for _ in range(ds.num_users)])
    params, user_emb, _ = setup_state(cfg, ds)
    rep = evaluate_ctr(ds, params, user_emb, cfg.sample_size, cfg.depth, cfg.seed, 0)
    assert rep.to_dict() == {"auc": None, "f1": None, "recall_at_k": {},
                             "users_evaluated": 0, "positives": 0, "negatives": 0}


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


# --- block scoring over one field per pass ----------------------------------------

def reference_score_items(params, kg, user_vec, items, sample_size, depth, rng):
    """The per-user scorer before the shared field: one user samples its own
    receptive field on its own stream and is scored as a batch of one."""
    subgraph = sample_subgraph(kg, items, sample_size, depth, rng)
    ent_rows, rel_rows = gather(params, subgraph.entities, subgraph.relations)
    graph = LocalGraph(user=user_vec, labels=np.zeros(len(items)), subgraph=subgraph,
                       entity_rows=ent_rows, relation_rows=rel_rows)
    return np.asarray(sigmoid(propagate(graph, params.model) @ user_vec))


def restrict_field(field, items):
    """The field's draws for one user's anchors, as a Subgraph of entity ids:
    ids[l + 1] holds the sorted distinct tails of the user's sampled centers
    of depth l, and each center keeps the field's K draws."""
    ids, drawn = [np.asarray(items, dtype=np.int64)], []
    for lvl, layer in enumerate(field.layers):
        where = np.searchsorted(field.ids[lvl], ids[-1])
        assert np.array_equal(field.ids[lvl][where], ids[-1])
        row_of = {int(p): r for r, p in enumerate(layer.sampled)}
        isolated = layer.isolated[where]
        rows = np.array([row_of[int(p)] for p in where[~isolated]], dtype=np.intp)
        tails = field.ids[lvl + 1][layer.tail_rows[rows]]
        drawn.append((isolated, field.relations[layer.rel_rows[rows]], tails))
        ids.append(np.unique(tails))
    relations = np.unique(np.concatenate([rel.ravel() for _, rel, _ in drawn] + [[]]))
    layers = [Layer(isolated=iso, rel_rows=np.searchsorted(relations, rel),
                    tail_rows=np.searchsorted(nxt, tails))
              for (iso, rel, tails), nxt in zip(drawn, ids[1:])]
    return Subgraph(ids=ids, layers=layers, entities=np.unique(np.concatenate(ids)),
                    relations=relations.astype(np.int64))


def field_oracle(params, field, user_vec, items):
    """One user's scores: the field restricted to its items, run as its own LocalGraph."""
    subgraph = restrict_field(field, items)
    ent_rows, rel_rows = gather(params, subgraph.entities, subgraph.relations)
    graph = LocalGraph(user=user_vec, labels=np.zeros(len(items)), subgraph=subgraph,
                       entity_rows=ent_rows, relation_rows=rel_rows)
    return np.asarray(sigmoid(propagate(graph, params.model) @ user_vec))


def pass_field(dataset, k, depth, seed, round_index):
    return sample_subgraph(dataset.kg, np.arange(dataset.num_items), k, depth,
                           derive_rng(seed, ROLE_EVAL, round_index))


def test_sample_field_is_a_read_only_field_around_every_item():
    dataset = _block_dataset()
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, 8,
                         derive_rng(24, 0), depth=2)
    field = sample_field(dataset, params, 3, 2, 5, 1)
    assert isinstance(field, Field) and field.model is params.model
    assert np.array_equal(field.subgraph.ids[0], np.arange(dataset.num_items))
    assert np.array_equal(field.subgraph.ids[1], pass_field(dataset, 3, 2, 5, 1).ids[1])
    for rows, table, ids in ((field.entity_rows, params.entity_emb, field.subgraph.entities),
                             (field.relation_rows, params.relation_emb,
                              field.subgraph.relations)):
        assert np.array_equal(rows, table[ids]) and not rows.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0.0


def record_score_items(monkeypatch):
    """Patch metrics.score_items to record (field, counts, scores) per block."""
    real, calls = metrics.score_items, []

    def recording(model, field, users, items, counts):
        scores = real(model, field, users, items, counts)
        calls.append((field, list(counts), scores))
        return scores

    monkeypatch.setattr(metrics, "score_items", recording)
    return calls


def block_scores(calls):
    return [scores for _, block, block_scores in calls
            for scores in np.split(block_scores, np.cumsum(block)[:-1])]


ISOLATED_USER, WIDE_USER = 0, 1


def _block_dataset() -> Dataset:
    """300 items and 20 attributes; items 280.. have no triple, so every layer
    leaves them isolated. Candidate counts vary from 2 to 270 per user:
    ISOLATED_USER's anchors are all isolated, WIDE_USER's outnumber
    BLOCK_ITEMS, and every fourth user has no test negatives (not scored)."""
    rng = derive_rng(21, 0)
    items, attributes = 300, 20
    triples = np.array([(i, int(rng.integers(3)), items + int(rng.integers(attributes)))
                        for i in range(280) for _ in range(2)])
    kg = build_kg(triples, items + attributes, 3)
    test, test_neg = [], []
    for user in range(40):
        if user == ISOLATED_USER:
            pos, neg = [281, 290], [285, 299, 283]
        elif user == WIDE_USER:
            pos, neg = np.split(rng.permutation(280)[:270], [135])
        else:
            drawn = rng.permutation(280)[:int(rng.integers(2, 30))]
            pos, neg = np.split(drawn, [int(rng.integers(1, len(drawn)))])
            if user % 4 == 3:
                neg = []
        test.append([int(i) for i in pos])
        test_neg.append([int(i) for i in neg])
    empty = [[] for _ in test]
    return Dataset(num_users=len(test), num_items=items, train=empty, valid=empty,
                   test=test, train_neg=empty, valid_neg=empty, test_neg=test_neg,
                   kg=kg, triples=triples)


@pytest.mark.parametrize("depth,mode", list(product(range(4), ("replace", "transform"))))
def test_block_scoring_matches_per_user_reference_bitwise(depth, mode, monkeypatch):
    dataset = _block_dataset()
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, 8,
                         derive_rng(22, depth), depth=depth, mode=mode)
    user_emb = derive_rng(23, depth).uniform(-0.5, 0.5, size=(dataset.num_users, 8))
    seed, round_index, k = 5, 3, 3
    scored = [u for u in range(dataset.num_users) if dataset.test[u] and dataset.test_neg[u]]
    counts = [len(dataset.test[u]) + len(dataset.test_neg[u]) for u in scored]
    assert max(counts) > metrics.BLOCK_ITEMS and len(set(counts)) > 10

    field = pass_field(dataset, k, depth, seed, round_index)
    want = [field_oracle(params, field, user_emb[user],
                         dataset.test[user] + dataset.test_neg[user]) for user in scored]
    labels = np.concatenate([[1] * len(dataset.test[u]) + [0] * len(dataset.test_neg[u])
                             for u in scored])

    for cap in (1, metrics.BLOCK_ITEMS, sum(counts) + 1):
        monkeypatch.setattr(metrics, "BLOCK_ITEMS", cap)
        calls = record_score_items(monkeypatch)
        report = evaluate_ctr(dataset, params, user_emb, k, depth, seed, round_index, "test")

        # every block reads the pass's one field, the oracle's own sample
        shared = calls[0][0]
        assert all(f is shared for f, _, _ in calls)
        for a, b in zip(shared.subgraph.ids, field.ids):
            assert np.array_equal(a, b)
        # contiguous greedy blocks: each ends where the next user would pass the cap
        assert [n for _, block, _ in calls for n in block] == counts
        for i, (_, block, _) in enumerate(calls):
            assert sum(block) <= cap or len(block) == 1
            if i + 1 < len(calls):
                assert sum(block) + calls[i + 1][1][0] > cap
        if cap == 1:
            assert len(calls) == len(scored)
        if cap > sum(counts):
            assert len(calls) == 1
        for user, a, b in zip(scored, block_scores(calls), want):
            assert a.tobytes() == b.tobytes(), (cap, user)
        assert report.auc == auc(np.concatenate(want), labels)
        assert report.f1 == f1(np.concatenate(want), labels)


@pytest.mark.parametrize("depth,mode", [(1, "replace"), (2, "transform")])
def test_evaluate_ctr_report_equals_per_user_loop(depth, mode, monkeypatch):
    # users without positives (u % 4 == 2) and without negatives (u % 4 == 3)
    # sit between scorable ones; they add nothing and move no one's candidates
    dataset = _block_dataset()
    test = [[] if user % 4 == 2 else pos for user, pos in enumerate(dataset.test)]
    dataset = replace(dataset, test=test)
    assert all(dataset.test_neg[u] for u in range(2, dataset.num_users, 4))
    assert all(dataset.test[u] for u in range(3, dataset.num_users, 4))
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, 8,
                         derive_rng(26, depth), depth=depth, mode=mode)
    user_emb = derive_rng(27, depth).uniform(-0.5, 0.5, size=(dataset.num_users, 8))
    seed, round_index, k = 5, 2, 3

    field = pass_field(dataset, k, depth, seed, round_index)
    want, labels = [], []
    for user in range(dataset.num_users):
        pos, neg = dataset.test[user], dataset.test_neg[user]
        if pos and neg:
            want.append(field_oracle(params, field, user_emb[user], pos + neg))
            labels += [1] * len(pos) + [0] * len(neg)
    scores = np.concatenate(want)
    reference = metrics.MetricReport(auc=auc(scores, labels), f1=f1(scores, labels),
                                     users_evaluated=len(want), positives=labels.count(1),
                                     negatives=labels.count(0))

    calls = record_score_items(monkeypatch)
    report = evaluate_ctr(dataset, params, user_emb, k, depth, seed, round_index, "test")
    assert report.to_dict() == reference.to_dict()
    assert [n for _, block, _ in calls for n in block] == [len(s) for s in want]
    for got, expect in zip(block_scores(calls), want, strict=True):
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("mode", ["replace", "transform"])
def test_depth1_synthetic_field_scores_equal_per_user_samples(mode, monkeypatch):
    # every synthetic item has exactly one triple, so a depth-1 draw cannot
    # depend on the stream: the shared field scores as per-user samples did
    cfg = ExperimentConfig(users=40, items=50, attributes=6, interactions_per_user=10,
                           depth=1, mode=mode, seed=17)
    dataset = build_dataset(cfg)
    assert np.all(np.diff(dataset.kg.offsets[:dataset.num_items + 1]) == 1)
    params, user_emb, _ = setup_state(cfg, dataset)
    round_index = 6
    calls = record_score_items(monkeypatch)
    evaluate_ctr(dataset, params, user_emb, cfg.sample_size, 1, cfg.seed, round_index, "test")
    scored = [u for u in range(dataset.num_users) if dataset.test[u] and dataset.test_neg[u]]
    got = block_scores(calls)
    assert len(got) == len(scored) > 0
    for user, scores in zip(scored, got):
        want = reference_score_items(params, dataset.kg, user_emb[user],
                                     dataset.test[user] + dataset.test_neg[user],
                                     cfg.sample_size, 1,
                                     derive_rng(cfg.seed, ROLE_EVAL, round_index, user))
        assert scores.tobytes() == want.tobytes(), user


@pytest.mark.parametrize("depth,mode", list(product((1, 2), ("replace", "transform"))))
def test_field_batch_user_with_only_isolated_candidates(depth, mode):
    dataset = _block_dataset()
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, 8,
                         derive_rng(24, depth), depth=depth, mode=mode)
    sub = pass_field(dataset, 3, depth, 5, 1)
    field = Field(sub, *gather(params, sub.entities, sub.relations), params.model)
    assert not field.entity_rows.flags.writeable and not field.relation_rows.flags.writeable
    users = derive_rng(25, depth).uniform(-0.5, 0.5, size=(3, 8))
    linked = [[3, 17, 40], [200, 3]]
    isolated = [281, 290, 299]  # no triple: only raw vectors reach the readout
    for order in ([isolated, *linked], [linked[0], isolated, linked[1]], [*linked, isolated]):
        counts = [len(c) for c in order]
        batch = field_batch(field, users, np.concatenate(order), counts)
        slot = order.index(isolated)
        assert np.all(batch.layers[0].isolated[batch.anchor_offsets[slot]:
                                               batch.anchor_offsets[slot + 1]])
        assert batch.sampled_offsets[0][slot] == batch.sampled_offsets[0][slot + 1]
        got = np.split(metrics.score_items(params.model, field, users, np.concatenate(order),
                                           counts), np.cumsum(counts)[:-1])
        for b, items in enumerate(order):
            want = field_oracle(params, field.subgraph, users[b], items)
            assert got[b].tobytes() == want.tobytes(), (order, b)
        raw = sigmoid(params.entity_emb[isolated] @ users[slot])
        assert got[slot].tobytes() == np.asarray(raw).tobytes()


def test_evaluate_report_call_counts_match_recount(monkeypatch):
    cfg = ExperimentConfig(users=30, items=24, attributes=5, interactions_per_user=8,
                           depth=2, seed=13)
    dataset = build_dataset(cfg)
    params, user_emb, _ = setup_state(cfg, dataset)
    round_index, ks = 4, [5, 10]
    sampled, gathered, scored, scorers, blocks, ranked = [], [], [], [], [], []
    real_sample, real_gather, real_score, real_scorer, real_rank = \
        metrics.sample_subgraph, metrics.gather, metrics.score_items, metrics.field_scorer, \
        metrics.recall_from_scores

    def sample(kg, anchors, k, depth, rng):
        sampled.append((np.array(anchors), k, depth, rng.bit_generator.state,
                        real_sample(kg, anchors, k, depth, rng)))
        return sampled[-1][-1]

    def gather_rows(state, entities, relations):
        gathered.append((np.array(entities), np.array(relations)))
        return real_gather(state, entities, relations)

    def score(model, field, users, items, counts):
        scored.append((field, len(users), list(counts)))
        return real_score(model, field, users, items, counts)

    def field_scorer(field, model):
        scorers.append(field)
        block_scores = real_scorer(field, model)

        def scoring(users):
            blocks.append(len(users))
            return block_scores(users)
        return scoring

    def rank(scores, positives, ks):
        ranked.append((len(blocks), len(scores)))
        return real_rank(scores, positives, ks)

    monkeypatch.setattr(metrics, "sample_subgraph", sample)
    monkeypatch.setattr(metrics, "gather", gather_rows)
    monkeypatch.setattr(metrics, "score_items", score)
    monkeypatch.setattr(metrics, "field_scorer", field_scorer)
    monkeypatch.setattr(metrics, "recall_from_scores", rank)
    # over the 30 test users, ranking blocks of 12, 12 and 6 users, each scored in
    # sub-blocks of at most 5 users
    monkeypatch.setattr(metrics, "RANK_PAIRS", 12 * dataset.num_items + 5)
    monkeypatch.setattr(metrics, "BLOCK_PAIRS", 5 * dataset.num_items + 3)
    evaluate_report(dataset, params, user_emb, cfg.sample_size, cfg.depth, cfg.seed,
                    round_index, ks=ks, split="test")

    # brute force: one field on the report key, for the CTR and the Recall@K parts
    stream = derive_rng(cfg.seed, ROLE_EVAL, round_index)
    field = sample_subgraph(dataset.kg, np.arange(dataset.num_items), cfg.sample_size,
                            cfg.depth, derive_rng(cfg.seed, ROLE_EVAL, round_index))
    assert len(sampled) == 1
    for anchors, k, depth, state, _ in sampled:
        assert np.array_equal(anchors, np.arange(dataset.num_items))
        assert (k, depth) == (cfg.sample_size, cfg.depth)
        assert state == stream.bit_generator.state
    assert len(gathered) == 1
    for entities, relations in gathered:
        assert np.array_equal(entities, field.entities)
        assert np.array_equal(relations, field.relations)
    # the CTR metrics read the ranking blocks' scores: no score_items call, and one
    # block scorer over that field
    assert scored == []
    assert len(scorers) == 1 and scorers[0].subgraph is sampled[0][-1]
    # every user with test positives, in ranking blocks of max(1, RANK_PAIRS // items)
    # users, each ranked in one call after its scorer sub-blocks of
    # max(1, BLOCK_PAIRS // items), which start afresh at every ranking block
    users = sum(1 for u in range(dataset.num_users) if dataset.test[u])

    def split(total, step):
        return [step] * (total // step) + [total % step] * (total % step > 0)
    rank_blocks = split(users, max(1, metrics.RANK_PAIRS // dataset.num_items))
    sub_blocks = [split(n, max(1, metrics.BLOCK_PAIRS // dataset.num_items))
                  for n in rank_blocks]
    assert blocks == [n for sub in sub_blocks for n in sub]
    assert [n for _, n in ranked] == rank_blocks
    assert [at for at, _ in ranked] == list(accumulate(map(len, sub_blocks)))
    assert blocks == [5, 5, 2, 5, 5, 2, 5, 1] and rank_blocks == [12, 12, 6]

    # without Ks the report is evaluate_ctr's pass: the same score_items blocks on one
    # field, and no scorer
    def passes(run):
        sampled.clear(), gathered.clear(), scored.clear(), scorers.clear()
        run(dataset, params, user_emb, cfg.sample_size, cfg.depth, cfg.seed, round_index,
            split="test")
        assert len(sampled) == len(gathered) == 1 and scorers == []
        assert all(f.subgraph is sampled[0][-1] for f, _, _ in scored)
        return [(n, counts) for _, n, counts in scored]
    want = passes(evaluate_ctr)
    assert passes(partial(evaluate_report, ks=None)) == want
    ctr = [len(dataset.test[u]) + len(dataset.test_neg[u])
           for u in range(dataset.num_users) if dataset.test[u] and dataset.test_neg[u]]
    assert [n for _, counts in want for n in counts] == ctr


def scorer_setup(dataset, depth, mode):
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, 8,
                         derive_rng(22, depth), depth=depth, mode=mode)
    params.model.biases = [b + 0.05 for b in params.model.biases]  # nonzero hop biases
    user_emb = derive_rng(23, depth).uniform(-0.5, 0.5, size=(dataset.num_users, 8))
    return params, user_emb


def pass_scorer(dataset, params, depth):
    sub = pass_field(dataset, 3, depth, 5, 3)
    return sub, field_scorer(
        Field(sub, *gather(params, sub.entities, sub.relations), params.model), params.model)


@pytest.mark.parametrize("depth,mode", list(product(range(4), ("replace", "transform"))))
def test_field_scorer_matches_field_oracle(depth, mode):
    dataset = _block_dataset()
    params, user_emb = scorer_setup(dataset, depth, mode)
    sub, scorer = pass_scorer(dataset, params, depth)
    users = [ISOLATED_USER, WIDE_USER, 2, 3]
    got = scorer(user_emb[users])
    assert got.shape == (len(users), dataset.num_items)
    for row, user in enumerate(users):
        candidates = unobserved_items(dataset.train[user] + dataset.valid[user],
                                      dataset.num_items)
        want = field_oracle(params, sub, user_emb[user], candidates)
        assert np.max(np.abs(got[row, candidates] - want)) <= 1e-12, user
    # isolated items score their raw rows at every depth
    raw = sigmoid(params.entity_emb[dataset.test[ISOLATED_USER]] @ user_emb[ISOLATED_USER])
    assert np.max(np.abs(got[0, dataset.test[ISOLATED_USER]] - raw)) <= 1e-12


@pytest.mark.parametrize("depth,mode", list(product((1, 2), ("replace", "transform"))))
def test_field_scorer_extreme_logits_stay_finite(depth, mode):
    # relation rows scaled so that, for some drawn center, every relation it drew sits
    # over 800 below the user's best relation: an exp shifted by the user's overall
    # maximum would underflow to 0 / 0 there
    dataset = _block_dataset()
    params, user_emb = scorer_setup(dataset, depth, mode)
    params.relation_emb *= 10000.0
    sub, scorer = pass_scorer(dataset, params, depth)
    users = [2, WIDE_USER]
    relations = params.relation_emb[sub.relations]
    for user in users:
        t = relations @ user_emb[user]
        drawn_best = t[sub.layers[0].rel_rows].max(axis=1)
        assert np.max(t.max() - drawn_best) > 800
    got = scorer(user_emb[users])
    assert np.all(np.isfinite(got))
    for row, user in enumerate(users):
        want = field_oracle(params, sub, user_emb[user], np.arange(dataset.num_items))
        assert np.max(np.abs(got[row] - want)) <= 1e-12, user


@pytest.mark.parametrize("depth,mode", list(product((1, 2), ("replace", "transform"))))
def test_field_scorer_all_isolated_field_scores_raw_rows(depth, mode):
    # no triples, so no center draws: every layer's slot table is empty
    items = 40
    kg = build_kg(np.empty((0, 3), dtype=np.int64), items + 10, 2)
    params = init_params(kg.num_entities, kg.num_relations, 8, derive_rng(22, depth),
                         depth=depth, mode=mode)
    users = derive_rng(23, depth).uniform(-0.5, 0.5, size=(5, 8))
    sub = sample_subgraph(kg, np.arange(items), 3, depth, derive_rng(5, ROLE_EVAL, 3))
    assert all(layer.isolated.all() for layer in sub.layers)
    got = field_scorer(Field(sub, *gather(params, sub.entities, sub.relations), params.model),
                       params.model)(users)
    # raw rows, read out from one C-contiguous (U, d, n) state as the scorer
    # does: the matmul rounds by layout
    raw = np.broadcast_to(params.entity_emb[:items].T, (len(users), 8, items))
    assert got.tobytes() == sigmoid((users[:, None] @ raw.copy())[:, 0]).tobytes()


RELATIONS_K = 4


def _relations_dataset() -> Dataset:
    """120 items and 30 attributes over 12 relations, more than RELATIONS_K:
    items 0..109 have 3-6 triples of random relations, so a center draws up to
    4 distinct ones (attributes too, through the reverse edges), and items
    110.. have none, so they stay isolated."""
    rng = derive_rng(27, 0)
    items, attributes, relations = 120, 30, 12
    triples = np.array([(i, int(rng.integers(relations)), items + int(rng.integers(attributes)))
                        for i in range(110) for _ in range(int(rng.integers(3, 7)))])
    kg = build_kg(triples, items + attributes, relations)
    empty = [[] for _ in range(8)]
    return Dataset(num_users=8, num_items=items, train=empty, valid=empty, test=empty,
                   train_neg=empty, valid_neg=empty, test_neg=empty, kg=kg, triples=triples)


def relation_sum_scores(field, params, users):
    """Depth 1 as a sum over every relation of the field, absent ones at count 0:
    the scorer's formula before relation slots, kept as its bitwise reference."""
    layer, transform = field.subgraph.layers[0], params.model.mode == "transform"
    raw = [field.entity_rows[rows].T for rows in field.subgraph.ent_rows]
    onehot = layer.rel_rows[..., None] == np.arange(len(field.relation_rows))
    counts = onehot.sum(axis=1).T
    sums = np.einsum("nkr,dnk->rdn", onehot, raw[1][:, layer.tail_rows])
    w, b = params.model.weights[0], params.model.biases[0][:, None]
    base, sums = (w @ raw[0][:, layer.sampled] + b, w @ sums) if transform else (0.0, sums)
    t = np.einsum("ud,rd->ur", users, field.relation_rows)[..., None]
    shift = np.where(counts > 0, t, -np.inf).max(axis=1, keepdims=True, initial=-np.inf)
    e = np.exp(np.where(counts > 0, t - shift, 0.0))
    coefs = e / (e * counts).sum(axis=1, keepdims=True)
    new = sum((coefs[:, r, None] * sums[r] for r in range(len(sums))), base)
    # read out from a C-contiguous state, as the scorer does: the matmul rounds by layout
    new = np.tanh(new) if transform else np.ascontiguousarray(new)
    if layer.isolated.any():
        state = np.broadcast_to(raw[0], (len(users), *raw[0].shape)).copy()
        state[:, :, layer.sampled] = new
        new = state
    return sigmoid((users[:, None] @ new)[:, 0])


def per_block_scorer(field, params):
    """field_scorer before its shared states were made once per pass: every
    block makes every hop state, one row until a user's attention reaches it.
    Kept as its bitwise reference at any depth."""
    sub, transform = field.subgraph, params.mode == "transform"
    raw = [field.entity_rows[rows].T for rows in sub.ent_rows]
    slots, draw_slots, hop1 = [], [], []
    for lvl, layer in enumerate(sub.layers):
        order = np.argsort(layer.rel_rows, axis=1)
        ranked = np.take_along_axis(layer.rel_rows, order, axis=1)
        step = np.cumsum(np.diff(ranked, axis=1, prepend=ranked[:, :1]) != 0, axis=1)
        slot = np.empty_like(step)
        np.put_along_axis(slot, order, step, axis=1)
        mask = slot[..., None] == np.arange(slot.max(initial=0) + 1)
        count = np.einsum("nkm->mn", mask.astype(np.intp))
        first = np.where(count > 0, np.cumsum(count, axis=0) - count, 0)
        rel = np.take_along_axis(ranked.T, first, axis=0)
        sums = np.einsum("nkm,dnk->mdn", mask, raw[lvl + 1][:, layer.tail_rows])
        w, b = params.weights[0], params.biases[0][:, None]
        if transform:
            sums = w @ sums
        slots.append((rel, count))
        draw_slots.append(slot.T)
        hop1.append((w @ raw[lvl][:, layer.sampled] + b if transform else 0.0,
                     np.where(count[:, None] > 0, sums, 0.0)))

    def score(users):
        t = (np.einsum("ud,rd->ur", users, field.relation_rows)
             if any(len(rel) > 1 for rel, _ in slots) else None)
        coefs = []
        for rel, count in slots:
            if len(rel) == 1:
                coefs.append((1.0 / count)[None])
                continue
            by_slot = t[:, rel]
            shift = reduce(np.maximum, by_slot.swapaxes(0, 1))
            e = np.exp(by_slot - shift[:, None])
            coefs.append(e / reduce(np.add, (e * count).swapaxes(0, 1))[:, None])
        states = [x[None] for x in raw]
        for hop in range(1, sub.depth + 1):
            for lvl, layer in enumerate(sub.layers[:sub.depth + 1 - hop]):
                coef = coefs[lvl]
                if hop == 1:
                    base, slot_sums = hop1[lvl]
                    new = np.multiply(coef[:, 0, None], slot_sums[0],
                                      out=np.empty((len(coef), *slot_sums.shape[1:])))
                    new += base
                    for m in range(1, len(slot_sums)):
                        new += coef[:, m, None] * slot_sums[m]
                    if transform:
                        np.tanh(new, out=new)
                else:
                    alpha = coef[:, draw_slots[lvl], np.arange(len(layer.rel_rows))]
                    new = np.einsum("ukn,udkn->udn", alpha,
                                    states[lvl + 1][:, :, layer.tail_rows.T])
                    if transform:
                        w, b = params.weights[hop - 1], params.biases[hop - 1][:, None]
                        new = np.tanh(w @ (states[lvl][:, :, layer.sampled] + new) + b)
                if layer.isolated.any():
                    shape = new.shape[:1] + states[lvl].shape[1:]
                    full = np.broadcast_to(states[lvl], shape).copy()
                    full[:, :, layer.sampled] = new
                    new = full
                states[lvl] = new
        return sigmoid((users[:, None] @ states[0])[:, 0])
    return score


@pytest.mark.parametrize("depth,mode", list(product((1, 2, 3), ("replace", "transform"))))
def test_relation_slots_match_field_oracle(depth, mode):
    # with and without isolated items: without, no copy makes the state contiguous
    for dataset in (_relations_dataset(), replace(_relations_dataset(), num_items=110)):
        params, user_emb = scorer_setup(dataset, depth, mode)
        sub = pass_field(dataset, RELATIONS_K, depth, 5, 3)
        field = Field(sub, *gather(params, sub.entities, sub.relations), params.model)
        for layer in sub.layers:  # centers that drew three or more relations: several slots
            assert max(len(set(rels)) for rels in layer.rel_rows.tolist()) >= 3
        assert len(sub.relations) > RELATIONS_K
        assert sub.layers[0].isolated.any() == (dataset.num_items > 110)
        scorer = field_scorer(field, params.model)
        got = scorer(user_emb)
        items = np.arange(dataset.num_items)
        for user in range(dataset.num_users):
            want = field_oracle(params, sub, user_emb[user], items)
            assert np.max(np.abs(got[user] - want)) <= 1e-12, user
        one_by_one = [scorer(user_emb[[u]]) for u in range(dataset.num_users)]
        assert got.tobytes() == np.concatenate(one_by_one).tobytes()
        halves = [scorer(user_emb[:3]), scorer(user_emb[3:])]
        assert got.tobytes() == np.concatenate(halves).tobytes()
        if depth == 1:
            assert got.tobytes() == relation_sum_scores(field, params, user_emb).tobytes()


def _slot_dataset(kind: str) -> Dataset:
    """120 items and 30 attributes, each attribute under one of 4 relations;
    items 110.. have no triple, so they stay isolated. "one": each item
    links to one attribute under that attribute's relation, as the synthetic
    generator builds it, so every center draws one relation. "items": each
    item links to 2-4 attributes under theirs, so items draw several
    relations and attributes one. "attributes": each item links to one
    attribute under a relation of its own, so attributes draw several and
    items one."""
    rng = derive_rng(28, 0)
    items, attributes, relations = 120, 30, 4
    attr_rel = rng.integers(relations, size=attributes)
    triples = np.array([
        (i, int(rng.integers(relations)) if kind == "attributes" else int(attr_rel[a]),
         items + int(a))
        for i in range(110)
        for a in rng.choice(attributes, int(rng.integers(2, 5)) if kind == "items" else 1,
                            replace=False)])
    kg = build_kg(triples, items + attributes, relations)
    empty = [[] for _ in range(6)]
    return Dataset(num_users=6, num_items=items, train=empty, valid=empty, test=empty,
                   train_neg=empty, valid_neg=empty, test_neg=empty, kg=kg, triples=triples)


class _ShapeRecorder:
    """numpy, recording the shape of every 3-D array one of its functions returns."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, type) or not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.ndim == 3:
                self.shapes.append(out.shape)
            return out
        return call


@pytest.mark.parametrize("kind,depth,mode",
                         list(product(("one", "items", "attributes"), (1, 2, 3),
                                      ("replace", "transform"))))
def test_one_relation_layers_keep_one_state_row(kind, depth, mode, monkeypatch):
    dataset = _slot_dataset(kind)
    params, user_emb = scorer_setup(dataset, depth, mode)
    sub = pass_field(dataset, RELATIONS_K, depth, 5, 3)
    field = Field(sub, *gather(params, sub.entities, sub.relations), params.model)
    # centers of even depth are items, of odd depth attributes
    slots = [max(len(set(rels)) for rels in layer.rel_rows.tolist()) for layer in sub.layers]
    several = {"one": [], "items": [0, 2], "attributes": [1]}[kind]
    assert [lvl for lvl, m in enumerate(slots) if m > 1] == [lvl for lvl in several if lvl < depth]
    assert sub.layers[0].isolated.any()
    scorer = field_scorer(field, params.model)
    got = scorer(user_emb)
    items = np.arange(dataset.num_items)
    for user in range(dataset.num_users):
        want = field_oracle(params, sub, user_emb[user], items)
        assert np.max(np.abs(got[user] - want)) <= 1e-12, user
    one_by_one = [scorer(user_emb[[u]]) for u in range(dataset.num_users)]
    assert got.tobytes() == np.concatenate(one_by_one).tobytes()
    halves = [scorer(user_emb[:3]), scorer(user_emb[3:])]
    assert got.tobytes() == np.concatenate(halves).tobytes()
    if depth == 1:
        assert got.tobytes() == relation_sum_scores(field, params, user_emb).tobytes()
    # the 3-D arrays numpy makes while a block is scored: the states no user's
    # attention reaches were made once with the scorer, so none has one row, an
    # all-M = 1 field makes none at all (only the readout is per user), and a layer
    # whose attention depends on the user makes (U, d, n) states
    recorder = _ShapeRecorder()
    monkeypatch.setattr("fedkg.model.np", recorder)
    assert scorer(user_emb).tobytes() == got.tobytes()
    assert all(shape[0] == dataset.num_users for shape in recorder.shapes)
    if max(slots) == 1:
        assert recorder.shapes == []
    else:
        assert (dataset.num_users, user_emb.shape[1]) in {s[:2] for s in recorder.shapes}


@pytest.mark.parametrize("kind,depth,mode",
                         list(product(("one", "items", "attributes"), (1, 2, 3),
                                      ("replace", "transform"))))
def test_field_scorer_equals_the_per_block_loop_bitwise(kind, depth, mode):
    dataset = _slot_dataset(kind)
    params, user_emb = scorer_setup(dataset, depth, mode)
    sub = pass_field(dataset, RELATIONS_K, depth, 5, 3)
    assert sub.layers[0].isolated.any()
    field = Field(sub, *gather(params, sub.entities, sub.relations), params.model)
    scorer, reference = field_scorer(field, params.model), per_block_scorer(field, params.model)
    want = reference(user_emb).tobytes()
    for blocks in ([user_emb], np.split(user_emb, dataset.num_users), np.split(user_emb, 2)):
        assert np.concatenate([scorer(block) for block in blocks]).tobytes() == want
        assert np.concatenate([reference(block) for block in blocks]).tobytes() == want


def test_recall_breaks_exact_score_ties_by_item_id():
    base = _block_dataset()
    params, user_emb = scorer_setup(base, 0, "transform")
    user, low, high = 2, 10, 200
    params.entity_emb[[low, high]] = 4.0 * user_emb[user]  # the same top score
    scores = pass_scorer(base, params, 0)[1](user_emb[[user]])[0]
    assert scores[low] == scores[high] > np.delete(scores, [low, high]).max()
    for positive, want in ((high, {1: 0.0, 2: 1.0}), (low, {1: 1.0, 2: 1.0})):
        test = [[] for _ in range(base.num_users)]
        test[user] = [positive]
        dataset = replace(base, test=test)
        report = evaluate_report(dataset, params, user_emb, 3, 0, 5, 3, ks=[1, 2])
        assert report.recall_at_k == want, positive


@pytest.mark.parametrize("depth,mode", [(1, "transform"), (2, "replace"), (2, "transform")])
def test_recall_report_bitwise_the_same_in_any_block(depth, mode, monkeypatch):
    dataset = _block_dataset()
    params, user_emb = scorer_setup(dataset, depth, mode)
    ks = [1, 5, 20, 300]
    n, everyone = dataset.num_items, dataset.num_users * dataset.num_items
    reports = []
    # (ranking pairs, scorer pairs): the defaults; ranking blocks of one user, over
    # the ranking limit (n - 1) or at it (n); ranking blocks of 2 users, smaller than
    # a 5-user scorer block; 7-user ranking blocks, not a multiple of a 3-user scorer
    # block (3 + 3 + 1); every user in one ranking block, scored one user at a time
    # or all at once
    for rank_pairs, block_pairs in ((metrics.RANK_PAIRS, metrics.BLOCK_PAIRS),
                                    (n - 1, metrics.BLOCK_PAIRS), (n, n - 1),
                                    (2 * n, 5 * n), (7 * n, 3 * n + 1),
                                    (everyone, n), (everyone, everyone)):
        monkeypatch.setattr(metrics, "RANK_PAIRS", rank_pairs)
        monkeypatch.setattr(metrics, "BLOCK_PAIRS", block_pairs)
        reports.append(evaluate_report(dataset, params, user_emb, 3, depth, 5, 3, ks=ks))
    assert all(report.to_dict() == reports[0].to_dict() for report in reports[1:])
    assert reports[0].recall_at_k[300] == 1.0
    scorer = pass_scorer(dataset, params, depth)[1]
    one_by_one = [scorer(user_emb[[u]]) for u in range(dataset.num_users)]
    assert scorer(user_emb).tobytes() == np.concatenate(one_by_one).tobytes()


@pytest.mark.parametrize("depth,mode", list(product(range(3), ("replace", "transform"))))
def test_report_ctr_reads_the_scores_it_ranks(depth, mode, monkeypatch):
    dataset = _block_dataset()
    params, user_emb = scorer_setup(dataset, depth, mode)
    report = evaluate_report(dataset, params, user_emb, 3, depth, 5, 3, ks=[1, 5])

    # the CTR users' candidates, read off the block scorer's full rows
    users = [u for u in range(dataset.num_users) if dataset.test[u] and dataset.test_neg[u]]
    assert 0 < len(users) < sum(1 for pos in dataset.test if pos)
    got = pass_scorer(dataset, params, depth)[1](user_emb[users])
    scores = [got[row, dataset.test[u] + dataset.test_neg[u]] for row, u in enumerate(users)]
    pooled = np.concatenate(scores)
    labels = np.concatenate([[1] * len(dataset.test[u]) + [0] * len(dataset.test_neg[u])
                             for u in users])
    assert (report.auc, report.f1) == (auc(pooled, labels), f1(pooled, labels))
    assert report.users_evaluated == len(users)
    assert (report.positives, report.negatives) == (int(labels.sum()),
                                                    int(len(labels) - labels.sum()))

    # the same model as field_batch's CTR pass, to rounding
    calls = record_score_items(monkeypatch)
    ctr = evaluate_ctr(dataset, params, user_emb, 3, depth, 5, 3, "test")
    for want, have in zip(block_scores(calls), scores, strict=True):
        np.testing.assert_array_max_ulp(have, want, maxulp=4)
    # and without Ks the report is that pass
    ctr_only = evaluate_report(dataset, params, user_emb, 3, depth, 5, 3, ks=None)
    assert ctr_only.to_dict() == ctr.to_dict()


def brute_force_recall(dataset, params, user_emb, k, depth, seed, round_index, ks, split):
    """Mean over users of loop_recall on field_oracle scores: the split's positives
    against every item but the user's positives in the other two splits."""
    sub = pass_field(dataset, k, depth, seed, round_index)
    positives, recs = dataset.split_of(split)[0], []
    for user in range(dataset.num_users):
        if not positives[user]:
            continue
        seen = [i for name in ("train", "valid", "test") if name != split
                for i in dataset.split_of(name)[0][user]]
        candidates = [int(i) for i in unobserved_items(seen, dataset.num_items)]
        scores = field_oracle(params, sub, user_emb[user], candidates)
        recs.append(loop_recall(scores, candidates, set(positives[user]), ks))
    return {k: sum(rec[k] for rec in recs) / len(recs) for k in ks}


def test_recall_reads_its_split():
    cfg = ExperimentConfig(users=60, items=40, attributes=5, seed=3)
    dataset = build_dataset(cfg)
    params, user_emb, _ = setup_state(cfg, dataset)
    ks = [5, 10]
    got = {}
    for split in ("train", "valid", "test"):
        report = evaluate_report(dataset, params, user_emb, cfg.sample_size, cfg.depth,
                                 cfg.seed, 2, ks=ks, split=split)
        want = brute_force_recall(dataset, params, user_emb, cfg.sample_size, cfg.depth,
                                  cfg.seed, 2, ks, split)
        assert report.recall_at_k == pytest.approx(want, abs=1e-12), split
        got[split] = report.recall_at_k
    assert got["train"] != got["valid"] != got["test"] != got["train"]
