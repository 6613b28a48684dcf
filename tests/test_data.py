import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from fedkg import data
from fedkg.cli import build_dataset
from fedkg.config import ExperimentConfig
from fedkg.data import (DataFormatError, generate_synthetic, load_dataset, load_ratings,
                        sample_eval_negatives, save_ratings_file, split)
from fedkg.kg import save_kg_file
from fedkg.metrics import auc
from fedkg.rng import ROLE_DATA, derive_rng


def test_load_ratings_movielens_threshold(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("0 10 3\n0 11 4\n0 12 5\n1 10 5\n")
    positives, id_map, num_items = load_ratings(str(path), positive_threshold=4.0)
    assert positives == [[11, 12], [10]]
    assert id_map == {0: 0, 1: 1}
    assert num_items == 13


def test_load_ratings_keep_all_rule(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("0 1 0\n0 2 7\n")
    positives, _, _ = load_ratings(str(path), positive_threshold=0.0)
    assert positives == [[1, 2]]


def test_load_ratings_drops_users_without_positives_and_densifies(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("5 1 2\n9 1 5\n42 3 5\n")
    positives, id_map, _ = load_ratings(str(path), positive_threshold=4.0)
    assert id_map == {9: 0, 42: 1}
    assert positives == [[1], [3]]


def test_load_ratings_empty_is_error(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("")
    with pytest.raises(DataFormatError, match="no users"):
        load_ratings(str(path))


def test_load_ratings_malformed_reports_line(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("0 1 5\n0 oops 5\n")
    with pytest.raises(DataFormatError, match=":2:"):
        load_ratings(str(path))


def test_load_ratings_negative_item_reports_line(tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_text("0 0 1\n0 2 1\n0 -3 1\n")
    with pytest.raises(DataFormatError, match=r"ratings\.txt:3: negative item id"):
        load_ratings(str(path))


def test_split_ten_positives_622():
    train, valid, test = split([list(range(10))], derive_rng(0, 0))
    assert (len(train[0]), len(valid[0]), len(test[0])) == (6, 2, 2)


def test_split_degenerate_user_all_train():
    train, valid, test = split([[7]], derive_rng(1, 0))
    assert (train[0], valid[0], test[0]) == ([7], [], [])


def test_split_seed_determinism():
    pos = [list(range(20)), list(range(5))]
    a = split(pos, derive_rng(2, 0))
    b = split(pos, derive_rng(2, 0))
    assert a == b


def test_split_disjoint_and_covering_property():
    rng = derive_rng(3, 0)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        pos = [sorted(int(x) for x in rng.choice(1000, size=k, replace=False))]
        train, valid, test = split(pos, rng)
        parts = [set(train[0]), set(valid[0]), set(test[0])]
        assert parts[0] | parts[1] | parts[2] == set(pos[0])
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) \
            and not (parts[1] & parts[2])


def split_sizes_before(k):
    """Sizes of the split that rounded train and valid up with no floor on test."""
    n_train = math.ceil(0.6 * k)
    n_valid = min(math.ceil(0.2 * k), k - n_train)
    return n_train, n_valid, k - n_train - n_valid


def test_split_leaves_every_user_with_three_positives_one_per_split():
    moved = {}
    for k in range(41):
        pos = list(range(100, 100 + k))
        train, valid, test = split([pos], derive_rng(6, k))
        sizes = (len(train[0]), len(valid[0]), len(test[0]))
        if k < 3:
            assert (train[0], sizes) == (pos, (k, 0, 0))
            continue
        assert min(sizes) >= 1
        # the same permutation draw, cut at the new sizes
        order = derive_rng(6, k).permutation(k)
        shuffled = [pos[i] for i in order]
        cuts = np.cumsum(sizes)[:2]
        assert [train[0], valid[0], test[0]] == [sorted(part) for part in
                                                 np.split(shuffled, cuts)]
        if sizes != split_sizes_before(k):
            moved[k] = sizes
    # only the sizes that left test empty move
    assert moved == {3: (1, 1, 1), 4: (2, 1, 1), 6: (4, 1, 1), 7: (5, 1, 1)}
    assert all(split_sizes_before(k)[2] == 0 for k in moved)


def test_eval_negatives_parity_and_disjoint():
    rng = derive_rng(4, 0)
    all_pos = [[0, 1, 2, 3]]
    [negs] = sample_eval_negatives(20, all_pos, [[[1, 2, 3, 0]]], rng)
    assert len(negs[0]) == 4
    assert not set(negs[0]) & set(all_pos[0])


def test_eval_negatives_clamped_when_pool_small():
    rng = derive_rng(5, 0)
    [negs] = sample_eval_negatives(4, [[0, 1, 2, 3]], [[[0, 1]]], rng)
    assert negs[0] == []


def test_eval_negatives_determinism():
    a = sample_eval_negatives(50, [[1, 2]], [[[1, 2]]], derive_rng(6, 0))
    b = sample_eval_negatives(50, [[1, 2]], [[[1, 2]]], derive_rng(6, 0))
    assert a == b


class Recording:
    """A generator that records a copy of each `random` and `integers` call's
    output, in order."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, *args, **kwargs):
        out = self.rng.random(*args, **kwargs)
        self.draws.append(("random", np.copy(out)))
        return out

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.draws.append(("integers", np.copy(out)))
        return out


def read_subsets(pools, wants, draws):
    """Per user, the sorted elements of pools[u] that `_subsets` picks, wants[u] of
    them, read from its recorded draws (its docstring's rule, in plain Python);
    pops the draws it reads."""
    sparse = [0 < w <= len(pool) / 2 for w, pool in zip(wants, pools)]
    drawn = draws.pop(0)[1].tolist() if any(sparse) else []
    picks = []
    for w, in_draws in zip(wants, sparse):
        mine = drawn[:2 * w + 4] if in_draws else []
        drawn = drawn[len(mine):]
        first = list(dict.fromkeys(mine))[:w]
        picks.append(first if len(first) == w else None)
    keys = draws.pop(0)[1].tolist() if None in picks else []
    for user, (w, pool) in enumerate(zip(wants, pools)):
        if picks[user] is None:  # the first w of the pool by key, ties by index
            mine, keys = keys[:len(pool)], keys[len(pool):]
            picks[user] = sorted(range(len(pool)), key=mine.__getitem__)[:w]
    assert not drawn and not keys
    return [sorted(pool[i] for i in idx) for pool, idx in zip(pools, picks)]


def read_eval_negatives(num_items, all_positives, split_positives, draws):
    """sample_eval_negatives' lists read from its recorded draws over per-user
    np.setdiff1d pools."""
    pools = [np.setdiff1d(np.arange(num_items), np.array(p, dtype=np.int64)).tolist()
             for p in all_positives]
    out = read_subsets(pools, [min(len(s), len(p)) for s, p in zip(split_positives, pools)],
                       draws)
    assert not draws
    return out


def test_eval_negatives_match_setdiff1d_reference():
    """The lists read from the draws over np.setdiff1d pools: per user sorted and
    distinct, inside its pool, as many as its split asks (clamped to the pool); a
    seed repeats them and the generator state it leaves."""
    def check(case, num_items, all_pos, split_pos):
        rng = Recording(derive_rng(case, 0))
        [got] = sample_eval_negatives(num_items, all_pos, [split_pos], rng)
        for neg, pos, want in zip(got, all_pos, split_pos):
            pool = np.setdiff1d(np.arange(num_items), np.array(pos, dtype=np.int64))
            assert neg == sorted(set(neg)), case
            assert set(neg) <= set(pool.tolist()), case
            assert len(neg) == min(len(want), len(pool)), case
        again = derive_rng(case, 0)
        assert sample_eval_negatives(num_items, all_pos, [split_pos], again) == [got], case
        assert again.bit_generator.state == rng.bit_generator.state, case
        assert got == read_eval_negatives(num_items, all_pos, split_pos, rng.draws[:]), case
        return rng

    gen = np.random.default_rng(8)
    for case in range(50):
        num_items = int(gen.integers(1, 40))
        all_pos = [sorted({int(i) for i in gen.integers(0, num_items, size=gen.integers(0, 12))})
                   for _ in range(6)]
        split_pos = [p[:int(gen.integers(0, len(p) + 1))] for p in all_pos]
        check(case, num_items, all_pos, split_pos)
    # unsorted positives with duplicates and ids outside [0, num_items)
    for case in range(50, 100):
        num_items = int(gen.integers(1, 40))
        all_pos = [[int(i) for i in gen.integers(-5, num_items + 5, size=gen.integers(0, 16))]
                   for _ in range(6)]
        split_pos = [p[:int(gen.integers(0, len(p) + 1))] for p in all_pos]
        check(case, num_items, all_pos, split_pos)
    # pools smaller than the split (clamped) and empty pools
    check(100, 6, [[0, 1, 2, 3, 4], [5, 4, 3, 2, 1, 0], [0, 1, 2, 3]],
          [[0, 1, 2], [0, 1, 2], [0, 1, 2, 3]])
    check(101, 3, [[0, 0, 1, 2, 7], [-1, 2, 2]], [[0, 1], [2, 2, 2]])
    # pools above 10,000 items, wanting a small share, half and more than half
    for case, (num_items, n_all, n_split) in enumerate(
            [(12_000, 50, 30), (12_000, 600, 300), (20_000, 900, 900),
             (15_300, 300, 300), (15_301, 301, 301), (10_100, 100, 5_000),
             (10_100, 100, 5_001)],
            start=102):
        all_pos = [sorted(int(i) for i in gen.choice(num_items, size=n_all, replace=False))
                   for _ in range(3)]
        split_pos = [p[:n_split] for p in all_pos] if n_split <= n_all else \
            [list(range(n_split))] * 3
        check(case, num_items, all_pos, split_pos)
    # one call whose users, in shuffled order, draw nothing, the whole pool (a small
    # one and one above 10,000 items), a small share, half and more than half of
    # it: the split's draws are one stream; (positives, split size, users)
    shapes = [(50, 0, 5), (11_990, 20, 1), (30, 20_000, 2), (2_500, 5_000, 3), (100, 50, 8),
              (100, 238, 3), (100, 239, 3), (400, 1_000, 5), (20, 8, 10),
              (2_000, 300, 2), (1_999, 201, 2)]
    users = [(n_all, n_split) for n_all, n_split, count in shapes for _ in range(count)]
    users = [users[i] for i in gen.permutation(len(users))]
    all_pos = [sorted(int(i) for i in gen.choice(12_000, size=n_all, replace=False))
               for n_all, _ in users]
    check(109, 12_000, all_pos, [list(range(n_split)) for _, n_split in users])
    # 4,000 users who want 10 of a 20-item pool: a few have fewer than 10 distinct of
    # their 24 draws and take the keyed sort
    rng = check(110, 20, [[]] * 4_000, [list(range(10))] * 4_000)
    assert [kind for kind, _ in rng.draws] == ["integers", "random"]


@pytest.mark.parametrize("want", [2, 3, 4])
def test_eval_negatives_are_uniform_over_the_pool(want):
    # each of the 15 or 20 subsets of a 6-item pool, over 6,000 users: want 2 and 3
    # come from the draws (2 * 3 is the whole pool), want 4 from the keyed sort
    users, subsets = 6_000, [list(c) for c in itertools.combinations(range(4, 10), want)]
    [out] = sample_eval_negatives(10, [[0, 1, 2, 3]] * users, [[list(range(want))] * users],
                                  derive_rng(16, want))
    counts = np.array([out.count(c) for c in subsets])
    expected = users / len(subsets)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square at p = 0.001 with 14 and 19 degrees of freedom
    assert chi2 < {15: 36.12, 20: 43.82}[len(subsets)], (chi2, counts)


def test_eval_negatives_draw_once_in_memory_of_the_draws():
    # at most two draw calls per split, `integers` for the users who want at most
    # half of their pool and `random` keys for the others, and no per-user matrix:
    # 2,000 users want one item each, one user wants 6,000 of 11,900 (the keyed
    # sort), so a (users x largest want) int64 matrix would be 96 MB
    num_items, users = 12_000, 2_000
    all_pos = [list(range(100))] + [[u] for u in range(1, users)]
    split_pos = [list(range(6_000))] + all_pos[1:]
    rng = Recording(derive_rng(3, 0))
    tracemalloc.start()
    try:
        [out] = sample_eval_negatives(num_items, all_pos, [split_pos], rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [kind for kind, _ in rng.draws] == ["integers", "random"]
    assert [len(neg) for neg in out] == [6_000] + [1] * (users - 1)
    assert peak < 8 * 2**20, peak

    rng = Recording(derive_rng(3, 0))
    assert sample_eval_negatives(num_items, all_pos, [[[]] * users], rng) == [[[]] * users]
    assert rng.draws == []


def test_synthetic_structure_and_planted_signal():
    cfg = ExperimentConfig()
    ds = generate_synthetic(cfg, derive_rng(7, 0))
    assert ds.num_users == 500 and ds.num_items == 200
    assert ds.kg.num_entities == 220  # items + attributes
    assert len(ds.triples) == 200  # one attribute triple per item
    assert ds.kg.num_triples == 200
    for user in range(ds.num_users):
        pos = ds.positives(user)
        assert len(set(pos)) == len(pos)
        parts = [set(ds.train[user]), set(ds.valid[user]), set(ds.test[user])]
        assert parts[0] | parts[1] | parts[2] == set(pos)


def test_synthetic_noise_zero_positives_match_preferences():
    cfg = ExperimentConfig(users=50, noise=0.0)
    ds = generate_synthetic(cfg, derive_rng(8, 0))
    item_attr = {int(h): int(t) - ds.num_items for h, _, t in ds.triples}
    for user in range(ds.num_users):
        for item in ds.positives(user):
            assert ds.truth_prefs[user, item_attr[item]]


def test_synthetic_noise_zero_admits_perfect_predictor():
    # full preferred-pool coverage: unobserved items are all non-preferred,
    # so the attribute-match oracle separates test pairs perfectly
    cfg = ExperimentConfig(users=80, items=100, attributes=10,
                           interactions_per_user=100, noise=0.0)
    ds = generate_synthetic(cfg, derive_rng(9, 0))
    item_attr = {int(h): int(t) - ds.num_items for h, _, t in ds.triples}
    scores, labels = [], []
    for user in range(ds.num_users):
        for item, label in [(i, 1) for i in ds.test[user]] + \
                           [(i, 0) for i in ds.test_neg[user]]:
            scores.append(1.0 if ds.truth_prefs[user, item_attr[item]] else 0.0)
            labels.append(label)
    assert auc(scores, labels) == 1.0


def read_interactions(item_attr, prefs, noise, want, draws):
    """Each user's sorted positives, read user by user from generate_synthetic's
    recorded interaction draws (its docstring's rule, in plain Python); also
    checks each round's shape."""
    m, cap = len(item_attr), 50 * want
    preferred = [[i for x in row for i in range(m) if item_attr[i] == x] for row in prefs]
    goal = [min(want, len(p)) if noise == 0 else want for p in preferred]
    chosen = [{} for _ in preferred]  # insertion-ordered sets
    live, attempts, width = list(range(len(preferred))), 0, 2 * want
    while live:
        width = min(width, cap - attempts)
        noisy = draws.pop(0)[1] < noise if noise > 0 else np.zeros((len(live), width), bool)
        kind, drawn = draws.pop(0)
        assert kind == "integers" and drawn.shape == noisy.shape == (len(live), width)
        for row, user in enumerate(live):
            for flag, draw in zip(noisy[row].tolist(), drawn[row].tolist()):
                if len(chosen[user]) < goal[user]:
                    chosen[user].setdefault(draw if flag else preferred[user][draw])
        attempts, width = attempts + width, 2 * width
        live = [u for u in live if len(chosen[u]) < goal[u] and attempts < cap]
    return [sorted(c) for c in chosen]


def short_users(ds):
    return sum(len(ds.positives(u)) < 16 for u in range(ds.num_users))


# name: (overrides, a property of the dataset that shows the case's path ran)
SYNTHETIC_CASES = {
    "default": ({}, lambda ds: ds.num_users == 500),
    # fewer preferred items than interactions: the goal is the preferred pool
    "noise-free": (dict(users=60, items=60, noise=0.0), short_users),
    "all-noise": (dict(users=60, noise=1.0), lambda ds: True),
    "half-noise": (dict(users=60, noise=0.5, seed=123), lambda ds: True),
    "prefs-above-populated": (dict(users=40, items=12, attributes=6, prefs_per_user=9),
                              lambda ds: ds.truth_prefs.sum(axis=1).max() < 9),
    # the 50x attempt cap: a rare noise draw is the only way past ~4 preferred items
    "attempt-cap": (dict(users=30, items=40, attributes=10, prefs_per_user=1,
                         interactions_per_user=16, noise=0.001), short_users),
    "unpopulated-attributes": (dict(users=40, items=20, attributes=50),
                               lambda ds: len(set(ds.triples[:, 2].tolist())) < 50),
    "relations": (dict(users=60, relations=4), lambda ds: ds.kg.num_relations == 4),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_generate_synthetic_follows_its_draws(name):
    overrides, shows_path = SYNTHETIC_CASES[name]
    cfg = ExperimentConfig(**overrides)
    rng = Recording(derive_rng(cfg.seed, ROLE_DATA))
    ds = generate_synthetic(cfg, rng)
    draws = rng.draws[2:]  # after the KG's item and relation draws
    item_attr = ds.triples[:, 2] - cfg.items
    populated = sorted(set(item_attr.tolist()))
    s = min(cfg.prefs_per_user, len(populated))
    prefs = read_subsets([populated] * cfg.users, [s] * cfg.users, draws)
    assert [np.flatnonzero(row).tolist() for row in ds.truth_prefs] == prefs
    want = read_interactions(item_attr.tolist(), prefs, cfg.noise, cfg.interactions_per_user,
                             draws)
    assert [ds.positives(u) for u in range(ds.num_users)] == want
    assert shows_path(ds)
    # a seed repeats the dataset and the generator state it leaves
    again = derive_rng(cfg.seed, ROLE_DATA)
    assert dataset_sha256(generate_synthetic(cfg, again)) == dataset_sha256(ds)
    assert again.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("overrides", [{}, dict(users=2000, items=2000, attributes=100),
                                       dict(items=1000), dict(items=60, noise=0.0),
                                       dict(users=40, items=12000, attributes=40,
                                            interactions_per_user=400)])
def test_every_user_reaches_its_goal_when_the_pool_allows(overrides):
    cfg = ExperimentConfig(**overrides)
    ds = build_dataset(cfg)
    item_attr = ds.triples[:, 2] - cfg.items
    for user in range(ds.num_users):
        preferred = int(np.isin(item_attr, np.flatnonzero(ds.truth_prefs[user])).sum())
        goal = min(cfg.interactions_per_user, preferred) if cfg.noise == 0 \
            else cfg.interactions_per_user
        assert len(ds.positives(user)) == goal


def test_noisy_share_of_interactions_is_about_noise():
    # 100,000 items over 100 attributes: a user's 1,000 preferred items and the
    # catalogue are large enough that a 16-item stream rarely repeats, so about
    # noise * (1 - 1,000 / 100,000) of the positives fall outside the preferences
    cfg = ExperimentConfig(users=500, items=100_000, attributes=100, prefs_per_user=1,
                           noise=0.25)
    ds = generate_synthetic(cfg, derive_rng(14, ROLE_DATA))
    item_attr = ds.triples[:, 2] - cfg.items
    outside = [not ds.truth_prefs[u, item_attr[i]] for u in range(ds.num_users)
               for i in ds.positives(u)]
    share = sum(outside) / len(outside)
    preferred = ds.truth_prefs[:, item_attr].sum(axis=1).mean() / cfg.items
    assert len(outside) == 500 * 16
    assert abs(share - 0.25 * (1 - preferred)) < 0.02, share  # about 4 standard deviations


def test_a_user_stops_at_the_attempt_cap():
    # one user preferring one attribute of about 4 items, at noise 1e-12: 16 distinct
    # items are out of reach, so its rounds draw 32, 64, 128 and 256 attempts, then
    # 320 up to the cap of 800, and it keeps every preferred item
    cfg = ExperimentConfig(users=1, items=24, attributes=6, prefs_per_user=1, noise=1e-12)
    rng = Recording(derive_rng(15, ROLE_DATA))
    ds = generate_synthetic(cfg, rng)
    rounds = [d.shape for kind, d in rng.draws if kind == "integers" and d.ndim == 2]
    assert rounds == [(1, 32), (1, 64), (1, 128), (1, 256), (1, 320)]
    preferred = np.flatnonzero(ds.truth_prefs[0, ds.triples[:, 2] - cfg.items])
    assert ds.positives(0) == preferred.tolist() and len(preferred) < 16


def test_ratings_roundtrip(tmp_path):
    cfg = ExperimentConfig(users=30, items=40, attributes=5)
    ds = generate_synthetic(cfg, derive_rng(10, 0))
    ratings_path = tmp_path / "ratings.txt"
    kg_path = tmp_path / "kg.txt"
    save_ratings_file(str(ratings_path), ds)
    save_kg_file(str(kg_path), ds.triples)
    reloaded = load_dataset(str(ratings_path), str(kg_path), 0.0, derive_rng(11, 0))
    for user in range(ds.num_users):
        assert reloaded.positives(user) == ds.positives(user)
    assert reloaded.kg.num_entities == ds.kg.num_entities
    assert reloaded.kg.num_triples == ds.kg.num_triples


def test_file_dataset_split_reproducible(tmp_path):
    cfg = ExperimentConfig(users=10, items=30, attributes=4)
    ds = generate_synthetic(cfg, derive_rng(12, 0))
    ratings_path = tmp_path / "r.txt"
    kg_path = tmp_path / "k.txt"
    save_ratings_file(str(ratings_path), ds)
    save_kg_file(str(kg_path), ds.triples)
    a = load_dataset(str(ratings_path), str(kg_path), 0.0, derive_rng(13, 0))
    b = load_dataset(str(ratings_path), str(kg_path), 0.0, derive_rng(13, 0))
    assert a.train == b.train and a.valid == b.valid and a.test == b.test
    assert a.test_neg == b.test_neg


def dataset_sha256(ds):
    """SHA-256 over every list and array a synthetic Dataset carries."""
    h = hashlib.sha256()
    for name in ("train", "valid", "test", "train_neg", "valid_neg", "test_neg"):
        h.update(json.dumps(getattr(ds, name)).encode())
    for arr in (ds.triples, ds.truth_prefs):
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# sha256 of build_dataset at seed 7 over splits, evaluation negatives, triples
# and planted preferences: the scale benchmark's shape, the noise-free
# generator (whose users stop once their preferred items run out), a
# catalogue barely larger than a user's interactions, so negative lists clamp
# to the pool and take the keyed sort, and CI's synth-wide shape, whose train
# splits want 240 of about 11,600 unobserved items.
# A change that moves these bytes must update them and say why.
# Made under numpy 2.4.6 with X86_V4 (AVX-512) dispatch active and OpenBLAS core
# SkylakeX (tools/envprobe.py). Integer draws, `random() < noise` tests and stable
# sorts make every byte, so no kernel reaches it: on that machine it also passed under
# OPENBLAS_CORETYPE=Haswell with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR";
# CI runs it under Haswell with the runner's AVX-512 targets disabled (README).
PINNED_DATASET_SHA256 = {
    "scale": (dict(users=2000, items=2000, attributes=100),
              "0c6afd807ecde0ce2027421dfb7efd146b1b9e473b9509b219917e095829884d"),
    "noise-free": (dict(noise=0.0),
                   "e6b7f016c9c494705f2868dce26af07f732e53f7471ca815279e894d09508717"),
    "clamped": (dict(users=60, items=20, attributes=4),
                "457b4aa98cf20397ffb4a548d4f03dce6044d1a6b9caea127e61145155437fd9"),
    "wide": (dict(users=40, items=12000, attributes=40, interactions_per_user=400),
             "fb49467bd4bcd76322b168033c4262c15677f8de27b12e517384f09caa9599f7"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATASET_SHA256))
def test_build_dataset_outputs_pinned(name):
    overrides, digest = PINNED_DATASET_SHA256[name]
    assert dataset_sha256(build_dataset(ExperimentConfig(**overrides))) == digest


@pytest.mark.parametrize("synthetic", [True, False])
def test_build_dataset_draws_its_negatives_through_sample_eval_negatives_once(
        monkeypatch, tmp_path, synthetic):
    # set-up's one evaluation-negative sampler, called once over the three splits in
    # order, so a hook on the public name (the benchmark's speed probe) sees set-up
    cfg = ExperimentConfig(users=30, items=40, attributes=5)
    if not synthetic:
        ds = generate_synthetic(cfg, derive_rng(10, 0))
        save_ratings_file(str(tmp_path / "ratings.txt"), ds)
        save_kg_file(str(tmp_path / "kg.txt"), ds.triples)
        cfg = ExperimentConfig(synthetic=False, ratings_file=str(tmp_path / "ratings.txt"),
                               kg_file=str(tmp_path / "kg.txt"))
    calls = []

    def counting(num_items, all_positives, splits, rng):
        calls.append(splits)
        return sample_eval_negatives(num_items, all_positives, splits, rng)

    monkeypatch.setattr(data, "sample_eval_negatives", counting)
    ds = build_dataset(cfg)
    assert len(calls) == 1
    assert [id(s) for s in calls[0]] == [id(ds.train), id(ds.valid), id(ds.test)]
