import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from fedkg.cli import build_dataset
from fedkg.config import ExperimentConfig
from fedkg.data import (DataFormatError, _Pcg64Draws, attach_splits, generate_synthetic,
                        load_dataset, load_ratings, sample_eval_negatives, save_ratings_file,
                        split)
from fedkg.kg import build_kg, save_kg_file
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
    negs = sample_eval_negatives(20, all_pos, [[1, 2, 3, 0]], rng)
    assert len(negs[0]) == 4
    assert not set(negs[0]) & set(all_pos[0])


def test_eval_negatives_clamped_when_pool_small():
    rng = derive_rng(5, 0)
    negs = sample_eval_negatives(4, [[0, 1, 2, 3]], [[0, 1]], rng)
    assert negs[0] == []


def test_eval_negatives_determinism():
    a = sample_eval_negatives(50, [[1, 2]], [[1, 2]], derive_rng(6, 0))
    b = sample_eval_negatives(50, [[1, 2]], [[1, 2]], derive_rng(6, 0))
    assert a == b


def test_eval_negatives_match_setdiff1d_reference():
    """Same pools as per-user np.setdiff1d, so rng.choice draws the same lists."""
    def reference(num_items, all_positives, split_positives, rng):
        out = []
        for pos_all, pos_split in zip(all_positives, split_positives):
            pool = np.setdiff1d(np.arange(num_items), np.array(pos_all, dtype=np.int64))
            want = min(len(pos_split), len(pool))
            out.append(sorted(int(i) for i in rng.choice(pool, size=want, replace=False))
                       if want else [])
        return out

    def check(case, num_items, all_pos, split_pos):
        rng_a, rng_b = derive_rng(case, 0), derive_rng(case, 0)
        assert sample_eval_negatives(num_items, all_pos, split_pos, rng_a) == \
            reference(num_items, all_pos, split_pos, rng_b), case
        assert rng_a.bit_generator.state == rng_b.bit_generator.state, case
        assert rng_a.random() == rng_b.random(), case

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
    # pools above 10,000 items: numpy's choice runs Floyd's algorithm up to a
    # fiftieth of the pool and a tail shuffle above it (the last two straddle that)
    for case, (num_items, n_all, n_split) in enumerate(
            [(12_000, 50, 30), (12_000, 600, 300), (20_000, 900, 900),
             (15_300, 300, 300), (15_301, 301, 301)],
            start=102):
        all_pos = [sorted(int(i) for i in gen.choice(num_items, size=n_all, replace=False))
                   for _ in range(3)]
        split_pos = [p[:n_split] for p in all_pos]
        check(case, num_items, all_pos, split_pos)
    # one call whose users, in shuffled order, draw nothing, the whole pool (a
    # small one and one above 10,000 items), Floyd's algorithm (a pool below
    # 10,000 with repeated draws; above it, up to and at a fiftieth of the pool)
    # and a tail shuffle (one above that fiftieth, and more), either side of a
    # 10,000-item pool: the split's draws are one stream; (positives, split size, users)
    shapes = [(50, 0, 5), (11_990, 20, 1), (30, 20_000, 2), (2_500, 5_000, 3), (100, 50, 8),
              (100, 238, 3), (100, 239, 3), (400, 1_000, 5), (20, 8, 10),
              (2_000, 300, 2), (1_999, 201, 2)]
    users = [(n_all, n_split) for n_all, n_split, count in shapes for _ in range(count)]
    users = [users[i] for i in gen.permutation(len(users))]
    all_pos = [sorted(int(i) for i in gen.choice(12_000, size=n_all, replace=False))
               for n_all, _ in users]
    check(107, 12_000, all_pos, [list(range(n_split)) for _, n_split in users])


def test_eval_negatives_draw_once_in_memory_of_the_draws():
    # one integers call per split that draws anything, and no per-user matrix:
    # 2,000 users want one item each, one user wants 6,000 of 11,900 (a tail
    # shuffle), so a (users x largest want) int64 matrix would be 96 MB
    class Recording:
        def __init__(self, rng):
            self.rng, self.calls = rng, []

        def __getattr__(self, name):
            self.calls.append(name)
            return getattr(self.rng, name)

    num_items, users = 12_000, 2_000
    all_pos = [list(range(100))] + [[u] for u in range(1, users)]
    split_pos = [list(range(6_000))] + all_pos[1:]
    rng = Recording(derive_rng(3, 0))
    tracemalloc.start()
    try:
        out = sample_eval_negatives(num_items, all_pos, split_pos, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rng.calls == ["integers"]
    assert [len(neg) for neg in out] == [6_000] + [1] * (users - 1)
    assert peak < 8 * 2**20, peak

    rng = Recording(derive_rng(3, 0))
    assert sample_eval_negatives(num_items, all_pos, [[]] * users, rng) == [[]] * users
    assert rng.calls == []


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


# numpy's choice(P, s, replace=False) either side of its branch rule (Floyd's
# algorithm up to 10,000 items or s <= P // 50, else a tail shuffle), and
# integers(0, n) bounds where Lemire's rejection test is reached often (3e9,
# 2**32 - 1) or never draws (1)
CHOICE_SHAPES = [(size, want) for size in (1, 2, 30, 10_000, 10_001, 12_000)
                 for want in sorted({0, 1, 2, size // 50, size // 50 + 1, size}) if want <= size]
BOUNDS = (1, 2, 3, 17, 2000, 3 * 10**9, 2**32 - 1)


def numpy_draw(rng, op):
    kind, *args = op
    if kind == "integers":
        return int(rng.integers(0, *args))
    return rng.choice(*args, replace=False).tolist()


def test_pcg64_draws_replay_numpy_values_and_state():
    gen = np.random.default_rng(38)
    small = [shape for shape in CHOICE_SHAPES if shape[1] <= 300]
    for script in range(240):
        rng = derive_rng(script, 0)
        if script % 2:  # start on a buffered 32-bit half
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, int(gen.integers(0, 2**32))
            rng.bit_generator.state = state
        twin = np.random.Generator(np.random.PCG64())
        twin.bit_generator.state = rng.bit_generator.state
        ops = [("choice", *CHOICE_SHAPES[script % len(CHOICE_SHAPES)]),
               ("choice", *small[gen.integers(len(small))])]
        ops += [("integers", int(gen.choice(BOUNDS))) for _ in range(gen.integers(2, 12))]
        ops = [ops[i] for i in gen.permutation(len(ops))]
        want = [numpy_draw(rng, op) for op in ops]
        if script % 4 == 3:  # leaving on an exception ends after the draws made
            with pytest.raises(KeyError), _Pcg64Draws(twin) as draws:
                got = [getattr(draws, kind)(*args) for kind, *args in ops]
                raise KeyError(script)
        else:
            with _Pcg64Draws(twin) as draws:
                got = [getattr(draws, kind)(*args) for kind, *args in ops]
        assert got == want, (script, ops)
        assert twin.bit_generator.state == rng.bit_generator.state, (script, ops)


def reference_generate_synthetic(cfg, rng):
    """generate_synthetic's loop as numpy calls: the oracle for its replay."""
    m, a = cfg.items, cfg.attributes
    item_attr = rng.integers(0, a, size=m)
    attr_rel = rng.integers(0, cfg.relations, size=a)
    triples = np.column_stack([np.arange(m), attr_rel[item_attr], m + item_attr])
    kg = build_kg(triples, num_entities=m + a, num_relations=cfg.relations)

    items_by_attr = [np.flatnonzero(item_attr == x) for x in range(a)]
    populated = np.flatnonzero(np.bincount(item_attr, minlength=a))
    truth = np.zeros((cfg.users, a), dtype=bool)
    positives: list[list[int]] = []
    for _ in range(cfg.users):
        prefs = rng.choice(populated, size=min(cfg.prefs_per_user, len(populated)),
                           replace=False)
        preferred = np.concatenate([items_by_attr[x] for x in prefs]).tolist()
        chosen: set[int] = set()
        attempts = 0
        cap = 50 * cfg.interactions_per_user
        while len(chosen) < cfg.interactions_per_user and attempts < cap:
            attempts += 1
            if cfg.noise > 0 and rng.random() < cfg.noise:
                chosen.add(int(rng.integers(0, m)))
            else:
                chosen.add(preferred[rng.integers(0, len(preferred))])
            if cfg.noise == 0.0 and len(chosen) >= len(preferred):
                break
        user = len(positives)
        truth[user, prefs] = True
        positives.append(sorted(chosen))

    return attach_splits(positives, m, kg, triples, rng, truth_prefs=truth)


def short_users(ds):
    return sum(len(ds.positives(u)) < 16 for u in range(ds.num_users))


# name: (overrides, a property of the dataset that shows the case's path ran)
SYNTHETIC_CASES = {
    "default": ({}, lambda ds: ds.num_users == 500),
    # the early break: fewer preferred items than interactions
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
def test_generate_synthetic_equals_the_numpy_loop(name):
    overrides, shows_path = SYNTHETIC_CASES[name]
    cfg = ExperimentConfig(**overrides)
    rng_a, rng_b = derive_rng(cfg.seed, ROLE_DATA), derive_rng(cfg.seed, ROLE_DATA)
    got = generate_synthetic(cfg, rng_a)
    assert dataset_sha256(got) == dataset_sha256(reference_generate_synthetic(cfg, rng_b))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert shows_path(got)


def test_generate_synthetic_refuses_other_bit_generators():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        generate_synthetic(ExperimentConfig(users=5), rng)
    assert rng.random() == np.random.Generator(np.random.MT19937(0)).random()  # nothing drawn


def synthetic_equals_the_numpy_loop(cfg):
    """generate_synthetic(cfg) after checking its dataset digest and the generator
    state it leaves against reference_generate_synthetic's."""
    rng_a, rng_b = derive_rng(cfg.seed, ROLE_DATA), derive_rng(cfg.seed, ROLE_DATA)
    got = generate_synthetic(cfg, rng_a)
    assert dataset_sha256(got) == dataset_sha256(reference_generate_synthetic(cfg, rng_b))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    return got


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_generate_synthetic_equals_the_numpy_loop_with_small_chunks(name, chunk, monkeypatch):
    # chunks of 1-3 raw outputs make the inline loop refill on each kind of read:
    # the noise test, a fresh 32-bit draw and a redraw
    monkeypatch.setattr(_Pcg64Draws, "CHUNK", chunk)
    overrides, shows_path = SYNTHETIC_CASES[name]
    assert shows_path(synthetic_equals_the_numpy_loop(ExperimentConfig(**overrides)))


def test_generate_synthetic_tail_shuffle_preferences_equal_the_numpy_loop():
    # more than 10,000 populated attributes and prefs_per_user above populated // 50:
    # each user's preferences come from numpy choice's tail shuffle
    cfg = ExperimentConfig(users=3, items=40_000, attributes=10_500, prefs_per_user=210)
    ds = synthetic_equals_the_numpy_loop(cfg)
    populated = len(np.unique(ds.triples[:, 2]))
    assert populated > 10_000 and cfg.prefs_per_user > populated // 50
    assert ds.truth_prefs.sum(axis=1).tolist() == [210] * 3


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 LCG multiplier


def pcg64_whose_next_raw_is(value, seed):
    """A PCG64 Generator whose next raw output is `value` (< 2**64): the state one
    step before the state with high word 0 and low word `value`, whose XSL-RR output
    rotates by 0 and is `value` itself."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = rng.bit_generator.state
    step_back = pow(PCG64_MULTIPLIER, -1, 2**128)
    state["state"]["state"] = (value - state["state"]["inc"]) * step_back % 2**128
    rng.bit_generator.state = state
    return rng


def numpy_interactions(rng, preferred, items, noise, want, cap):
    chosen, attempts = set(), 0
    while len(chosen) < want and attempts < cap:
        attempts += 1
        if noise > 0 and rng.random() < noise:
            chosen.add(int(rng.integers(0, items)))
        else:
            chosen.add(preferred[rng.integers(0, len(preferred))])
        if noise == 0.0 and len(chosen) >= len(preferred):
            break
    return sorted(chosen)


@pytest.mark.parametrize("chunk", [1, 2, 3, _Pcg64Draws.CHUNK])
def test_pcg64_interactions_replay_numpy(chunk, monkeypatch):
    monkeypatch.setattr(_Pcg64Draws, "CHUNK", chunk)
    # (preferred, items, noise, want, cap): a bound of 3e9 rejects ~30% of first
    # products, so redraws are common; one preferred item draws nothing
    shapes = [(list(range(50)), 3 * 10**9, 1.0, 40, 800),
              (list(range(50)), 3 * 10**9, 0.5, 30, 800),
              ([7], 2**32 - 1, 0.5, 6, 40),
              (list(range(100, 130)), 2000, 0.1, 16, 800),
              (list(range(5)), 2000, 0.0, 16, 800)]
    for seed in range(12):
        for preferred, items, noise, want, cap in shapes:
            rng = derive_rng(seed, 0)
            if seed % 2:  # start on a buffered 32-bit half
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, 0xDEADBEEF * (seed + 1) % 2**32
                rng.bit_generator.state = state
            twin = np.random.Generator(np.random.PCG64())
            twin.bit_generator.state = rng.bit_generator.state
            want_items = numpy_interactions(rng, preferred, items, noise, want, cap)
            with _Pcg64Draws(twin) as draws:
                got = draws.interactions(preferred, items, noise, want, cap)
                # the next draw continues the stream, on the buffered half if one is left
                assert draws.integers(2**32 - 1) == rng.integers(0, 2**32 - 1)
            assert got == want_items, (seed, items, noise)
            assert twin.bit_generator.state == rng.bit_generator.state, (seed, items, noise)


@pytest.mark.parametrize("noise", [0.25, 0.5, 2.0**-40])
def test_pcg64_interactions_noise_test_is_strict_at_the_threshold(noise):
    # a first raw output whose top 53 bits are noise * 2**53 makes random() equal
    # noise exactly, which is not below it: that attempt draws from `preferred`
    raw = int(noise * 2.0**53) << 11
    rng, twin = pcg64_whose_next_raw_is(raw, 1), pcg64_whose_next_raw_is(raw, 1)
    assert rng.random() == noise and int(twin.bit_generator.random_raw()) == raw
    rng, twin = pcg64_whose_next_raw_is(raw, 1), pcg64_whose_next_raw_is(raw, 1)
    preferred = list(range(10**6, 10**6 + 40))
    want_items = numpy_interactions(rng, preferred, 1000, noise, 1, 1)
    with _Pcg64Draws(twin) as draws:
        assert draws.interactions(preferred, 1000, noise, 1, 1) == want_items
    assert want_items[0] >= 10**6
    assert twin.bit_generator.state == rng.bit_generator.state


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
# generator (whose loop stops once a user's preferred items run out), a
# catalogue barely larger than a user's interactions, so negative lists clamp
# to the pool, and CI's synth-wide shape, whose train splits (240 of about
# 11,600 unobserved items) take the tail-shuffle branch of numpy's choice.
# A change that moves these bytes must update them and say why.
# Made under numpy 2.4.6 with X86_V4 (AVX-512) dispatch active and OpenBLAS core
# SkylakeX (tools/envprobe.py). Integer draws and exact conversions make every byte,
# so no kernel reaches it: on that machine it also passed under OPENBLAS_CORETYPE=Haswell
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", under Haswell alone and
# under Prescott (core Katmai); CI runs it under Haswell with the runner's AVX-512
# targets disabled (README).
PINNED_DATASET_SHA256 = {
    "scale": (dict(users=2000, items=2000, attributes=100),
              "426fe73f47436a2557036cba84c511dba395f605742c7305e1cbb7b253d53afc"),
    "noise-free": (dict(noise=0.0),
                   "2f5cb6d70e6feda24c936df462c6fb028fe89d201cd59df94accf786d27531bc"),
    "clamped": (dict(users=60, items=20, attributes=4),
                "8e81ef53b259ce1c10b05613ab527a054b722a2f6c23ecfe9c1336c36e84e4ff"),
    "wide": (dict(users=40, items=12000, attributes=40, interactions_per_user=400),
             "501261aae77344965f3e9ef504edd711dcd926227db633af602602f2acd72e71"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DATASET_SHA256))
def test_build_dataset_outputs_pinned(name):
    overrides, digest = PINNED_DATASET_SHA256[name]
    assert dataset_sha256(build_dataset(ExperimentConfig(**overrides))) == digest
