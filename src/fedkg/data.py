"""Dataset ingestion, splitting, negative sampling, synthetic generation.

Items share the entity id space as a prefix (attribute entities follow),
so request items anchor directly into the knowledge graph. Ratings files
are `user item rating` lines; KG files are `head relation tail` lines.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .kg import KnowledgeGraph, _distinct, _first_of_runs, build_kg, load_kg_file, read_rows

SPLIT_RATIOS = (0.6, 0.2, 0.2)  # train : valid : test, per user


class DataFormatError(ValueError):
    """Malformed dataset file."""


@dataclass
class Dataset:
    num_users: int
    num_items: int
    train: list[list[int]]  # per-user positive items
    valid: list[list[int]]
    test: list[list[int]]
    train_neg: list[list[int]]
    valid_neg: list[list[int]]
    test_neg: list[list[int]]
    kg: KnowledgeGraph
    triples: np.ndarray  # (n, 3) int64 (head, relation, tail) rows kg was built from
    user_id_map: dict[int, int] | None = None  # original -> dense
    truth_prefs: np.ndarray | None = None  # synthetic only: planted prefs (tools/oracle.py)

    def positives(self, user: int) -> list[int]:
        return sorted(self.train[user] + self.valid[user] + self.test[user])

    def split_of(self, name: str) -> tuple[list[list[int]], list[list[int]]]:
        pos = {"train": self.train, "valid": self.valid, "test": self.test}[name]
        neg = {"train": self.train_neg, "valid": self.valid_neg, "test": self.test_neg}[name]
        return pos, neg


def load_ratings(path: str, positive_threshold: float = 0.0
                 ) -> tuple[list[list[int]], dict[int, int], int]:
    """Parse `user item rating` lines into per-user positives.

    Ratings >= threshold are positives; users with none are dropped and the
    survivors densified to 0..N-1. Returns (positives per dense user,
    original->dense map, num_items).
    """
    by_user: dict[int, set[int]] = {}
    max_item = -1
    for where, (user, item, rating) in read_rows(
            path, {"user": int, "item": int, "rating": float}, DataFormatError):
        if item < 0:
            raise DataFormatError(f"{where}: negative item id {item}")
        max_item = max(max_item, item)
        if rating >= positive_threshold:
            by_user.setdefault(user, set()).add(item)
    if not by_user:
        raise DataFormatError(f"{path}: no users with positive feedback")
    id_map = {orig: dense for dense, orig in enumerate(sorted(by_user))}
    positives = [sorted(by_user[orig]) for orig in sorted(by_user)]
    return positives, id_map, max_item + 1


def split(positives: list[list[int]], rng: np.random.Generator
          ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Per-user random partition into train/valid/test by SPLIT_RATIOS.

    Rounding: train gets ceil(r0*k) but leaves two, valid ceil(r1*k) but
    leaves one, test the rest, so every user with 3 or more positives has
    at least one in each split; users with fewer keep everything in train.
    """
    train, valid, test = [], [], []
    for pos in positives:
        k = len(pos)
        if k < 3:
            train.append(list(pos))
            valid.append([])
            test.append([])
            continue
        order = rng.permutation(k)
        n_train = min(math.ceil(SPLIT_RATIOS[0] * k), k - 2)
        n_valid = min(math.ceil(SPLIT_RATIOS[1] * k), k - n_train - 1)
        shuffled = [pos[i] for i in order.tolist()]
        train.append(sorted(shuffled[:n_train]))
        valid.append(sorted(shuffled[n_train:n_train + n_valid]))
        test.append(sorted(shuffled[n_train + n_valid:]))
    return train, valid, test


def unobserved_items(items: set[int] | list[int], num_items: int) -> np.ndarray:
    """Sorted int64 array of the ids in [0, num_items) that are not in `items`.

    Ids outside that range are ignored, so a bad id in a client's
    interactions still reaches serve_request and fails there.
    """
    ids = np.fromiter(items, dtype=np.int64, count=len(items))
    keep = np.ones(num_items, dtype=bool)
    keep[ids[(ids >= 0) & (ids < num_items)]] = False
    return np.flatnonzero(keep)


def sample_eval_negatives(num_items: int, all_positives: list[list[int]],
                          splits: list[list[list[int]]],
                          rng: np.random.Generator) -> list[list[list[int]]]:
    """Per split, in order, per user: unobserved items, one per split positive,
    clamped to the pool.

    In split s, user u wants w = min(len(splits[s][u]), n) of its n unobserved
    items (`unobserved_items`) and gets a uniform random w-subset of them, sorted,
    drawn by `_subsets`: a split makes at most two draw calls, and none when
    nothing is wanted.

    The pool is never built: with `seen` the user's sorted distinct
    positives in [0, num_items), the idx-th pool item is
    `idx + bisect_right(gaps, idx)` for `gaps[r] = seen[r] - r`, the number
    of unobserved ids below `seen[r]`; the splits share these keys, built once.
    Memory is O(positives + negatives), except for a rare user with 2w <= n
    short of distinct draws: its sort keys its pool.
    """
    seen, seen_start = _seen_keys(num_items, all_positives)
    key = num_items + 1  # (user, value) -> user * key + value
    seen_count = np.diff(seen_start, append=len(seen))
    size = num_items - seen_count
    # a seen item's gap key: its user's key plus the number of unobserved ids below it
    gaps = seen - np.arange(len(seen)) + np.repeat(seen_start, seen_count)
    negatives = []
    for split_positives in splits:
        want = np.minimum(np.fromiter(map(len, split_positives), dtype=np.int64,
                                      count=len(size)), size)
        picks = _subsets(size, want, key, rng)
        picks += np.searchsorted(gaps, picks, side="right") - np.repeat(seen_start, want)
        negatives.append(_lists(picks, key, len(size)))
    return negatives


def _subsets(size: np.ndarray, want: np.ndarray, key: int,
             rng: np.random.Generator) -> np.ndarray:
    """Sorted `user * key + index` over a uniform subset of w = want[u] of the n =
    size[u] indices range(n), per user:
      - a user with 2w <= n takes the first w distinct of its 2w + 4 draws of
        `rng.integers(0, n)`, one call making every such user's draws, user after
        user;
      - a user with 2w > n, or with fewer than w distinct draws, takes the first
        w of range(n) ordered by one `rng.random()` key per index (a stable
        sort), from one more call.
    """
    draws = np.where((want > 0) & (2 * want <= size), 2 * want + 4, 0)
    owner = np.repeat(np.arange(len(size)), draws)
    drawn = owner * key + (rng.integers(0, np.repeat(size, draws)) if len(owner) else owner)
    picks, full = _first_distinct(drawn, key, want)
    short = ~full
    picks = picks[full[picks // key]]
    owner = np.repeat(np.flatnonzero(short), size[short])
    if len(owner):  # the keyed sort of each short user's pool
        start = np.repeat(np.cumsum(size[short]) - size[short], size[short])
        order = np.lexsort((rng.random(len(owner)), owner))  # stable: by owner, then key
        take = np.arange(len(owner)) - start < want[owner]
        picks = np.concatenate([picks, owner[take] * key + (order - start)[take]])
    return np.sort(picks)


def _first_distinct(keys: np.ndarray, key: int,
                    want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of `owner * key + value` keys laid out owner by owner: each owner's first
    want[owner] distinct keys, in order (a stable sort finds first occurrences),
    and whether each owner has that many."""
    order = np.argsort(keys, kind="stable")
    first = np.sort(order[_first_of_runs(keys[order])])
    owner = keys[first] // key
    rank = np.arange(len(first)) - np.searchsorted(owner, owner)
    return keys[first[rank < want[owner]]], np.bincount(owner, minlength=len(want)) >= want


def _lists(keys: np.ndarray, key: int, users: int) -> list[list[int]]:
    """Sorted `user * key + value` keys as each user's list of values."""
    owner = keys // key
    flat = np.arange(key, dtype=object)[keys - owner * key].tolist()  # users share ints
    ends = np.cumsum(np.bincount(owner, minlength=users)).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _seen_keys(num_items: int, all_positives: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct `user * (num_items + 1) + item` over each user's items in
    [0, num_items), and each user's first position in them."""
    users, key = len(all_positives), num_items + 1
    lengths = np.fromiter(map(len, all_positives), dtype=np.int64, count=users)
    ids = np.fromiter(chain.from_iterable(all_positives), dtype=np.int64,
                      count=int(lengths.sum()))
    keys = np.repeat(np.arange(users) * key, lengths) + ids
    seen = _distinct(keys[(ids >= 0) & (ids < num_items)])
    return seen, np.searchsorted(seen, np.arange(users) * key)


def attach_splits(positives: list[list[int]], num_items: int, kg: KnowledgeGraph,
                  triples: np.ndarray, rng: np.random.Generator,
                  user_id_map: dict[int, int] | None = None,
                  truth_prefs: np.ndarray | None = None) -> Dataset:
    """Split positives, draw evaluation negatives, assemble the Dataset."""
    canonical = [sorted(p) for p in positives]
    train, valid, test = split(canonical, rng)
    train_neg, valid_neg, test_neg = sample_eval_negatives(num_items, canonical,
                                                           [train, valid, test], rng)
    return Dataset(num_users=len(positives), num_items=num_items,
                   train=train, valid=valid, test=test,
                   train_neg=train_neg, valid_neg=valid_neg, test_neg=test_neg,
                   kg=kg, triples=triples, user_id_map=user_id_map,
                   truth_prefs=truth_prefs)


def load_dataset(ratings_path: str, kg_path: str, positive_threshold: float,
                 rng: np.random.Generator) -> Dataset:
    positives, id_map, num_items = load_ratings(ratings_path, positive_threshold)
    triples, kg_entities, kg_relations = load_kg_file(kg_path)
    num_entities = max(kg_entities, num_items)  # so every item id is an entity
    kg = build_kg(triples, num_entities, max(kg_relations, 1))
    return attach_splits(positives, num_items, kg, triples, rng, id_map)


def generate_synthetic(cfg: ExperimentConfig, rng: np.random.Generator) -> Dataset:
    """Planted-preference dataset: item->attribute triples, users prefer attributes.

    Each item links to one attribute entity (relation fixed per attribute);
    each user prefers prefs_per_user attributes and draws interactions from
    preferred-attribute items with probability 1-noise, uniformly otherwise.
    The ground-truth preference matrix is kept for diagnostics.

    After the KG's draws, in this order:
      - preferences: each user takes a uniform subset of s = min(prefs_per_user,
        populated) populated attributes, drawn by `_subsets`, in ascending order;
      - interactions: each user has one stream of attempts. An attempt is noisy
        when `rng.random() < noise` (not drawn when noise is 0) and draws
        `rng.integers(0, items)` if noisy, else a uniform preferred item, the
        user's preferred items taken attribute by attribute in that order.
        A user's positives are the first `goal` distinct items of its stream, goal
        interactions_per_user (or, at noise 0, at most its preferred items), or
        every distinct item of its first cap = 50 * interactions_per_user attempts.
        The streams are drawn in rounds over the users still short of their goal,
        2 * interactions_per_user attempts each in the first round, twice as many
        in each next one, the last cut at the cap: a round draws its noise tests in
        one call, then its items in one `integers` call of per-attempt highs, user
        after user;
      - the splits and their negatives (attach_splits).
    """
    m, a, users = cfg.items, cfg.attributes, cfg.users
    item_attr = rng.integers(0, a, size=m)
    attr_rel = rng.integers(0, cfg.relations, size=a)
    triples = np.column_stack([np.arange(m), attr_rel[item_attr], m + item_attr])
    kg = build_kg(triples, num_entities=m + a, num_relations=cfg.relations)

    counts = np.bincount(item_attr, minlength=a)
    populated = np.flatnonzero(counts)
    s = min(cfg.prefs_per_user, len(populated))
    picks = _subsets(np.full(users, len(populated)), np.full(users, s), a, rng)
    prefs = populated[(picks % a).reshape(users, s)]
    truth = np.zeros((users, a), dtype=bool)
    truth[np.arange(users)[:, None], prefs] = True

    # user u's j-th preferred item is preferred[start[u] + j]: one run of the item ids
    # grouped by attribute (by_attr) per (user, preferred attribute), users in order
    by_attr = np.argsort(item_attr, kind="stable")
    runs = counts[prefs].ravel()
    heads = (np.cumsum(counts) - counts)[prefs].ravel() - (np.cumsum(runs) - runs)
    preferred = by_attr[np.repeat(heads, runs) + np.arange(runs.sum())]
    sizes = runs.reshape(prefs.shape).sum(axis=1)
    start = np.cumsum(sizes) - sizes
    noise, want, key = cfg.noise, cfg.interactions_per_user, m + 1  # key: user * key + item
    goal = np.minimum(want, sizes) if noise == 0 else np.full(users, want)
    cap = 50 * want
    live, attempts, picked, width = np.arange(users), np.empty((users, 0), np.int64), [], 2 * want
    while len(live):
        shape = (len(live), min(width, cap - attempts.shape[1]))
        noisy = rng.random(shape) < noise if noise > 0 else np.zeros(shape, dtype=bool)
        drawn = rng.integers(0, np.where(noisy, m, sizes[live, None]))
        drawn[~noisy] = preferred[(start[live, None] + drawn)[~noisy]]
        attempts = np.hstack([attempts, live[:, None] * key + drawn])
        picks, full = _first_distinct(attempts.ravel(), key, goal)
        done = full | (attempts.shape[1] == cap)
        picked.append(picks[done[picks // key]])
        live, attempts, width = live[~done[live]], attempts[~done[live]], 2 * width
    positives = _lists(np.sort(np.concatenate(picked)), key, users)

    return attach_splits(positives, m, kg, triples, rng, truth_prefs=truth)


def save_ratings_file(path: str, dataset: Dataset) -> None:
    """Write the densified positives back out as `user item 1` lines."""
    with open(path, "w") as fh:
        for user in range(dataset.num_users):
            for item in dataset.positives(user):
                fh.write(f"{user}\t{item}\t1\n")


def save_id_map(path: str, id_map: dict[int, int]) -> None:
    with open(path, "w") as fh:
        for orig in sorted(id_map):
            fh.write(f"{orig}\t{id_map[orig]}\n")
