"""Dataset ingestion, splitting, negative sampling, synthetic generation.

Items share the entity id space as a prefix (attribute entities follow),
so request items anchor directly into the knowledge graph. Ratings files
are `user item rating` lines; KG files are `head relation tail` lines.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .kg import KnowledgeGraph, build_kg, load_kg_file, read_rows

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
    truth_prefs: np.ndarray | None = None  # synthetic diagnostics only

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
                          split_positives: list[list[int]],
                          rng: np.random.Generator) -> list[list[int]]:
    """Per user: unobserved items, one per split positive, clamped to the pool.

    The pool (`unobserved_items`) is never built. With `seen` the user's
    sorted distinct positives in [0, num_items), the pool has
    `size = num_items - len(seen)` items and its idx-th item is
    `idx + bisect_right(gaps, idx)` for `gaps[r] = seen[r] - r`, the number
    of unobserved ids below `seen[r]`. numpy's `rng.choice(pool, ...)`
    draws `rng.choice(len(pool), ...)` and indexes the pool with it, so the
    indices drawn here consume the same stream and pick the same items.
    """
    out = []
    for pos_all, pos_split in zip(all_positives, split_positives):
        seen = sorted({i for i in pos_all if 0 <= i < num_items})
        size = num_items - len(seen)
        want = min(len(pos_split), size)
        if want == 0:
            out.append([])
            continue
        gaps = [item - rank for rank, item in enumerate(seen)]
        idx = rng.choice(size, size=want, replace=False).tolist()
        out.append(sorted(i + bisect_right(gaps, i) for i in idx))
    return out


def attach_splits(positives: list[list[int]], num_items: int, kg: KnowledgeGraph,
                  triples: np.ndarray, rng: np.random.Generator,
                  user_id_map: dict[int, int] | None = None,
                  truth_prefs: np.ndarray | None = None) -> Dataset:
    """Split positives, draw evaluation negatives, assemble the Dataset."""
    canonical = [sorted(p) for p in positives]
    train, valid, test = split(canonical, rng)
    train_neg = sample_eval_negatives(num_items, canonical, train, rng)
    valid_neg = sample_eval_negatives(num_items, canonical, valid, rng)
    test_neg = sample_eval_negatives(num_items, canonical, test, rng)
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
    """
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
