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
from .kg import KnowledgeGraph, _distinct, build_kg, load_kg_file, read_rows

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

    User u gets the sorted items that numpy's `rng.choice(pool, want,
    replace=False)` picks from its unobserved items (`unobserved_items`),
    with the calls made user after user, and the generator ends in the state
    those calls leave. One `rng.integers(0, highs)` call makes every draw of
    the split: per element it is numpy's `random_bounded_uint64(0, high - 1)`,
    the draw `choice` makes. numpy's `choice` of `want` of `size`, user by user:
      - for a pool of up to 10,000 items, or `want <= size // 50`, Floyd's
        algorithm: `want` draws, highs `size - want + 1 .. size` (a draw
        that repeats an earlier pick picks `size - want + t` instead), then
        a shuffle of the picks, `want - 1` draws, highs `want .. 2`;
      - otherwise a shuffle of the tail of `arange(size)`, highs `size`
        down to `max(size - want, 1) + 1`.
    A high of 1 gives 0 and consumes nothing. Shuffling Floyd's picks does
    not change a sorted list, so only the tail shuffle's swaps are replayed.

    The pool is never built: with `seen` the user's sorted distinct
    positives in [0, num_items), the idx-th pool item is
    `idx + bisect_right(gaps, idx)` for `gaps[r] = seen[r] - r`, the number
    of unobserved ids below `seen[r]`. Memory is O(positives + negatives).
    """
    return _eval_negatives(num_items, _seen_keys(num_items, all_positives), split_positives, rng)


def _eval_negatives(num_items: int, seen_keys: tuple[np.ndarray, np.ndarray],
                    split_positives: list[list[int]], rng: np.random.Generator) -> list[list[int]]:
    """sample_eval_negatives on `_seen_keys`' result, which a dataset's splits share."""
    (seen, seen_start), key = seen_keys, num_items + 1  # (user, value) -> user * key + value
    seen_count = np.diff(seen_start, append=len(seen))
    size = num_items - seen_count
    want = np.minimum(np.fromiter(map(len, split_positives), dtype=np.int64, count=len(size)),
                      size)
    idx = _choice_indices(size, want, rng)
    base = np.repeat(np.arange(len(size)) * key, want)
    # a seen item's gap key: its user's key plus the number of unobserved ids below it
    gaps = seen - np.arange(len(seen)) + np.repeat(seen_start, seen_count)
    idx += np.searchsorted(gaps, base + idx, side="right") - np.repeat(seen_start, want)
    flat = (np.sort(base + idx) - base).tolist()
    return [flat[end - w:end] for end, w in zip(np.cumsum(want).tolist(), want.tolist())]


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


def _choice_indices(size: np.ndarray, want: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Per user, in user order, the pool indices of numpy's
    `rng.choice(size, want, replace=False)` (in any order), from one
    `integers` call (the draw rule is in sample_eval_negatives)."""
    users = len(size)
    tail = (size > 10_000) & (want > size // 50)
    # per user two runs of highs, Floyd's (up by 1) and a shuffle's (down by 1),
    # made as the running sum of their steps
    runs = np.column_stack([np.where(tail, 0, want),
                            np.where(tail, size - np.maximum(size - want, 1),
                                     np.maximum(want - 1, 0))]).ravel()
    first = np.column_stack([size - want + 1, np.where(tail, size, want)]).ravel()
    step = np.tile([1, -1], users)
    live = runs > 0
    first, step, length = first[live], step[live], runs[live]
    highs = np.repeat(step, length)
    last = first + step * (length - 1)
    highs[np.cumsum(length) - length] = first - np.append(0, last[:-1])  # jump from run before
    draws = rng.integers(0, np.cumsum(highs)) if len(highs) else highs

    picker = np.repeat(np.arange(users), want)
    floyd = ~tail[picker]
    idx = np.empty(len(picker), dtype=np.int64)
    idx[floyd] = draws[np.repeat(np.tile([True, False], users), runs)]
    # a user whose Floyd draws are distinct picks them; a user with a repeat, or
    # with a tail shuffle, is replayed draw by draw
    key = int(size.max(initial=0)) + 1
    ordered = np.sort((picker * key + idx)[floyd])
    repeats = _distinct(ordered[1:][ordered[1:] == ordered[:-1]] // key)
    ends, run_ends = np.cumsum(want), np.cumsum(runs)
    for user in [*repeats.tolist(), *np.flatnonzero(tail).tolist()]:
        n, w, end = int(size[user]), int(want[user]), int(ends[user])
        r = 2 * user + int(tail[user])
        mine = draws[run_ends[r] - runs[r]:run_ends[r]].tolist()
        idx[end - w:end] = _tail_shuffle(n, w, mine) if tail[user] else _floyd(n, w, mine)
    return idx


def _floyd(size: int, want: int, draws: list[int]) -> list[int]:
    """Floyd's picks from its draws, in draw order: the t-th draw, if already
    picked, picks size - want + t."""
    picked: dict[int, None] = {}
    for j, draw in enumerate(draws, start=size - want):
        picked[j if draw in picked else draw] = None
    return list(picked)


def _tail_shuffle(size: int, want: int, draws: list[int]) -> list[int]:
    """The last `want` entries of arange(size) after numpy's tail shuffle, whose
    step at position i (size - 1 down) swaps it with position draw."""
    moved: dict[int, int] = {}
    picks = []
    for i, j in zip(range(size - 1, -1, -1), draws):
        picks.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    if want == size:  # the shuffle stops at position 1; position 0 is picked too
        picks.append(moved.get(0, 0))
    return picks


class _Pcg64Draws:
    """numpy's `integers(0, n)`, `choice(size, want, replace=False)` and
    generate_synthetic's attempts (`interactions`) on a PCG64 Generator,
    replayed in Python from its raw 64-bit outputs, which are read in chunks.
    Leaving the `with` block, also on an exception, puts the generator where
    those numpy calls would have left it.

    numpy's rules, for 1 <= n <= 2**32:
      - `random()` is `(raw >> 11) * 2**-53`: one whole raw output;
      - a 32-bit draw takes the buffered half if there is one, else a fresh
        raw output's low 32 bits, buffering its high 32;
      - `integers(0, n)` is Lemire's method on 32-bit draws: `m = u32 * n`,
        redrawn while `m mod 2**32 < (2**32 - n) % n`, gives `m >> 32`; n = 1
        gives 0 and draws nothing;
      - `choice` draws `integers(0, bound + 1)` at each step of Floyd's
        algorithm and its shuffle, or of the tail shuffle (sample_eval_negatives).
    `interactions` keeps the chunk, read position and buffered half in locals:
    its noise test `random() < noise` is `(raw >> 11) < noise * 2**53`, exact
    since both sides are scaled by the same power of two, and it takes Lemire's
    common case (`m mod 2**32 >= n`) in place; a chunk refill goes through
    `_next64` and a redraw through `_lemire`, as for any draw.
    """

    CHUNK = 4096  # raw outputs per read

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        self._start = self._bits.state
        self._has32, self._half = self._start["has_uint32"], self._start["uinteger"]
        self._raw: list[int] = []
        self._pos = self._done = 0  # next index in _raw; outputs of earlier chunks

    def __enter__(self) -> "_Pcg64Draws":
        return self

    def __exit__(self, *exc) -> None:
        self._bits.state = self._start
        self._bits.advance(self._done + self._pos)  # advance empties the 32-bit buffer
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has32, self._half
        self._bits.state = state

    def _next64(self) -> int:
        if self._pos == len(self._raw):
            self._done += self._pos
            self._raw, self._pos = self._bits.random_raw(self.CHUNK).tolist(), 0
        self._pos += 1
        return self._raw[self._pos - 1]

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._half
        raw = self._next64()
        self._has32, self._half = 1, raw >> 32
        return raw & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        return self._lemire(self._next32() * n, n) >> 32 if n > 1 else 0

    def _lemire(self, m: int, n: int) -> int:
        """Lemire's accepted product, from the first product m = u32 * n."""
        if m & 0xFFFFFFFF < n:  # n bounds the rejection floor, and is cheaper
            floor = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < floor:
                m = self._next32() * n
        return m

    def choice(self, size: int, want: int) -> list[int]:
        draw = self.integers
        if size > 10_000 and want > size // 50:
            stop = max(size - want, 1)
            draws = [draw(i + 1) for i in range(size - 1, stop - 1, -1)]
            return _tail_shuffle(size, want, draws)[::-1]
        picks = _floyd(size, want, [draw(j + 1) for j in range(size - want, size)])
        for i in range(want - 1, 0, -1):
            j = draw(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def interactions(self, preferred: list[int], items: int, noise: float, want: int,
                     cap: int) -> list[int]:
        """One synthetic user's sorted interactions, drawn inline (class docstring)."""
        chosen: set[int] = set()
        goal = min(want, len(preferred)) if noise == 0.0 else want
        threshold = noise * 2.0**53
        raw, pos, has32, half = self._raw, self._pos, self._has32, self._half
        attempts = 0
        while len(chosen) < goal and attempts < cap:
            attempts += 1
            noisy = False
            if noise > 0:
                if pos == len(raw):
                    self._pos = pos
                    r, raw, pos = self._next64(), self._raw, 1
                else:
                    r, pos = raw[pos], pos + 1
                noisy = (r >> 11) < threshold
            n, k = (items if noisy else len(preferred)), 0
            if n > 1 and has32:
                has32, k = 0, half * n
            elif n > 1:
                if pos == len(raw):
                    self._pos = pos
                    r, raw, pos = self._next64(), self._raw, 1
                else:
                    r, pos = raw[pos], pos + 1
                has32, half, k = 1, r >> 32, (r & 0xFFFFFFFF) * n
            if k & 0xFFFFFFFF < n:  # n = 1 lands here too, and _lemire draws nothing for it
                self._pos, self._has32, self._half = pos, has32, half
                k = self._lemire(k, n)
                raw, pos, has32, half = self._raw, self._pos, self._has32, self._half
            chosen.add(k >> 32 if noisy else preferred[k >> 32])
        self._pos, self._has32, self._half = pos, has32, half
        return sorted(chosen)


def attach_splits(positives: list[list[int]], num_items: int, kg: KnowledgeGraph,
                  triples: np.ndarray, rng: np.random.Generator,
                  user_id_map: dict[int, int] | None = None,
                  truth_prefs: np.ndarray | None = None) -> Dataset:
    """Split positives, draw evaluation negatives, assemble the Dataset."""
    canonical = [sorted(p) for p in positives]
    train, valid, test = split(canonical, rng)
    seen = _seen_keys(num_items, canonical)
    train_neg, valid_neg, test_neg = (_eval_negatives(num_items, seen, pos, rng)
                                      for pos in (train, valid, test))
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

    `rng` must run on numpy's PCG64 bit generator, as `fedkg.rng.derive_rng`'s do;
    any other raises TypeError before a draw. Per user, in user order, the
    draws are those of `prefs = rng.choice(populated, s, replace=False)`, then
    per attempt `rng.random() < noise` (not drawn when noise is 0) and
    `rng.integers(0, items)` or `rng.integers(0, len(preferred))`. They are
    replayed from the generator's raw outputs (`_Pcg64Draws`), which end
    where those calls would, so the splits continue on the same stream. Each
    user's attempts run inline (`_Pcg64Draws.interactions`: an exact noise
    threshold; refills and redraws through the class).
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError("generate_synthetic replays PCG64 draws; got a "
                        f"{type(rng.bit_generator).__name__} bit generator")
    m, a = cfg.items, cfg.attributes
    item_attr = rng.integers(0, a, size=m)
    attr_rel = rng.integers(0, cfg.relations, size=a)
    triples = np.column_stack([np.arange(m), attr_rel[item_attr], m + item_attr])
    kg = build_kg(triples, num_entities=m + a, num_relations=cfg.relations)

    items_by_attr = [np.flatnonzero(item_attr == x).tolist() for x in range(a)]
    populated = np.flatnonzero(np.bincount(item_attr, minlength=a)).tolist()
    s = min(cfg.prefs_per_user, len(populated))
    noise, want, cap = cfg.noise, cfg.interactions_per_user, 50 * cfg.interactions_per_user
    prefs: list[list[int]] = []
    positives: list[list[int]] = []
    with _Pcg64Draws(rng) as draws:
        for _ in range(cfg.users):
            prefs.append([populated[i] for i in draws.choice(len(populated), s)])
            preferred = [item for x in prefs[-1] for item in items_by_attr[x]]
            positives.append(draws.interactions(preferred, m, noise, want, cap))
    truth = np.zeros((cfg.users, a), dtype=bool)
    truth[np.repeat(np.arange(cfg.users), s), list(chain.from_iterable(prefs))] = True

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
