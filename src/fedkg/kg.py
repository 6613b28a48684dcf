"""Server-side knowledge graph: CSR triple store and receptive-field sampling.

The graph is immutable after construction and treated as undirected: every
triple (h, r, t) is indexed under both h and t, so anchor items reach
attribute entities and vice versa during propagation. Entity e's edges are
rel[offsets[e]:offsets[e+1]] and nbr[offsets[e]:offsets[e+1]], sorted by
(relation, neighbor).

A sampled subgraph is the arrays the model consumes. ids[0] holds the
anchors in request order and ids[l+1] the sorted distinct neighbors drawn
at layer l. Layer l draws K edges with replacement for every non-isolated
center in ids[l]; its rel_rows index `relations` and its tail_rows index
ids[l+1]. `entities` and `relations` are the sorted distinct ids touched,
the rows a server ships.

Degrees are cached on the graph (`KnowledgeGraph.degree`). Each depth makes
one `integers` call whose bounds are the centers' degrees, each repeated K
times; this is the same stream as a per-center loop of K draws.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class KgValidationError(ValueError):
    """Malformed KG file line, or a triple with an id outside the declared counts."""


@dataclass
class KnowledgeGraph:
    """Deduplicated undirected triples in compressed sparse row form.

    Only exact duplicate triples are dropped, so reverse pairs and
    self-loops keep their full edge multiplicity.
    """

    num_entities: int
    num_relations: int
    offsets: np.ndarray  # (num_entities + 1,) edge range per entity
    rel: np.ndarray  # (2 * num_triples,) relation id per edge
    nbr: np.ndarray  # (2 * num_triples,) neighbor entity per edge

    @property
    def num_triples(self) -> int:
        return len(self.rel) // 2

    @cached_property
    def degree(self) -> np.ndarray:
        """(num_entities,) edge count per entity, computed once (the graph is immutable)."""
        return np.diff(self.offsets)


@dataclass
class Layer:
    """K sampled (relation, tail) draws per non-isolated center of one depth."""

    isolated: np.ndarray  # (n_centers,) bool; isolated centers keep their raw vector
    rel_rows: np.ndarray  # (n_sampled, K) rows into Subgraph.relations
    tail_rows: np.ndarray  # (n_sampled, K) rows into the next depth's ids

    def __len__(self) -> int:
        return len(self.isolated)

    @cached_property
    def sampled(self) -> np.ndarray:
        """Positions of the non-isolated centers, in rel_rows/tail_rows order,
        computed once per layer."""
        return np.flatnonzero(~self.isolated)

    @cached_property
    def sampled_rows(self) -> np.ndarray:
        """Per center, its row in rel_rows/tail_rows when not isolated; computed once."""
        return np.cumsum(~self.isolated) - 1


@dataclass
class Subgraph:
    """Receptive field sampled around anchor items (layout in the module docstring)."""

    ids: list[np.ndarray]  # depth + 1 entity id arrays
    layers: list[Layer]
    entities: np.ndarray  # sorted distinct entity ids
    relations: np.ndarray  # sorted distinct relation ids

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def ent_rows(self) -> list[np.ndarray]:
        """Per depth, each id's row in `entities`, computed once per subgraph."""
        return [np.searchsorted(self.entities, ids) for ids in self.ids]


def build_kg(triples: np.ndarray, num_entities: int, num_relations: int) -> KnowledgeGraph:
    """Index (n, 3) array-like (head, relation, tail) rows into an undirected CSR store.

    Exact duplicates are dropped. Raises KgValidationError naming the first
    out-of-range triple.
    """
    hrt = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    h, r, t = hrt.T
    ent_bad = (h < 0) | (h >= num_entities) | (t < 0) | (t >= num_entities)
    rel_bad = (r < 0) | (r >= num_relations)
    if np.any(ent_bad | rel_bad):
        first = int(np.argmax(ent_bad | rel_bad))
        bad = tuple(int(x) for x in hrt[first])
        if ent_bad[first]:
            raise KgValidationError(
                f"triple {bad}: entity index out of range [0, {num_entities})")
        raise KgValidationError(
            f"triple {bad}: relation index out of range [0, {num_relations})")

    h, r, t = np.unique(hrt, axis=0).T
    center = np.concatenate([h, t])
    rel = np.concatenate([r, r])
    nbr = np.concatenate([t, h])
    order = np.lexsort((nbr, rel, center))
    offsets = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(center, minlength=num_entities), out=offsets[1:])
    return KnowledgeGraph(num_entities=num_entities, num_relations=num_relations,
                          offsets=offsets, rel=rel[order], nbr=nbr[order])


def sample_subgraph(kg: KnowledgeGraph, anchor_items: list[int] | np.ndarray, k: int,
                    depth: int, rng: np.random.Generator) -> Subgraph:
    """Extract a depth-layer receptive field around the anchors.

    Each layer makes one draw of K edge offsets per non-isolated center,
    centers in sorted id order, so the random stream equals a per-center
    loop of rng.integers(0, degree, size=K) over the sorted centers. Only the
    anchors (request order, repeats allowed) need a unique and a reorder: a
    deeper depth's ids are the sorted distinct tails of the depth before.
    """
    ids = [np.asarray(anchor_items, dtype=np.int64)]
    drawn: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for level in range(depth):
        isolated = kg.degree[ids[-1]] == 0
        centers, order = (unique_inverse(ids[-1][~isolated]) if level == 0
                          else (ids[-1][~isolated], slice(None)))
        edges = kg.offsets[centers, None] + rng.integers(
            0, np.repeat(kg.degree[centers], k)).reshape(-1, k)
        edges = edges[order]  # sorted-center draws in this depth's order
        tails, tail_rows = unique_inverse(kg.nbr[edges])
        drawn.append((isolated, kg.rel[edges], tail_rows))
        ids.append(tails)
    relations = _distinct(np.concatenate([rel for _, rel, _ in drawn], axis=None)) \
        if drawn else np.empty(0, dtype=np.int64)
    layers = [Layer(isolated=iso, rel_rows=np.searchsorted(relations, rel), tail_rows=rows)
              for iso, rel, rows in drawn]
    return Subgraph(ids=ids, layers=layers, entities=_distinct(np.concatenate(ids)),
                    relations=relations)


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """True where a sorted array's value differs from the one before it."""
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _distinct(ids: np.ndarray) -> np.ndarray:
    """np.unique(ids) by sort and mask, several times faster than numpy 2's
    hashing unique on the hundreds to thousands of ids of a subgraph."""
    ordered = np.sort(ids)
    return ordered[_first_of_runs(ordered)]


def unique_inverse(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) with the inverse in ids' shape, by
    the same argsort, without np.unique's per-call overhead; bitwise
    np.unique's for integer ids."""
    flat = ids.ravel()
    order = flat.argsort()
    ordered = flat[order]
    first = _first_of_runs(ordered)
    inverse = np.empty(len(flat), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse.reshape(ids.shape)


def read_rows(path: str, columns: dict[str, type],
              error: type[ValueError]) -> Iterator[tuple[str, tuple]]:
    """Yield (`path:line`, converted fields) for each data line of a text table.

    Lines hold the whitespace-separated `columns`, converted by their types;
    blank and `#` lines are skipped. A wrong field count or an unconvertible
    field raises `error` naming `path:line`.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) != len(columns):
                raise error(f"{where}: expected `{' '.join(columns)}`, got {line!r}")
            try:
                values = tuple(kind(p) for kind, p in zip(columns.values(), parts))
            except ValueError as exc:
                raise error(f"{where}: bad field in {line!r}") from exc
            yield where, values


def load_kg_file(path: str) -> tuple[np.ndarray, int, int]:
    """Read `head relation tail` lines into (n, 3) int64 triples.

    The counts returned, (num_entities, num_relations), are one past the
    largest ids read, so (0, 0) for a file without triples.
    """
    rows = []
    for where, hrt in read_rows(path, {"head": int, "relation": int, "tail": int},
                                KgValidationError):
        if min(hrt) < 0:
            raise KgValidationError(f"{where}: negative id in triple {hrt}")
        rows.append(hrt)
    triples = np.array(rows, dtype=np.int64).reshape(-1, 3)
    head, rel, tail = triples.max(axis=0, initial=-1) + 1
    return triples, int(max(head, tail)), int(rel)


def save_kg_file(path: str, triples: np.ndarray) -> None:
    """Write (head, relation, tail) rows as tab-separated `head relation tail` lines."""
    np.savetxt(path, np.asarray(triples, dtype=np.int64).reshape(-1, 3),
               fmt="%d", delimiter="\t")
