"""Global trainable state: entity/relation embedding tables plus model weights."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import check
from .model import ModelParams, SparseGrad, init_model_params

if TYPE_CHECKING:
    from .server import AggregatedGradient


@dataclass
class ParameterState:
    """Embeddings and model weights updated only by the server between rounds."""

    entity_emb: np.ndarray  # (num_entities, d)
    relation_emb: np.ndarray  # (num_relations, d)
    model: ModelParams

    @property
    def num_entities(self) -> int:
        return self.entity_emb.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation_emb.shape[0]

    def copy(self) -> "ParameterState":
        return ParameterState(self.entity_emb.copy(), self.relation_emb.copy(),
                              self.model.copy())


def init_params(num_entities: int, num_relations: int, dim: int,
                rng: np.random.Generator, depth: int = 1,
                mode: str = "transform") -> ParameterState:
    """Embeddings i.i.d. uniform on [-1/sqrt(d), +1/sqrt(d)]; model per init_model_params."""
    check("embed_dim", dim, name="dim")
    if num_entities < 1 or num_relations < 1:
        raise ValueError("entity and relation counts must be >= 1")
    bound = 1.0 / np.sqrt(dim)
    entity = rng.uniform(-bound, bound, size=(num_entities, dim))
    relation = rng.uniform(-bound, bound, size=(num_relations, dim))
    model = init_model_params(dim, depth, mode, rng)
    return ParameterState(entity_emb=entity, relation_emb=relation, model=model)


def gather(state: ParameterState, entities: np.ndarray,
           relations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copy the embedding rows of the given ids, in the given order.

    Mutating the returned matrices never touches state.
    """
    return (state.entity_emb[_checked_ids(entities, state.num_entities, "entity")],
            state.relation_emb[_checked_ids(relations, state.num_relations, "relation")])


def _checked_ids(ids, size: int, kind: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= size)]
    if len(bad):
        raise KeyError(f"{kind} id {int(bad[0])} out of range [0, {size})")
    return ids


def _update_rows(grad: SparseGrad, table: np.ndarray,
                 kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a sparse update against a table; return its (ids, rows)."""
    ids, rows = _checked_ids(grad.ids(), len(table), kind), grad.rows()
    if np.any(ids[1:] <= ids[:-1]):  # fancy-index -= would drop all but one repeat
        raise ValueError(f"{kind} gradient ids are not sorted and distinct")
    width = table.shape[1]
    if rows.shape != (len(ids), width) and (len(ids) or rows.size):
        raise ValueError(
            f"{kind} gradient rows have shape {rows.shape}, expected ({len(ids)}, {width})")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"non-finite {kind} gradient in aggregated update")
    return ids, rows.reshape(len(ids), width)


def apply_global_update(state: ParameterState, avg: "AggregatedGradient",
                        eta: float) -> None:
    """Plain gradient descent: p <- p - eta * avg_p on every touched parameter.

    Checks every id range and order, row width and value before the first
    write, so a bad round leaves the state bitwise unchanged.
    """
    ent_ids, ent_rows = _update_rows(avg.entity, state.entity_emb, "entity")
    rel_ids, rel_rows = _update_rows(avg.relation, state.relation_emb, "relation")
    if len(avg.model) > state.model.depth:
        raise ValueError("model gradient has more layers than the model")
    for (dw, db), w, b in zip(avg.model, state.model.weights, state.model.biases):
        if np.shape(dw) != w.shape or np.shape(db) != b.shape:
            raise ValueError("model gradient shape differs from the model")
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise ValueError("non-finite model gradient in aggregated update")

    state.entity_emb[ent_ids] -= eta * ent_rows
    state.relation_emb[rel_ids] -= eta * rel_rows
    for layer, (dw, db) in enumerate(avg.model):
        state.model.weights[layer] -= eta * dw
        state.model.biases[layer] -= eta * db


def save_checkpoint(path: str, state: ParameterState,
                    user_emb: np.ndarray | None = None,
                    extra: dict | None = None) -> None:
    """np.savez checkpoint; float64 arrays round-trip bitwise.

    Written to `path + ".tmp"`, then moved over `path`: a failed save leaves
    the previous checkpoint whole. As with np.savez, a missing ".npz" is added.
    """
    arrays = {
        "entity_emb": state.entity_emb,
        "relation_emb": state.relation_emb,
        "mode": np.array(state.model.mode),
        "depth": np.array(state.model.depth),
    }
    for i, (w, b) in enumerate(zip(state.model.weights, state.model.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    if user_emb is not None:
        arrays["user_emb"] = user_emb
    if extra is not None:
        arrays["extra_json"] = np.array(json.dumps(extra))
    path = path if path.endswith(".npz") else path + ".npz"
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[ParameterState, np.ndarray | None, dict | None]:
    """Read a save_checkpoint archive; ValueError names the keys it lacks."""
    data = np.load(path, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not an .npz checkpoint")
    with data:
        depth = int(data["depth"]) if "depth" in data else 0
        missing = [key for key in ["entity_emb", "relation_emb", "mode", "depth",
                                   *(f"{p}{i}" for i in range(depth) for p in "wb")]
                   if key not in data]
        if missing:
            raise ValueError(f"{path} is not a fedkg checkpoint: it lacks {missing}")
        model = ModelParams(mode=str(data["mode"]),
                            weights=[data[f"w{i}"] for i in range(depth)],
                            biases=[data[f"b{i}"] for i in range(depth)])
        state = ParameterState(data["entity_emb"], data["relation_emb"], model)
        user_emb = data["user_emb"] if "user_emb" in data else None
        extra = json.loads(str(data["extra_json"])) if "extra_json" in data else None
    return state, user_emb, extra
