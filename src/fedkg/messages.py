"""Server-bound wire messages.

RequestMessage and GradientUpload are the only payloads a client ever
sends; both are versioned with fixed field order and carry no user
embedding, no labels, and no raw interaction set. JSON float encoding
round-trips exactly, so replaying serialized messages is bitwise
equivalent to the in-process path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .kg import Subgraph
from .model import GradientPacket, ModelParams, SparseGrad

WIRE_VERSION = 2

_REQUEST_KEYS = ("version", "type", "client_id", "items")
_UPLOAD_KEYS = ("version", "type", "client_id", "weight", "loss",
                "entities", "relations", "model")
_SPARSE_KEYS = ("ids", "vectors")


class WireFormatError(ValueError):
    """Malformed or schema-violating message payload."""


@dataclass
class RequestMessage:
    client_id: int
    items: list[int]
    version: int = WIRE_VERSION

    def to_json_bytes(self) -> bytes:
        payload = {"version": self.version, "type": "request",
                   "client_id": self.client_id, "items": list(self.items)}
        return json.dumps(payload, separators=(",", ":")).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "RequestMessage":
        payload = json.loads(raw.decode())
        _check_keys(payload, _REQUEST_KEYS, "request")
        _check_version(payload)
        return cls(client_id=int(payload["client_id"]),
                   items=[int(i) for i in payload["items"]],
                   version=int(payload["version"]))


@dataclass
class GradientUpload:
    """One client's protected gradients, held as arrays until serialized."""

    client_id: int
    weight: int
    loss: float
    entities: SparseGrad
    relations: SparseGrad
    model: list[tuple[np.ndarray, np.ndarray]]  # per layer (dW, db)
    version: int = WIRE_VERSION

    @classmethod
    def from_packet(cls, packet: GradientPacket) -> "GradientUpload":
        if packet.user_grad is not None:
            raise WireFormatError("refusing to build an upload from an unstripped packet")
        return cls(client_id=packet.client_id, weight=packet.weight,
                   loss=float(packet.loss), entities=packet.entity_grads,
                   relations=packet.relation_grads, model=list(packet.model_grads))

    def to_packet(self) -> GradientPacket:
        return GradientPacket(
            entity_grads=self.entities, relation_grads=self.relations,
            model_grads=list(self.model), user_grad=None, weight=self.weight,
            loss=self.loss, client_id=self.client_id)

    def to_json_bytes(self) -> bytes:
        payload = {"version": self.version, "type": "gradient_upload",
                   "client_id": self.client_id, "weight": self.weight,
                   "loss": self.loss,
                   "entities": {"ids": self.entities.ids().tolist(),
                                "vectors": self.entities.rows().tolist()},
                   "relations": {"ids": self.relations.ids().tolist(),
                                 "vectors": self.relations.rows().tolist()},
                   "model": [{"w": dw.tolist(), "b": db.tolist()} for dw, db in self.model]}
        return json.dumps(payload, separators=(",", ":")).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "GradientUpload":
        payload = json.loads(raw.decode())
        _check_keys(payload, _UPLOAD_KEYS, "gradient_upload")
        for part in ("entities", "relations"):
            _check_keys(payload[part], _SPARSE_KEYS, part)
        _check_version(payload)
        weight = int(payload["weight"])
        if weight < 1:
            raise WireFormatError(f"upload weight {weight} is below 1")
        return cls(client_id=int(payload["client_id"]), weight=weight,
                   loss=float(payload["loss"]),
                   entities=_sparse_grad(payload["entities"], "entities"),
                   relations=_sparse_grad(payload["relations"], "relations"),
                   model=[_model_layer(layer) for layer in payload["model"]],
                   version=int(payload["version"]))


def _sparse_grad(part: dict, kind: str) -> SparseGrad:
    """Decode one sparse gradient, rejecting anything SparseGrad cannot hold."""
    try:
        ids = np.array(part["ids"], dtype=np.int64)
        rows = np.array(part["vectors"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or non-numeric
        raise WireFormatError(f"{kind}: {exc}") from exc
    if rows.shape == (0,):
        rows = rows.reshape(0, 0)
    if ids.ndim != 1 or rows.ndim != 2 or len(rows) != len(ids):
        raise WireFormatError(
            f"{kind}: ids of shape {ids.shape} do not match vectors of shape {rows.shape}")
    if np.any(ids < 0) or np.any(ids[1:] <= ids[:-1]):
        raise WireFormatError(f"{kind} ids are not non-negative and strictly increasing")
    return SparseGrad(ids, rows)


def _model_layer(layer: dict) -> tuple[np.ndarray, np.ndarray]:
    """Decode one (dW, db) pair: a 2-D dW and a 1-D db with one entry per dW row."""
    if not isinstance(layer, dict):
        raise WireFormatError(f"model layer is a {type(layer).__name__}, not an object")
    _check_keys(layer, ("w", "b"), "model layer")
    try:
        dw = np.array(layer["w"], dtype=np.float64)
        db = np.array(layer["b"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or non-numeric
        raise WireFormatError(f"model layer: {exc}") from exc
    if dw.ndim != 2 or db.shape != dw.shape[:1]:
        raise WireFormatError(
            f"model layer: w of shape {dw.shape} does not match b of shape {db.shape}")
    return dw, db


@dataclass
class SubgraphResponse:
    """Server reply: sampled subgraph, its gathered embedding rows, full model.

    Row i of entity_rows (relation_rows) is the vector of
    subgraph.entities[i] (subgraph.relations[i]).
    """

    subgraph: Subgraph
    entity_rows: np.ndarray
    relation_rows: np.ndarray
    model: ModelParams


def _check_version(payload: dict) -> None:
    if payload["version"] != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {payload['version']} (expected {WIRE_VERSION})")


def _check_keys(payload: dict, expected: tuple[str, ...], kind: str) -> None:
    if set(payload) != set(expected):
        extra = set(payload) - set(expected)
        missing = set(expected) - set(payload)
        raise WireFormatError(
            f"{kind} schema mismatch: extra={sorted(extra)} missing={sorted(missing)}")
