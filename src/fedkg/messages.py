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
    entity_ids: list[int]
    entity_rows: np.ndarray  # (len(entity_ids), d) float64
    relation_ids: list[int]
    relation_rows: np.ndarray
    model: list[tuple[np.ndarray, np.ndarray]]  # per layer (dW, db)
    version: int = WIRE_VERSION

    @classmethod
    def from_packet(cls, packet: GradientPacket) -> "GradientUpload":
        if packet.user_grad is not None:
            raise WireFormatError("refusing to build an upload from an unstripped packet")
        return cls(client_id=packet.client_id, weight=packet.weight,
                   loss=float(packet.loss),
                   entity_ids=packet.entity_grads.ids(),
                   entity_rows=packet.entity_grads.rows(),
                   relation_ids=packet.relation_grads.ids(),
                   relation_rows=packet.relation_grads.rows(),
                   model=list(packet.model_grads))

    def to_packet(self) -> GradientPacket:
        return GradientPacket(
            entity_grads=SparseGrad.from_rows(self.entity_ids, self.entity_rows),
            relation_grads=SparseGrad.from_rows(self.relation_ids, self.relation_rows),
            model_grads=list(self.model), user_grad=None, weight=self.weight,
            loss=self.loss, client_id=self.client_id)

    def to_json_bytes(self) -> bytes:
        payload = {"version": self.version, "type": "gradient_upload",
                   "client_id": self.client_id, "weight": self.weight,
                   "loss": self.loss,
                   "entities": {"ids": self.entity_ids,
                                "vectors": self.entity_rows.tolist()},
                   "relations": {"ids": self.relation_ids,
                                 "vectors": self.relation_rows.tolist()},
                   "model": [{"w": dw.tolist(), "b": db.tolist()} for dw, db in self.model]}
        return json.dumps(payload, separators=(",", ":")).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "GradientUpload":
        payload = json.loads(raw.decode())
        _check_keys(payload, _UPLOAD_KEYS, "gradient_upload")
        for part in ("entities", "relations"):
            _check_keys(payload[part], _SPARSE_KEYS, part)
        _check_version(payload)
        ent, rel = payload["entities"], payload["relations"]
        return cls(client_id=int(payload["client_id"]), weight=int(payload["weight"]),
                   loss=float(payload["loss"]),
                   entity_ids=[int(i) for i in ent["ids"]],
                   entity_rows=np.array(ent["vectors"], dtype=np.float64),
                   relation_ids=[int(i) for i in rel["ids"]],
                   relation_rows=np.array(rel["vectors"], dtype=np.float64),
                   model=[(np.array(layer["w"], dtype=np.float64),
                           np.array(layer["b"], dtype=np.float64))
                          for layer in payload["model"]],
                   version=int(payload["version"]))


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
