"""Server-bound wire messages.

RequestMessage and GradientUpload are the only payloads a client ever
sends; both are versioned with fixed field order and carry no user
embedding, no labels, and no raw interaction set.

Both are JSON objects. Ids, counts and scalars are plain JSON: `version`,
`client_id`, `weight`, request `items` and gradient `ids` are JSON
integers (never booleans or floats) and `loss` is a JSON number that is
a finite float64. The non-standard constants NaN, Infinity and -Infinity
are rejected anywhere in a message, and never written. Every
float array of an upload (the entity and relation `vectors`, each model
layer's `w` and `b`) is a packed array object

    {"shape": [n, d], "f64": "<base64 of the array's float64 bytes>"}

whose bytes are the IEEE 754 float64 elements in C (row-major) order and
little-endian byte order, 8 * prod(shape) of them, base64-encoded with
the standard alphabet and padding. Vectors and `w` have rank 2, `b` rank
1. The bytes are the array's own, so a decoded array is bitwise the
encoded one (-0.0, subnormals, NaN and inf included) and replaying
serialized messages is bitwise equivalent to the in-process path.

Wire version 3 introduced the packed arrays; version 2 carried the same
fields as nested JSON lists of decimal floats and is rejected.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .kg import Subgraph
from .model import GradientPacket, ModelParams, SparseGrad

WIRE_VERSION = 3

_REQUEST_KEYS = ("version", "type", "client_id", "items")
_UPLOAD_KEYS = ("version", "type", "client_id", "weight", "loss",
                "entities", "relations", "model")
_SPARSE_KEYS = ("ids", "vectors")
_PACKED_KEYS = ("shape", "f64")


class WireFormatError(ValueError):
    """Malformed or schema-violating message payload."""


@dataclass
class RequestMessage:
    client_id: int
    items: list[int]

    def to_json_bytes(self) -> bytes:
        payload = {"version": WIRE_VERSION, "type": "request",
                   "client_id": self.client_id, "items": list(self.items)}
        return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "RequestMessage":
        payload = _load(raw, _REQUEST_KEYS, "request")
        return cls(client_id=_int(payload["client_id"], "client_id"),
                   items=_int_list(payload["items"], "items"))


@dataclass
class GradientUpload:
    """One client's protected gradients, held as arrays until serialized."""

    client_id: int
    weight: int
    loss: float
    entities: SparseGrad
    relations: SparseGrad
    model: list[tuple[np.ndarray, np.ndarray]]  # per layer (dW, db)

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
        payload = {"version": WIRE_VERSION, "type": "gradient_upload",
                   "client_id": self.client_id, "weight": self.weight,
                   "loss": self.loss,
                   "entities": {"ids": self.entities.ids().tolist(),
                                "vectors": _pack(self.entities.rows())},
                   "relations": {"ids": self.relations.ids().tolist(),
                                 "vectors": _pack(self.relations.rows())},
                   "model": [{"w": _pack(dw), "b": _pack(db)} for dw, db in self.model]}
        return json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "GradientUpload":
        payload = _load(raw, _UPLOAD_KEYS, "gradient_upload")
        weight = _int(payload["weight"], "weight")
        if weight < 1:
            raise WireFormatError(f"upload weight {weight} is below 1")
        if not isinstance(payload["model"], list):
            raise WireFormatError(f"model is a {type(payload['model']).__name__}, not a list")
        return cls(client_id=_int(payload["client_id"], "client_id"), weight=weight,
                   loss=_float(payload["loss"], "loss"),
                   entities=_sparse_grad(payload["entities"], "entities"),
                   relations=_sparse_grad(payload["relations"], "relations"),
                   model=[_model_layer(layer) for layer in payload["model"]])


def _pack(a: np.ndarray) -> dict:
    """Packed array object of a float64 array (see the module docstring)."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f64": base64.b64encode(data).decode("ascii")}


def _unpack(obj, rank: int, kind: str) -> np.ndarray:
    """Decode a packed array of the given rank into an owned native float64 array."""
    _check_keys(obj, _PACKED_KEYS, kind)
    shape, data = obj["shape"], obj["f64"]
    if not (isinstance(shape, list) and len(shape) == rank
            and all(type(n) is int and n >= 0 for n in shape)):
        raise WireFormatError(f"{kind} shape {shape!r} is not {rank} non-negative ints")
    if not isinstance(data, str):
        raise WireFormatError(f"{kind} f64 payload is a {type(data).__name__}, not a string")
    try:
        buf = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error (alphabet, padding) or non-ASCII text
        raise WireFormatError(f"{kind} f64 payload is not base64: {exc}") from exc
    if len(buf) % 8:
        raise WireFormatError(f"{kind} f64 payload of {len(buf)} bytes is not a multiple of 8")
    if len(buf) != 8 * math.prod(shape):
        raise WireFormatError(
            f"{kind} f64 payload of {len(buf)} bytes does not fill shape {shape}")
    return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)


def _sparse_grad(part, kind: str) -> SparseGrad:
    """Decode one sparse gradient, rejecting anything SparseGrad cannot hold."""
    _check_keys(part, _SPARSE_KEYS, kind)
    try:
        ids = np.array(_int_list(part["ids"], f"{kind} ids"), dtype=np.int64)
    except OverflowError as exc:
        raise WireFormatError(f"{kind} ids: {exc}") from exc
    rows = _unpack(part["vectors"], 2, f"{kind} vectors")
    if len(rows) != len(ids):
        raise WireFormatError(
            f"{kind}: {len(ids)} ids do not match vectors of shape {rows.shape}")
    if np.any(ids < 0) or np.any(ids[1:] <= ids[:-1]):
        raise WireFormatError(f"{kind} ids are not non-negative and strictly increasing")
    return SparseGrad(ids, rows)


def _model_layer(layer) -> tuple[np.ndarray, np.ndarray]:
    """Decode one (dW, db) pair: a 2-D dW and a 1-D db with one entry per dW row."""
    _check_keys(layer, ("w", "b"), "model layer")
    dw = _unpack(layer["w"], 2, "model layer w")
    db = _unpack(layer["b"], 1, "model layer b")
    if db.shape != dw.shape[:1]:
        raise WireFormatError(
            f"model layer: w of shape {dw.shape} does not match b of shape {db.shape}")
    return dw, db


@dataclass
class SubgraphResponse:
    """Server reply: sampled subgraph, its gathered embedding rows, full model.

    Row i of entity_rows (relation_rows) is the vector of
    subgraph.entities[i] (subgraph.relations[i]); the rows are copies.
    `model` is the global model itself, shared and read-only: local
    training steps its own copies.
    """

    subgraph: Subgraph
    entity_rows: np.ndarray
    relation_rows: np.ndarray
    model: ModelParams


def _load(raw: bytes, expected: tuple[str, ...], kind: str) -> dict:
    """Parse a message object of type `kind` with exactly the expected keys
    and this wire version."""
    try:
        payload = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as exc:  # invalid JSON or UTF-8, or a NaN/Infinity constant
        raise WireFormatError(f"{kind} is not JSON: {exc}") from exc
    _check_keys(payload, expected, kind)
    if _int(payload["version"], "version") != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {payload['version']} (expected {WIRE_VERSION})")
    if payload["type"] != kind:
        raise WireFormatError(f"message type {payload['type']!r} is not {kind!r}")
    return payload


def _int(value, name: str) -> int:
    if type(value) is not int:
        raise WireFormatError(f"{name} is a {type(value).__name__}, not a JSON integer")
    return value


def _float(value, name: str) -> float:
    """A JSON number (never a boolean) that is a finite float64."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(f"{name} is a {type(value).__name__}, not a JSON number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float64
        number = math.inf
    if not math.isfinite(number):
        raise WireFormatError(f"{name} is not a finite float64")
    return number


def _reject_constant(token: str):
    raise WireFormatError(f"{token} is not a JSON number")


def _int_list(values, name: str) -> list[int]:
    if not (isinstance(values, list) and all(type(v) is int for v in values)):
        raise WireFormatError(f"{name} is not a list of JSON integers")
    return values


def _check_keys(payload, expected: tuple[str, ...], kind: str) -> None:
    if not isinstance(payload, dict):
        raise WireFormatError(f"{kind} is a {type(payload).__name__}, not an object")
    if set(payload) != set(expected):
        extra = set(payload) - set(expected)
        missing = set(expected) - set(payload)
        raise WireFormatError(
            f"{kind} schema mismatch: extra={sorted(extra)} missing={sorted(missing)}")
