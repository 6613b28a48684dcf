"""Server-bound wire messages: this module holds only the two wire payloads.

RequestMessage and GradientUpload are the only payloads a client ever
sends (the server's reply is an in-process `model.Field`); both are
versioned with fixed field order and carry no user embedding, no labels,
and no raw interaction set. An upload is a stripped GradientPacket: its
wire keys `entities`, `relations` and `model` carry the packet's
`entity_grads`, `relation_grads` and `model_grads`.

Both are JSON objects. Ids and counts are plain JSON: `version`,
`client_id`, `weight`, request `items` and gradient `ids` are JSON
integers (never booleans or floats) within int64, as is every dimension
of a packed array's `shape`. An upload carries no loss: each of
its numbers is public or LDP-protected. The non-standard constants NaN,
Infinity and -Infinity are rejected anywhere in a message, and never
written. Every float array of an upload (the entity and relation
`vectors`, each model layer's `w` and `b`) is a packed array object

    {"shape": [n, d], "f64": "<base64 of the array's float64 bytes>"}

whose bytes are the IEEE 754 float64 elements in C (row-major) order and
little-endian byte order, 8 * prod(shape) of them, base64-encoded with
the standard alphabet and padding. Vectors and `w` have rank 2, `b` rank
1. The bytes are the array's own, so a decoded array is bitwise the
encoded one (-0.0, subnormals, NaN and inf included) and replaying
serialized messages is bitwise equivalent to the in-process path. An
upload's bytes are json.dumps(payload, separators=(",", ":")), but ids
and base64, which need no escaping, are spliced in around the scalars.

Wire version 4 dropped the upload's `loss`. Version 3 carried it and
introduced the packed arrays; version 2 carried the fields as nested JSON
lists of decimal floats. Both are rejected.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import GradientPacket, SparseGrad

WIRE_VERSION = 4

_REQUEST_KEYS = ("version", "type", "client_id", "items")
_UPLOAD_KEYS = ("version", "type", "client_id", "weight", "entities", "relations", "model")
_SPARSE_KEYS = ("ids", "vectors")
_PACKED_KEYS = ("shape", "f64")
_INT64 = range(-2 ** 63, 2 ** 63)  # every wire integer: version, ids, counts, shapes


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


class GradientUpload(GradientPacket):
    """A stripped GradientPacket (user_grad and loss None) with its wire codec.

    It declares no fields: the memory transport passes the packet's own
    arrays through, and only the JSON transport copies them.
    """

    @classmethod
    def from_packet(cls, packet: GradientPacket) -> "GradientUpload":
        if packet.user_grad is not None or packet.loss is not None:
            raise WireFormatError("refusing to build an upload from an unstripped packet")
        return cls(**vars(packet))

    def to_packet(self) -> GradientPacket:
        return self

    def to_json_bytes(self) -> bytes:
        head = json.dumps({"version": WIRE_VERSION, "type": "gradient_upload",
                           "client_id": self.client_id, "weight": self.weight},
                          separators=(",", ":"), allow_nan=False)
        model = b",".join(b'{"w":%s,"b":%s}' % (_pack(dw), _pack(db))
                          for dw, db in self.model_grads)
        return b'%s,"entities":%s,"relations":%s,"model":[%s]}' % (
            head[:-1].encode(), _sparse(self.entity_grads), _sparse(self.relation_grads), model)

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "GradientUpload":
        payload = _load(raw, _UPLOAD_KEYS, "gradient_upload")
        weight = _int(payload["weight"], "weight")
        if weight < 1:
            raise WireFormatError(f"upload weight {weight} is below 1")
        if not isinstance(payload["model"], list):
            raise WireFormatError(f"model is a {type(payload['model']).__name__}, not a list")
        return cls(entity_grads=_sparse_grad(payload["entities"], "entities"),
                   relation_grads=_sparse_grad(payload["relations"], "relations"),
                   model_grads=[_model_layer(layer) for layer in payload["model"]],
                   user_grad=None, weight=weight, loss=None,
                   client_id=_int(payload["client_id"], "client_id"))


def _sparse(grads: SparseGrad) -> bytes:
    ids = ",".join(map(str, grads.ids().tolist())).encode()
    return b'{"ids":[%s],"vectors":%s}' % (ids, _pack(grads.rows()))


def _pack(a: np.ndarray) -> bytes:
    """Packed array object of a float64 array (see the module docstring), as JSON bytes."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    shape = ",".join(map(str, a.shape)).encode()
    return b'{"shape":[%s],"f64":"%s"}' % (shape, base64.b64encode(data))


def _unpack(obj, rank: int, kind: str) -> np.ndarray:
    """Decode a packed array of the given rank into an owned native float64 array."""
    _check_keys(obj, _PACKED_KEYS, kind)
    shape, data = obj["shape"], obj["f64"]
    if not (isinstance(shape, list) and len(shape) == rank
            and all(type(n) is int and n in _INT64 and n >= 0 for n in shape)):
        raise WireFormatError(f"{kind} shape {shape!r} is not {rank} non-negative int64s")
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
    try:
        return np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
    except ValueError as exc:  # a zero-size shape numpy cannot build
        raise WireFormatError(f"{kind} shape {shape}: {exc}") from exc


def _sparse_grad(part, kind: str) -> SparseGrad:
    """Decode one sparse gradient, rejecting anything SparseGrad cannot hold."""
    _check_keys(part, _SPARSE_KEYS, kind)
    ids = np.array(_int_list(part["ids"], f"{kind} ids"), dtype=np.int64)
    rows = _unpack(part["vectors"], 2, f"{kind} vectors")
    if len(rows) != len(ids):
        raise WireFormatError(
            f"{kind}: {len(ids)} ids do not match vectors of shape {rows.shape}")
    if len(ids) and (ids[0] < 0 or not np.all(ids[1:] > ids[:-1])):
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
    if value not in _INT64:
        raise WireFormatError(f"{name} is outside int64")
    return value


def _reject_constant(token: str):
    raise WireFormatError(f"{token} is not a JSON number")


def _int_list(values, name: str) -> list[int]:
    if not (isinstance(values, list) and set(map(type, values)) <= {int}):
        raise WireFormatError(f"{name} is not a list of JSON integers")
    if values and (min(values) not in _INT64 or max(values) not in _INT64):
        raise WireFormatError(f"{name}: an integer is outside int64")
    return values


def _check_keys(payload, expected: tuple[str, ...], kind: str) -> None:
    if not isinstance(payload, dict):
        raise WireFormatError(f"{kind} is a {type(payload).__name__}, not an object")
    if set(payload) != set(expected):
        extra = set(payload) - set(expected)
        missing = set(expected) - set(payload)
        raise WireFormatError(
            f"{kind} schema mismatch: extra={sorted(extra)} missing={sorted(missing)}")
