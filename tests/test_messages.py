import base64
import json

import numpy as np
import pytest

from fedkg.messages import WIRE_VERSION, GradientUpload, RequestMessage, WireFormatError
from fedkg.model import GradientPacket, SparseGrad
from fedkg.privacy import DpConfig, ldp_encrypt
from fedkg.rng import derive_rng


def _stripped_packet():
    ent = SparseGrad()
    ent.add(4, np.array([0.125, -0.5]))
    ent.add(1, np.array([0.3, 0.7000000000000001]))
    rel = SparseGrad()
    rel.add(0, np.array([1e-17, 2.0]))
    return GradientPacket(entity_grads=ent, relation_grads=rel,
                          model_grads=[(np.eye(2) * 0.1, np.array([0.0, -1.0]))],
                          user_grad=None, weight=3, loss=0.6931, client_id=12)


def _valid_upload() -> dict:
    return json.loads(GradientUpload.from_packet(_stripped_packet()).to_json_bytes())


def _packed(values, shape) -> dict:
    data = np.asarray(values, dtype="<f8").tobytes()
    return {"shape": shape, "f64": base64.b64encode(data).decode()}


# v3 bytes of _stripped_packet()'s upload; a change to the wire format must edit this
GOLDEN_UPLOAD = (
    b'{"version":3,"type":"gradient_upload","client_id":12,"weight":3,"loss":0.6931,'
    b'"entities":{"ids":[1,4],"vectors":{"shape":[2,2],'
    b'"f64":"MzMzMzMz0z9nZmZmZmbmPwAAAAAAAMA/AAAAAAAA4L8="}},'
    b'"relations":{"ids":[0],"vectors":{"shape":[1,2],"f64":"l9RGRvUOZzwAAAAAAAAAQA=="}},'
    b'"model":[{"w":{"shape":[2,2],"f64":"mpmZmZmZuT8AAAAAAAAAAAAAAAAAAAAAmpmZmZmZuT8="},'
    b'"b":{"shape":[2],"f64":"AAAAAAAAAAAAAAAAAADwvw=="}}]}')


def test_request_roundtrip():
    msg = RequestMessage(client_id=5, items=[9, 2, 7])
    again = RequestMessage.from_json_bytes(msg.to_json_bytes())
    assert again == msg


def test_request_rejects_extra_keys():
    raw = b'{"version":1,"type":"request","client_id":1,"items":[1],"labels":[1]}'
    with pytest.raises(WireFormatError, match="labels"):
        RequestMessage.from_json_bytes(raw)


def test_upload_roundtrip_is_bitwise():
    upload = GradientUpload.from_packet(_stripped_packet())
    again = GradientUpload.from_json_bytes(upload.to_json_bytes())
    a, b = upload.to_packet(), again.to_packet()
    for idx in a.entity_grads.ids():
        assert np.array_equal(a.entity_grads.entries[idx], b.entity_grads.entries[idx])
    for (wa, ba), (wb, bb) in zip(a.model_grads, b.model_grads):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert a.weight == b.weight and a.loss == b.loss and a.client_id == b.client_id


def _special_rows(rng, n, d):
    """Random float64 (n, d) rows, about a third of them -0.0, subnormal, inf or NaN."""
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan,
                         np.array(0x7FF0_0000_0000_0123, np.uint64).view(np.float64),
                         1.7976931348623157e308])
    rows = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
    mask = rng.random((n, d)) < 0.3
    rows[mask] = rng.choice(specials, size=int(mask.sum()))
    return rows


def test_upload_roundtrip_random_is_bitwise_and_owned():
    rng = np.random.default_rng(5)
    for case in range(40):
        d = int(rng.integers(0, 5))
        parts = []
        for _ in range(2):  # case % 4: 0 -> (0, 0) parts, 1 -> (0, d) parts, else rows
            n = 0 if case % 4 < 2 else int(rng.integers(1, 7))
            ids = np.sort(rng.choice(1000, size=n, replace=False)).astype(np.int64)
            parts.append(SparseGrad(ids, _special_rows(rng, n, d)) if case % 4 else SparseGrad())
        model = [(_special_rows(rng, d, d), _special_rows(rng, 1, d)[0])
                 for _ in range(int(rng.integers(0, 3)))]
        upload = GradientUpload(client_id=case, weight=int(rng.integers(1, 50)),
                                loss=float(rng.random()), entities=parts[0],
                                relations=parts[1], model=model)
        raw = upload.to_json_bytes()
        again = GradientUpload.from_json_bytes(raw)
        wire = np.frombuffer(raw, dtype=np.uint8)
        sent = [upload.entities.rows(), upload.relations.rows(),
                *[a for layer in model for a in layer]]
        got = [again.entities.rows(), again.relations.rows(),
               *[a for layer in again.model for a in layer]]
        assert len(got) == len(sent)
        for a, b in zip(sent, got):
            assert b.dtype == np.float64 and b.dtype.isnative and b.shape == a.shape
            assert b.tobytes() == a.tobytes()
            assert b.flags.writeable and not np.shares_memory(b, wire)
        for a, b in ((upload.entities, again.entities), (upload.relations, again.relations)):
            assert b.ids().dtype == np.int64 and b.ids().tobytes() == a.ids().tobytes()
        assert (again.client_id, again.weight, again.loss) == \
            (upload.client_id, upload.weight, upload.loss)


def test_upload_golden_bytes():
    packet = _stripped_packet()
    assert GradientUpload.from_packet(packet).to_json_bytes() == GOLDEN_UPLOAD
    again = GradientUpload.from_json_bytes(GOLDEN_UPLOAD)
    for sent, got in ((packet.entity_grads, again.entities),
                      (packet.relation_grads, again.relations)):
        assert got.ids().tobytes() == sent.ids().tobytes()
        assert got.rows().tobytes() == sent.rows().tobytes()
    for (wa, ba), (wb, bb) in zip(packet.model_grads, again.model, strict=True):
        assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
    assert (again.client_id, again.weight, again.loss) == (12, 3, 0.6931)


def test_upload_holds_arrays_until_serialized():
    packet = _stripped_packet()
    upload = GradientUpload.from_packet(packet)
    assert upload.entities.ids().tolist() == [1, 4] and upload.relations.ids().tolist() == [0]
    rows = upload.entities.rows()
    assert rows.dtype == np.float64 and rows.shape == (2, 2)
    assert np.array_equal(rows[1], packet.entity_grads.entries[4])
    again = upload.to_packet()
    assert again.entity_grads.ids().tolist() == [1, 4]
    assert again.model_grads[0][0] is packet.model_grads[0][0]


def test_upload_wire_has_no_counts():
    payload = _valid_upload()
    assert payload["version"] == WIRE_VERSION == 3
    assert set(payload["entities"]) == set(payload["relations"]) == {"ids", "vectors"}


def test_messages_reject_other_wire_version():
    for version in (1, 2):
        payload = _valid_upload()
        payload["version"] = version
        with pytest.raises(WireFormatError, match="version"):
            GradientUpload.from_json_bytes(json.dumps(payload).encode())
        request = {"version": version, "type": "request", "client_id": 1, "items": [1]}
        with pytest.raises(WireFormatError, match="version"):
            RequestMessage.from_json_bytes(json.dumps(request).encode())


_ROWS = [0.3, 0.7000000000000001, 0.125, -0.5]  # _stripped_packet's entity rows
_W = [0.1, 0.0, 0.0, 0.1]  # and its layer's w


@pytest.mark.parametrize("path, value, match", [
    (("entities", "ids"), [1, 4, 7], "3 ids do not match"),
    (("entities", "ids"), [4, 4], "strictly increasing"),
    (("entities", "ids"), [4, 1], "strictly increasing"),
    (("entities", "ids"), [-1, 4], "strictly increasing"),
    (("entities", "vectors"), _packed(_ROWS[:3], [2, 2]), "24 bytes does not fill"),
    (("entities", "vectors"), _packed(_ROWS, [4]), r"vectors shape \[4\] is not 2"),
    (("weight",), 0, "below 1"),
    (("model", 0, "w"), _packed(_W[:3], [2, 2]), "w f64 payload of 24 bytes does not fill"),
    (("model", 0, "w", "f64"), ["x", 0.0, 0.0, 0.1], "w f64 payload is a list"),
    (("model", 0, "b"), _packed([0.0], [2]), "b f64 payload of 8 bytes does not fill"),
    (("model", 0, "w"), _packed(_W, [4]), r"w shape \[4\] is not 2"),
    (("model", 0, "b"), _packed([0.0, 1.0], [2, 1]), r"b shape \[2, 1\] is not 1"),
    (("model", 0, "b"), _packed([0.0, 1.0, 2.0], [3]), "does not match b of shape"),
    (("model", 0), {"w": _packed(_W, [2, 2])}, r"missing=\['b'\]"),
    (("model", 0), [[1.0, 0.0], [0.0, 1.0]], "layer is a list, not an object"),
    (("entities", "vectors"), [[0.3, 0.7], [0.125, -0.5]], "vectors is a list, not an object"),
    (("relations", "vectors", "f64"), "l9RGRvUO*ZzwAAAAAAAAAQA==", "not base64"),
    (("entities", "vectors", "f64"), "AAAAAAAAAAAAAAAA", "12 bytes is not a multiple of 8"),
    (("relations", "vectors"), _packed([1e-17, 2.0], [1, 3]), "16 bytes does not fill"),
    (("entities", "vectors", "shape"), [-2, -2], r"shape \[-2, -2\] is not 2"),
    (("relations", "vectors", "shape"), [1.0, 2], r"shape \[1.0, 2\] is not 2"),
    (("relations", "vectors", "shape"), [True, 2], r"shape \[True, 2\] is not 2"),
    (("model", 0, "b"), _packed([0.0], []), r"b shape \[\] is not 1"),
    (("model", 0, "w", "dtype"), "<f8", r"extra=\['dtype'\]"),
], ids=["truncation", "duplicate-ids", "unsorted-ids", "negative-id",
        "ragged-vectors", "flat-vectors", "zero-weight", "ragged-w", "non-numeric-w",
        "ragged-b", "flat-w", "2d-b", "bias-length", "missing-b",
        "layer-not-object", "legacy-list-vectors", "bad-base64",
        "length-not-multiple-of-8", "shape-bytes-mismatch", "negative-shape",
        "float-shape", "bool-shape", "wrong-rank-b", "extra-array-key"])
def test_upload_decode_rejects_malformed(path, value, match):
    """Each case breaks one thing in an otherwise valid payload and must fail for it."""
    payload = _valid_upload()
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(WireFormatError, match=match):
        GradientUpload.from_json_bytes(json.dumps(payload).encode())


def _dumps(payload) -> bytes:
    """json.dumps, which writes nan and inf as NaN and Infinity; the string
    "1e999" goes in unquoted, a float literal beyond float64."""
    return json.dumps(payload).replace('"1e999"', "1e999").encode()


@pytest.mark.parametrize("part, key, value, match", [
    (None, "weight", 2.7, None), (None, "weight", True, None), (None, "client_id", 4.9, None),
    (None, "loss", "x", None), (None, "loss", True, None), (None, "model", 5, None),
    (None, "version", float(WIRE_VERSION), None), ("entities", "ids", [1.0, 4], None),
    (None, "type", "request", None), (None, "loss", float("nan"), "NaN is not a JSON number"),
    (None, "loss", float("inf"), "Infinity is not a JSON number"),
    (None, "loss", "1e999", "loss is not a finite float64"),
    (None, "loss", 10 ** 400, "loss is not a finite float64"),
], ids=["float-weight", "bool-weight", "float-client-id", "string-loss",
        "bool-loss", "model-not-list", "float-version", "float-ids", "request-type",
        "nan-loss", "inf-loss", "overflow-float-loss", "huge-int-loss"])
def test_upload_decode_rejects_non_strict_scalars(part, key, value, match):
    payload = _valid_upload()
    (payload[part] if part else payload)[key] = value
    with pytest.raises(WireFormatError, match=match or key):
        GradientUpload.from_json_bytes(_dumps(payload))


@pytest.mark.parametrize("key, value, match", [
    ("client_id", 4.9, None), ("client_id", True, None), ("items", [9, 1.9], None),
    ("items", [True], None), ("items", 5, None), ("version", float(WIRE_VERSION), None),
    ("type", "gradient_upload", None), ("items", [9, float("nan")], "NaN is not a JSON number"),
], ids=["float-client-id", "bool-client-id", "float-item", "bool-item",
        "items-not-list", "float-version", "upload-type", "nan-item"])
def test_request_decode_rejects_non_strict_scalars(key, value, match):
    payload = json.loads(RequestMessage(client_id=5, items=[9, 2]).to_json_bytes())
    payload[key] = value
    with pytest.raises(WireFormatError, match=match or key):
        RequestMessage.from_json_bytes(_dumps(payload))


def test_encoders_refuse_non_finite_numbers():
    upload = GradientUpload.from_packet(_stripped_packet())
    upload.loss = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        upload.to_json_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        RequestMessage(client_id=5, items=[9, float("inf")]).to_json_bytes()


def test_upload_refuses_unstripped_packet():
    packet = _stripped_packet()
    packet.user_grad = np.array([1.0, 2.0])
    with pytest.raises(WireFormatError):
        GradientUpload.from_packet(packet)


def test_upload_schema_has_no_user_or_label_fields():
    raw = GradientUpload.from_packet(_stripped_packet()).to_json_bytes()
    for forbidden in (b"user", b"label", b"interaction", b"embedding"):
        assert forbidden not in raw


def test_encrypted_packet_flows_to_wire():
    packet = _stripped_packet()
    packet.user_grad = np.array([0.5, 0.5])
    cfg = DpConfig(delta=1.0, lam=0.0, flip_rate=0.0, pseudo_count=0)
    protected = ldp_encrypt(packet, cfg, derive_rng(0, 0))
    upload = GradientUpload.from_packet(protected)
    assert upload.client_id == 12
