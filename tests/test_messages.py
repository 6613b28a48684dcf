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
    payload = json.loads(GradientUpload.from_packet(_stripped_packet()).to_json_bytes())
    assert payload["version"] == WIRE_VERSION == 2
    assert set(payload["entities"]) == set(payload["relations"]) == {"ids", "vectors"}


def test_messages_reject_other_wire_version():
    payload = json.loads(GradientUpload.from_packet(_stripped_packet()).to_json_bytes())
    payload["version"] = 1
    with pytest.raises(WireFormatError, match="version"):
        GradientUpload.from_json_bytes(json.dumps(payload).encode())
    with pytest.raises(WireFormatError, match="version"):
        RequestMessage.from_json_bytes(b'{"version":1,"type":"request","client_id":1,"items":[1]}')


@pytest.mark.parametrize("part, key, value", [
    ("entities", "ids", [1, 4, 7]),
    ("entities", "ids", [4, 4]),
    ("entities", "ids", [4, 1]),
    ("entities", "ids", [-1, 4]),
    ("entities", "vectors", [[0.3, 0.7], [0.125]]),
    ("entities", "vectors", [0.3, 0.125]),
    (None, "weight", 0),
], ids=["truncation", "duplicate-ids", "unsorted-ids", "negative-id",
        "ragged-vectors", "flat-vectors", "zero-weight"])
def test_upload_decode_rejects_malformed(part, key, value):
    payload = json.loads(GradientUpload.from_packet(_stripped_packet()).to_json_bytes())
    (payload[part] if part else payload)[key] = value
    with pytest.raises(WireFormatError):
        GradientUpload.from_json_bytes(json.dumps(payload).encode())


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
