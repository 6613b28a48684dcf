import importlib.util
import pathlib
import shutil
import sys

import numpy as np

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # identity.py imports its tree helpers from ab.py
_spec = importlib.util.spec_from_file_location("identity", TOOLS / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def write_run(root, entity):
    (root / "run").mkdir(parents=True)
    (root / "run" / "metrics.jsonl").write_text('{"round": 1}\n')
    (root / "eval.json").write_text('{"auc": 0.5}\n')
    np.savez(root / "run" / "checkpoint.npz", entity_emb=entity, depth=np.array(1))


def test_identical_trees_are_equal_file_by_file_and_array_by_array(tmp_path):
    entity = np.arange(12.0).reshape(3, 4)
    write_run(tmp_path / "base", entity)
    write_run(tmp_path / "head", entity.copy())
    assert identity.compare_trees(str(tmp_path / "base"), str(tmp_path / "head")) == [
        ("eval.json", "equal"), ("run/checkpoint.npz", "equal"),
        ("run/checkpoint.npz:depth.npy", "equal"),
        ("run/checkpoint.npz:entity_emb.npy", "equal"), ("run/metrics.jsonl", "equal")]


def test_one_flipped_byte_names_its_file_and_array(tmp_path):
    entity = np.arange(12.0).reshape(3, 4)
    flipped = entity.copy()
    flipped.reshape(-1).view(np.uint8)[37] ^= 1  # one bit of one float64
    write_run(tmp_path / "base", entity)
    write_run(tmp_path / "head", flipped)
    rows = dict(identity.compare_trees(str(tmp_path / "base"), str(tmp_path / "head")))
    assert rows == {"eval.json": "equal", "run/checkpoint.npz": "DIFFERS",
                    "run/checkpoint.npz:depth.npy": "equal",
                    "run/checkpoint.npz:entity_emb.npy": "DIFFERS",
                    "run/metrics.jsonl": "equal"}


def test_a_missing_file_is_a_difference(tmp_path):
    entity = np.zeros(3)
    write_run(tmp_path / "base", entity)
    write_run(tmp_path / "head", entity)
    (tmp_path / "head" / "eval.json").unlink()
    shutil.copy(tmp_path / "base" / "eval.json", tmp_path / "base" / "extra.json")
    rows = dict(identity.compare_trees(str(tmp_path / "base"), str(tmp_path / "head")))
    assert rows["eval.json"] == "missing in head" and rows["extra.json"] == "missing in head"
    assert sum(verdict != "equal" for verdict in rows.values()) == 2
    swapped = dict(identity.compare_trees(str(tmp_path / "head"), str(tmp_path / "base")))
    assert swapped["eval.json"] == "missing in base"
