import importlib.util
import json
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "oracle", pathlib.Path(__file__).resolve().parents[1] / "tools" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def test_oracle_is_perfect_where_users_take_every_preferred_item(capsys):
    # noise 0 and more interactions than preferred items: a user's positives are
    # all its preferred items, so every test positive scores 1 and every other
    # candidate 0, and the test positives rank first among the items left
    args = ["--users", "80", "--items", "100", "--attributes", "10",
            "--interactions-per-user", "100", "--noise", "0", "--seed", "9",
            "--recall-ks", "1,40"]
    assert oracle.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["split"] == "test" and report["users_evaluated"] == 80
    assert report["auc"] == 1.0 and report["f1"] == 1.0
    assert report["recall_at_k"]["40"] == 1.0 and report["recall_at_k"]["1"] < 1.0
    with pytest.raises(SystemExit):
        oracle.main(["--synthetic", "false", "--ratings-file", "r", "--kg-file", "k"])
