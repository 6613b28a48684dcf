import hashlib
import json
import math
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fedkg import cli
from fedkg.cli import main, run_experiment
from fedkg.client import ClientState, local_train
from fedkg.config import BOUNDS, ConfigError, ExperimentConfig, config_echo, parse_config_file
from fedkg.data import unobserved_items
from fedkg.gradcheck import random_instance
from fedkg.model import ModelParams
from fedkg.params import init_params, save_checkpoint
from fedkg.privacy import DpConfig, NegativePoolError, generate_request_items
from fedkg.rng import derive_rng
from fedkg.server import RoundConfig, train


def _tiny_train_args(out_dir, **extra):
    args = ["train", "--users", "25", "--items", "20", "--attributes", "4",
            "--interactions-per-user", "6", "--clients-per-round", "8",
            "--max-rounds", "6", "--eval-every", "3", "--out-dir", str(out_dir)]
    for key, value in extra.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


def test_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(_tiny_train_args(out, checkpoint_every=2)) == 0
    assert (out / "metrics.jsonl").exists()
    assert (out / "final_metrics.json").exists()
    assert (out / "checkpoint.npz").exists()
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    kinds = [r["type"] for r in records]
    assert kinds.count("round") == 6
    assert kinds.count("eval") == 2
    assert kinds[-1] == "final"
    assert all("duration" not in r for r in records)


def test_train_same_seed_bitwise_identical_metrics(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(_tiny_train_args(out_a, seed=7)) == 0
    assert main(_tiny_train_args(out_b, seed=7)) == 0
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()


def test_train_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# tiny experiment\n"
        "users = 20\nitems = 16\nattributes = 4\ninteractions_per_user = 5\n"
        "clients_per_round = 5\nmax_rounds = 2\neval_every = 0\n"
        "pseudo_items = parity\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_file), "--out-dir", str(out),
                 "--max-rounds", "1"])
    assert code == 0
    records = (out / "metrics.jsonl").read_text().splitlines()
    assert sum(1 for line in records if json.loads(line)["type"] == "round") == 1


def test_train_missing_dataset_file_fails_without_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--synthetic", "false",
                 "--ratings-file", str(tmp_path / "absent.txt"),
                 "--kg-file", str(tmp_path / "absent_kg.txt"),
                 "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["ratings_file", "kg_file"])
def test_synthetic_run_rejects_data_files(tmp_path, capsys, key):
    # the generator would ignore the file, so naming one is a usage error
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: "data/file.txt"}).validate()
    out = tmp_path / "run"
    assert main(_tiny_train_args(out, **{key: tmp_path / "absent.txt"})) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["eta", "noise_scale"])
def test_train_rejects_infinite_step_or_noise(tmp_path, capsys, key):
    # an infinite step or noise scale makes the first aggregate non-finite
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: float("inf")}).validate()
    out = tmp_path / "run"
    assert main(_tiny_train_args(out, **{key: "inf"})) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not out.exists()
    ExperimentConfig(clip_threshold=float("inf")).validate()  # inf: no clipping


def test_train_invalid_config_rejected(tmp_path):
    code = main(_tiny_train_args(tmp_path / "run", flip_rate="0.9"))
    assert code == 2


def test_train_counts_checkpoints(tmp_path, monkeypatch):
    saved = []
    real_save = cli.save_checkpoint

    def counting_save(*args, **kwargs):
        saved.append(1)
        real_save(*args, **kwargs)

    monkeypatch.setattr(cli, "save_checkpoint", counting_save)
    assert main(_tiny_train_args(tmp_path / "every2", checkpoint_every=2)) == 0
    assert len(saved) == 3 + 1  # after rounds 2, 4 and 6, then the final save
    saved.clear()
    assert main(_tiny_train_args(tmp_path / "end")) == 0
    assert len(saved) == 1


def test_negative_schedules_rejected(tmp_path, capsys):
    for key, value in (("eval_every", -3), ("checkpoint_every", -1),
                       ("patience", 0), ("patience", -2), ("seed", -1)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: value}).validate()
        out = tmp_path / f"{key}{value}"
        assert main(_tiny_train_args(out, **{key: value})) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} ")
        assert not out.exists()


def test_train_rejects_recall_k_below_one(tmp_path):
    for ks in ("0", "5,-1"):
        out = tmp_path / f"run{ks}"
        assert main(_tiny_train_args(out, recall_ks=ks)) == 2
        assert not out.exists()
    with pytest.raises(ConfigError, match="recall_ks"):
        ExperimentConfig(recall_ks=(10, 0)).validate()


def test_empty_recall_ks_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="recall_ks"):
        ExperimentConfig(recall_ks=()).validate()
    out = tmp_path / "run"
    assert main(_tiny_train_args(out, recall_ks="")) == 2
    assert not out.exists()
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("recall_ks =\n")
    assert main(["train", "--config", str(cfg_file), "--out-dir", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()
    args = _tiny_train_args(out)
    args[args.index("--max-rounds") + 1] = "0"
    assert main(args) == 0
    for ks in ("", " , ", "5;6", "5,x"):
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                     "--recall-ks", ks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recall-ks" in err


_ROUND = dict(sample_size=1, depth=0, eta=1.0, clients_per_round=1, dp=DpConfig(), num_items=1)
_DP_FIELDS = {"clip_threshold": "delta", "noise_scale": "lam", "flip_rate": "flip_rate",
              "pseudo_items": "pseudo_count"}


def _local_train(epochs):
    graph, model = random_instance(0)
    local_train(ClientState(0, graph.user.copy(), set()), graph, model, 0.1, epochs)


_ENTRY_POINTS = {
    "RoundConfig": lambda key, value: RoundConfig(**{**_ROUND, key: value}),
    "DpConfig": lambda key, value: DpConfig(**{_DP_FIELDS[key]: value}),
    "ModelParams": lambda key, value: ModelParams(value, [], []),
    "local_train": lambda key, value: _local_train(value),
    # max_rounds = 0: train checks its schedule and runs no round
    "train": lambda key, value: train(None, None, [], None, None, None, max_rounds=0,
                                      **{key: value}),
}
_TINY = math.nextafter(0.0, 1.0)


@pytest.mark.parametrize("entry, key, edge, outside", [
    ("RoundConfig", "sample_size", 1, 0), ("RoundConfig", "depth", 0, -1),
    ("RoundConfig", "eta", _TINY, 0.0), ("RoundConfig", "eta", sys.float_info.max, math.inf),
    ("RoundConfig", "clients_per_round", 1, 0), ("RoundConfig", "epochs", 1, 0),
    ("RoundConfig", "seed", 0, -1), ("RoundConfig", "workers", 1, 0),
    ("RoundConfig", "transport", "json", "JSON"),
    ("DpConfig", "clip_threshold", _TINY, 0.0), ("DpConfig", "noise_scale", 0.0, -_TINY),
    ("DpConfig", "noise_scale", sys.float_info.max, math.inf),
    ("DpConfig", "flip_rate", 0.0, -_TINY), ("DpConfig", "flip_rate", math.nextafter(0.5, 0), 0.5),
    ("DpConfig", "pseudo_items", 0, -1), ("ModelParams", "mode", "replace", "Replace"),
    ("local_train", "epochs", 1, 0), ("train", "eval_every", 0, -1), ("train", "patience", 1, 0)])
def test_entry_points_agree_with_validate_on_each_bound(entry, key, edge, outside):
    # each entry point that shares a key with ExperimentConfig draws the line where
    # validate() does: the edge value passes both, the next value out fails both
    ExperimentConfig(**{key: edge}).validate()
    _ENTRY_POINTS[entry](key, edge)
    message = f"{key} must be {re.escape(BOUNDS[key][1])}, got"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{key: outside}).validate()
    with pytest.raises(ConfigError, match=message):
        _ENTRY_POINTS[entry](key, outside)


@pytest.mark.parametrize("key, value", [
    ("users", 0), ("items", 0), ("attributes", 0), ("relations", 0),
    ("interactions_per_user", 0), ("prefs_per_user", 0), ("noise", -0.1), ("noise", 1.5)])
def test_synthetic_sizes_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value}).validate()


@pytest.mark.parametrize("key, value", [("sample_size", 0), ("depth", -1), ("depth", "1"),
                                        ("users", None), ("recall_ks", 5), ("seed", 1.5)])
def test_evaluate_checks_the_recorded_config(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    args = _tiny_train_args(out)
    args[args.index("--max-rounds") + 1] = "0"
    assert main(args) == 0
    with np.load(out / "checkpoint.npz") as data:
        arrays = dict(data)
    extra = {**json.loads(str(arrays["extra_json"])), key: value}
    bad = tmp_path / "bad.npz"
    np.savez(bad, **{**arrays, "extra_json": np.array(json.dumps(extra))})
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")


def test_evaluate_bare_checkpoint_is_a_usage_error(tmp_path, capsys):
    bare = tmp_path / "bare.npz"
    save_checkpoint(str(bare), init_params(10, 2, 4, np.random.default_rng(0)))
    assert main(["evaluate", "--checkpoint", str(bare)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "user embeddings" in err


@pytest.mark.parametrize("command", ["evaluate", "train", "synth"])
def test_os_errors_are_usage_errors(tmp_path, capsys, command):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    args = {"evaluate": ["evaluate", "--checkpoint", str(tmp_path)],
            "train": ["train", "--config", str(tmp_path)],
            "synth": ["synth", "--users", "10", "--items", "8", "--attributes", "2",
                      "--dataset-dir", str(a_file)]}[command]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error:")


# sha256 of the criterion-9 config's metrics.jsonl at depth=2, epochs=2. A
# change that moves the stream must update this digest and say why. Last
# moved when evaluation began scoring every user of a pass from one sampled
# field: at depth 2 the scores read that field's draws, not per-user ones.
PINNED_METRICS_SHA256 = "8c3379c6677d8867f7fed97ff756aacaa37d6ab45dc3b1c9c3a7897af76fdb60"


def test_metrics_stream_pinned_across_transports(tmp_path):
    streams = {}
    for transport in ("memory", "json"):
        cfg = ExperimentConfig(users=60, items=40, attributes=6,
                               interactions_per_user=10, clients_per_round=12,
                               max_rounds=12, eval_every=4, seed=31337, depth=2,
                               epochs=2, transport=transport,
                               out_dir=str(tmp_path / transport))
        assert run_experiment(cfg) == 0
        streams[transport] = (tmp_path / transport / "metrics.jsonl").read_bytes()
    assert streams["memory"] == streams["json"]
    assert hashlib.sha256(streams["memory"]).hexdigest() == PINNED_METRICS_SHA256


# sha256 of the README config's metrics.jsonl at its default depth, H = 1:
#   fedkg train --seed 7 --max-rounds 12 --eval-every 4
# A change that moves the stream must update this digest and say why.
PINNED_README_H1_SHA256 = "a94ecbcc40298e39b7ac5953e4f632d09bb267718ec8231b238f7b0a537b3813"


def test_readme_config_depth1_stream_pinned(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--seed", "7", "--max-rounds", "12", "--eval-every", "4",
                 "--out-dir", str(out)]) == 0
    digest = hashlib.sha256((out / "metrics.jsonl").read_bytes()).hexdigest()
    assert digest == PINNED_README_H1_SHA256


def test_synth_emits_three_files(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--users", "30", "--items", "25", "--attributes", "5",
                 "--dataset-dir", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["kg.txt", "ratings.txt", "synth_config.txt"]


# sha256 of `fedkg synth --seed 7` at the default config. A change that
# moves these bytes must update the digests and say why.
PINNED_SYNTH_SHA256 = {
    "kg.txt": "3351cc0336522b814186c3d138c89840043179fe100d814aab56b8af0f3d6649",
    "ratings.txt": "6becbe2230c63aa1c19706de186e4d41707d59e9034623da80832a00aabebcc8",
}


def test_synth_outputs_pinned(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--dataset-dir", str(out)]) == 0
    for name, digest in PINNED_SYNTH_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_config_echo_parses_back_to_the_same_config(tmp_path):
    file_cfg = ExperimentConfig(synthetic=False, ratings_file="data/ratings.txt",
                                kg_file="data/kg.txt", pseudo_items=12, recall_ks=(3, 7),
                                noise_scale=1e-4, eta=0.1, transport="json")
    for cfg in (ExperimentConfig(), file_cfg):
        path = tmp_path / "echo.cfg"
        path.write_text(config_echo(cfg))
        again = ExperimentConfig(**parse_config_file(str(path)))
        assert again == cfg


@pytest.mark.parametrize("key, value", [("out_dir", "x\nseed = 3"), ("out_dir", "runs/#1"),
                                        ("out_dir", "runs/exp\r"), ("kg_file", "kg.txt "),
                                        ("ratings_file", " ratings.txt")])
def test_config_echo_rejects_values_that_would_not_parse_back(tmp_path, key, value):
    cfg = ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key}: "):
        config_echo(cfg)
    if key == "out_dir" and value == value.strip():  # a flag's value is stripped
        # synth renders the echo before it writes anything
        out = tmp_path / "data"
        assert main(["synth", "--out-dir", value, "--dataset-dir", str(out)]) == 2
        assert not out.exists()


def test_readme_config_template_covers_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```", 2)[1]
    # commented-out `# key = value` lines are template keys too
    text = re.sub(r"^# (?=\w+ =)", "", block, flags=re.MULTILINE)
    path = tmp_path / "template.cfg"
    path.write_text(text)
    assert sorted(parse_config_file(str(path))) == sorted(f.name for f in fields(ExperimentConfig))
    # each bounded key's comment, continuation lines included, quotes its BOUNDS text
    comments, key = {}, None
    for line in text.splitlines():
        if match := re.match(r"(\w+) = [^#]*#?(.*)", line):
            key, comments[match[1]] = match[1], match[2]
        elif key and re.match(r"\s+#", line):
            comments[key] += " " + line.split("#", 1)[1].strip()
        else:
            key = None
    for key, (_, bound) in BOUNDS.items():
        assert bound in comments[key], (key, bound)


def test_synth_files_are_loadable_for_training(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--users", "25", "--items", "20", "--attributes", "4",
                 "--dataset-dir", str(data_dir)]) == 0
    out = tmp_path / "run"
    code = main(["train", "--synthetic", "false",
                 "--ratings-file", str(data_dir / "ratings.txt"),
                 "--kg-file", str(data_dir / "kg.txt"),
                 "--clients-per-round", "8", "--max-rounds", "2",
                 "--eval-every", "0", "--out-dir", str(out)])
    assert code == 0
    assert (out / "user_map.txt").exists()  # id-map sidecar for file datasets


def test_evaluate_fresh_checkpoint_near_chance(tmp_path):
    out = tmp_path / "run"
    # max_rounds 0: checkpoint holds untrained parameters
    args = _tiny_train_args(out, seed=3)
    args[args.index("--max-rounds") + 1] = "0"
    args[args.index("--users") + 1] = "150"
    args[args.index("--items") + 1] = "60"
    args[args.index("--interactions-per-user") + 1] = "10"  # 6/2/2 split
    assert main(args) == 0
    result = tmp_path / "eval.json"
    code = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                 "--split", "test", "--out", str(result)])
    assert code == 0
    payload = json.loads(result.read_text())
    assert 0.45 < payload["auc"] < 0.55


def test_evaluate_six_positives_per_user_scores_test_users(tmp_path):
    # six positives split 4/2/0 before every user with three got a test positive
    out = tmp_path / "run"
    args = _tiny_train_args(out)
    args[args.index("--max-rounds") + 1] = "0"
    assert main(args) == 0
    result = tmp_path / "eval.json"
    assert main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                 "--out", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["users_evaluated"] > 0 and payload["auc"] is not None


def test_evaluate_rejects_recall_k_below_one(tmp_path, capsys):
    out = tmp_path / "run"
    args = _tiny_train_args(out)
    args[args.index("--max-rounds") + 1] = "0"
    assert main(args) == 0
    for ks in ("-1", "0,5"):
        code = main(["evaluate", "--checkpoint", str(out / "checkpoint.npz"),
                     "--recall-ks", ks])
        assert code == 2
        assert "recall-ks" in capsys.readouterr().err


def test_evaluate_foreign_archive_is_a_usage_error(tmp_path, capsys):
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, weights=np.zeros(3))
    assert main(["evaluate", "--checkpoint", str(foreign)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "depth" in err and "entity_emb" in err
    flat = tmp_path / "flat.npy"
    np.save(flat, np.zeros(3))
    assert main(["evaluate", "--checkpoint", str(flat)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_checkpoint_tables_must_fit_the_dataset(tmp_path, capsys):
    out = tmp_path / "run"
    args = _tiny_train_args(out)
    args[args.index("--max-rounds") + 1] = "0"
    assert main(args) == 0
    with np.load(out / "checkpoint.npz") as data:
        arrays = dict(data)
    for name, cut in (("entity_emb", lambda t: t[:-4]), ("user_emb", lambda t: t[:5]),
                      ("relation_emb", lambda t: t[1:]), ("user_emb", lambda t: t[:, 1:])):
        bad = tmp_path / f"{name}.npz"
        np.savez(bad, **{**arrays, name: cut(arrays[name])})
        assert main(["evaluate", "--checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--instances", "24", "--seed", "2024"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_fails_on_impossible_tolerance():
    assert main(["gradcheck", "--instances", "4", "--tolerance", "1e-18"]) == 1


@pytest.mark.parametrize("flag, value", [("instances", "0"), ("instances", "-3"),
                                         ("step", "0"), ("step", "-1e-5"), ("step", "nan"),
                                         ("step", "inf"), ("tolerance", "0"),
                                         ("tolerance", "-1"), ("tolerance", "nan"),
                                         ("tolerance", "inf"), ("seed", "-1")])
def test_gradcheck_rejects_flags_outside_bounds(capsys, flag, value):
    assert main(["gradcheck", "--instances", "1", f"--{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--{flag}" in err


def test_gradcheck_nan_error_is_a_failure():
    from fedkg.gradcheck import run_gradient_check

    result = run_gradient_check(instances=2, step=float("nan"))
    assert result.failures == [0, 1] and np.isnan(result.max_rel_err)


# two users, each keeping 1 of its 3 positives in train: a round pool of 3 of the 4 items
_POOL_OF_3 = {"users": 2, "items": 4, "attributes": 2, "interactions_per_user": 3,
              "clients_per_round": 2, "eval_every": 1}


def _flags(settings):
    return [a for key, value in settings.items()
            for a in ("--" + key.replace("_", "-"), str(value))]


@pytest.mark.parametrize("extra", [{"pseudo_items": 10000},
                                   {"users": 2, "items": 2, "interactions_per_user": 5},
                                   {**_POOL_OF_3, "pseudo_items": 4}])
def test_train_short_negative_pool_fails_without_outputs(tmp_path, capsys, extra):
    out = tmp_path / "run"
    assert main(["train", "--max-rounds", "1", "--out-dir", str(out), *_flags(extra)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pseudo_items: user 0 ")
    assert not out.exists()
    # the round's own rule and text, on user 0's round pool
    dataset = cli.build_dataset(ExperimentConfig(**extra))
    interactions = set(dataset.train[0])
    with pytest.raises(NegativePoolError) as exc:
        generate_request_items(interactions, unobserved_items(interactions, dataset.num_items),
                               DpConfig(pseudo_count=extra.get("pseudo_items")), derive_rng(0, 0))
    assert err == f"error: pseudo_items: user 0 {exc.value}\n"


def test_train_pool_of_exactly_the_pseudo_count_runs(tmp_path):
    # pool == count passes the pre-check and both users' requests in the round
    dataset = cli.build_dataset(ExperimentConfig(**_POOL_OF_3))
    assert [len(items) for items in dataset.train] == [1, 1] and dataset.num_items == 4
    out = tmp_path / "run"
    assert main(["train", "--max-rounds", "1", "--out-dir", str(out),
                 *_flags({**_POOL_OF_3, "pseudo_items": 3})]) == 0
    assert (out / "final_metrics.json").exists()
