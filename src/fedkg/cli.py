"""Command-line entry point: train, evaluate, synth, gradcheck."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import data as data_mod
from .client import ClientState
from .config import (ConfigError, ExperimentConfig, _parse_value, check, config_echo,
                     parse_config_file)
from .gradcheck import run_gradient_check
from .kg import save_kg_file
from .metrics import evaluate_report
from .params import ParameterState, init_params, load_checkpoint, save_checkpoint
from .privacy import DpConfig, NegativePoolError, pseudo_count
from .rng import ROLE_DATA, ROLE_PARAMS, ROLE_USERS, derive_rng
from .server import RoundConfig, train


def build_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    """Check every key of `cfg` (ConfigError), then build its dataset."""
    cfg.validate()
    rng = derive_rng(cfg.seed, ROLE_DATA)
    if cfg.synthetic:
        return data_mod.generate_synthetic(cfg, rng)
    return data_mod.load_dataset(cfg.ratings_file, cfg.kg_file,
                                 cfg.rating_threshold, rng)


def setup_state(cfg: ExperimentConfig, dataset: data_mod.Dataset):
    """Initialize global parameters, the user-embedding fleet, and clients."""
    params = init_params(dataset.kg.num_entities, dataset.kg.num_relations, cfg.embed_dim,
                         derive_rng(cfg.seed, ROLE_PARAMS),
                         depth=cfg.depth, mode=cfg.mode)
    bound = 1.0 / np.sqrt(cfg.embed_dim)
    user_emb = derive_rng(cfg.seed, ROLE_USERS).uniform(
        -bound, bound, size=(dataset.num_users, cfg.embed_dim))
    clients = [ClientState(user_id=u, user_embedding=user_emb[u],
                           interactions=set(dataset.train[u]))
               for u in range(dataset.num_users)]
    return params, user_emb, clients


def round_config(cfg: ExperimentConfig, dataset: data_mod.Dataset) -> RoundConfig:
    dp = DpConfig(delta=cfg.clip_threshold, lam=cfg.noise_scale,
                  flip_rate=cfg.flip_rate, pseudo_count=cfg.pseudo_items)
    return RoundConfig(sample_size=cfg.sample_size, depth=cfg.depth, eta=cfg.eta,
                       clients_per_round=min(cfg.clients_per_round, dataset.num_users),
                       dp=dp, num_items=dataset.num_items, epochs=cfg.epochs,
                       seed=cfg.seed, workers=cfg.workers, transport=cfg.transport)


def _check_negative_pools(cfg: ExperimentConfig, dataset: data_mod.Dataset) -> None:
    """ConfigError, with a round's NegativePoolError text, unless every user's round
    pool (`unobserved_items` of its train positives) holds its pseudo count."""
    for user, items in enumerate(dataset.train):
        try:
            pseudo_count(set(items), cfg.pseudo_items,
                         len(data_mod.unobserved_items(items, dataset.num_items)))
        except NegativePoolError as exc:
            raise ConfigError(f"pseudo_items: user {user} {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> int:
    """Full pipeline: load, init, train, evaluate, persist artifacts."""
    dataset = build_dataset(cfg)  # checks cfg before any output exists
    _check_negative_pools(cfg, dataset)
    params, user_emb, clients = setup_state(cfg, dataset)
    rcfg = round_config(cfg, dataset)

    os.makedirs(cfg.out_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.out_dir, "metrics.jsonl")
    checkpoint_path = os.path.join(cfg.out_dir, "checkpoint.npz")

    def save_state():
        save_checkpoint(checkpoint_path, params, user_emb, extra=cfg.to_dict())

    with open(metrics_path, "w") as fh:
        def sink(record: dict) -> None:
            fh.write(json.dumps(record) + "\n")
            if record["type"] == "round" and cfg.checkpoint_every and \
                    (record["round"] + 1) % cfg.checkpoint_every == 0:
                save_state()

        train(params, dataset.kg, clients, user_emb, dataset, rcfg,
              max_rounds=cfg.max_rounds, eval_every=cfg.eval_every,
              patience=cfg.patience, record_sink=sink)

        final = evaluate_report(dataset, params, user_emb, cfg.sample_size,
                                cfg.depth, cfg.seed, cfg.max_rounds,
                                ks=list(cfg.recall_ks), split="test")
        sink({"type": "final", "split": "test", **final.to_dict()})

    with open(os.path.join(cfg.out_dir, "final_metrics.json"), "w") as fh:
        json.dump(final.to_dict(), fh, indent=2)
        fh.write("\n")
    save_state()
    if dataset.user_id_map is not None:
        data_mod.save_id_map(os.path.join(cfg.out_dir, "user_map.txt"),
                             dataset.user_id_map)
    auc_str = "n/a" if final.auc is None else f"{final.auc:.4f}"
    print(f"test auc={auc_str} f1={final.f1:.4f} -> {cfg.out_dir}")
    return 0


def _check_tables(params: ParameterState, user_emb: np.ndarray,
                 dataset: data_mod.Dataset) -> None:
    """Raise ValueError unless the tables have one row per id of the dataset
    and one embedding width."""
    tables = {"entity_emb": (params.entity_emb, dataset.kg.num_entities),
              "relation_emb": (params.relation_emb, dataset.kg.num_relations),
              "user_emb": (user_emb, dataset.num_users)}
    for name, (table, rows) in tables.items():
        if table.ndim != 2 or len(table) != rows:
            raise ValueError(f"checkpoint {name} has shape {table.shape}, but the dataset "
                             f"its config rebuilds needs {rows} rows")
    widths = {name: table.shape[1] for name, (table, _) in tables.items()}
    if len(set(widths.values())) > 1:
        raise ValueError(f"checkpoint embedding widths differ: {widths}")


def run_evaluate(checkpoint: str, split: str, ks: list[int], out: str | None) -> int:
    params, user_emb, extra = load_checkpoint(checkpoint)
    if extra is None or user_emb is None:
        raise ValueError("checkpoint lacks config/user embeddings; cannot evaluate")
    cfg = ExperimentConfig.from_dict(extra)
    dataset = build_dataset(cfg)
    _check_tables(params, user_emb, dataset)
    report = evaluate_report(dataset, params, user_emb, cfg.sample_size, cfg.depth,
                             cfg.seed, cfg.max_rounds, ks=ks, split=split)
    payload = {"split": split, **report.to_dict()}
    text = json.dumps(payload, indent=2)
    print(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return 0


def run_synth(cfg: ExperimentConfig, out_dir: str) -> int:
    echo = config_echo(cfg)  # its ConfigError comes before any file is written
    dataset = build_dataset(cfg)
    os.makedirs(out_dir, exist_ok=True)
    data_mod.save_ratings_file(os.path.join(out_dir, "ratings.txt"), dataset)
    save_kg_file(os.path.join(out_dir, "kg.txt"), dataset.triples)
    with open(os.path.join(out_dir, "synth_config.txt"), "w") as fh:
        fh.write(echo)
    print(f"wrote ratings.txt, kg.txt, synth_config.txt -> {out_dir}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, default=None, metavar="V")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = _parse_value(f.name, str(raw))
    return ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedkg",
        description="Federated knowledge-graph recommendation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a federated training experiment")
    _add_config_flags(p_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p_eval.add_argument("--recall-ks", default="5,10,20,50")
    p_eval.add_argument("--out", default=None)

    p_synth = sub.add_parser("synth", help="emit a synthetic dataset to files")
    _add_config_flags(p_synth)
    p_synth.add_argument("--dataset-dir", default="synthdata")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--instances", type=int, default=100)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--seed", type=int, default=2024)

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return run_experiment(_config_from_args(args))
        if args.command == "evaluate":
            try:  # the same coercion and bound as the recall_ks key
                ks = _parse_value("recall_ks", args.recall_ks)
            except ConfigError as exc:
                raise ConfigError(f"--recall-ks: {exc}") from exc
            check("recall_ks", ks, name="--recall-ks")
            return run_evaluate(args.checkpoint, args.split, list(ks), args.out)
        if args.command == "synth":
            return run_synth(_config_from_args(args), args.dataset_dir)
        if args.command == "gradcheck":
            if args.instances < 1:
                raise ConfigError("--instances must be >= 1")
            check("seed", args.seed, name="--seed")
            for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
                if not (np.isfinite(value) and value > 0):
                    raise ConfigError(f"{flag} must be a finite number > 0, got {value}")
            result = run_gradient_check(args.instances, args.step,
                                        args.tolerance, args.seed)
            print(f"gradcheck: {result.instances} instances, "
                  f"max relative error {result.max_rel_err:.3e}, "
                  f"{len(result.failures)} over tolerance {args.tolerance:g}")
            return 0 if not result.failures else 1
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
