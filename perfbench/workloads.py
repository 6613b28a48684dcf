"""The three benchmark workloads and how each drives fedkg's public entry points.

Every workload is a closed loop: one process runs rounds back to back and
each round waits for all of its client legs. A unit is one whole run from
set-up to its last evaluation; its `driver` returns the record stream, one JSON
line per record, which must not depend on tracing.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from fedkg import cli, metrics, server
from fedkg.config import ExperimentConfig

JSON_WIRE = frozenset({"RequestMessage.to_json_bytes", "RequestMessage.from_json_bytes",
                       "GradientUpload.to_json_bytes", "GradientUpload.from_json_bytes"})
RECALL = frozenset({"metrics.recall_at_k", "metrics.recall_from_scores"})
VIA_CLI = frozenset({"metrics.evaluate_report"})  # run_experiment calls cli.evaluate_report
VIA_METRICS = frozenset({"cli.evaluate_report"})  # drive_train_eval calls fedkg.metrics


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    rounds: int
    min_units: int  # units every run completes, whatever --seconds says
    idle: frozenset  # wrapped functions this workload never calls
    driver: Callable[[ExperimentConfig, str], list[str]]
    why: str
    quality: dict = field(default_factory=dict)  # final-record floor checks

    def config(self, seed: int) -> ExperimentConfig:
        cfg = ExperimentConfig(seed=seed, max_rounds=self.rounds,
                               patience=self.rounds + 1, **self.overrides)
        cfg.validate()
        return cfg


def drive_experiment(cfg: ExperimentConfig, workdir: str) -> list[str]:
    """The `fedkg train` path: run_experiment writes metrics.jsonl, which is the stream."""
    cfg = replace(cfg, out_dir=os.path.join(workdir, "run"))
    with contextlib.redirect_stdout(sys.stderr):
        cli.run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "metrics.jsonl")) as fh:
        lines = fh.read().splitlines()
    with open(os.path.join(cfg.out_dir, "final_metrics.json")) as fh:
        final_file = json.load(fh)
    final = json.loads(lines[-1])
    if {k: v for k, v in final.items() if k not in ("type", "split")} != final_file:
        raise AssertionError("final_metrics.json disagrees with the final metrics.jsonl record")
    return lines


def drive_train_eval(cfg: ExperimentConfig, workdir: str, recall: bool) -> list[str]:
    """Set up, train through server.train, then evaluate on test through fedkg.metrics.

    With `recall` the final report adds Recall@K over every non-excluded item.
    """
    dataset = cli.build_dataset(cfg)
    params, user_emb, clients = cli.setup_state(cfg, dataset)
    rcfg = cli.round_config(cfg, dataset)
    lines: list[str] = []

    def sink(record: dict) -> None:
        lines.append(json.dumps(record))

    server.train(params, dataset.kg, clients, user_emb, dataset, rcfg,
                 max_rounds=cfg.max_rounds, eval_every=cfg.eval_every,
                 patience=cfg.patience, record_sink=sink)
    final = metrics.evaluate_report(dataset, params, user_emb, cfg.sample_size, cfg.depth,
                                    cfg.seed, cfg.max_rounds, split="test",
                                    ks=list(cfg.recall_ks) if recall else None)
    sink({"type": "final", "split": "test", **final.to_dict()})
    return lines


WORKLOADS = {w.name: w for w in [
    Workload(
        name="default", overrides={}, rounds=60, min_units=3, idle=JSON_WIRE | VIA_CLI,
        driver=drive_experiment,
        quality={"auc": 0.6, "recall@20": 0.2},
        why="README default config through run_experiment: 60 rounds, valid evals every 10, "
            "final test eval with Recall@K; splits time between client legs and evaluation"),
    Workload(
        name="scale-json",
        overrides=dict(users=2000, items=2000, attributes=100, clients_per_round=64,
                       depth=2, transport="json", workers=2, eval_every=0),
        rounds=40, min_units=1, idle=RECALL | VIA_METRICS,
        driver=partial(drive_train_eval, recall=False),
        why="2000x2000 catalogue, H=2, 64 clients, json wire, 2 worker threads: round path "
            "dominates (K^H fields, LDP, JSON, aggregation); eval is one test CTR pass"),
    Workload(
        name="eval-wide",
        overrides=dict(users=500, items=1000, attributes=50, eval_every=5),
        rounds=20, min_units=2, idle=JSON_WIRE | VIA_METRICS,
        driver=partial(drive_train_eval, recall=True),
        why="500 users x 1000 items: 20 rounds with valid CTR evals every 5, then test "
            "Recall@K over ~990 candidates per user; metrics/model/kg do nearly all the work"),
]}
