"""The planted-preference oracle: how well a synthetic dataset's own truth ranks it.

    python3 tools/oracle.py --seed 7 [--split test] [any `fedkg train` config flag]

Builds the config's synthetic dataset as `fedkg train` does and scores each
(user, item) pair 1 when the item's attribute is one of the user's
`truth_prefs`, else 0. Prints the split's report in `fedkg evaluate`'s
shape, made by `fedkg.metrics`' own functions: AUC (ties count one half) and
F1 over the split's positive and negative pairs, pooled, and Recall@K (the
config's `recall_ks`) over every item but the user's other-split positives,
ties broken by item id. It is the ceiling a model of the planted signal
could reach, to quote next to the model's test report.

Uses numpy and fedkg, imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from fedkg import cli  # noqa: E402
from fedkg.data import Dataset  # noqa: E402
from fedkg.metrics import MetricReport, auc, f1, recall_from_scores  # noqa: E402


def oracle_report(dataset: Dataset, split: str, ks: list[int]) -> MetricReport:
    """The attribute-match oracle's report on a synthetic dataset's split."""
    item_attr = np.empty(dataset.num_items, dtype=np.int64)
    item_attr[dataset.triples[:, 0]] = dataset.triples[:, 2] - dataset.num_items
    scores = dataset.truth_prefs[:, item_attr].astype(np.float64)  # (users, items)
    pos, neg = dataset.split_of(split)
    pairs = [(u, i, label) for u in range(dataset.num_users) if pos[u] and neg[u]
             for side, label in ((pos[u], 1), (neg[u], 0)) for i in side]
    owners, items, labels = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    pair_scores = scores[owners, items]
    ranked = [u for u in range(dataset.num_users) if pos[u]]
    for name in ("train", "valid", "test"):
        if name != split:
            for u in ranked:
                scores[u, dataset.split_of(name)[0][u]] = -np.inf
    recs = recall_from_scores(scores[ranked], [pos[u] for u in ranked], ks)
    return MetricReport(auc=auc(pair_scores, labels), f1=f1(pair_scores, labels),
                        recall_at_k={k: float(np.mean([rec[k] for rec in recs])) for k in ks},
                        users_evaluated=len(set(owners.tolist())),
                        positives=int(labels.sum()), negatives=int((labels == 0).sum()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    cli._add_config_flags(parser)
    parser.add_argument("--split", default="test", choices=["train", "valid", "test"])
    args = parser.parse_args(argv)
    cfg = cli._config_from_args(args)
    if not cfg.synthetic:
        parser.error("the oracle reads truth_prefs, which only a synthetic dataset has")
    report = oracle_report(cli.build_dataset(cfg), args.split, list(cfg.recall_ks))
    print(json.dumps({"split": args.split, **report.to_dict()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
