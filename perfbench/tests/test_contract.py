"""BENCHMARK.json names exactly what the benchmark measures, with the same units."""

import json
import os

from layers import PER_LAYER
from run import END_TO_END, ROOT
from workloads import WORKLOADS


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_end_to_end_metrics_match():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_per_layer_metrics_match():
    spec = _spec()
    want = {name: [unit, better] for name, (unit, better, _) in PER_LAYER.items()}
    want["trace.overhead_s"] = ["s", "lower"]
    assert {m["name"]: [m["unit"], m["better"]] for m in spec["per_layer"]} == want
