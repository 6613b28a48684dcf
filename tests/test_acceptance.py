"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The top-K/figure-free CLI artifacts are exercised end to end.
"""

import base64
import json
import math
import os
import time

import numpy as np
import pytest

from fedkg.cli import build_dataset, main, round_config, run_experiment, setup_state
from fedkg.client import build_request, merge_graphs
from fedkg.config import ExperimentConfig
from fedkg.gradcheck import run_gradient_check
from fedkg.model import GradientPacket, SparseGrad, attention_weights, backward, softmax
from fedkg.privacy import (DpConfig, generate_request_items, interaction_budget,
                           ldp_encrypt, privacy_budget)
from fedkg.rng import ROLE_CLIENT, ROLE_SELECT, ROLE_SERVE, derive_rng
from fedkg.server import (RoundConfig, aggregate, run_round, select_clients,
                          serve_request)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    result = run_gradient_check(instances=100, step=1e-5, tolerance=1e-4, seed=2024)
    elapsed = time.perf_counter() - start
    ok = not result.failures and result.max_rel_err < 1e-4 and elapsed < 30.0
    _report(1, "gradient oracle", ok,
            f"max_rel_err={result.max_rel_err:.3e} over {result.instances} "
            f"instances in {elapsed:.1f}s")


def test_criterion_2_attention_correctness():
    rng = derive_rng(501, 0)
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        w = attention_weights(rng.normal(size=d), [rng.normal(size=d) for _ in range(n)])
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
    sums_ok = worst_sum < 1e-9

    # dyadic scores keep score+shift exact in float64, so max-subtraction
    # must reproduce the weights bit for bit for every shift up to 50
    shift_ok = True
    for _ in range(200):
        scores = rng.integers(-5120, 5121, size=int(rng.integers(2, 9))) / 1024.0
        base = softmax(scores)
        for shift in range(1, 51):
            if not np.array_equal(base, softmax(scores + float(shift))):
                shift_ok = False
    _report(2, "attention correctness", sums_ok and shift_ok,
            f"max |sum-1|={worst_sum:.2e}, bitwise shift invariance "
            f"{'held' if shift_ok else 'violated'} for shifts 1..50")


def _random_packet(rng, client_id):
    ent = SparseGrad()
    for idx in rng.choice(12, size=rng.integers(1, 6), replace=False):
        ent.add(int(idx), rng.normal(size=3))
    rel = SparseGrad()
    for idx in rng.choice(4, size=rng.integers(1, 4), replace=False):
        rel.add(int(idx), rng.normal(size=3))
    model = [(rng.normal(size=(3, 3)), rng.normal(size=3))]
    return GradientPacket(ent, rel, model, None, int(rng.integers(1, 7)),
                          float(rng.random()), client_id=client_id)


def test_criterion_3_aggregation_oracle():
    # brute-force oracle: per coordinate, loop packets and divide by the
    # weights of those that touched it
    rng = derive_rng(502, 0)
    worst = 0.0
    for _ in range(100):
        packets = [_random_packet(rng, c) for c in range(int(rng.integers(1, 8)))]
        avg = aggregate(packets)
        ordered = sorted(packets, key=lambda p: p.client_id)
        for store, attr in ((avg.entity, "entity_grads"), (avg.relation, "relation_grads")):
            ids = sorted({i for p in ordered for i in getattr(p, attr).ids()})
            for idx in ids:
                num, den = 0.0, 0.0
                for p in ordered:
                    grads = getattr(p, attr)
                    if idx in grads:
                        num = num + p.weight * grads.entries[idx]
                        den += p.weight
                expect = num / den
                rel_err = float(np.max(np.abs(store[idx] - expect)
                                       / np.maximum(np.abs(expect), 1e-300)))
                worst = max(worst, rel_err)
        total = sum(p.weight for p in ordered)
        expect_w = sum(p.weight * p.model_grads[0][0] for p in ordered) / total
        worst = max(worst, float(np.max(np.abs(avg.model[0][0] - expect_w)
                                        / np.maximum(np.abs(expect_w), 1e-300))))

    a = GradientPacket(SparseGrad(), SparseGrad(), [], None, 1, 0.0, client_id=0)
    a.entity_grads.add(0, np.array([2.0]))
    b = GradientPacket(SparseGrad(), SparseGrad(), [], None, 3, 0.0, client_id=1)
    b.entity_grads.add(0, np.array([6.0]))
    exact = aggregate([a, b]).entity[0][0]
    ok = worst < 1e-12 and exact == 5.0
    _report(3, "aggregation oracle", ok,
            f"max rel err vs brute force {worst:.2e}; weighted example -> {exact}")


def test_criterion_4_randomized_response():
    interactions = set(range(5000))
    negatives = list(range(5000, 10000))
    cfg = DpConfig(flip_rate=0.1, pseudo_count=5000)
    plan = generate_request_items(interactions, negatives, cfg, derive_rng(503, 0))
    flipped = sum(int(label != (1 if item in interactions else 0))
                  for item, label in zip(plan.request_items, plan.local_labels))
    frac = flipped / 10_000
    budget = interaction_budget(0.1)
    ok = abs(frac - 0.1) < 0.009 and abs(budget - math.log(9.0)) < 1e-12
    _report(4, "randomized response statistics", ok,
            f"flipped fraction {frac:.4f} (target 0.1 +- 0.009), "
            f"interaction budget ln9 = {budget:.4f}")


def test_criterion_5_gradient_ldp():
    rng = derive_rng(504, 0)
    delta = 0.05
    packet = GradientPacket(SparseGrad(), SparseGrad(),
                            [(rng.normal(size=(6, 6)), rng.normal(size=6))],
                            None, 1, 0.0, client_id=0)
    for idx in range(8):
        packet.entity_grads.add(idx, rng.normal(size=5))
    clipped = ldp_encrypt(packet, DpConfig(delta=delta, lam=0.0, flip_rate=0.0,
                                           pseudo_count=0), rng)
    clip_ok = all(np.all(np.abs(v) <= delta)
                  for v in clipped.entity_grads.entries.values())
    clip_ok &= all(np.all(np.abs(dw) <= delta) and np.all(np.abs(db) <= delta)
                   for dw, db in clipped.model_grads)

    lam = 1e-4  # Last.FM-scale Laplace intensity
    n = 100_000
    zero = GradientPacket(SparseGrad(), SparseGrad(), [], None, 1, 0.0, client_id=0)
    zero.entity_grads.add(0, np.zeros(n))
    noise = ldp_encrypt(zero, DpConfig(delta=1.0, lam=lam, flip_rate=0.0,
                                       pseudo_count=0),
                        derive_rng(505, 0)).entity_grads.entries[0]
    mean_ok = abs(noise.mean()) < 3 * lam * math.sqrt(2.0 / n)
    mle = float(np.abs(noise).mean())
    scale_ok = abs(mle - lam) / lam < 0.05
    budget_ok = privacy_budget(0.1, 1e-4) == 2 * 0.1 / 1e-4
    ok = clip_ok and mean_ok and scale_ok and budget_ok
    _report(5, "gradient LDP", ok,
            f"clip bound {'held' if clip_ok else 'broken'}; noise mean "
            f"{noise.mean():.2e}, MLE scale {mle:.3e} vs lambda {lam:.0e}; "
            f"budget(0.1, 1e-4) = {privacy_budget(0.1, 1e-4):.0f}")


def test_criterion_6_federated_equals_centralized():
    cfg = ExperimentConfig(users=40, items=30, attributes=5,
                           interactions_per_user=10, clients_per_round=1,
                           flip_rate=0.0, pseudo_items=0, noise_scale=0.0,
                           clip_threshold=1e9, epochs=1, eta=0.05, seed=99,
                           max_rounds=1, eval_every=0)
    cfg.validate()
    dataset = build_dataset(cfg)
    params, user_emb, clients = setup_state(cfg, dataset)
    rcfg = round_config(cfg, dataset)

    oracle = params.copy()
    oracle_users = user_emb.copy()

    run_round(params, dataset.kg, clients, rcfg, 0)

    # independent centralized step: same derived streams, but gradients are
    # applied directly with plain SGD, no LDP / aggregation / upload path
    cid = select_clients(len(clients), 1, derive_rng(cfg.seed, ROLE_SELECT, 0))[0]
    crng = derive_rng(cfg.seed, ROLE_CLIENT, 0, cid)
    srng = derive_rng(cfg.seed, ROLE_SERVE, 0, cid)
    interactions = set(dataset.train[cid])
    pool = np.setdiff1d(np.arange(dataset.num_items),
                        np.array(sorted(interactions), dtype=np.int64))
    negatives = [int(i) for i in crng.permutation(pool)]
    from fedkg.client import ClientState
    shadow = ClientState(cid, oracle_users[cid].copy(), interactions)
    plan, msg = build_request(shadow, negatives, rcfg.dp, crng)
    response = serve_request(msg, dataset.kg, oracle, cfg.sample_size, cfg.depth, srng)
    graph = merge_graphs(plan, response, shadow.user_embedding)
    packet = backward(graph, response.model)
    for idx in packet.entity_grads.ids():
        oracle.entity_emb[idx] -= cfg.eta * packet.entity_grads.entries[idx]
    for idx in packet.relation_grads.ids():
        oracle.relation_emb[idx] -= cfg.eta * packet.relation_grads.entries[idx]
    for layer, (dw, db) in enumerate(packet.model_grads):
        oracle.model.weights[layer] -= cfg.eta * dw
        oracle.model.biases[layer] -= cfg.eta * db

    def rel_gap(a, b):
        denom = np.maximum(np.abs(a), 1e-12)
        return float(np.max(np.abs(a - b) / denom))

    gap = max(rel_gap(oracle.entity_emb, params.entity_emb),
              rel_gap(oracle.relation_emb, params.relation_emb),
              max((rel_gap(w, pw) for w, pw in
                   zip(oracle.model.weights, params.model.weights)), default=0.0))
    _report(6, "federated == centralized degenerate case", gap <= 1e-10,
            f"max relative parameter gap {gap:.2e} (tolerance 1e-10)")


def test_criterion_7_end_to_end_synthetic_convergence(tmp_path):
    start = time.perf_counter()

    def run(depth, noise, max_rounds, tag):
        out = tmp_path / tag
        cfg = ExperimentConfig(depth=depth, noise=noise, max_rounds=max_rounds,
                               out_dir=str(out))
        assert run_experiment(cfg) == 0
        payload = json.loads((out / "final_metrics.json").read_text())
        evals = [json.loads(line)
                 for line in (out / "metrics.jsonl").read_text().splitlines()
                 if json.loads(line)["type"] == "eval"]
        return payload["auc"], evals

    auc_kg, evals = run(depth=1, noise=0.1, max_rounds=300, tag="h1")
    auc_flat, _ = run(depth=0, noise=0.1, max_rounds=300, tag="h0")
    auc_control, _ = run(depth=1, noise=1.0, max_rounds=100, tag="control")
    elapsed = time.perf_counter() - start

    # training curve: later validation AUC beats the first-20-rounds level
    early = np.mean([e["auc"] for e in evals if e["round"] < 20])
    late = np.mean([e["auc"] for e in evals[-5:]])
    ok = (auc_kg >= 0.80 and auc_kg - auc_flat >= 0.03
          and abs(auc_control - 0.5) <= 0.05 and late > early and elapsed < 300.0)
    _report(7, "end-to-end synthetic convergence", ok,
            f"H=1 test AUC {auc_kg:.4f} (>=0.80), H=0 {auc_flat:.4f} "
            f"(gap {auc_kg - auc_flat:.4f} >= 0.03), noise-1 control "
            f"{auc_control:.4f} (0.5 +- 0.05), valid AUC {early:.3f}->{late:.3f}, "
            f"{elapsed:.0f}s < 300s")


def _wire_numbers(node):
    """Yield (packed, values) for every number in a decoded wire message.

    A packed float64 array object yields its decoded elements, so a scan of
    the values still sees what base64 text hides from a byte scan.
    """
    if isinstance(node, dict) and set(node) == {"shape", "f64"}:
        yield True, np.frombuffer(base64.b64decode(node["f64"]), dtype="<f8")
    elif isinstance(node, (dict, list)):
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _wire_numbers(child)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield False, np.array([node], dtype=np.float64)


def test_criterion_8_privacy_structural_suite():
    sentinel = 7777.25  # exactly representable; prefix survives tiny updates
    cfg = ExperimentConfig(users=40, items=30, attributes=5,
                           interactions_per_user=8, clients_per_round=10,
                           max_rounds=10, eval_every=0, transport="json", seed=17)
    dataset = build_dataset(cfg)
    params, user_emb, clients = setup_state(cfg, dataset)
    user_emb[...] = sentinel
    rcfg = round_config(cfg, dataset)

    captured: list[bytes] = []
    for r in range(10):
        run_round(params, dataset.kg, clients, rcfg, r, wire_sink=captured.append)

    assert captured, "json transport produced no wire messages"
    leak = [pat for raw in captured
            for pat in (b"7777.2", b'"label', b'"user', b'"interaction', b'"embedding')
            if pat in raw]
    requests = [json.loads(raw) for raw in captured
                if json.loads(raw)["type"] == "request"]
    assert len(requests) == 100
    obfuscated = all(set(req["items"]) != clients[req["client_id"]].interactions
                     and set(req["items"]) - clients[req["client_id"]].interactions
                     for req in requests)
    numbers = [entry for raw in captured for entry in _wire_numbers(json.loads(raw))]
    packed_elements = sum(values.size for packed, values in numbers if packed)
    sentinel_values = sum(int(np.count_nonzero((values >= 7777) & (values <= 7778)))
                          for _, values in numbers)
    ok = not leak and obfuscated and packed_elements > 0 and sentinel_values == 0
    _report(8, "privacy structural suite", ok,
            f"{len(captured)} wire messages scanned, leaks={leak}, "
            f"{sentinel_values} values in [7777, 7778] among {packed_elements} packed "
            f"elements and the JSON numbers, request sets "
            f"{'always differ from' if obfuscated else 'sometimes equal'} interactions")


def test_criterion_9_determinism(tmp_path):
    def run(tag, workers):
        out = tmp_path / tag
        cfg = ExperimentConfig(users=60, items=40, attributes=6,
                               interactions_per_user=10, clients_per_round=12,
                               max_rounds=12, eval_every=4, seed=31337,
                               workers=workers, out_dir=str(out))
        assert run_experiment(cfg) == 0
        return (out / "metrics.jsonl").read_bytes()

    first = run("a", workers=1)
    second = run("b", workers=1)
    parallel = run("c", workers=4)
    ok = first == second == parallel
    _report(9, "determinism", ok,
            f"{len(first)} metric bytes identical across reruns and 4-way "
            f"parallel client execution" if ok else "metrics files diverged")


@pytest.mark.skipif(not os.environ.get("FEDKG_LASTFM_DIR"),
                    reason="set FEDKG_LASTFM_DIR to run the optional data-supplied check")
def test_criterion_10_optional_lastfm():
    base = os.environ["FEDKG_LASTFM_DIR"]
    rounds = int(os.environ.get("FEDKG_LASTFM_ROUNDS", "1000"))
    out = os.path.join(base, "fedkg_run")
    cfg = ExperimentConfig(synthetic=False,
                           ratings_file=os.path.join(base, "ratings.txt"),
                           kg_file=os.path.join(base, "kg.txt"),
                           rating_threshold=0.0,
                           sample_size=8, embed_dim=16, depth=1,
                           noise_scale=1e-4, eta=5e-4, clients_per_round=32,
                           max_rounds=rounds, out_dir=out)
    assert run_experiment(cfg) == 0
    payload = json.loads(open(os.path.join(out, "final_metrics.json")).read())
    _report(10, "optional Last.FM check (informational)", payload["auc"] >= 0.75,
            f"test AUC {payload['auc']:.4f} (threshold 0.75)")
