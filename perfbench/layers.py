"""Which fedkg functions the benchmark wraps, what it counts, and the per-layer metrics.

Each target names the module attribute its caller looks up. The boundary
set (rounds, evaluation passes, set-up) is all the untraced run wraps; the
full set adds every layer of a round and of evaluation.
"""

from __future__ import annotations

import numpy as np

from fedkg import cli, client, data, messages, metrics, model, server

from calibrate import SpeedProbe
from tracer import Target, Tracer, percentile, tail_percentile

# Span name of the forward replay; its time is subtracted from client legs.
REPLAY = "model.forward"


def _rows(grads) -> int:
    """Id rows in a sparse gradient: a SparseGrad or an {id: row} dict."""
    return len(grads.entries if hasattr(grads, "entries") else grads)


def _grad_arrays(packet):
    for grads in (packet.entity_grads, packet.relation_grads):
        yield from grads.entries.values()
    for pair in packet.model_grads:
        yield from pair


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# -- before hooks --------------------------------------------------------
def _enter_round(tr: Tracer, args, kwargs) -> None:
    tr.round = int(_arg(args, kwargs, 4, "round_index"))


def _enter_leg(tr: Tracer, args, kwargs) -> None:
    tr.set_client(int(args[0].user_id))


# -- counters ------------------------------------------------------------
def _count_round(tr, args, kwargs, report) -> None:
    tr.count("rounds")
    tr.count("participants", report.participants)


def _count_subgraph(tr, args, kwargs, sub) -> None:
    tr.count("kg.centers", sum(len(layer) for layer in sub.layers))
    tr.count("kg.entities", len(sub.entities))


def _count_gather(tr, args, kwargs, result) -> None:
    ent, rel = result
    tr.count("params.gather.rows", _rows(ent) + _rows(rel))


def _count_apply(tr, args, kwargs, result) -> None:
    avg = _arg(args, kwargs, 1, "avg")
    tr.count("params.apply.rows", _rows(avg.entity) + _rows(avg.relation))


def _count_aggregate(tr, args, kwargs, avg) -> None:
    packets = _arg(args, kwargs, 0, "packets")
    tr.count("server.aggregate.rows_in",
             sum(_rows(p.entity_grads) + _rows(p.relation_grads) for p in packets))
    tr.count("server.aggregate.rows_out", _rows(avg.entity) + _rows(avg.relation))


def _count_request_items(tr, args, kwargs, plan) -> None:
    interactions = _arg(args, kwargs, 0, "interactions")
    flipped = sum(1 for item, label in zip(plan.request_items, plan.local_labels)
                  if label != (1 if item in interactions else 0))
    tr.count("privacy.flipped", flipped)
    tr.count("privacy.request_items", len(plan.request_items))


def _count_ldp(tr, args, kwargs, result) -> None:
    packet = _arg(args, kwargs, 0, "packet")
    delta = _arg(args, kwargs, 1, "config").delta
    clipped = elements = 0
    for arr in _grad_arrays(packet):
        arr = np.asarray(arr)
        clipped += int(np.count_nonzero(np.abs(arr) > delta))
        elements += arr.size
    tr.count("privacy.clipped", clipped)
    tr.count("privacy.elements", elements)


def _count_bytes(counter):
    def count(tr, args, kwargs, raw) -> None:
        tr.count(counter, len(raw))
    return count


def _count_scored(tr, args, kwargs, result) -> None:
    tr.count("metrics.items_scored", len(_arg(args, kwargs, 3, "items")))


def _replay_forward(tr, args, kwargs, result) -> None:
    """Time the pure forward pass on the graph backward just used; draws no RNG."""
    graph, params = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 1, "params")
    token = tr.open(leg=True)
    try:
        model.forward_loss(graph, params)
    finally:
        tr.close(REPLAY, token)


def boundary_targets(probe: SpeedProbe | None = None) -> list[Target]:
    """Round, evaluation and set-up boundaries: all the untraced run times.

    With a probe, machine speed is sampled just before each boundary call.
    """
    def poke(tr, args, kwargs) -> None:
        if probe is not None:
            probe.poke()

    def enter_round(tr, args, kwargs) -> None:
        poke(tr, args, kwargs)
        _enter_round(tr, args, kwargs)

    return [
        Target(cli, "build_dataset", "cli.build_dataset", before=poke),
        Target(cli, "setup_state", "cli.setup_state", before=poke),
        Target(server, "run_round", "server.run_round", before=enter_round,
               count=_count_round, round=True),
        Target(metrics, "evaluate_ctr", "metrics.evaluate_ctr", before=poke),
        Target(metrics, "evaluate_report", "metrics.evaluate_report", before=poke),
        Target(cli, "evaluate_report", "metrics.evaluate_report", before=poke),
    ]


def probe_hooks(probe: SpeedProbe) -> list[Target]:
    """Span-less hooks that sample machine speed inside long set-up and evaluation calls."""
    def poke(tr, args, kwargs) -> None:
        probe.poke()

    return [Target(owner, attr, "probe", before=poke, span=False) for owner, attr in
            [(metrics, "score_items"), (data, "build_kg"), (data, "split"),
             (data, "sample_eval_negatives")]]


def layer_targets() -> list[Target]:
    """Every layer below the boundaries, wrapped where its caller looks it up."""
    GU, RM = messages.GradientUpload, messages.RequestMessage
    return [
        Target(data, "generate_synthetic", "data.generate_synthetic"),
        Target(data, "build_kg", "data.build_kg"),
        Target(data, "attach_splits", "data.attach_splits"),
        Target(server, "select_clients", "server.select_clients"),
        Target(server, "build_request", "client.build_request", before=_enter_leg, leg=True),
        Target(client, "generate_request_items", "privacy.generate_request_items",
               count=_count_request_items, leg=True),
        Target(RM, "to_json_bytes", "messages.encode",
               count=_count_bytes("messages.request_bytes"), leg=True),
        Target(RM, "from_json_bytes", "messages.decode", leg=True),
        Target(server, "serve_request", "server.serve_request", leg=True),
        Target(server, "sample_subgraph", "kg.sample_subgraph", count=_count_subgraph,
               leg=True),
        Target(server, "gather", "params.gather", count=_count_gather, leg=True),
        Target(server, "merge_graphs", "client.merge_graphs", leg=True),
        Target(server, "local_train", "client.local_train", leg=True),
        Target(client, "backward", "model.backward", count=_replay_forward, leg=True),
        Target(server, "ldp_encrypt", "privacy.ldp_encrypt", count=_count_ldp, leg=True),
        Target(GU, "from_packet", "messages.encode", leg=True),
        Target(GU, "to_json_bytes", "messages.encode",
               count=_count_bytes("messages.upload_bytes"), leg=True),
        Target(GU, "from_json_bytes", "messages.decode", leg=True),
        Target(GU, "to_packet", "messages.decode"),
        Target(server, "aggregate", "server.aggregate", count=_count_aggregate),
        Target(server, "apply_global_update", "params.apply_global_update",
               count=_count_apply),
        Target(metrics, "recall_at_k", "metrics.recall_at_k"),
        Target(metrics, "score_items", "metrics.score_items", count=_count_scored),
        Target(metrics, "sample_subgraph", "kg.sample_subgraph", count=_count_subgraph),
        Target(metrics, "gather", "params.gather", count=_count_gather),
        Target(metrics, "propagate", "model.propagate"),
        Target(metrics, "auc", "metrics.auc"),
        Target(metrics, "recall_from_scores", "metrics.recall_from_scores"),
    ]


# Per-layer metric -> (unit, better, reader): a reader is a function of the tracer
# or a (kind, key) pair naming one of these sources.
_SELF = "self"    # total self time of the named span, ms
_CALLS = "calls"  # number of spans of that name
_COUNT = "count"  # counter total


def _ratio(num: str, den: str):
    def read(tr: Tracer) -> float:
        d = tr.counters.get(den, 0.0)
        return tr.counters.get(num, 0.0) / d if d else 0.0
    return read


def _per_round(counter: str):
    def read(tr: Tracer) -> float:
        rounds = tr.counters.get("rounds", 0.0)
        return tr.counters.get(counter, 0.0) / rounds if rounds else 0.0
    return read


def _leg(stat: str):
    def read(tr: Tracer) -> float:
        legs = tr.leg_ms(exclude=(REPLAY,))
        if not legs:
            return 0.0
        return percentile(legs, 50.0 if stat == "p50" else tail_percentile(len(legs)))
    return read


PER_LAYER: dict[str, tuple[str, str, object]] = {
    # name: (unit, better, reader)
    "server.run_round.self_ms": ("ms", "lower", (_SELF, "server.run_round")),
    "server.select_clients.ms": ("ms", "lower", (_SELF, "server.select_clients")),
    "server.serve_request.self_ms": ("ms", "lower", (_SELF, "server.serve_request")),
    "server.aggregate.ms": ("ms", "lower", (_SELF, "server.aggregate")),
    "server.aggregate.rows_in": ("count", "lower", (_COUNT, "server.aggregate.rows_in")),
    "server.aggregate.rows_out": ("count", "lower", (_COUNT, "server.aggregate.rows_out")),
    "kg.sample_subgraph.ms": ("ms", "lower", (_SELF, "kg.sample_subgraph")),
    "kg.sample_subgraph.calls": ("count", "lower", (_CALLS, "kg.sample_subgraph")),
    "kg.centers": ("count", "lower", (_COUNT, "kg.centers")),
    "kg.entities": ("count", "lower", (_COUNT, "kg.entities")),
    "params.gather.ms": ("ms", "lower", (_SELF, "params.gather")),
    "params.gather.rows": ("count", "lower", (_COUNT, "params.gather.rows")),
    "params.apply_global_update.ms": ("ms", "lower", (_SELF, "params.apply_global_update")),
    "params.apply.rows": ("count", "lower", (_COUNT, "params.apply.rows")),
    "model.backward.ms": ("ms", "lower", (_SELF, "model.backward")),
    "model.forward.ms": ("ms", "lower", (_SELF, REPLAY)),
    "model.propagate.ms": ("ms", "lower", (_SELF, "model.propagate")),
    "client.build_request.ms": ("ms", "lower", (_SELF, "client.build_request")),
    "client.merge_graphs.ms": ("ms", "lower", (_SELF, "client.merge_graphs")),
    "client.local_train.self_ms": ("ms", "lower", (_SELF, "client.local_train")),
    "client.leg_ms.p50": ("ms", "lower", _leg("p50")),
    "client.leg_ms.tail": ("ms", "lower", _leg("tail")),
    "privacy.generate_request_items.ms": ("ms", "lower",
                                          (_SELF, "privacy.generate_request_items")),
    "privacy.ldp_encrypt.ms": ("ms", "lower", (_SELF, "privacy.ldp_encrypt")),
    "privacy.flip_frac": ("ratio", "lower", _ratio("privacy.flipped", "privacy.request_items")),
    "privacy.clip_frac": ("ratio", "lower", _ratio("privacy.clipped", "privacy.elements")),
    "messages.encode.ms": ("ms", "lower", (_SELF, "messages.encode")),
    "messages.decode.ms": ("ms", "lower", (_SELF, "messages.decode")),
    "messages.request_bytes": ("B/round", "lower", _per_round("messages.request_bytes")),
    "messages.upload_bytes": ("B/round", "lower", _per_round("messages.upload_bytes")),
    "metrics.evaluate_ctr.self_ms": ("ms", "lower", (_SELF, "metrics.evaluate_ctr")),
    "metrics.recall_at_k.self_ms": ("ms", "lower", (_SELF, "metrics.recall_at_k")),
    "metrics.score_items.self_ms": ("ms", "lower", (_SELF, "metrics.score_items")),
    "metrics.auc.ms": ("ms", "lower", (_SELF, "metrics.auc")),
    "metrics.recall_from_scores.ms": ("ms", "lower", (_SELF, "metrics.recall_from_scores")),
    "metrics.items_scored": ("count", "lower", (_COUNT, "metrics.items_scored")),
    "data.generate_synthetic.self_ms": ("ms", "lower", (_SELF, "data.generate_synthetic")),
    "data.build_kg.ms": ("ms", "lower", (_SELF, "data.build_kg")),
    "data.attach_splits.ms": ("ms", "lower", (_SELF, "data.attach_splits")),
    "cli.setup_state.ms": ("ms", "lower", (_SELF, "cli.setup_state")),
}


def layer_metrics(tr: Tracer, speed: float = 1.0) -> dict[str, float]:
    """Read every per-layer metric (except trace.overhead_s) from a traced pass.

    Times are multiplied by `speed`, the pass's machine-speed factor.
    """
    selfs = tr.self_ms_by_name()
    calls = tr.calls_by_name()
    out = {}
    for name, (unit, _better, reader) in PER_LAYER.items():
        if callable(reader):
            value = reader(tr)
        else:
            kind, key = reader
            source = {_SELF: selfs, _CALLS: calls, _COUNT: tr.counters}[kind]
            value = float(source.get(key, 0.0))
        out[name] = value * speed if unit == "ms" else value
    return out
