"""Span arithmetic: the tail-percentile rule and self time."""

import threading

import pytest

from fedkg import server
from fedkg.cli import build_dataset, round_config, setup_state
from fedkg.config import ExperimentConfig
from layers import boundary_targets, layer_targets
from tracer import Span, Tracer, covered, percentile, tail_percentile


@pytest.mark.parametrize("n, p", [(5, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                  (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", [20, 40, 100, 200, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    xs = list(range(1, n + 1))
    cut = percentile(xs, tail_percentile(n))
    assert sum(1 for x in xs if x > cut) >= 10


def test_percentile_interpolates_like_numpy():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75.0) == 4.0
    assert percentile([7.0], 90.0) == 7.0


def test_covered_is_union_clipped_to_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == 7  # [1,6] + [8,10]
    assert covered(0, 10, [(-5, -1), (11, 20)]) == 0
    assert covered(0, 10, [(2, 3), (2, 3)]) == 1


def _span(sid, start, end, parent=None, thread=1):
    return Span(sid, f"s{sid}", start, end, parent, None, thread)


def test_self_time_of_nested_spans():
    tr = Tracer()
    tr.spans = [_span(0, 0, 10), _span(1, 1, 4, parent=0), _span(2, 2, 3, parent=1),
                _span(3, 5, 6, parent=0)]
    assert tr.self_times() == {0: 10 - 4, 1: 3 - 1, 2: 1, 3: 1}


def test_self_time_with_children_overlapping_on_two_threads():
    tr = Tracer()
    # two pool threads run legs under the round span; their legs overlap in time
    tr.spans = [_span(0, 0, 10, thread=1),
                _span(1, 1, 5, parent=0, thread=2), _span(2, 3, 7, parent=0, thread=3),
                _span(3, 2, 4, parent=1, thread=2)]
    selfs = tr.self_times()
    assert selfs[0] == 10 - 6  # union [1, 7], not the sum 8
    assert selfs[1] == 4 - 2
    assert selfs[2] == 4


def test_workers2_round_hangs_pool_legs_under_the_round_span():
    cfg = ExperimentConfig(users=40, items=30, attributes=5, clients_per_round=8,
                           workers=2, seed=5)
    dataset = build_dataset(cfg)
    params, _, clients = setup_state(cfg, dataset)
    tr = Tracer()
    tr.install(boundary_targets() + layer_targets())
    try:
        server.run_round(params, dataset.kg, clients, round_config(cfg, dataset), 3)
    finally:
        tr.uninstall()
    (rnd,) = [s for s in tr.spans if s.name == "server.run_round"]
    legs = [s for s in tr.spans if s.parent == rnd.sid]
    assert {s.thread for s in legs if s.name == "client.build_request"} - {rnd.thread}
    assert {s.key for s in tr.spans if s.key and s.key[1] is not None} == \
        {(3, s.key[1]) for s in tr.spans if s.name == "client.build_request"}
    selfs = tr.self_times()
    assert selfs[rnd.sid] == pytest.approx(
        rnd.duration - covered(rnd.start, rnd.end, [(s.start, s.end) for s in legs]))
    assert all(-1e-12 <= selfs[s.sid] <= s.duration + 1e-12 for s in tr.spans)
    assert len(tr.leg_ms()) == 8


def test_uninstall_restores_every_attribute():
    from fedkg import messages

    before = (server.run_round, messages.GradientUpload.__dict__["from_packet"])
    tr = Tracer()
    tr.install(boundary_targets() + layer_targets())
    assert server.run_round is not before[0]
    tr.uninstall()
    assert (server.run_round, messages.GradientUpload.__dict__["from_packet"]) == before


def test_spans_from_threads_are_all_kept():
    tr = Tracer()

    def work():
        for _ in range(200):
            tr.close("w", tr.open())

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(tr.spans) == 800
    assert len({s.sid for s in tr.spans}) == 800
