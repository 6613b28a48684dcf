import numpy as np
import pytest

from fedkg.kg import (KgValidationError, build_kg, load_kg_file, read_rows,
                      sample_subgraph, save_kg_file)
from fedkg.rng import derive_rng


def edges_of(kg, entity):
    """Entity's (relation, neighbor) rows from the CSR store."""
    lo, hi = kg.offsets[entity], kg.offsets[entity + 1]
    return np.stack([kg.rel[lo:hi], kg.nbr[lo:hi]], axis=1)


def has_edge(kg, center, relation, neighbor):
    return any(r == relation and n == neighbor for r, n in edges_of(kg, center).tolist())


def sampled_rows(sub, level):
    """{center: (K, 2) array of (relation, neighbor)} for the non-isolated centers."""
    layer = sub.layers[level]
    centers = sub.ids[level][~layer.isolated]
    return {int(c): np.stack([sub.relations[rel], sub.ids[level + 1][tail]], axis=1)
            for c, rel, tail in zip(centers, layer.rel_rows, layer.tail_rows)}


def reference_sample(kg, anchors, k, depth, rng):
    """Per-center reference: sorted centers, K draws each, isolated centers skipped."""
    frontier = sorted(set(anchors))
    layers = []
    for _ in range(depth):
        layer, reached = {}, set()
        for center in frontier:
            lo, hi = kg.offsets[center], kg.offsets[center + 1]
            if hi == lo:
                continue
            edges = lo + rng.integers(0, hi - lo, size=k)
            layer[center] = np.stack([kg.rel[edges], kg.nbr[edges]], axis=1)
            reached.update(kg.nbr[edges].tolist())
        layers.append(layer)
        frontier = sorted(reached)
    return layers


def test_build_single_triple_symmetry():
    kg = build_kg([(0, 0, 1)], num_entities=2, num_relations=1)
    assert edges_of(kg, 0).tolist() == [[0, 1]]
    assert edges_of(kg, 1).tolist() == [[0, 0]]


def test_build_empty_is_valid():
    kg = build_kg([], num_entities=3, num_relations=1)
    assert kg.num_triples == 0
    assert kg.offsets.tolist() == [0, 0, 0, 0]
    assert len(kg.rel) == len(kg.nbr) == 0


def test_build_dedups_exact_duplicates():
    once = build_kg([(0, 0, 1)], 2, 1)
    twice = build_kg([(0, 0, 1), (0, 0, 1)], 2, 1)
    assert twice.num_triples == 1
    for field in ("offsets", "rel", "nbr"):
        assert np.array_equal(getattr(once, field), getattr(twice, field))


def test_build_rejects_out_of_range_naming_triple():
    with pytest.raises(KgValidationError, match=r"\(0, 0, 5\)"):
        build_kg([(0, 0, 5)], num_entities=2, num_relations=1)
    with pytest.raises(KgValidationError, match="relation"):
        build_kg([(0, 3, 1)], num_entities=2, num_relations=1)


def test_build_keeps_reverse_and_self_loop_multiplicity_sorted():
    kg = build_kg([(0, 1, 1), (1, 1, 0), (2, 0, 2), (0, 0, 2)], 3, 2)
    assert edges_of(kg, 0).tolist() == [[0, 2], [1, 1], [1, 1]]
    assert edges_of(kg, 2).tolist() == [[0, 0], [0, 2], [0, 2]]


def test_adjacency_entry_count_is_twice_unique_triples():
    rng = derive_rng(11, 0)
    triples = [(int(rng.integers(0, 20)), int(rng.integers(0, 4)),
                int(rng.integers(0, 20))) for _ in range(60)]
    unique = len(set(triples))
    kg = build_kg(triples, 20, 4)
    assert kg.offsets[-1] == len(kg.rel) == len(kg.nbr) == 2 * unique
    for e in range(20):
        rows = [tuple(r) for r in edges_of(kg, e).tolist()]
        assert rows == sorted(rows)


def test_sample_degree_one_forced_by_replacement():
    # entity 7 reachable only via relation 2 from entity 3
    kg = build_kg([(3, 2, 7)], num_entities=8, num_relations=3)
    sub = sample_subgraph(kg, [7], 4, 1, derive_rng(0, 0))
    assert sampled_rows(sub, 0)[7].tolist() == [[2, 3]] * 4


def test_sample_members_of_true_neighbor_set():
    kg = build_kg([(0, 0, 1), (0, 1, 2), (0, 0, 3)], 4, 2)
    out = sampled_rows(sample_subgraph(kg, [0], 8, 1, derive_rng(1, 0)), 0)[0]
    assert out.shape == (8, 2)
    truth = {(0, 1), (1, 2), (0, 3)}
    for rel, ent in out.tolist():
        assert (rel, ent) in truth


def test_sample_isolated_entity_empty():
    kg = build_kg([(0, 0, 1)], num_entities=3, num_relations=1)
    rng = derive_rng(2, 0)
    before = rng.bit_generator.state
    sub = sample_subgraph(kg, [2], 4, 1, rng)
    assert sub.layers[0].isolated.tolist() == [True]
    assert sub.layers[0].rel_rows.shape == (0, 4)
    assert len(sub.ids[1]) == 0
    assert rng.bit_generator.state == before  # isolated centers draw nothing


def test_subgraph_depth_zero():
    kg = build_kg([(0, 0, 1)], 2, 1)
    sub = sample_subgraph(kg, [0], k=4, depth=0, rng=derive_rng(3, 0))
    assert sub.layers == []
    assert sub.entities.tolist() == [0]
    assert len(sub.relations) == 0


def test_subgraph_chain_layer_centers():
    # chain 0 - 1 - 2, single relation; depth-2 walk from 0
    kg = build_kg([(0, 0, 1), (1, 0, 2)], 3, 1)
    sub = sample_subgraph(kg, [0], k=1, depth=2, rng=derive_rng(4, 0))
    assert sub.ids[0].tolist() == [0]
    assert sub.ids[1].tolist() == [1]  # node 0's only neighbor
    assert sub.ids[2][0] in (0, 2)


def test_subgraph_lastfm_scale_layer_size():
    # K=8, H=1 with an anchor of degree >= 8 gives exactly 8 layer-0 samples
    triples = [(0, r % 3, t) for r, t in enumerate(range(1, 11))]
    kg = build_kg(triples, 11, 3)
    sub = sample_subgraph(kg, [0], k=8, depth=1, rng=derive_rng(5, 0))
    assert sub.layers[0].rel_rows.shape == (1, 8)
    assert sub.layers[0].tail_rows.shape == (1, 8)


def test_subgraph_edges_are_true_kg_edges():
    rng = derive_rng(6, 0)
    triples = [(int(rng.integers(0, 15)), int(rng.integers(0, 3)),
                int(rng.integers(0, 15))) for _ in range(40)]
    kg = build_kg(triples, 15, 3)
    anchors = [1, 5, 9]
    sub = sample_subgraph(kg, anchors, k=3, depth=2, rng=rng)
    for level in range(sub.depth):
        for center, samples in sampled_rows(sub, level).items():
            for rel, ent in samples.tolist():
                assert has_edge(kg, center, rel, ent)


def test_subgraph_every_positive_degree_center_has_k_samples():
    rng = derive_rng(7, 0)
    triples = [(int(rng.integers(0, 12)), 0, int(rng.integers(0, 12)))
               for _ in range(30)]
    kg = build_kg(triples, 12, 1)
    sub = sample_subgraph(kg, [0, 3], k=5, depth=2, rng=rng)
    degree = np.diff(kg.offsets)
    for level, layer in enumerate(sub.layers):
        assert len(layer) == len(sub.ids[level])
        assert np.array_equal(layer.isolated, degree[sub.ids[level]] == 0)
        assert layer.rel_rows.shape == layer.tail_rows.shape == \
            (int((~layer.isolated).sum()), 5)


def test_subgraph_seed_determinism():
    kg = build_kg([(0, 0, i) for i in range(1, 6)], 6, 1)
    a = sample_subgraph(kg, [0], 3, 2, derive_rng(8, 0))
    b = sample_subgraph(kg, [0], 3, 2, derive_rng(8, 0))
    c = sample_subgraph(kg, [0], 3, 2, derive_rng(9, 0))

    def flat(sub):
        return [x.tolist() for x in sub.ids] + \
            [(la.rel_rows.tolist(), la.tail_rows.tolist()) for la in sub.layers]
    assert flat(a) == flat(b)
    assert flat(a) != flat(c)


def test_subgraph_matches_per_center_reference_stream():
    # random graphs with isolated entities, self-loops and reverse pairs;
    # anchors arrive unsorted, some repeated, and the generator must end in
    # the same state
    for trial in range(60):
        rng = derive_rng(12, trial)
        n = int(rng.integers(2, 25))
        triples = [(int(rng.integers(0, n)), int(rng.integers(0, 3)), int(rng.integers(0, n)))
                   for _ in range(int(rng.integers(0, 40)))]
        kg = build_kg(triples, n, 3)
        anchors = [int(a) for a in rng.permutation(n)[:int(rng.integers(1, min(n, 6) + 1))]]
        if trial % 3 == 2:
            anchors += anchors[:2]  # a repeated anchor is sampled once, as its center
        k, depth = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        ours, theirs = derive_rng(13, trial), derive_rng(13, trial)
        sub = sample_subgraph(kg, anchors, k, depth, ours)
        ref = reference_sample(kg, anchors, k, depth, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert sub.ids[0].tolist() == anchors
        for level, layer in enumerate(ref):
            got = sampled_rows(sub, level)
            assert got.keys() == layer.keys()
            for center, rows in layer.items():
                assert np.array_equal(got[center], rows)
            reached = sorted({int(t) for rows in layer.values() for t in rows[:, 1]})
            assert sub.ids[level + 1].tolist() == reached
        assert sub.entities.tolist() == sorted(set(np.concatenate(sub.ids).tolist()))
        assert sub.relations.tolist() == sorted(
            {int(r) for layer in ref for rows in layer.values() for r in rows[:, 0]})


@pytest.mark.parametrize("depth", range(4))
def test_subgraph_row_tables_locate_ids_and_draws(depth):
    # random graphs in which some anchors and tails are isolated
    for trial in range(20):
        rng = derive_rng(14, depth, trial)
        n = int(rng.integers(4, 30))
        linked = n - int(rng.integers(1, 4))  # entities linked..n-1 have no triple
        triples = [(int(rng.integers(0, linked)), int(rng.integers(0, 3)),
                    int(rng.integers(0, linked))) for _ in range(int(rng.integers(1, 40)))]
        kg = build_kg(triples, n, 3)
        anchors = np.append(rng.permutation(n)[:int(rng.integers(1, 8))], n - 1)
        sub = sample_subgraph(kg, anchors, int(rng.integers(1, 5)), depth, derive_rng(15, trial))
        assert len(sub.ent_rows) == depth + 1
        for ids, rows in zip(sub.ids, sub.ent_rows):
            assert np.array_equal(rows, np.searchsorted(sub.entities, ids))
            assert np.array_equal(sub.entities[rows], ids)
        if depth:
            assert sub.layers[0].isolated[-1]  # the last anchor, n - 1, has no edge
        for layer in sub.layers:
            assert np.array_equal(layer.sampled_rows, np.cumsum(~layer.isolated) - 1)
            assert np.array_equal(layer.sampled_rows[layer.sampled],
                                  np.arange(len(layer.rel_rows)))


def test_sampling_uniformity_three_sigma():
    kg = build_kg([(0, 0, 1), (0, 0, 2), (0, 0, 3)], 4, 1)
    rng = derive_rng(10, 0)
    n = 10_000
    draws = sampled_rows(sample_subgraph(kg, [0], n, 1, rng), 0)[0]
    p = 1.0 / 3.0
    sigma = np.sqrt(n * p * (1 - p))
    for ent in (1, 2, 3):
        count = int(np.sum(draws[:, 1] == ent))
        assert abs(count - n * p) < 3 * sigma


def test_kg_file_roundtrip(tmp_path):
    triples = np.array([(0, 0, 1), (2, 1, 0), (4, 2, 3)])
    path = tmp_path / "kg.txt"
    save_kg_file(str(path), triples)
    assert path.read_text() == "0\t0\t1\n2\t1\t0\n4\t2\t3\n"
    loaded, n_ent, n_rel = load_kg_file(str(path))
    assert loaded.dtype == np.int64 and np.array_equal(loaded, triples)
    assert (n_ent, n_rel) == (5, 3)


def test_kg_file_roundtrip_gives_same_csr(tmp_path):
    rng = derive_rng(13, 0)
    triples = np.column_stack([rng.integers(0, 30, 80), rng.integers(0, 4, 80),
                               rng.integers(0, 30, 80)])
    path = tmp_path / "kg.txt"
    save_kg_file(str(path), triples)
    loaded, n_ent, n_rel = load_kg_file(str(path))
    direct, reread = build_kg(triples, 30, 4), build_kg(loaded, 30, 4)
    assert n_ent <= 30 and n_rel <= 4
    for field in ("offsets", "rel", "nbr"):
        assert np.array_equal(getattr(direct, field), getattr(reread, field))
    assert reread.num_triples == direct.num_triples == len(set(map(tuple, triples.tolist())))


def test_kg_file_empty_loads_as_zero_rows(tmp_path):
    path = tmp_path / "kg.txt"
    path.write_text("# no triples\n\n")
    loaded, n_ent, n_rel = load_kg_file(str(path))
    assert loaded.shape == (0, 3) and loaded.dtype == np.int64
    assert (n_ent, n_rel) == (0, 0)
    save_kg_file(str(path), loaded)
    assert path.read_text() == ""


def test_kg_file_negative_id_reports_line(tmp_path):
    path = tmp_path / "kg.txt"
    for line in ("-1 0 2", "0 -1 2", "0 0 -2"):
        path.write_text(f"0 0 1\n# comment\n{line}\n")
        with pytest.raises(KgValidationError, match=r"kg\.txt:3: negative id"):
            load_kg_file(str(path))


def test_read_rows_skips_blanks_and_comments_and_converts(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n 1 2.5 \n3 4\n")
    rows = read_rows(str(path), {"a": int, "b": float}, KgValidationError)
    assert next(rows) == (f"{path}:3", (1, 2.5))
    assert next(rows) == (f"{path}:4", (3, 4.0))
    with pytest.raises(StopIteration):
        next(rows)
    path.write_text("1 2\n3\n")
    with pytest.raises(KgValidationError, match=r":2: expected `a b`"):
        list(read_rows(str(path), {"a": int, "b": int}, KgValidationError))


def test_kg_file_malformed_reports_line(tmp_path):
    path = tmp_path / "kg.txt"
    path.write_text("0 0 1\n0 zero 1\n")
    with pytest.raises(KgValidationError, match=":2:"):
        load_kg_file(str(path))
