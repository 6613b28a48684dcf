import importlib.util
import json
import os
import pathlib

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_inclusive_and_of_one_value():
    assert ab.quartiles([10.0, 11.0, 12.0, 13.0, 14.0]) == (11.0, 13.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert ab.quartiles([5.0]) == (5.0, 5.0)


def test_summary_of_a_lower_is_better_gain():
    base = [10.0, 10.5, 10.25, 10.0, 10.75, 10.5]
    head = [9.5, 9.25, 10.75, 9.5, 9.25, 9.5]
    s = ab.summarize(base, head, "lower", 0.25)
    assert s["base_median"] == 10.375 and s["head_median"] == 9.5
    assert s["base_iqr"] == [10.0625, 10.5]
    assert s["change"] == pytest.approx(-0.875 / 10.375)
    assert s["wins"] == 5 and s["pairs"] == 6  # pair 3 reads worse
    assert s["bound_holds"] and s["beyond_iqr"]


def test_summary_of_a_higher_is_better_loss_past_its_bound():
    s = ab.summarize([100.0, 100.0, 100.0], [80.0, 100.0, 70.0], "higher", 0.15)
    assert s["head_median"] == 80.0 and s["change"] == pytest.approx(0.2)
    assert s["wins"] == 0  # a tie counts for neither side
    assert not s["bound_holds"] and not s["beyond_iqr"]
    assert ab.summarize([100.0] * 3, [86.0] * 3, "higher", 0.15)["bound_holds"]


def test_summary_within_the_base_spread_is_no_gain():
    s = ab.summarize([10.0, 12.0, 11.0, 9.0, 13.0], [10.5] * 5, "lower", 0.25)
    assert s["base_iqr"] == [10.0, 12.0] and s["change"] == pytest.approx(-0.5 / 11)
    assert s["wins"] == 3 and s["bound_holds"] and not s["beyond_iqr"]


def test_summary_of_equal_values_and_a_zero_base():
    same = ab.summarize([0.7] * 4, [0.7] * 4, "higher", 0.15)
    assert same["change"] == 0.0 and same["wins"] == 0 and same["bound_holds"]
    assert not same["beyond_iqr"]
    assert ab.summarize([0.0, 0.0], [0.0, 0.0], "lower", 0.1)["bound_holds"]
    assert not ab.summarize([0.0, 0.0], [1.0, 1.0], "lower", 0.1)["bound_holds"]


def test_summary_beyond_the_aa_move_either_sign():
    base, head = [10.0, 10.0, 10.0], [9.0, 9.0, 9.0]  # 10% better
    assert ab.summarize(base, head, "lower", 0.25)["beyond_aa"] is None
    s = ab.summarize(base, head, "lower", 0.25, aa_iqr=(-0.05, 0.02))
    assert s["aa_iqr"] == [-0.05, 0.02] and s["beyond_aa"]
    assert ab.summarize(base, head, "lower", 0.25, aa_iqr=(0.01, 0.08))["beyond_aa"]
    # a quartile of either sign at least as large as the move holds it back
    assert not ab.summarize(base, head, "lower", 0.25, aa_iqr=(-0.125, -0.01))["beyond_aa"]
    assert not ab.summarize(base, head, "lower", 0.25, aa_iqr=(0.01, 0.1))["beyond_aa"]
    # so a spread leaning worse does not make a move of about 0 beyond it
    assert not ab.summarize(base, [9.99] * 3, "lower", 0.25, aa_iqr=(0.01, 0.02))["beyond_aa"]
    assert not ab.summarize(base, base, "lower", 0.25, aa_iqr=(0.0, 0.0))["beyond_aa"]
    assert not ab.summarize(base, [11.0] * 3, "lower", 0.25, aa_iqr=(-0.3, -0.2))["beyond_aa"]
    higher = ab.summarize([100.0] * 3, [104.0] * 3, "higher", 0.15, aa_iqr=(-0.03, 0.01))
    assert higher["change"] == pytest.approx(-0.04) and higher["beyond_aa"]


def aa_runs(name, pairs):
    """An A/A file's `runs`, one (base, head) value of `name` per pair."""
    return [{"pair": i, "base": {"metrics": {name: b}}, "head": {"metrics": {name: h}}}
            for i, (b, h) in enumerate(pairs, start=1)]


def test_aa_spread_is_the_quartiles_of_the_pair_moves():
    # moves +10%, -5%, 0%, +2%, -1%: quartiles -1% and +2%, whatever the median
    runs = aa_runs("run_s", [(10.0, 11.0), (2.0, 1.9), (4.0, 4.0), (5.0, 5.1), (1.0, 0.99)])
    q1, q3 = ab.aa_spread(runs, "run_s", "lower")
    assert (q1, q3) == (pytest.approx(-0.01), pytest.approx(0.02))
    q1, q3 = ab.aa_spread(runs, "run_s", "higher")  # a rise is better: signs flip
    assert (q1, q3) == (pytest.approx(-0.02), pytest.approx(0.01))
    # a pair whose base is 0 gives no move; with none left there is no spread
    runs = aa_runs("loss", [(0.0, 0.5), (2.0, 2.2)])
    assert ab.aa_spread(runs, "loss", "lower") == (pytest.approx(0.1), pytest.approx(0.1))
    assert ab.aa_spread(aa_runs("loss", [(0.0, 0.0)]), "loss", "lower") is None


def fake_repo(monkeypatch, tmp_path, head_sha, changed, side_values):
    """ab.main over tmp_path without a benchmark run: BASE resolves to "base",
    `changed` is `git status --porcelain -- src perfbench`, and each run reads
    side_values[side] for its one metric."""
    spec = {"run_seconds": 1, "end_to_end": [
        {"name": "eval_final_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))

    def git(*args):
        if args[:2] == ("rev-parse", "--verify"):
            return "base\n"
        if args == ("rev-parse", "HEAD"):
            return head_sha + "\n"
        assert args[:2] == ("status", "--porcelain")
        return changed if args[2:] == ("--", "src", "perfbench") else ""

    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    monkeypatch.setattr(ab, "git", git)
    monkeypatch.setattr(ab, "export_rev", lambda rev, dest: None)
    monkeypatch.setattr(ab, "copy_worktree", lambda dest: None)
    monkeypatch.setattr(ab, "envprobe", lambda: ["fingerprint"])
    monkeypatch.setattr(ab, "run_bench", lambda tree, workload, seed, seconds: {
        "correct": True, "failed": 0,
        "metrics": {"eval_final_s": side_values[os.path.basename(tree)]}})


def test_aa_run_writes_the_aa_file(monkeypatch, tmp_path):
    fake_repo(monkeypatch, tmp_path, "base", "", {"base": 10.0, "head": 10.1})
    assert ab.main(["--base", "HEAD", "--workload", "w", "--pairs", "2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "aa-BENCH_w.json"]
    report = json.loads((tmp_path / "aa-BENCH_w.json").read_text())
    assert report["aa"] and report["metrics"]["eval_final_s"]["change"] == pytest.approx(0.01)
    assert report["metrics"]["eval_final_s"]["beyond_aa"] is None


def test_run_with_a_source_diff_or_another_base_is_ab(monkeypatch, tmp_path):
    fake_repo(monkeypatch, tmp_path, "base", " M src/fedkg/model.py\n",
              {"base": 10.0, "head": 9.0})
    assert ab.main(["--base", "HEAD", "--workload", "w", "--pairs", "2"]) == 0
    assert not json.loads((tmp_path / "BENCH_w.json").read_text())["aa"]
    (tmp_path / "BENCH_w.json").unlink()
    fake_repo(monkeypatch, tmp_path, "head", "", {"base": 10.0, "head": 9.0})
    assert ab.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "2"]) == 0
    assert not (tmp_path / "aa-BENCH_w.json").exists()


@pytest.mark.parametrize("head,beyond", [(9.0, True), (9.7, False)])
def test_ab_run_reads_the_aa_move(monkeypatch, tmp_path, capsys, head, beyond):
    # A/A pair moves -4%, +1%, +8%: quartiles -1.5% and +4.5%, median +1%
    runs = aa_runs("eval_final_s", [(10.0, 9.6), (10.0, 10.1), (10.0, 10.8)])
    (tmp_path / "aa-BENCH_w.json").write_text(json.dumps(
        {"metrics": {"eval_final_s": {"change": 0.01}}, "runs": runs}))
    fake_repo(monkeypatch, tmp_path, "head", "", {"base": 10.0, "head": head})
    assert ab.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "2"]) == 0
    m = json.loads((tmp_path / "BENCH_w.json").read_text())["metrics"]["eval_final_s"]
    assert m["aa_iqr"] == [pytest.approx(-0.015), pytest.approx(0.045)]
    assert m["beyond_aa"] is beyond and m["wins"] == 2
    assert f"aa {beyond}" in capsys.readouterr().out
