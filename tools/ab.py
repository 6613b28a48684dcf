"""A/B benchmark: a base revision against this working tree, in alternating pairs.

    python3 tools/ab.py --base REV --workload default --pairs 10 --seed 7

Both trees run their own, unedited `perfbench/run.py --trace 0` with the
same arguments, for BENCHMARK.json's `run_seconds`. The base side is REV
exported by `git archive` into a temporary directory; the head side is a
copy of the working tree's files as `git add -A` would commit them. Each
runs in its own copy, so neither writes into the repository (nor leaves a
worktree entry in .git if the run is killed), and both copies are removed
at the end. Pairs alternate which side runs first (base first on odd
pairs), and the last stdout line of each run is its result.

Writes BENCH_<workload>.json at the repository root: both SHAs,
`tools/envprobe.py`'s fingerprint, every metric of every run, and per
metric both medians, the base quartiles, the head's wins, and the
BENCHMARK.json bound with whether the head's median keeps it. Exits 1 when
a run fails, reads incorrect, or a bound does not hold.

An A/A run (REV is HEAD and nothing under src/ or perfbench/ differs from
it) writes aa-BENCH_<workload>.json instead, the noise floor. An A/B run
reads that file's runs when it exists and adds per metric `aa_iqr`, the
quartiles of the A/A pairs' moves (each pair's head against its base), and
`beyond_aa`: whether the head's median move is better by more than that
spread reaches on either side of no move.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout


def export_rev(rev: str, dest: str) -> None:
    """REV's committed tree, extracted into dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def copy_worktree(dest: str) -> None:
    """The working tree's tracked and unignored files, as `git add -A` sees them."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a deleted, not yet staged file is listed too
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in tree: its parsed last stdout line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in (result["metrics"] or {}).items()}}


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles, inclusive method (one value: itself twice)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def aa_spread(runs: list[dict], name: str, better: str) -> tuple[float, float] | None:
    """Quartiles of an A/A file's per-pair moves of `name`, each pair's head against
    its base, signed so that positive is worse; pairs whose base is 0 are left
    out, and with none left there is no spread (None)."""
    sign = 1.0 if better == "lower" else -1.0
    moves = [sign * (r["head"]["metrics"][name] - b) / abs(b)
             for r in runs if (b := r["base"]["metrics"][name])]
    return quartiles(moves) if moves else None


def summarize(base: list[float], head: list[float], better: str, bound: float,
              aa_iqr: tuple[float, float] | None = None) -> dict:
    """Medians, base quartiles, head wins (ties count for neither) and the bound verdict.

    `change` is the head median relative to the base median, signed so that
    positive is worse; the bound holds while change <= bound. `beyond_iqr`
    says the head median is better than the base median by more than the
    distance between the base quartiles, and `beyond_aa` (None without the
    A/A pairs' `aa_spread`) that it is better by more than either quartile
    of that spread in size: by more than the middle half of the moves
    between two copies of one tree, whichever side they lean to.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_med, head_med = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    worse = sign * (head_med - base_med)
    if base_med:
        change = worse / abs(base_med)
    else:  # no scale to divide by: any worsening breaks the bound
        change = math.inf if worse > 0 else -math.inf if worse < 0 else 0.0
    return {"base_median": base_med, "head_median": head_med, "base_iqr": [q1, q3],
            "change": change, "wins": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
            "pairs": len(base), "bound": bound, "bound_holds": change <= bound,
            "beyond_iqr": -worse > q3 - q1,
            "aa_iqr": None if aa_iqr is None else list(aa_iqr),
            "beyond_aa": None if aa_iqr is None else -change > max(map(abs, aa_iqr))}


def envprobe() -> list[str]:
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "envprobe.py")],
                          capture_output=True, text=True)
    return proc.stdout.strip().splitlines() if proc.returncode == 0 else \
        [f"envprobe failed: {proc.stderr.strip()}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    head_sha = git("rev-parse", "HEAD").strip()
    aa = base_sha == head_sha and not git("status", "--porcelain", "--", "src", "perfbench")
    aa_path = os.path.join(ROOT, f"aa-BENCH_{args.workload}.json")
    out = aa_path if aa else os.path.join(ROOT, f"BENCH_{args.workload}.json")
    aa_iqrs = {}
    if not aa and os.path.exists(aa_path):
        with open(aa_path) as fh:
            aa_runs = json.load(fh)["runs"]
        aa_iqrs = {name: aa_spread(aa_runs, name, m["better"]) for name, m in spec.items()}
    runs = []
    with tempfile.TemporaryDirectory(prefix="fedkg-ab-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "head": os.path.join(tmp, "head")}
        export_rev(base_sha, trees["base"])
        copy_worktree(trees["head"])
        for pair in range(1, args.pairs + 1):
            order = ["base", "head"] if pair % 2 else ["head", "base"]
            run = {"pair": pair, "order": order}
            for side in order:
                run[side] = run_bench(trees[side], args.workload, args.seed,
                                      bench["run_seconds"])
                print(f"pair {pair} {side}: round_ms.p50 "
                      f"{run[side]['metrics'].get('round_ms.p50')}", file=sys.stderr)
            runs.append(run)

    ok = all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs
             for side in ("base", "head"))
    metrics = {}
    if ok:
        for name, m in spec.items():
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             **summarize([r["base"]["metrics"][name] for r in runs],
                                         [r["head"]["metrics"][name] for r in runs],
                                         m["better"], m["bound"], aa_iqrs.get(name))}
    report = {"workload": args.workload, "aa": aa, "seed": args.seed,
              "seconds": bench["run_seconds"], "pairs": args.pairs,
              "base": {"rev": args.base, "sha": base_sha},
              "head": {"sha": head_sha, "dirty": bool(git("status", "--porcelain").strip())},
              "fingerprint": envprobe(), "correct": ok, "metrics": metrics, "runs": runs}
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name:16s} {m['base_median']:12.6g} -> {m['head_median']:12.6g} {m['unit']:5s}"
              f" {abs(m['change']):7.2%} {'worse' if m['change'] > 0 else 'better'}"
              f" wins {m['wins']}/{m['pairs']}"
              f" bound {m['bound']:.0%} {'holds' if m['bound_holds'] else 'BROKEN'}"
              f" beyond iqr {m['beyond_iqr']} aa {m['beyond_aa']}")
    return 0 if ok and all(m["bound_holds"] for m in metrics.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
