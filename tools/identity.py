"""Byte identity: a base revision's run outputs against this working tree's.

    python3 tools/identity.py --base REV

Trains three configs on both trees and evaluates each checkpoint:
  - `readme`: `fedkg train --seed 7`, the README config;
  - `depth2-json`: `--depth 2 --transport json --epochs 2 --workers 2`;
  - `eval-wide`: `--users 500 --items 1000 --attributes 50 --eval-every 5
    --max-rounds 20`;
then `fedkg evaluate --recall-ks 5,20 --out eval.json` on each checkpoint.
The trees are made as tools/ab.py makes them (REV by `git archive`, the
working tree as `git add -A` would commit it). Each run has its own fresh
temporary cwd with the same relative `--out-dir`, so the recorded config
is the same on both sides, and imports fedkg from its own tree's `src/`
(checked against `fedkg.__file__`, since an editable install would serve
the repository's copy to both sides).

Prints, per config, every file's `cmp` verdict and, for each `.npz`, each
array member's; exits 1 on any difference, missing file or failed command.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import zipfile

from ab import copy_worktree, export_rev, git

CONFIGS = {
    "readme": ["--seed", "7"],
    "depth2-json": ["--depth", "2", "--transport", "json", "--epochs", "2", "--workers", "2"],
    "eval-wide": ["--users", "500", "--items", "1000", "--attributes", "50",
                  "--eval-every", "5", "--max-rounds", "20"],
}

# run fedkg's CLI with fedkg imported from the src/ directory given first
RUNNER = """import os, sys
src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)
import fedkg
if os.path.dirname(os.path.abspath(fedkg.__file__)) != os.path.join(src, "fedkg"):
    raise SystemExit(f"fedkg was imported from {fedkg.__file__}, not from {src}")
from fedkg.cli import main
sys.exit(main(sys.argv[2:]))
"""


def fedkg(tree: str, cwd: str, *args: str) -> None:
    """One `fedkg ARGS` in cwd, importing fedkg from tree's src/; raises when it fails."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", RUNNER, os.path.join(tree, "src"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"fedkg {' '.join(args)} in {tree}: exit {proc.returncode}\n"
                           f"{proc.stderr.strip()[-2000:]}")


def run_config(tree: str, cwd: str, flags: list[str]) -> None:
    os.makedirs(cwd)
    fedkg(tree, cwd, "train", *flags, "--out-dir", "run")
    fedkg(tree, cwd, "evaluate", "--checkpoint", os.path.join("run", "checkpoint.npz"),
          "--recall-ks", "5,20", "--out", "eval.json")


def files_under(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def npz_members(a: str, b: str) -> list[tuple[str, str]]:
    """(member, verdict) for every member of either `.npz` zip, compared by bytes."""
    with zipfile.ZipFile(a) as za, zipfile.ZipFile(b) as zb:
        names_a, names_b = set(za.namelist()), set(zb.namelist())
        return [(name, "missing in base" if name not in names_a else
                 "missing in head" if name not in names_b else
                 "equal" if za.read(name) == zb.read(name) else "DIFFERS")
                for name in sorted(names_a | names_b)]


def compare_trees(base: str, head: str) -> list[tuple[str, str]]:
    """(relative path, verdict) for every file under either directory, by bytes,
    with each `.npz` member of a file in both as `path:member`."""
    names_a, names_b = files_under(base), files_under(head)
    rows = []
    for rel in sorted(names_a | names_b):
        if rel not in names_a or rel not in names_b:
            rows.append((rel, "missing in base" if rel not in names_a else "missing in head"))
            continue
        a, b = os.path.join(base, rel), os.path.join(head, rel)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            rows.append((rel, "equal" if fa.read() == fb.read() else "DIFFERS"))
        if rel.endswith(".npz"):
            rows += [(f"{rel}:{member}", verdict) for member, verdict in npz_members(a, b)]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    args = parser.parse_args(argv)
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
    same = True
    with tempfile.TemporaryDirectory(prefix="fedkg-identity-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "head": os.path.join(tmp, "head")}
        export_rev(base_sha, trees["base"])
        copy_worktree(trees["head"])
        print(f"base {args.base} ({base_sha[:12]}) against the working tree")
        for name, flags in CONFIGS.items():
            out = {side: os.path.join(tmp, f"out-{side}", name) for side in trees}
            for side, tree in trees.items():
                run_config(tree, out[side], flags)
            for rel, verdict in compare_trees(out["base"], out["head"]):
                same &= verdict == "equal"
                print(f"{name:12s} {rel:48s} {verdict}")
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
