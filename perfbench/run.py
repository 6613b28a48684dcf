"""fedkg benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload default --seed 7 --seconds 20 --trace 0

Run from the repository root; fedkg is imported from ./src. With --trace 0
only round, evaluation and set-up boundaries are timed, units repeat until
--seconds have passed, and the end-to-end metrics are printed. With
--trace 1 one untraced and one traced unit run; their record streams must
be byte-identical and every wrapper must fire, and the per-layer metrics
are printed. The last stdout line is the JSON result; a copy stamped with
the environment goes to perfbench/results/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from calibrate import KERNEL_REF_S, SpeedProbe
from tracer import Tracer, percentile, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

DEFAULT_SEED = 7  # the README's seed
RECHECK_SEED = 1931  # reserved for re-checking claims; never used while tuning a change
MIN_SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "round_ms.p50": "ms",
    "round_ms.tail": "ms",
    "clients_per_s": "1/s",
    "eval_ctr_s": "s",
    "eval_final_s": "s",
    "test_auc": "ratio",
    "last_round_loss": "nat",
    "peak_rss_mb": "MB",
}


@dataclass
class Unit:
    """One whole run of a workload; times are normalised to reference speed."""

    lines: list[str] | None
    tracer: Tracer
    error: str | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    speed: float = 1.0  # KERNEL_REF_S / median kernel time during the unit
    round_ms: list[float] = field(default_factory=list)
    eval_ctr_s: list[float] = field(default_factory=list)
    eval_final_s: list[float] = field(default_factory=list)


def import_fedkg() -> None:
    sys.path.insert(0, SRC)
    import fedkg

    if os.path.dirname(os.path.abspath(fedkg.__file__)) != os.path.join(SRC, "fedkg"):
        raise SystemExit(f"fedkg was imported from {fedkg.__file__}, not from {SRC}")


def run_unit(workload, cfg, targets, probe) -> Unit:
    """One whole run of the workload with `targets` wrapped; never raises."""
    tr = Tracer()
    workdir = tempfile.mkdtemp(prefix="unit-", dir=RESULTS)
    lines, error = None, None
    tr.install(targets)
    probe.run()
    start = time.perf_counter()
    try:
        lines = workload.driver(cfg, workdir)
    except Exception:
        error = traceback.format_exc()
    finally:
        end = time.perf_counter()
        probe.run()
        tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    unit = Unit(lines=lines, tracer=tr, error=error, wall_s=end - start,
                speed=KERNEL_REF_S / probe.kernel_s(start, end))
    for s in tr.spans:
        if s.name in ("cli.build_dataset", "cli.setup_state"):
            unit.setup_s += probe.normalise(s.start, s.end)
        elif s.name == "server.run_round":
            unit.round_ms.append(probe.normalise(s.start, s.end) * 1e3)
        elif s.name == "metrics.evaluate_ctr":
            unit.eval_ctr_s.append(probe.normalise(s.start, s.end))
        elif s.name == "metrics.evaluate_report":
            unit.eval_final_s.append(probe.normalise(s.start, s.end))
    unit.run_s = probe.normalise(start, end) - unit.setup_s
    return unit


def count_failed(units, cfg) -> int | None:
    """Rounds lost to units that raised (a unit that aborts loses the rest); None if none raised."""
    if not any(u.error for u in units):
        return None
    return sum(cfg.max_rounds - int(u.tracer.counters.get("rounds", 0))
               for u in units if u.error)


def extra_setup_s(cfg, probe) -> float:
    from fedkg import cli

    probe.run()
    start = time.perf_counter()
    dataset = cli.build_dataset(cfg)
    cli.setup_state(cfg, dataset)
    end = time.perf_counter()
    probe.run()
    return probe.normalise(start, end)


def check_stream(workload, cfg, lines) -> list[str]:
    """What is wrong with one unit's record stream (empty when it is correct)."""
    problems = []
    records = [json.loads(line) for line in lines]
    rounds = [r for r in records if r["type"] == "round"]
    if len(rounds) != cfg.max_rounds:
        problems.append(f"{len(rounds)} round records, expected {cfg.max_rounds}")
    want = min(cfg.clients_per_round, cfg.users)
    for r in rounds:
        if r["participants"] != want or not math.isfinite(r["mean_loss"]):
            problems.append(f"bad round record {r}")
            break
    final = records[-1] if records else {}
    if final.get("type") != "final" or final.get("auc") is None:
        return problems + [f"last record is not a final test report: {final}"]
    if not 0.0 <= final["auc"] <= 1.0 or final["users_evaluated"] < 1:
        problems.append(f"implausible final report {final}")
    for k, value in final["recall_at_k"].items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"recall@{k} = {value} outside [0, 1]")
    for metric, floor in workload.quality.items():
        value = final["auc"] if metric == "auc" else \
            final["recall_at_k"].get(metric.split("@")[1], -1.0)
        if value < floor:
            problems.append(f"test {metric} = {value:.4f} below the floor {floor}")
    return problems


def env_stamp(args) -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "unix_time": time.time()}


def measure(workload, cfg, seconds: float):
    """Untraced units until `seconds` pass.

    Returns (metrics, samples, problems, failed rounds, units run); metrics
    is None when a unit raised.
    """
    from layers import boundary_targets, probe_hooks

    probe = SpeedProbe()
    units: list[Unit] = []
    start = time.perf_counter()
    while len(units) < workload.min_units or time.perf_counter() - start < seconds:
        units.append(run_unit(workload, cfg, boundary_targets(probe) + probe_hooks(probe),
                              probe))
        if units[-1].error:
            break
    failed = count_failed(units, cfg)
    if failed is not None:
        return None, {}, [u.error for u in units if u.error], failed, len(units)
    problems = [p for u in units for p in check_stream(workload, cfg, u.lines)]
    if any(u.lines != units[0].lines for u in units):
        problems.append("record streams differ between units of one seed")

    setups = [u.setup_s for u in units]
    while len(setups) < MIN_SETUPS or (len(setups) < 3 * MIN_SETUPS and sum(setups) < 1.0):
        setups.append(extra_setup_s(cfg, probe))
    round_ms = [ms for u in units for ms in u.round_ms]
    tail_p = tail_percentile(workload.min_units * workload.rounds)
    participants = sum(u.tracer.counters.get("participants", 0) for u in units)
    eval_ctr = [s for u in units for s in u.eval_ctr_s]
    eval_final = [s for u in units for s in u.eval_final_s]
    records = [json.loads(line) for line in units[0].lines]
    last_round = [r for r in records if r["type"] == "round"][-1]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(u.run_s for u in units),
        "round_ms.p50": percentile(round_ms, 50.0),
        "round_ms.tail": percentile(round_ms, tail_p),
        "clients_per_s": participants / (sum(round_ms) / 1e3),
        "eval_ctr_s": statistics.median(eval_ctr),
        "eval_final_s": statistics.median(eval_final),
        "test_auc": records[-1]["auc"],
        "last_round_loss": last_round["mean_loss"],
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"units": len(units), "setup_s": len(setups), "run_s": len(units),
               "round_ms": {"n": len(round_ms), "tail_percentile": tail_p,
                            "n_beyond_tail": sum(1 for x in round_ms
                                                 if x > metrics["round_ms.tail"])},
               "eval_ctr_s": len(eval_ctr), "eval_final_s": len(eval_final),
               "speed_samples": len(probe.samples),
               "unit_speed": [u.speed for u in units],
               "unit_wall_s": [u.wall_s for u in units],
               "final_record": records[-1]}
    return metrics, samples, problems, failed, len(units)


def trace(workload, cfg):
    """One untraced and one traced unit.

    Returns (metrics, samples, problems, failed rounds, spans); metrics is
    None when a unit raised.
    """
    from layers import boundary_targets, layer_metrics, layer_targets, probe_hooks

    probe = SpeedProbe()
    ref = run_unit(workload, cfg, boundary_targets(probe) + probe_hooks(probe), probe)
    # no probe inside traced layers: a kernel run would land in their spans
    traced = run_unit(workload, cfg, boundary_targets(probe) + layer_targets(), probe)
    failed = count_failed([ref, traced], cfg)
    if failed is not None:
        return None, {}, [u.error for u in (ref, traced) if u.error], failed, []
    problems = check_stream(workload, cfg, traced.lines)
    if ref.lines != traced.lines:
        problems.append("tracing changed the record stream")
    silent = sorted(label for label, calls in traced.tracer.fired.items()
                    if calls == 0 and label not in workload.idle)
    if silent:
        problems.append(f"wrappers never fired: {silent}")
    metrics = layer_metrics(traced.tracer, traced.speed)
    metrics["trace.overhead_s"] = traced.run_s - ref.run_s
    legs = len(traced.tracer.leg_ms())
    samples = {"client.leg_ms": {"n": legs, "tail_percentile": tail_percentile(legs)},
               "spans": len(traced.tracer.spans), "fired": dict(traced.tracer.fired),
               "untraced_run_s": ref.run_s, "traced_run_s": traced.run_s,
               "traced_speed": traced.speed}
    return metrics, samples, problems, failed, traced.tracer.spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_fedkg()
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cfg = workload.config(args.seed)
    os.makedirs(RESULTS, exist_ok=True)

    spans = []
    if args.trace:
        metrics, samples, problems, failed, spans = trace(workload, cfg)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        attempted = 2 * cfg.max_rounds
    else:
        metrics, samples, problems, failed, count = measure(workload, cfg, args.seconds)
        units = END_TO_END
        attempted = count * cfg.max_rounds
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": metrics is not None and not problems, "attempted": attempted,
              "failed": failed or 0,
              "metrics": None if metrics is None else
              {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env_stamp(args), "samples": samples, "problems": problems,
                   "round_fail_frac": result["failed"] / attempted, "result": result},
                  fh, indent=2)
        fh.write("\n")
    if metrics is None:  # a unit raised: no metrics to report
        return 1
    if spans:
        with open(stem + "-spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_json()) + "\n")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
