"""Self-checks of the benchmark itself; never part of a measured run.

Usage (from the repository root)::

    python3 umbench/selfcheck.py spread --seeds 1-10
    python3 umbench/selfcheck.py sensitivity --seeds 1-3
    python3 umbench/selfcheck.py determinism --seed 7

- ``spread``: runs every workload once per seed and reports, per gated
  end-to-end metric, the median and the interquartile range as a share
  of the median (``statistics.quantiles(n=4)``), against a third of the
  metric's bound.
- ``sensitivity``: adds a fixed busy-wait to one layer at a time and
  checks that the predicted end-to-end metric moves beyond its bound on
  the layer's heavy workload and stays within it on the light one.
- ``determinism``: two runs of one seed (same PYTHONHASHSEED) must give
  identical ``sim_*`` metrics and counts; a third run under another
  PYTHONHASHSEED lists every count that drifts (inexact).
- ``trace``: one traced run per workload; keeps the tracing overhead,
  each layer's share of traced wall time, the per-layer metrics and the
  entry points with the most self time.

Each mode runs ``run.py`` in fresh interpreters, one at a time, and
writes its summary to ``umbench/results/<mode>.json``, replacing the
entries it re-ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import WORKLOAD_NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SCRATCH = ROOT / ".umbench"

#: Layer -> (gated metric, heavy workload, light workload, the issue's
#: workload-specific metric also recorded on the heavy workload).
SENSITIVITY = {
    "codec": ("wall_ops_per_s", "telemetry-scale", "telemetry-paper",
              "wall_msgs_per_s"),
    "checkpoint": ("wall_ops_per_s", "directory-churn", "telemetry-paper",
                   "wall_ops_per_s"),
    "shard_lookup": ("wall_ops_per_s", "directory-churn", "telemetry-scale",
                     "wall_lookup_p50_us"),
    "replay": ("wall_ops_per_s", "crash-recover", "directory-churn",
               "wall_recover_p50_ms"),
}


def seeds_of(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run(workload: str, seed: int, seconds: float, extra=(), env=None) -> dict:
    """One fresh-interpreter run; returns its full report plus the gated
    JSON line."""
    SCRATCH.mkdir(exist_ok=True)
    report_path = SCRATCH / f"report-{workload}-{seed}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--report", str(report_path), *extra]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    report = json.loads(report_path.read_text())
    report["line"] = json.loads(proc.stdout.strip().splitlines()[-1])
    report["run_s"] = elapsed
    return report


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def cmd_spread(args) -> dict:
    spec = bounds()
    out = {}
    for workload in args.workloads.split(","):
        per_metric = {name: [] for name in spec}
        correct = []
        run_s = []
        for seed in seeds_of(args.seeds):
            report = run(workload, seed, args.seconds)
            line = report["line"]
            run_s.append(report["run_s"])
            correct.append([line["correct"], line["failed"], line["attempted"]])
            for name in spec:
                per_metric[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.5g}" for n, v in per_metric.items()), flush=True)
        rows = {}
        for name, values in per_metric.items():
            med, spread = spread_of(values)
            bound = spec[name]["bound"]
            rows[name] = {"median": med, "iqr_share": spread, "bound": bound,
                          "within_third": spread < bound / 3, "values": values}
            print(f"  {name:22s} median {med:12.5g}  IQR/median {spread:7.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if spread < bound / 3 else 'WIDE'}")
        out[workload] = {"metrics": rows, "correct_failed_attempted": correct,
                         "run_s": run_s}
    return out


def cmd_sensitivity(args) -> dict:
    spec = bounds()
    seeds = seeds_of(args.seeds)
    baseline = {}
    out = {}

    def reports(workload, extra):
        return [run(workload, seed, args.seconds, extra) for seed in seeds]

    def median_of(runs, name, table="gated"):
        return statistics.median(r[table][name]["value"] for r in runs)

    for layer, (metric, heavy, light, specific) in SENSITIVITY.items():
        if args.layers and layer not in args.layers.split(","):
            continue
        row = {"metric": metric, "heavy": heavy, "light": light,
               "bound": spec[metric]["bound"]}
        for role, workload in (("heavy", heavy), ("light", light)):
            if workload not in baseline:
                baseline[workload] = reports(workload, ())
            injected = reports(workload, ("--inject", layer))
            base = median_of(baseline[workload], metric)
            hit = median_of(injected, metric)
            # Worsening as a share of the baseline, signed so that > 0
            # is worse whichever direction the metric prefers.
            better = spec[metric]["better"]
            worse = (base - hit) / base if better == "higher" else (hit - base) / base
            row[role] = {"workload": workload, "baseline": base, "injected": hit,
                         "worsening": worse,
                         "inject_calls": [r["inject_calls"] for r in injected]}
            if role == "heavy":
                row[role][specific] = {
                    "baseline": median_of(baseline[workload], specific, "metrics"),
                    "injected": median_of(injected, specific, "metrics"),
                }
        row["heavy_beyond_bound"] = row["heavy"]["worsening"] > row["bound"]
        row["light_within_bound"] = row["light"]["worsening"] <= row["bound"]
        row["passed"] = row["heavy_beyond_bound"] and row["light_within_bound"]
        out[layer] = row
        print(f"{layer:13s} {metric}: heavy {heavy} worse by "
              f"{row['heavy']['worsening'] * 100:6.1f}%, light {light} worse by "
              f"{row['light']['worsening'] * 100:6.1f}% (bound "
              f"{row['bound'] * 100:.0f}%) -> {'PASS' if row['passed'] else 'FAIL'}",
              flush=True)
    return out


def cmd_determinism(args) -> dict:
    out = {}
    for workload in args.workloads.split(","):
        runs = []
        for hashseed in ("0", "0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            runs.append(run(workload, args.seed, args.seconds, env=env))

        def facts(report):
            values = {name: m["value"] for name, m in report["metrics"].items()
                      if name.startswith("sim_")}
            values.update({f"count.{k}": v for k, v in report["counters"].items()})
            values["count.attempted"] = report["attempted"]
            values["count.failed"] = report["failed"]
            values["count.ops"] = report["gated"]["wall_ops_per_s"]["n"]
            return values

        first, second, other = (facts(r) for r in runs)
        same_seed_diff = sorted(k for k in first if first[k] != second[k])
        hash_drift = {k: [first[k], other[k]] for k in first if first[k] != other[k]}
        out[workload] = {
            "epochs": runs[0]["epochs"],
            "same_seed_identical": not same_seed_diff,
            "same_seed_differences": same_seed_diff,
            "hashseed_drift": hash_drift,
        }
        print(f"{workload}: same seed identical={not same_seed_diff} "
              f"{same_seed_diff}; PYTHONHASHSEED drift in {sorted(hash_drift)}",
              flush=True)
    return out


def cmd_trace(args) -> dict:
    out = {}
    for workload in args.workloads.split(","):
        report = run(workload, args.seed, args.seconds, ("--trace", "1"))
        rec = report["reconciliation"]
        top = sorted(rec["by_name"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
        out[workload] = {
            "overhead": report["trace"]["overhead"],
            "traced_wall_s": rec["wall_s"],
            "residual_s": rec["residual_s"],
            "shares": rec["shares"],
            "per_layer": {k: v["value"] for k, v in report["layers"].items()},
            "top_self": {name: {"calls": v["calls"], "self_s": v["self_s"]}
                         for name, v in top},
        }
        print(f"{workload}: overhead {report['trace']['overhead'] * 100:.1f}%, "
              + ", ".join(f"{k} {v * 100:.1f}%" for k, v in rec["shares"].items()),
              flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("sensitivity")
    p.add_argument("--seeds", default="1-3")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--layers", default=None)
    p = sub.add_parser("trace")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("determinism")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if getattr(args, "seconds", None) is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    handler = {"spread": cmd_spread, "sensitivity": cmd_sensitivity,
               "determinism": cmd_determinism, "trace": cmd_trace}[args.mode]
    result = handler(args)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.mode}.json"
    # A partial re-run (say one workload) updates its entries in place.
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(result)
    path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
