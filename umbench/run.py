"""uMiddle benchmark entry point.

Usage (from the repository root)::

    python3 umbench/run.py --workload telemetry-scale --seed 1 --seconds 10 --trace 0
    python3 umbench/run.py --workload all --seed 1 --seconds 10

One run sets the workload up ``SETUPS`` times (``setup_s`` is the
median), measures whole epochs until ``--seconds`` of wall time are
spent, drains to quiescence and checks every output against the
benchmark's own oracle.  It prints every metric of the workload by name
with its unit and sample count, then, as the last line, one JSON object
with the gated metrics named in BENCHMARK.json: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--trace 1`` measures half the budget untraced and half with every
layer's public entry points wrapped (see ``tracer.py``), so the report
also states the tracing overhead.  ``--workload all`` runs each
workload in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".umbench"

WORKLOAD_NAMES = ("telemetry-scale", "telemetry-paper", "directory-churn",
                  "crash-recover")
#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Busy-wait per call for the sensitivity self-check, per layer: sized
#: from traced call rates to move the heavy workload well past its bound.
INJECT_DELAY_US = {"codec": 200.0, "checkpoint": 200_000.0,
                   "shard_lookup": 1000.0, "replay": 250_000.0}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the measured work: the whole epochs that "
                             "take about this long on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None, choices=sorted(INJECT_DELAY_US),
                        help="sensitivity self-check: busy-wait in one layer")
    parser.add_argument("--profile", default=None,
                        help="run the workload under another flag profile "
                             "of harness.PROFILES instead of its own")
    parser.add_argument("--report", default=None,
                        help="also write the full report as JSON to this path")
    return parser.parse_args(argv)


def gated_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        [m["name"] for m in spec["end_to_end"]],
        [m["name"] for m in spec["per_layer"]],
    )


def measure(workload, epochs: int) -> float:
    """Run ``epochs`` epochs of the schedule; returns the wall time."""
    workload.begin_measure()
    start = time.perf_counter()
    while workload.epochs < epochs:
        workload.run_epoch()
    workload.end_measure()
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import layers
    from stats import median
    from tracer import Injector, Tracer

    factory = harness.WORKLOADS[args.workload]
    setup_times = []
    workload = None
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        workload = factory(args.seed)
        if args.profile:
            workload.profile = args.profile
        start = time.perf_counter()
        workload.setup()
        setup_times.append(
            (time.perf_counter() - start) / workload.speed.slowdown)
    gc.collect()

    injector = None
    if args.inject:
        injector = Injector(args.inject, INJECT_DELAY_US[args.inject] / 1e6).install()

    report = {"workload": args.workload, "seed": args.seed,
              "profile": workload.profile, "loop": workload.loop,
              "offered_rate_per_sim_s": workload.offered_rate,
              "epoch_sim_s": workload.epoch_s, "inject": args.inject}
    tracer = None
    if args.trace:
        # Tracing overhead: the budget is split into an untraced and a
        # traced half of the same number of epochs (whole periods both),
        # so the two halves do comparable work.
        epochs = workload.epochs_for(args.seconds / 2)
        untraced_wall = measure(workload, epochs)
        untraced = workload.ops / workload.wall
        tracer = Tracer().install()
        workload.tracer = tracer
        tracer.start()
        measure(workload, epochs)
        tracer.stop()
        traced = workload.ops / workload.wall
        workload.tracer = None
        tracer.uninstall()
        report["trace"] = {
            "untraced_ops_per_wall_s": untraced,
            "traced_ops_per_wall_s": traced,
            "overhead": untraced / traced - 1.0,
            "untraced_phase_s": untraced_wall,
            "traced_phase_s": tracer.wall,
            "traced_epochs": epochs,
        }
    else:
        epochs = workload.epochs_for(args.seconds)
        report["measured_phase_s"] = measure(workload, epochs)
    if injector is not None:
        report["inject_calls"] = injector.calls
        report["inject_delay_us"] = injector.delay_s * 1e6
        injector.uninstall()
    report["speed"] = {"slowdown": workload.speed.slowdown,
                       "probes": len(workload.speed.samples),
                       "raw_ops_per_wall_s": workload.ops / workload.prog_wall}
    report["epochs"] = workload.epochs
    report["sim_s_measured"] = workload.sim_measured

    metrics = workload.metrics()
    workload.drain()
    failed = workload.failures.count
    attempted = max(workload.attempted, 1)
    metrics["setup_s"] = {"value": median(setup_times), "unit": "s", "n": SETUPS}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB", "n": 1}
    metrics["failed_ratio"] = {"value": failed / attempted, "unit": "1",
                               "n": attempted}
    report.update(metrics=metrics, setup_runs_s=setup_times, attempted=attempted,
                  failed=failed, failure_kinds=workload.failures.kinds,
                  failure_examples=workload.failures.examples,
                  counters=workload.measured)
    universal = workload.universal(metrics)
    universal["setup_s"] = metrics["setup_s"]
    universal["peak_rss_mb"] = metrics["peak_rss_mb"]
    report["gated"] = universal

    if tracer is not None:
        report["layers"] = layers.layer_metrics(workload, tracer)
        report["reconciliation"] = layers.reconcile(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(str(spans))
        report["spans_file"] = str(spans.relative_to(ROOT))

    print_report(report)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1, default=float) + "\n")

    end_to_end, per_layer = gated_names()
    if args.trace:
        values = {name: report["layers"][name] for name in per_layer}
    else:
        values = {name: universal[name] for name in end_to_end}
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": v["value"], "unit": v["unit"]}
            for name, v in values.items()
        },
    }))
    return 0


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, profile "
          f"{report['profile']}, {report['loop']}, offered "
          f"{report['offered_rate_per_sim_s']:g}/sim-s, {report['epochs']} "
          f"epoch(s) = {report['sim_s_measured']:g} sim-s)")
    print("-- end-to-end")
    for name, m in sorted(report["metrics"].items()):
        note = "" if m.get("supported", True) else "  (under 10 samples beyond)"
        print(f"   {name:28s} {fmt(m['value']):>14s} {m['unit']:5s} n={m['n']}{note}")
    if report["failed"]:
        print(f"-- {report['failed']} failure(s) of {report['attempted']}:")
        for kind, count in report["failure_kinds"].items():
            print(f"   {kind:24s} {count:6d}  e.g. {report['failure_examples'][kind]}")
    if "trace" in report:
        t = report["trace"]
        print(f"-- tracing overhead: {t['overhead'] * 100:.1f}% "
              f"({t['untraced_ops_per_wall_s']:.1f} untraced vs "
              f"{t['traced_ops_per_wall_s']:.1f} traced ops/wall-s)")
        rec = report["reconciliation"]
        print(f"-- traced wall {rec['wall_s']:.3f}s = layer self times "
              f"{rec['layers_s']:.3f}s + outside any span {rec['outside_s']:.3f}s "
              f"(residual {rec['residual_s']:.2e}s)")
        for layer, share in rec["shares"].items():
            print(f"   {layer:32s} {share * 100:6.2f}%")
        print("-- per-layer")
        for name, m in report["layers"].items():
            print(f"   {name:28s} {fmt(m['value']):>14s} {m['unit']}")


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print(f"umbench: program source src/repro or BENCHMARK.json missing "
              f"under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
