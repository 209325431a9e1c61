"""Saga cost model: commit/abort latency and the journal tax.

Written to ``BENCH_saga.json`` at the repository root:

- ``commit``: p50/p99 simulated commit latency (begin -> committed) for
  3-step sagas fanned across two participant runtimes with ~2 KB forward
  payloads.
- ``abort``: p50/p99 simulated latency from begin to fully compensated
  for sagas whose final step terminally refuses -- the price of rollback
  is two extra legs (compensations) against already-warm peers.
- ``journal_overhead``: coordinator journal bytes for the saga workload
  divided by the bytes the *same* payload stream costs as plain connected
  sends.  Saga invoke envelopes are journaled opaque (the payload is
  already durable in ``saga-begin``), so the bar is <= 1.3x.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.messages import UMessage
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

COMMIT_SAGAS = 150
ABORT_SAGAS = 60
STEPS = 3
FORWARD_PAYLOAD = "x" * 2048
COMP_PAYLOAD = "u" * 64
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_saga.json"

ROLES = ["lock", "light", "camera"]


def percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(int(round(fraction * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[index]


def sink_device(translator_id, role, refuse_prefix=None):
    sink = Translator(translator_id, role=role)

    def handler(message):
        if refuse_prefix and message.payload.startswith(refuse_prefix):
            raise ValueError("refused")

    sink.add_digital_input("op-in", "text/plain", handler)
    return sink


def build():
    bed = build_testbed(hosts=["h1", "h2", "h3"])
    r1 = bed.add_runtime("h1")
    r2 = bed.add_runtime("h2")
    r3 = bed.add_runtime("h3")
    r2.register_translator(sink_device("lock-dev", "lock"))
    r3.register_translator(sink_device("light-dev", "light"))
    # The last saga step targets the camera; "!" payloads make it refuse
    # terminally, driving the abort + compensate path.
    r2.register_translator(sink_device("camera-dev", "camera", refuse_prefix="!"))
    bed.settle(2.0)
    return bed, r1


def actions(fail_last=False):
    result = []
    for index, role in enumerate(ROLES):
        forward = FORWARD_PAYLOAD
        if fail_last and index == STEPS - 1:
            forward = "!" + FORWARD_PAYLOAD
        result.append((
            Query(role=role),
            UMessage("text/plain", forward, size=len(forward)),
            UMessage("text/plain", COMP_PAYLOAD, size=len(COMP_PAYLOAD)),
        ))
    return result


def run_sagas(bed, runtime, count, fail_last):
    """Drive ``count`` sagas back-to-back, one in flight at a time, and
    return each one's begin-to-finished simulated latency in ms."""
    latencies = []

    def driver():
        for _ in range(count):
            started = bed.kernel.now
            saga = runtime.connect_saga(actions(fail_last=fail_last))
            yield from saga.wait()
            latencies.append((bed.kernel.now - started) * 1e3)

    process = bed.kernel.process(driver(), name="saga-bench-driver")
    bed.settle(count * 30.0)
    assert not process.is_alive, "saga benchmark driver never finished"
    assert runtime.sagas.idle
    return latencies


def bench_latency() -> dict:
    bed, r1 = build()
    commit = run_sagas(bed, r1, COMMIT_SAGAS, fail_last=False)
    abort = run_sagas(bed, r1, ABORT_SAGAS, fail_last=True)
    assert r1.sagas.committed == COMMIT_SAGAS
    assert r1.sagas.rolled_back == ABORT_SAGAS
    return {
        "commit": {
            "sagas": COMMIT_SAGAS,
            "steps": STEPS,
            "payload_bytes": len(FORWARD_PAYLOAD),
            "p50_sim_ms": round(percentile(commit, 0.50), 3),
            "p99_sim_ms": round(percentile(commit, 0.99), 3),
        },
        "abort": {
            "sagas": ABORT_SAGAS,
            "steps": STEPS,
            "p50_sim_ms": round(percentile(abort, 0.50), 3),
            "p99_sim_ms": round(percentile(abort, 0.99), 3),
        },
    }


def bench_journal_overhead() -> dict:
    """Cumulative coordinator journal bytes (``bytes_written``, which
    checkpoint compaction never deducts): saga workload vs the same
    payload stream as plain connected sends."""
    saga_bed, saga_r1 = build()
    base = saga_r1.journal.bytes_written
    run_sagas(saga_bed, saga_r1, COMMIT_SAGAS, fail_last=False)
    saga_bytes = saga_r1.journal.bytes_written - base

    bed = build_testbed(hosts=["h1", "h2", "h3"])
    r1 = bed.add_runtime("h1")
    r2 = bed.add_runtime("h2")
    r3 = bed.add_runtime("h3")
    sinks = {}
    for runtime, role in ((r2, "lock"), (r3, "light"), (r2, "camera")):
        sink = sink_device(f"plain-{role}", role)
        runtime.register_translator(sink)
        sinks[role] = sink
    source = Translator("plain-feed", role="sensor")
    outs = {
        role: source.add_digital_output(f"out-{role}", "text/plain")
        for role in ROLES
    }
    r1.register_translator(source)
    bed.settle(2.0)
    for role in ROLES:
        r1.connect(outs[role], sinks[role].profile.port_ref("op-in"))
    plain_base = r1.journal.bytes_written

    def sender():
        for _ in range(COMMIT_SAGAS):
            for role in ROLES:
                outs[role].send(
                    UMessage(
                        "text/plain", FORWARD_PAYLOAD, size=len(FORWARD_PAYLOAD)
                    )
                )
            yield bed.kernel.timeout(0.05)

    bed.kernel.process(sender(), name="plain-sender")
    bed.settle(COMMIT_SAGAS * 0.05 + 10.0)
    plain_bytes = r1.journal.bytes_written - plain_base

    return {
        "messages": COMMIT_SAGAS * STEPS,
        "saga_journal_bytes": saga_bytes,
        "plain_journal_bytes": plain_bytes,
        "ratio": round(saga_bytes / plain_bytes, 3),
    }


def test_saga_cost(compare):
    latency = bench_latency()
    overhead = bench_journal_overhead()

    results = {
        "benchmark": "saga",
        "schema": 1,
        "commit": latency["commit"],
        "abort": latency["abort"],
        "journal_overhead": overhead,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    compare(
        "3-step saga latency (simulated ms, 2 KB forward payloads)",
        ["outcome", "sagas", "p50 (ms)", "p99 (ms)"],
        [
            [
                "committed",
                latency["commit"]["sagas"],
                latency["commit"]["p50_sim_ms"],
                latency["commit"]["p99_sim_ms"],
            ],
            [
                "abort + compensate",
                latency["abort"]["sagas"],
                latency["abort"]["p50_sim_ms"],
                latency["abort"]["p99_sim_ms"],
            ],
        ],
    )
    compare(
        "Coordinator journal bytes: sagas vs plain sends, same payloads",
        ["workload", "journal bytes", "ratio"],
        [
            ["plain connected sends", overhead["plain_journal_bytes"], 1.0],
            ["3-step sagas", overhead["saga_journal_bytes"], overhead["ratio"]],
        ],
    )

    # Acceptance: an abort costs more than a commit (the compensation
    # legs), but stays the same order of magnitude.
    assert latency["abort"]["p50_sim_ms"] > latency["commit"]["p50_sim_ms"]
    # Acceptance: journaling each payload once (saga-begin) plus the
    # fixed-size state-machine records costs at most 1.3x the plain
    # spool-journaled stream of the same payloads.
    assert overhead["ratio"] <= 1.3, overhead
