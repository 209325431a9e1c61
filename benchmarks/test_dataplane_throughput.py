"""Data-plane throughput: the batched, pipelined, binary data plane versus
the paper's one-envelope-per-frame JSON baseline.

Writes ``BENCH_dataplane.json`` at the repository root.  A single source
fans one 1k-message burst out to 1, 8 and 64 peer runtimes over a fast
(1 Gbps) LAN, so the calibrated *host-side* costs -- per-segment TCP
processing, per-envelope marshal, per-frame round trips -- dominate
instead of the paper's 10 Mbps wire.  Batching amortizes exactly those
costs, so the measured simulated-time speedup is the tentpole claim:

- >= 3x messages/s at 64-peer fanout with the data plane on vs off,
- <= 1.05x per-message cost at single-peer scale (no regression), and
- with the WAL on (group commit), batched throughput still beats
  unbatched while appending strictly fewer journal records (each leg
  also reports the journal bytes it wrote).

Bytes on wire come from the hub's ``bytes_transmitted`` counter: shared
batch framing and intra-batch delta headers also shrink the per-envelope
header overhead.  The 64-peer burst queues deep enough that the
load-adaptive batch controller must engage.

The codec matrix (PR 7) re-runs the 64-peer fanout with *structured*
payloads -- dicts whose wire cost is their canonical-JSON length, the
honest model for telemetry-style traffic -- across two legs: JSON
stop-and-wait (the paper baseline) and the data plane (binary codec,
delta batches, load-adaptive batching).  Asserted: data-plane wire bytes
<= 0.25x the stop-and-wait baseline.  A 1-peer low-load run measures
per-message delivery latency (p50/p99, simulated clock) with the data
plane off and on -- batching must not tax the quiet path it was not
built for.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.calibration import DEFAULT
from repro.core.messages import UMessage
from repro.core.qos import QosPolicy
from repro.core.translator import Translator
from repro.testbed import build_testbed

MESSAGES = 1000
MESSAGE_BYTES = 120
PEER_COUNTS = (1, 8, 64)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_dataplane.json"

#: The paper's 10 Mbps hub wire-binds both sender variants; a gigabit
#: LAN exposes the host-side costs that batching actually amortizes.
FAST_LAN = DEFAULT.with_overrides(
    network=replace(DEFAULT.network, ethernet_bandwidth_bps=1_000_000_000.0)
)


def structured_payload(index: int) -> dict:
    """A telemetry-style reading: repeated field names and enum-ish string
    values (the interning sweet spot), sized honestly by its JSON form."""
    return {
        "kind": "sensor-reading",
        "sensor": "temperature",
        "site": "building-7/floor-3/room-12",
        "unit": "celsius",
        "quality": "calibrated",
        "status": "nominal",
        "value": index % 40,
        "seq": index,
    }


def run_fanout(peers: int, batching: bool, structured: bool = False,
               **runtime_kwargs) -> dict:
    """Deliver one burst to ``peers`` runtimes; measure simulated time."""
    hosts = ["h0"] + [f"p{i}" for i in range(peers)]
    bed = build_testbed(calibration=FAST_LAN, hosts=hosts)
    bed.network.trace.enabled = False  # measure the guarded fast path
    producer = bed.add_runtime(
        "h0",
        calibration=FAST_LAN,
        batching_enabled=batching,
        **runtime_kwargs,
    )
    producer.transport.SPOOL_CAPACITY = MESSAGES + 64
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    received = []
    sinks = []
    for index in range(peers):
        runtime = bed.add_runtime(
            f"p{index}", calibration=FAST_LAN, batching_enabled=batching
        )
        sink = Translator(f"display-{index}", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        runtime.register_translator(sink)
        sinks.append(sink)
    bed.settle(2.0)
    qos = QosPolicy(buffer_capacity=MESSAGES + 64)
    for sink in sinks:
        producer.connect(out, sink.profile.port_ref("data-in"), qos=qos)
    bed.settle(1.0)

    expected = MESSAGES * peers
    bytes_before = bed.lan.bytes_transmitted
    start_sim = bed.kernel.now
    start_wall = time.perf_counter()
    for index in range(MESSAGES):
        if structured:
            # Size derives from the payload's canonical JSON form; the
            # binary codec re-encodes the same dict far smaller inline.
            out.send(UMessage("text/plain", structured_payload(index)))
        else:
            out.send(UMessage("text/plain", f"m{index}", MESSAGE_BYTES))
    # Fine-grained settle steps keep the sim-time quantization error well
    # under the per-variant difference being measured.
    stalled_steps = 0
    while len(received) < expected:
        before = len(received)
        bed.settle(0.05)
        if len(received) == before:
            stalled_steps += 1
            if stalled_steps >= 200:  # 10 simulated seconds of silence
                raise AssertionError(
                    f"stalled at {len(received)}/{expected} deliveries "
                    f"(peers={peers}, batching={batching})"
                )
        else:
            stalled_steps = 0
    wall_s = time.perf_counter() - start_wall
    sim_s = bed.kernel.now - start_sim
    return {
        "peers": peers,
        "messages": expected,
        "sim_s": sim_s,
        "wall_s": round(wall_s, 3),
        "msgs_per_sim_s": round(expected / sim_s, 1),
        "wire_bytes": bed.lan.bytes_transmitted - bytes_before,
        "batches_sent": producer.transport.batches_sent,
        "journal_records": producer.journal.records_appended,
        "journal_bytes": producer.journal.bytes_written,
        "codec_frames_sent": producer.transport.codec_frames_sent,
        "batch_adaptations": producer.transport.batch_adaptations,
    }


def bench_fanout_matrix() -> dict:
    matrix = {}
    for peers in PEER_COUNTS:
        off = run_fanout(peers, batching=False)
        on = run_fanout(peers, batching=True)
        matrix[str(peers)] = {
            "off": off,
            "on": on,
            "speedup": round(off["sim_s"] / on["sim_s"], 2),
            "wire_bytes_ratio": round(
                on["wire_bytes"] / off["wire_bytes"], 3
            ),
        }
    return matrix


def bench_codec_matrix() -> dict:
    """64-peer fanout with structured payloads: JSON stop-and-wait vs the
    data plane (binary codec + adaptive batching)."""
    stop_and_wait = run_fanout(64, batching=False, structured=True)
    adaptive = run_fanout(64, batching=True, structured=True)
    return {
        "stop_and_wait": stop_and_wait,
        "codec_adaptive": adaptive,
        "wire_bytes_vs_stop_and_wait": round(
            adaptive["wire_bytes"] / stop_and_wait["wire_bytes"], 3
        ),
    }


LATENCY_MESSAGES = 300
LATENCY_SPACING_S = 0.02


def percentile(samples, fraction: float) -> float:
    ranked = sorted(samples)
    index = min(len(ranked) - 1, int(round(fraction * (len(ranked) - 1))))
    return ranked[index]


def run_latency(data_plane: bool) -> dict:
    """1-peer low load: one spaced message at a time, per-message delivery
    latency on the simulated clock."""
    bed = build_testbed(calibration=FAST_LAN, hosts=["h0", "p0"])
    bed.network.trace.enabled = False
    kwargs = dict(calibration=FAST_LAN, batching_enabled=data_plane)
    producer = bed.add_runtime("h0", **kwargs)
    consumer = bed.add_runtime("p0", **kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    deliveries = []
    sink = Translator("display-0", role="display")
    sink.add_digital_input(
        "data-in", "text/plain", lambda m: deliveries.append(bed.kernel.now)
    )
    consumer.register_translator(sink)
    bed.settle(2.0)
    producer.connect(out, sink.profile.port_ref("data-in"), qos=QosPolicy())
    bed.settle(1.0)

    latencies_ms = []
    for index in range(LATENCY_MESSAGES):
        sent_at = bed.kernel.now
        out.send(UMessage("text/plain", structured_payload(index)))
        bed.settle(LATENCY_SPACING_S)
        assert len(deliveries) == index + 1, (data_plane, index, len(deliveries))
        latencies_ms.append((deliveries[-1] - sent_at) * 1000.0)
    return {
        "data_plane": data_plane,
        "messages": LATENCY_MESSAGES,
        "p50_ms": round(percentile(latencies_ms, 0.50), 4),
        "p99_ms": round(percentile(latencies_ms, 0.99), 4),
    }


def bench_latency_pair() -> dict:
    off = run_latency(data_plane=False)
    on = run_latency(data_plane=True)
    return {
        "off": off,
        "on": on,
        "p99_ratio": round(on["p99_ms"] / off["p99_ms"], 3),
    }


def bench_wal_pair() -> dict:
    """WAL on with group commit: 8-peer fanout on both planes, plus a
    single-peer batched leg.

    Both planes write one ``spool`` record per envelope; the data plane's
    saving is its counted acks, one ``spool-ack`` per batch frame instead
    of one per envelope.
    """
    off = run_fanout(8, batching=False, fsync_interval=0.05)
    on = run_fanout(8, batching=True, fsync_interval=0.05)
    single = run_fanout(1, batching=True, fsync_interval=0.05)
    return {
        "off": off,
        "on": on,
        "single_peer_on": single,
        "speedup": round(off["sim_s"] / on["sim_s"], 2),
        "journal_records_ratio": round(
            on["journal_records"] / off["journal_records"], 3
        ),
    }


def test_dataplane_throughput(compare):
    matrix = bench_fanout_matrix()
    wal = bench_wal_pair()
    codec = bench_codec_matrix()
    latency = bench_latency_pair()

    results = {
        "benchmark": "dataplane_throughput",
        "schema": 3,
        "messages_per_run": MESSAGES,
        "message_bytes": MESSAGE_BYTES,
        "fanout": matrix,
        "wal_group_commit": wal,
        "codec": codec,
        "latency_1peer": latency,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    rows = []
    for peers in PEER_COUNTS:
        cell = matrix[str(peers)]
        rows.append(
            [
                peers,
                cell["off"]["msgs_per_sim_s"],
                cell["on"]["msgs_per_sim_s"],
                cell["speedup"],
                cell["wire_bytes_ratio"],
            ]
        )
    compare(
        "Data plane vs paper peer senders (1 Gbps LAN, 1k-message burst)",
        ["peers", "msgs/s off", "msgs/s on", "speedup", "wire bytes ratio"],
        rows,
    )
    compare(
        "WAL on (group commit, 8 peers; last leg 1 peer): data plane vs paper sender",
        ["variant", "msgs/s", "journal records", "journal bytes"],
        [
            [
                label,
                wal[leg]["msgs_per_sim_s"],
                wal[leg]["journal_records"],
                wal[leg]["journal_bytes"],
            ]
            for label, leg in (
                ("unbatched", "off"),
                ("batched", "on"),
                ("batched, 1 peer", "single_peer_on"),
            )
        ],
    )

    compare(
        "Binary codec + adaptive batching (64 peers, structured payloads)",
        ["variant", "msgs/s", "wire bytes", "frames", "adaptations"],
        [
            [
                "JSON stop-and-wait",
                codec["stop_and_wait"]["msgs_per_sim_s"],
                codec["stop_and_wait"]["wire_bytes"],
                0,
                0,
            ],
            [
                "codec adaptive",
                codec["codec_adaptive"]["msgs_per_sim_s"],
                codec["codec_adaptive"]["wire_bytes"],
                codec["codec_adaptive"]["batches_sent"],
                codec["codec_adaptive"]["batch_adaptations"],
            ],
        ],
    )
    compare(
        "Per-message delivery latency (1 peer, low load, simulated ms)",
        ["data plane", "p50 ms", "p99 ms"],
        [
            ["off", latency["off"]["p50_ms"], latency["off"]["p99_ms"]],
            ["on", latency["on"]["p50_ms"], latency["on"]["p99_ms"]],
        ],
    )

    # Acceptance: >= 3x throughput at 64-peer fanout.
    assert matrix["64"]["speedup"] >= 3.0, matrix["64"]
    # Acceptance: no regression at single-peer scale (<= 1.05x cost).
    assert matrix["1"]["on"]["sim_s"] <= 1.05 * matrix["1"]["off"]["sim_s"], (
        matrix["1"]
    )
    # Batch framing also saves wire bytes at every scale.
    for peers in PEER_COUNTS:
        assert matrix[str(peers)]["wire_bytes_ratio"] < 1.0, peers
    # Acceptance: WAL-on batched beats WAL-on unbatched, with strictly
    # fewer journal records (counted acks).
    assert wal["speedup"] > 1.0, wal
    assert wal["on"]["journal_records"] < wal["off"]["journal_records"], wal
    # Acceptance (PR 7): the binary codec with adaptive batching cuts
    # wire bytes to <= 0.25x the JSON stop-and-wait baseline.
    assert codec["wire_bytes_vs_stop_and_wait"] <= 0.25, codec
    # The adaptive controller actually engaged under the 64-peer burst
    # backlog.  (The structured codec leg's delta frames are small enough
    # that its burst no longer queues.)
    assert matrix["64"]["on"]["batch_adaptations"] > 0, matrix["64"]
    # Acceptance (PR 7): no p99 latency regression at 1-peer low load.
    assert latency["p99_ratio"] <= 1.05, latency
