"""Data-plane compression benchmark: intra-batch delta encoding and
compressed bulk transfers.

Writes ``BENCH_compression.json`` at the repository root.  Three legs:

- **Delta batches** -- a telemetry stream's batches re-encoded with
  ``FRAME_BATCH_DELTA`` (first envelope full, the rest as header deltas
  against their predecessor) versus the plain PR 7 batch frame, both
  riding the same persistent per-peer symbol tables.  Gate: delta wire
  bytes <= 0.8x plain for multi-envelope batches.
- **Compressed full-state** -- a 25k-translator directory full-state
  announcement through ``FRAME_GOSSIP_Z`` (zlib block compression)
  versus the plain codec frame.  Gates: compressed bytes <= 0.5x plain,
  and cold-ingest (decode + apply) <= 1.1x the uncompressed ingest, as
  the medians of alternating cold ingests.
- **Paper flags** -- with the data plane off, compression must be
  invisible: a burst flows stop-and-wait with no batch, no delta frame
  and no compressed frame.  (Compression is part of the data
  plane, so its quiet-path latency is the data plane's own, gated in
  ``test_dataplane_throughput``.)
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from pathlib import Path
from typing import List

from repro.calibration import DEFAULT
from repro.core.codec import WireDecoder, WireEncoder, decode_gossip, encode_gossip
from repro.core.messages import UMessage
from repro.core.profile import TranslatorProfile
from repro.core.qos import QosPolicy
from repro.core.shapes import Direction, PortSpec, Shape
from repro.core.translator import Translator
from repro.core.runtime import UMiddleRuntime
from repro.testbed import build_testbed

from conftest import interleaved_medians

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_compression.json"

FAST_LAN = DEFAULT.with_overrides(
    network=replace(DEFAULT.network, ethernet_bandwidth_bps=1_000_000_000.0)
)

BATCHES = 8
ENVELOPES_PER_BATCH = 16


def message_envelope(seq: int) -> dict:
    """One data-plane message envelope as the transport builds it: the
    stream/origin/dst/mime header repeats verbatim across a batch while
    only ``seq`` and the payload vary -- the delta frame's sweet spot."""
    return {
        "kind": "message",
        "origin": "rt-h0",
        "stream": "rt-h0/feed:data-out->rt-p0/display-0:data-in",
        "seq": seq,
        "src": "rt-h0/feed:data-out",
        "dst": "rt-p0/display-0:data-in",
        "mime": "text/plain",
        "source": "rt-h0/feed:data-out",
        "headers": {},
        "payload": {
            "kind": "sensor-reading",
            "sensor": "temperature",
            "site": "building-7/floor-3/room-12",
            "unit": "celsius",
            "value": seq % 40,
            "seq": seq,
        },
        "size": 160,
    }


def bench_delta_batches() -> dict:
    """Plain vs delta batch frames over one telemetry stream's burst,
    with persistent (interning) encoder/decoder pairs per variant."""
    plain_enc, delta_enc = WireEncoder(), WireEncoder()
    delta_dec = WireDecoder()
    plain_bytes = delta_bytes = 0
    seq = 0
    for _batch in range(BATCHES):
        envelopes = [
            message_envelope(seq + i) for i in range(ENVELOPES_PER_BATCH)
        ]
        seq += ENVELOPES_PER_BATCH
        plain_bytes += plain_enc.encode_batch(envelopes).wire_size
        frame = delta_enc.encode_batch_delta(envelopes)
        delta_bytes += frame.wire_size
        decoded = delta_dec.decode_frame(frame)
        assert decoded["kind"] == "batch"
        assert decoded["envelopes"] == envelopes  # lossless round-trip
    return {
        "batches": BATCHES,
        "envelopes_per_batch": ENVELOPES_PER_BATCH,
        "plain_wire_bytes": plain_bytes,
        "delta_wire_bytes": delta_bytes,
        "delta_ratio": round(delta_bytes / plain_bytes, 3),
    }


FULL_STATE_TRANSLATORS = 25_000
#: Rounds of the alternating plain/compressed cold ingests; the gate
#: compares their medians.
INGEST_REPEATS = 5

PLATFORMS = ("upnp", "jini", "bluetooth", "motes", "webservices")
ROLES = ("display", "sensor", "printer", "player", "storage")
MIMES = ("text/plain", "image/jpeg", "audio/wav", "video/mpeg")


def make_profile(index: int, runtime_id: str) -> TranslatorProfile:
    shape = Shape(
        [
            PortSpec.digital("in", Direction.IN, MIMES[index % len(MIMES)]),
            PortSpec.digital(
                "out", Direction.OUT, MIMES[(index + 1) % len(MIMES)]
            ),
        ]
    )
    return TranslatorProfile(
        translator_id=f"t-{index:06d}",
        name=f"svc-{index:06d}",
        platform=PLATFORMS[index % len(PLATFORMS)],
        device_type=f"type-{index % 1250}",
        role=ROLES[index % len(ROLES)],
        runtime_id=runtime_id,
        shape=shape,
    )


def offline_runtime(bed, host: str, **kwargs) -> UMiddleRuntime:
    node = bed.add_host(host)
    return UMiddleRuntime(
        node, name=f"bench-{host}", auto_start=False, journal_enabled=False,
        **kwargs,
    )


def ingest_arm(frame, bed, host: str, sizes: List[int]):
    """Set-up of one cold ingest of a full-state frame (decode plus flat
    apply) into a fresh receiver, for :func:`interleaved_medians`; each
    ingest appends the receiver's directory size to ``sizes``.  The
    previous receiver is collected before the timer starts, so its
    interned profiles cannot make this ingest warm."""
    hosts = itertools.count()

    def setup():
        receiver = offline_runtime(bed, f"{host}-{next(hosts)}")

        def ingest():
            receiver.directory._apply_announcement(decode_gossip(frame))
            sizes.append(len(receiver.directory.profiles()))

        return ingest

    return setup


def bench_full_state() -> dict:
    """A 25k-translator full-state pull: plain codec gossip frame versus
    the zlib block-compressed frame, bytes and cold-ingest wall clock."""
    bed = build_testbed(hosts=[])
    sender = offline_runtime(bed, "full-state-src")
    for index in range(FULL_STATE_TRANSLATORS):
        sender.directory._store_entry(
            make_profile(index, sender.runtime_id),
            local=True,
            now=sender.kernel.now,
        )
    payload = sender.directory._announcement(
        sender.directory._local_profiles(), [], True, False
    )
    plain = encode_gossip(payload)
    packed = encode_gossip(payload, compress=True)
    assert decode_gossip(packed) == decode_gossip(plain)

    sizes: List[int] = []
    plain_s, packed_s = interleaved_medians(
        [
            ingest_arm(plain, bed, "ingest-plain", sizes),
            ingest_arm(packed, bed, "ingest-z", sizes),
        ],
        repeats=INGEST_REPEATS,
    )
    assert sizes == [FULL_STATE_TRANSLATORS] * (2 * INGEST_REPEATS)
    return {
        "translators": FULL_STATE_TRANSLATORS,
        "ingest_repeats": INGEST_REPEATS,
        "plain_wire_bytes": plain.wire_size,
        "compressed_wire_bytes": packed.wire_size,
        "compressed_ratio": round(packed.wire_size / plain.wire_size, 3),
        "plain_ingest_ms": round(plain_s * 1e3, 3),
        "compressed_ingest_ms": round(packed_s * 1e3, 3),
        "ingest_latency_ratio": round(packed_s / plain_s, 3),
    }


def bench_default_off_burst() -> dict:
    """A burst under the paper flags (sharding on, data plane off): every
    message arrives stop-and-wait, and no batch, no delta frame and no
    compressed frame ever appears."""
    bed = build_testbed(calibration=FAST_LAN, hosts=["h0", "p0"])
    bed.network.trace.enabled = False
    kwargs = dict(calibration=FAST_LAN, sharding_enabled=True)
    producer = bed.add_runtime("h0", **kwargs)
    consumer = bed.add_runtime("p0", **kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    received = []
    sink = Translator("display-0", role="display")
    sink.add_digital_input("data-in", "text/plain", received.append)
    consumer.register_translator(sink)
    bed.settle(2.0)
    producer.connect(
        out, sink.profile.port_ref("data-in"),
        qos=QosPolicy(buffer_capacity=512),
    )
    bed.settle(1.0)
    for index in range(200):
        out.send(UMessage("text/plain", f"m{index}", 120))
    bed.settle(10.0)
    assert len(received) == 200
    for runtime in (producer, consumer):
        assert runtime.transport.batches_sent == 0
        assert runtime.transport.codec_frames_sent == 0
        assert runtime.shards.z_frames_sent == 0
        assert runtime.shards.z_bytes_saved == 0
    return {
        "messages": 200,
        "batches_sent": producer.transport.batches_sent,
        "codec_frames_sent": producer.transport.codec_frames_sent,
        "z_frames_sent": producer.shards.z_frames_sent,
    }


def test_compression(compare):
    delta = bench_delta_batches()
    full_state = bench_full_state()
    default_off = bench_default_off_burst()

    results = {
        "benchmark": "compression",
        "schema": 2,
        "delta_batches": delta,
        "full_state": full_state,
        "default_off": default_off,
    }
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")

    compare(
        "Intra-batch delta encoding (8 batches x 16 envelopes)",
        ["variant", "wire bytes", "ratio"],
        [
            ["plain codec batch", delta["plain_wire_bytes"], "1.0"],
            ["delta batch", delta["delta_wire_bytes"],
             f"{delta['delta_ratio']}x"],
        ],
    )
    compare(
        "Full-state transfer at 25k translators",
        ["variant", "wire bytes", "ingest ms"],
        [
            ["plain codec", full_state["plain_wire_bytes"],
             full_state["plain_ingest_ms"]],
            ["zlib block", full_state["compressed_wire_bytes"],
             full_state["compressed_ingest_ms"]],
        ],
    )

    # Acceptance: delta batches cut multi-envelope batch wire bytes to
    # <= 0.8x the plain codec frame.
    assert delta["delta_ratio"] <= 0.8, delta
    # Acceptance: compressed full-state transfers move <= 0.5x the plain
    # bytes at 25k translators, without taxing cold ingest > 1.1x.
    assert full_state["compressed_ratio"] <= 0.5, full_state
    assert full_state["ingest_latency_ratio"] <= 1.1, full_state
    # Acceptance: the paper flags never compress (counters asserted
    # inline).
    assert default_off["codec_frames_sent"] == 0
    assert default_off["z_frames_sent"] == 0
