"""The transport's wire and journal bytes, pinned for both data planes.

One runtime asks its peer for a remote ``connect`` (a control envelope),
then the peer streams 40 messages of mixed sizes back over the path it
created, one of them with a payload that is not JSON-representable (its
spool record is an opaque marker).  Each test asserts what the run
leaves behind against fixed values: the producer's peer-stream message
and byte counts, the sim time of the last delivery, and the length and
SHA-1 of both runtimes' journal blobs.  A refactor of the peer sender or
the receive path that keeps every byte and timestamp keeps these.

The stream starts after discovery has settled and the run stays short of
a journal checkpoint, so no pinned value depends on zlib's output, which
may differ between zlib builds: the data plane compresses only
discovery's bulk pushes, which are over by then.  Translator, path and
message ids come from process-global counters; they are pinned per test.
"""

import hashlib
import itertools

import pytest

import repro.core.binding as binding_module
import repro.core.messages as messages_module
import repro.core.saga as saga_module
import repro.core.translator as translator_module
import repro.core.transport as transport_module
from repro.core.messages import UMessage
from repro.core.translator import Translator
from repro.testbed import build_testbed

MESSAGES = 40
OPAQUE_INDEX = 17

#: Observed values per data plane (``batching_enabled``).
PINNED = {
    False: {
        "stream_messages": 40,
        "stream_bytes": 31988,
        "last_delivery_s": 1.731788,
        "producer_journal": (5186, "792a36197a733081dc77fe0b8cb4288a4fbb822c"),
        "consumer_journal": (372, "a1bf73265f868110b52394e33050ebb378802810"),
    },
    True: {
        "stream_messages": 19,
        "stream_bytes": 30409,
        "last_delivery_s": 1.7219391499999988,
        "producer_journal": (4475, "4afc41a7baab2bc3b6d0ff5384d18ca2c1d535ab"),
        "consumer_journal": (372, "a1bf73265f868110b52394e33050ebb378802810"),
    },
}


def payload_for(index):
    """A mixed stream: short strings, structured dicts sized from their
    JSON, one payload larger than a batch frame, one opaque object."""
    if index == OPAQUE_INDEX:
        return object(), 700
    if index == 29:
        return "bulk", 9000
    if index % 3 == 0:
        return {"reading": index, "unit": "lux", "tags": ["a"] * (index % 5)}, None
    return f"m{index}", 40 + (index * 173) % 1400


def label(payload):
    if isinstance(payload, dict):
        return payload["reading"]
    return payload if isinstance(payload, str) else "opaque"


def journal_digest(runtime):
    blob = bytes(runtime.journal.blob)
    return len(blob), hashlib.sha1(blob).hexdigest()


def run_stream(monkeypatch, data_plane):
    monkeypatch.setattr(translator_module, "_instance_counter", itertools.count(500))
    monkeypatch.setattr(messages_module, "_sequence", itertools.count(500))
    monkeypatch.setattr(transport_module, "_path_counter", itertools.count(500))
    monkeypatch.setattr(binding_module, "_binding_counter", itertools.count(500))
    monkeypatch.setattr(saga_module, "_saga_counter", itertools.count(500))
    bed = build_testbed(hosts=["h0", "h1"])
    producer = bed.add_runtime("h0", batching_enabled=data_plane)
    consumer = bed.add_runtime("h1", batching_enabled=data_plane)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    deliveries = []
    sink = Translator("display", role="display")
    sink.add_digital_input(
        "data-in", "text/plain",
        lambda message: deliveries.append((bed.kernel.now, message.payload)),
    )
    consumer.register_translator(sink)
    bed.settle(1.0)
    consumer.connect(source.profile.port_ref("data-out"), sink.input_port("data-in"))
    bed.settle(0.5)

    def produce(kernel):
        for index in range(MESSAGES):
            payload, size = payload_for(index)
            out.send(UMessage("text/plain", payload, size))
            # Bursts of eight, then a pause the senders can drain in.
            yield kernel.timeout(0.05 if index % 8 == 7 else 0.0005)

    bed.kernel.process(produce(bed.kernel), name="produce")
    bed.settle(5.0)
    assert [label(payload) for _time, payload in deliveries] == [
        label(payload_for(index)[0]) for index in range(MESSAGES)
    ]
    assert producer.journal.checkpoints == consumer.journal.checkpoints == 0
    stream = producer.transport._peer_streams[consumer.runtime_id]
    return {
        "stream_messages": stream.messages_sent,
        "stream_bytes": stream.bytes_sent,
        "last_delivery_s": deliveries[-1][0],
        "producer_journal": journal_digest(producer),
        "consumer_journal": journal_digest(consumer),
    }


@pytest.mark.parametrize(
    "data_plane", [False, True], ids=["paper-plane", "data-plane"]
)
def test_stream_bytes_and_timing_are_pinned(monkeypatch, data_plane):
    assert run_stream(monkeypatch, data_plane) == PINNED[data_plane]
