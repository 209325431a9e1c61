"""The binary wire codec: round-trip identity, corruption safety, and
federations whose runtimes run different data-plane flags.

The codec replaces canonical JSON on three surfaces -- transport
envelopes/batches, directory gossip datagrams, and journal record bodies
-- so these tests pin the properties the rest of the system leans on:

- encode -> decode is the identity for everything JSON could carry
  (after JSON's own key coercion), over fuzzed structures;
- a truncated or bit-flipped frame raises :class:`CodecError` (or, for
  journal bodies, fails the record CRC) -- it never silently mis-decodes;
- the sender's own flags pick the wire form and every receiver decodes
  every frame kind (delta batches and compressed gossip included), so a
  federation mixing paper-flag and data-plane runtimes delivers
  everything.
"""

import json
import random
from enum import IntEnum

import pytest

from repro.core.codec import (
    BinaryFrame,
    CodecError,
    WireDecoder,
    WireEncoder,
    decode_gossip,
    decode_journal_body,
    encode_gossip,
    encode_journal_body,
    encoded_size,
    is_binary_journal_body,
    json_size,
)
from repro.core.errors import ShapeError
from repro.core.journal import encode_record, replay_blob
from repro.core.messages import UMessage
from repro.core.profile import _canonical_digest
from repro.core.qos import QosPolicy
from repro.core.query import Query
from repro.core.translator import Translator
from repro.testbed import build_testbed

class _Level(IntEnum):
    LOW = 1


class _OddFloat(float):
    def __repr__(self):
        return "F!"


# -- fuzzed structure generators -------------------------------------------


def fuzz_value(rng, depth=0):
    """A random JSON-representable value (the codec's input domain)."""
    choices = ["none", "bool", "int", "float", "str", "symbolish"]
    if depth < 3:
        choices += ["list", "dict"]
    kind = rng.choice(choices)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(
            [0, -1, 1, 63, 64, -64, 2**31, -(2**31), 2**60, rng.randrange(-10**6, 10**6)]
        )
    if kind == "float":
        return rng.choice([0.0, -1.5, 3.14159, 1e-9, 1e12, float(rng.randrange(1000))])
    if kind == "str":
        length = rng.randrange(0, 200)
        return "".join(rng.choice("abcdeXYZ/:-.é中 ") for _ in range(length))
    if kind == "symbolish":
        # Short repeated strings: the interning sweet spot.
        return rng.choice(["text/plain", "rt-h0", "sensor", "path:a:b", "healthy"])
    if kind == "list":
        return [fuzz_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    return {
        rng.choice(["id", "mime", "x", "long-key-" + str(rng.randrange(5))]): fuzz_value(
            rng, depth + 1
        )
        for _ in range(rng.randrange(0, 5))
    }


def fuzz_envelope(rng, index):
    return {
        "kind": "message",
        "mime": rng.choice(["text/plain", "image/jpeg", "application/json"]),
        "payload": fuzz_value(rng),
        "size": rng.randrange(0, 4096),
        "source": "rt-h0/feed/data-out",
        "headers": {"n": index} if rng.random() < 0.5 else {},
        "dst": f"rt-p{rng.randrange(4)}/display/data-in",
        "origin": "rt-h0",
        "stream": f"path:{index % 3}:rt-p{rng.randrange(4)}",
        "seq": index + 1,
    }


def canonical(value):
    """What JSON transport would deliver: keys coerced, tuples listed."""
    return json.loads(json.dumps(value))


# -- round-trip identity ----------------------------------------------------


class TestRoundTrip:
    def test_fuzzed_envelopes_round_trip_over_one_stream(self):
        rng = random.Random(7)
        encoder, decoder = WireEncoder(), WireDecoder()
        for index in range(300):
            envelope = fuzz_envelope(rng, index)
            frame = encoder.encode_envelope(envelope)
            assert decoder.decode_frame(frame) == canonical(envelope)

    def test_fuzzed_batches_round_trip(self):
        rng = random.Random(23)
        encoder, decoder = WireEncoder(), WireDecoder()
        for _round in range(30):
            envelopes = [
                fuzz_envelope(rng, i) for i in range(rng.randrange(1, 12))
            ]
            frame = encoder.encode_batch(envelopes)
            decoded = decoder.decode_frame(frame)
            assert decoded["kind"] == "batch"
            assert decoded["count"] == len(envelopes)
            assert decoded["envelopes"] == [canonical(e) for e in envelopes]

    def test_fuzzed_gossip_bodies_round_trip(self):
        rng = random.Random(41)
        for _round in range(60):
            body = {
                "kind": "umiddle-directory",
                "profiles": [fuzz_value(rng) for _ in range(rng.randrange(0, 4))],
                "version": rng.randrange(1000),
                "extra": fuzz_value(rng),
            }
            assert decode_gossip(encode_gossip(body)) == canonical(body)

    def test_fuzzed_journal_records_round_trip(self):
        rng = random.Random(59)
        for lsn in range(1, 120):
            data = {"peer": "rt-p0", "entries": [[fuzz_value(rng), lsn]]}
            body = encode_journal_body({"data": data, "kind": "spool-batch", "lsn": lsn})
            assert is_binary_journal_body(body)
            assert b"\n" not in body  # must coexist with line framing
            assert decode_journal_body(body) == {
                "data": canonical(data),
                "kind": "spool-batch",
                "lsn": lsn,
            }

    def test_non_string_map_keys_match_json_coercion(self):
        # json.dumps coerces these silently; replayed journal state must be
        # identical whichever body format wrote it.
        value = {"outer": {1: "a", True: "b", None: "c", 2.5: "d"}}
        encoder, decoder = WireEncoder(), WireDecoder()
        frame = encoder.encode_envelope({"kind": "message", "payload": [value]})
        assert decoder.decode_frame(frame)["payload"] == [canonical(value)]

    def test_non_finite_float_keys_replay_as_json_spells_them(self):
        # json.dumps writes Infinity, -Infinity and NaN: a binary journal
        # must replay the keys a JSON journal replays.
        data = {"keys": {float("inf"): 1, float("-inf"): 2, float("nan"): 3, 0.5: 4}}
        (from_json,), _clean, _junk = replay_blob(encode_record(1, "register", data))
        (from_binary,), _clean, _junk = replay_blob(
            encode_record(1, "register", data, binary=True)
        )
        assert from_json["data"] == {"keys": {"Infinity": 1, "-Infinity": 2, "NaN": 3, "0.5": 4}}
        assert from_binary == from_json
        frame = WireEncoder().encode_envelope({"kind": "message", "payload": [data]})
        assert WireDecoder().decode_frame(frame)["payload"] == [canonical(data)]

    @pytest.mark.parametrize(
        "key, spelled",
        [(_Level.LOW, "1"), (_OddFloat(1.5), "1.5")],
        ids=["int-enum", "float-subclass"],
    )
    def test_int_and_float_subclass_keys_replay_as_json_spells_them(self, key, spelled):
        # json.dumps writes int.__repr__ and float.__repr__ of the key,
        # whatever the subclass's own __str__ or __repr__ say.
        data = {"keys": {key: "x"}}
        (from_json,), _clean, _junk = replay_blob(encode_record(1, "register", data))
        (from_binary,), _clean, _junk = replay_blob(
            encode_record(1, "register", data, binary=True)
        )
        assert from_json["data"] == {"keys": {spelled: "x"}}
        assert from_binary == from_json

    def test_opaque_payload_rides_out_of_band_at_declared_size(self):
        # Non-structured payloads are stand-ins for bytes the simulation
        # never materializes: the frame carries the object out of band and
        # charges the declared size.
        envelope = {"kind": "message", "payload": "stand-in", "size": 4096, "seq": 1}
        encoder, decoder = WireEncoder(), WireDecoder()
        frame = encoder.encode_envelope(envelope)
        assert frame.oob_bytes == 4096
        assert frame.wire_size == len(frame.data) + 4096
        assert decoder.decode_frame(frame)["payload"] == "stand-in"

    def test_structured_payloads_shrink_below_json(self):
        # The self-contained encoding wins through repetition: field names
        # defined once and referenced by 2-byte symbol ids thereafter.
        payload = {
            "readings": [
                {"sensor": f"s{i}", "value": i, "unit": "celsius", "ok": True}
                for i in range(8)
            ]
        }
        assert encoded_size(payload) < json_size(payload)

    def test_interning_shrinks_warm_frames(self):
        envelope = fuzz_envelope(random.Random(3), 0)
        encoder = WireEncoder()
        cold = len(encoder.encode_envelope(envelope).data)
        warm = len(encoder.encode_envelope(envelope).data)
        assert warm < cold  # dynamic symbols defined once, referenced after

    @pytest.mark.parametrize(
        "method",
        ["encode_envelope", "encode_batch", "encode_batch_delta"],
        ids=["env", "batch", "delta"],
    )
    def test_unencodable_value_raises_typeerror_and_rolls_back(self, method):
        """A ``payload`` or ``headers`` the codec cannot encode rides out
        of band; an unencodable value in any other field raises.  Either
        way the symbols the failed attempt defined are rolled back, so
        the next frame still decodes."""
        encoder, decoder = WireEncoder(), WireDecoder()
        single = method == "encode_envelope"

        def encode(envelopes):
            return getattr(encoder, method)(envelopes[-1] if single else envelopes)

        def decoded(frame):
            result = decoder.decode_frame(frame)
            return [result] if single else result["envelopes"]

        warm = [{"kind": "message", "payload": [{"warm": 1}], "seq": 1}]
        assert decoder.decode_frame(encode(warm))
        # The bad payload and headers define fresh symbols before they hit
        # the object.
        token = object()
        bad = [
            {"kind": "message", "payload": [{"fresh": "new-a"}], "seq": 2},
            {
                "kind": "message",
                "payload": [{"fresh-b": "new-c", "x": object()}],
                "size": 64,
                "headers": {"fresh-d": token},
                "seq": 3,
            },
        ]
        frame = encode(bad)
        assert len(frame.objs) == 2
        assert frame.objs[0] is bad[-1]["payload"]
        assert frame.objs[1] is bad[-1]["headers"]
        assert frame.oob_bytes == 64  # the declared size; headers ride free
        assert not {"fresh-b", "new-c", "fresh-d"} & set(encoder._symbols)
        assert decoded(frame) == (bad[-1:] if single else bad)
        # A field the runtime builds itself has no out-of-band form: the
        # frame raises and the table is back where the frame started.
        before = len(encoder._symbols)
        with pytest.raises(TypeError):
            encode([{"kind": "message", "payload": [{"fresh-e": "new-f"}], "dst": object()}])
        assert len(encoder._symbols) == before
        # Neither failed attempt taught the encoder symbols the decoder
        # never saw: the next good frame still decodes.
        good = [
            {"kind": "message", "payload": [{"fresh-b": "new-c"}], "seq": 4},
            {"kind": "message", "payload": [{"fresh-e": "new-f"}], "headers": {"fresh-d": 1}},
        ]
        assert decoded(encode(good)) == (good[-1:] if single else good)


# -- corruption: raise cleanly, never mis-decode ---------------------------


class TestCorruption:
    def frame(self):
        encoder = WireEncoder()
        return encoder.encode_batch(
            [fuzz_envelope(random.Random(11), i) for i in range(5)]
        )

    def test_truncation_at_every_offset_raises(self):
        frame = self.frame()
        for end in range(len(frame.data)):
            with pytest.raises(CodecError):
                WireDecoder().decode_frame(
                    BinaryFrame(frame.data[:end], frame.objs, frame.oob_bytes)
                )

    def test_bit_flip_at_every_offset_raises_or_roundtrips_crc(self):
        frame = self.frame()
        reference = WireDecoder().decode_frame(frame)
        for offset in range(len(frame.data)):
            for bit in (0x01, 0x80):
                mutated = bytearray(frame.data)
                mutated[offset] ^= bit
                try:
                    decoded = WireDecoder().decode_frame(
                        BinaryFrame(bytes(mutated), frame.objs, frame.oob_bytes)
                    )
                except CodecError:
                    continue
                # CRC-32 catches every single-bit flip; reaching here at
                # all means the checksum did not cover that byte.
                raise AssertionError(
                    f"bit flip at offset {offset} decoded to {decoded!r}"
                )

    def test_trailing_garbage_raises(self):
        frame = self.frame()
        with pytest.raises(CodecError):
            WireDecoder().decode_frame(
                BinaryFrame(frame.data + b"\x00", frame.objs, frame.oob_bytes)
            )

    def test_gossip_corruption_raises(self):
        frame = encode_gossip({"kind": "umiddle-directory", "version": 9})
        for end in range(len(frame.data)):
            with pytest.raises(CodecError):
                decode_gossip(BinaryFrame(frame.data[:end]))

    def test_corrupt_journal_body_fails_record_crc(self):
        record = encode_record(1, "register", {"a": [1, 2, 3]}, binary=True)
        blob = bytearray(record)
        blob[12] ^= 0x10
        records, _clean, discarded = replay_blob(bytes(blob))
        assert records == []
        assert discarded == len(blob)

    def test_mixed_format_blob_replays(self):
        # A journal written partly before and partly after the codec flag
        # flipped: replay reads both body formats in one chain.
        blob = encode_record(1, "register", {"id": "t1"}, binary=False)
        blob += encode_record(2, "register", {"id": "t2"}, binary=True)
        blob += encode_record(3, "path-open", {"path_id": "p1"}, binary=False)
        records, clean, discarded = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1, 2, 3]
        assert records[1]["data"] == {"id": "t2"}
        assert discarded == 0


# -- data-plane compression: delta batches and compressed frames -----------


class TestDeltaBatches:
    def test_fuzzed_delta_batches_round_trip(self):
        rng = random.Random(29)
        encoder, decoder = WireEncoder(), WireDecoder()
        for _round in range(30):
            envelopes = [
                fuzz_envelope(rng, i) for i in range(rng.randrange(1, 12))
            ]
            frame = encoder.encode_batch_delta(envelopes)
            decoded = decoder.decode_frame(frame)
            assert decoded["kind"] == "batch"
            assert decoded["count"] == len(envelopes)
            assert decoded["envelopes"] == [canonical(e) for e in envelopes]

    def test_delta_shrinks_repetitive_batches(self):
        # A real stream's batch: identical header fields, varying seq and
        # payload -- the delta frame's target shape.
        envelopes = [
            {
                "kind": "message",
                "origin": "rt-h0",
                "stream": "path:0:rt-p0",
                "dst": "rt-p0/display/data-in",
                "mime": "text/plain",
                "headers": {},
                "seq": index,
                "payload": {"value": index},
                "size": 120,
            }
            for index in range(12)
        ]
        plain = WireEncoder().encode_batch(envelopes)
        delta = WireEncoder().encode_batch_delta(envelopes)
        assert delta.wire_size < plain.wire_size

    def test_delta_removed_keys_do_not_leak_forward(self):
        # A key present in envelope N but absent in N+1 must be removed,
        # not inherited from the running previous-header state.
        envelopes = [
            {"kind": "message", "seq": 1, "headers": {"x": 1}, "payload": [1]},
            {"kind": "message", "seq": 2, "payload": [2]},
            {"kind": "message", "seq": 3, "headers": {"y": 2}, "payload": [3]},
        ]
        frame = WireEncoder().encode_batch_delta(envelopes)
        assert WireDecoder().decode_frame(frame)["envelopes"] == envelopes

    def test_opaque_payloads_ride_out_of_band_in_delta_frames(self):
        envelopes = [
            {"kind": "message", "seq": i, "payload": f"blob-{i}", "size": 2048}
            for i in range(4)
        ]
        frame = WireEncoder().encode_batch_delta(envelopes)
        assert frame.oob_bytes == 4 * 2048
        assert frame.wire_size == len(frame.data) + frame.oob_bytes
        decoded = WireDecoder().decode_frame(frame)
        assert [e["payload"] for e in decoded["envelopes"]] == [
            f"blob-{i}" for i in range(4)
        ]

    def delta_frame(self):
        return WireEncoder().encode_batch_delta(
            [fuzz_envelope(random.Random(17), i) for i in range(5)]
        )

    def test_delta_truncation_at_every_offset_raises(self):
        frame = self.delta_frame()
        for end in range(len(frame.data)):
            with pytest.raises(CodecError):
                WireDecoder().decode_frame(
                    BinaryFrame(frame.data[:end], frame.objs, frame.oob_bytes)
                )

    def test_delta_bit_flip_at_every_offset_raises(self):
        frame = self.delta_frame()
        for offset in range(len(frame.data)):
            for bit in (0x01, 0x80):
                mutated = bytearray(frame.data)
                mutated[offset] ^= bit
                try:
                    decoded = WireDecoder().decode_frame(
                        BinaryFrame(bytes(mutated), frame.objs, frame.oob_bytes)
                    )
                except CodecError:
                    continue
                raise AssertionError(
                    f"bit flip at offset {offset} decoded to {decoded!r}"
                )


class TestCompressedFrames:
    def payload(self):
        # Repetitive full-state-shaped body: the compression sweet spot.
        return {
            "kind": "umiddle-directory",
            "full": True,
            "profiles": [
                {
                    "translator_id": f"t-{i:04d}",
                    "platform": "upnp",
                    "role": "display",
                    "device_type": f"type-{i % 5}",
                }
                for i in range(80)
            ],
        }

    def test_compressed_gossip_round_trips_and_shrinks(self):
        payload = self.payload()
        plain = encode_gossip(payload)
        packed = encode_gossip(payload, compress=True)
        assert packed.wire_size < plain.wire_size
        # Compressed frames carry no out-of-band bytes: the wire charge
        # is exactly the encoded frame (the byte-accounting audit).
        assert packed.wire_size == len(packed.data)
        assert decode_gossip(packed) == canonical(payload)

    def test_incompressible_gossip_falls_back_to_plain_frame(self):
        # A tiny body where deflate cannot win must emit the plain frame
        # byte for byte -- old decoders keep working, nothing is larger.
        payload = {"kind": "umiddle-directory", "version": 3}
        plain = encode_gossip(payload)
        packed = encode_gossip(payload, compress=True)
        assert packed.data == plain.data

    def test_compressed_gossip_truncation_at_every_offset_raises(self):
        frame = encode_gossip(self.payload(), compress=True)
        for end in range(len(frame.data)):
            with pytest.raises(CodecError):
                decode_gossip(BinaryFrame(frame.data[:end]))

    def test_compressed_gossip_bit_flip_at_every_offset_raises(self):
        frame = encode_gossip(self.payload(), compress=True)
        reference = decode_gossip(frame)
        for offset in range(len(frame.data)):
            for bit in (0x01, 0x80):
                mutated = bytearray(frame.data)
                mutated[offset] ^= bit
                try:
                    decoded = decode_gossip(BinaryFrame(bytes(mutated)))
                except CodecError:
                    continue
                raise AssertionError(
                    f"bit flip at offset {offset} decoded to {decoded!r}"
                )
        assert decode_gossip(frame) == reference  # frame itself unharmed

    def test_compressed_journal_body_round_trips(self):
        record = {
            "lsn": 9,
            "kind": "checkpoint",
            "data": {"profiles": [{"id": f"t{i}", "role": "display"} for i in range(40)]},
        }
        plain = encode_journal_body(record)
        packed = encode_journal_body(record, compress=True)
        assert len(packed) < len(plain)
        assert is_binary_journal_body(packed)
        assert b"\n" not in packed
        assert decode_journal_body(packed) == canonical(record)

    def test_incompressible_journal_body_falls_back_to_plain(self):
        record = {"lsn": 1, "kind": "path-open", "data": {"path_id": "p1"}}
        assert encode_journal_body(record, compress=True) == encode_journal_body(record)

    def test_compressed_journal_record_replays_in_mixed_blob(self):
        big = {"profiles": [{"id": f"t{i}", "role": "display"} for i in range(40)]}
        blob = encode_record(1, "register", {"id": "t1"}, binary=True)
        blob += encode_record(2, "checkpoint", big, binary=True, compress=True)
        blob += encode_record(3, "path-open", {"path_id": "p1"}, binary=False)
        records, _clean, discarded = replay_blob(blob)
        assert [r["lsn"] for r in records] == [1, 2, 3]
        assert records[1]["data"] == big
        assert discarded == 0

    def test_corrupt_compressed_journal_body_fails_record_crc(self):
        big = {"profiles": [{"id": f"t{i}", "role": "display"} for i in range(40)]}
        record = encode_record(1, "checkpoint", big, binary=True, compress=True)
        blob = bytearray(record)
        blob[len(blob) // 2] ^= 0x10
        records, _clean, discarded = replay_blob(bytes(blob))
        assert records == []
        assert discarded == len(blob)


# -- satellite regressions --------------------------------------------------


class TestSizeAccounting:
    def test_umessage_size_defaults_to_canonical_json_length(self):
        payload = {"reading": 21.5, "unit": "celsius"}
        message = UMessage("text/plain", payload)
        assert message.size == json_size(payload)
        assert message.size == len(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )

    def test_umessage_rejects_sizeless_opaque_payload(self):
        with pytest.raises(ShapeError):
            UMessage("text/plain", object())

    def registered_profile(self, name):
        bed = build_testbed(hosts=["h0"])
        runtime = bed.add_runtime("h0")
        translator = Translator(name, role="sensor")
        translator.add_digital_output("frames", "image/jpeg")
        runtime.register_translator(translator)
        return translator.profile

    def test_profile_digest_reuses_cached_wire_bytes(self):
        profile = self.registered_profile("cam")
        # Regression: the digest must equal a from-scratch canonical
        # recompute of the wire dict, even though it is now derived from
        # the cached wire_bytes encoding.
        assert profile.wire_digest == _canonical_digest(profile.to_dict())
        assert profile.wire_bytes == json.dumps(
            profile.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    def test_profile_encoded_size_is_real_and_smaller(self):
        profile = self.registered_profile("cam2")
        assert profile.encoded_size() == encoded_size(profile.to_dict())
        assert profile.encoded_size() < json_size(profile.to_dict())


class TestIntRange:
    """The decoder stops a varint at 10 bytes, so tag INT carries ints in
    ``-2**69 .. 2**69 - 1``.  A wider int rides as tag WIDE_INT (a varint
    byte length, then big-endian two's complement), so the codec carries
    every int JSON carries."""

    @pytest.mark.parametrize("value", [-(2**69), 2**69 - 1], ids=["-2**69", "2**69-1"])
    def test_boundary_ints_round_trip_on_every_surface(self, value):
        envelope = {"kind": "message", "payload": {"v": value}, "seq": value}
        frame = WireEncoder().encode_envelope(envelope)
        assert WireDecoder().decode_frame(frame) == envelope
        batch = WireDecoder().decode_frame(WireEncoder().encode_batch_delta([envelope] * 2))
        assert batch["envelopes"] == [envelope] * 2
        body = {"kind": "umiddle-directory", "version": value}
        assert decode_gossip(encode_gossip(body)) == body
        record = {"data": {"v": [value]}, "kind": "register", "lsn": 1}
        assert decode_journal_body(encode_journal_body(record)) == record

    @pytest.mark.parametrize(
        "value, size",
        [(2**69, 11), (-(2**69) - 1, 11), (10**400, 170)],
        ids=["2**69", "-2**69-1", "10**400"],
    )
    def test_wider_ints_round_trip_on_every_surface(self, value, size):
        # Tag, varint length, then the fewest two's-complement bytes that
        # hold the sign bit: 9 for 70 significant bits, 167 for 1329.
        assert encoded_size(value) == size
        envelope = {"kind": "message", "payload": {"v": value}, "seq": value}
        frame = WireEncoder().encode_envelope(envelope)
        assert WireDecoder().decode_frame(frame) == envelope
        for encode in (WireEncoder().encode_batch, WireEncoder().encode_batch_delta):
            batch = WireDecoder().decode_frame(encode([envelope] * 2))
            assert batch["envelopes"] == [envelope] * 2
        body = {"kind": "umiddle-directory", "version": value}
        assert decode_gossip(encode_gossip(body)) == body
        record = {"data": {"v": [value]}, "kind": "register", "lsn": 1}
        assert decode_journal_body(encode_journal_body(record)) == record

    def test_journal_record_with_wide_int_gets_a_binary_body(self):
        data = {"id": "t1", "serial": 2**70}
        blob = encode_record(1, "register", {"id": "t0"}, binary=True)
        blob += encode_record(2, "register", data, binary=True)
        blob += encode_record(3, "checkpoint", {"registered": {"t1": data}},
                              binary=True, compress=True)
        assert all(is_binary_journal_body(line[9:]) for line in blob.split(b"\n")[:-1])
        records, _clean, discarded = replay_blob(blob)
        assert discarded == 0
        assert [r["data"] for r in records[1:]] == [data, {"registered": {"t1": data}}]

    def test_profile_with_wide_int_attribute_charges_encoded_size(self):
        bed = build_testbed(hosts=["h0"])
        runtime = bed.add_runtime("h0", codec_enabled=True)
        translator = Translator("meter", role="sensor", attributes={"serial": 2**70})
        translator.add_digital_output("reading", "text/plain")
        runtime.register_translator(translator)
        profile = translator.profile
        assert profile.encoded_size() == encoded_size(profile.to_dict())

    def test_wide_int_payload_is_delivered_and_journaled(self):
        # Regression: the codec used to encode 2**70 into a varint its own
        # decoder rejects.  The sink dropped the batch frame holding it (and
        # everything after it), and journal replay stopped at the binary
        # spool record, discarding the rest of the blob.
        bed, producer, out, sinks = build_fanout(
            [True], codec_enabled=True, batching_enabled=True
        )
        payloads = [{"v": index} for index in range(5)]
        payloads[2] = {"v": 2**70}
        for payload in payloads:
            out.send(UMessage("text/plain", payload))
        bed.settle(30.0)
        _runtime, received = sinks[0]
        assert [m.payload for m in received] == payloads
        transport = producer.transport
        assert transport.codec_frames_sent == transport.batches_sent > 0
        records, _clean, discarded = replay_blob(producer.journal.blob)
        assert discarded == 0
        spooled = [
            envelope["payload"]
            for record in records
            if record["kind"] == "spool-batch"
            for envelope, _size in record["data"]["entries"]
            if envelope["kind"] == "message"
        ]
        assert spooled == payloads


class TestEveryJsonValue:
    """What the paper plane carries, the data plane carries: every value
    canonical JSON carries rides the codec, and a ``payload`` or
    ``headers`` it cannot encode rides out of band, with no second
    encoding kept beside it."""

    def test_special_payloads_stream_in_order_and_journal_binary(self):
        bed, producer, out, sinks = build_fanout([True], codec_enabled=True)
        args = ("set", object())  # an RMI-style argument tuple
        token = object()
        messages = [UMessage("text/plain", {"v": index}) for index in range(12)]
        messages[2] = UMessage("text/plain", {"v": 2**70})
        messages[5] = UMessage("text/plain", {"s": "\ud800"})
        messages[7] = UMessage("text/plain", args, size=64)
        messages[9] = UMessage("text/plain", {"v": 9}, headers={"token": token})
        for message in messages:
            out.send(message)
        bed.settle(30.0)
        _runtime, received = sinks[0]
        assert [m.payload for m in received] == [m.payload for m in messages]
        assert received[7].payload is args
        assert received[9].headers["token"] is token
        transport = producer.transport
        assert transport.codec_frames_sent == transport.batches_sent > 0
        blob = bytes(producer.journal.blob)
        assert all(is_binary_journal_body(line[9:]) for line in blob.split(b"\n")[:-1])
        records, _clean, discarded = replay_blob(blob)
        assert discarded == 0
        # A journal cannot hold an object: those two messages keep only
        # opaque markers, and everything else replays equal.
        journaled = [
            envelope["payload"] if envelope["kind"] == "message" else "opaque"
            for record in records
            if record["kind"] == "spool-batch"
            for envelope, _size in record["data"]["entries"]
            if envelope["kind"] in ("message", "opaque")
        ]
        expected = [m.payload for m in messages]
        expected[7] = expected[9] = "opaque"
        assert journaled == expected

    def test_profile_with_surrogate_and_wide_int_attributes_gossips_binary(self):
        bed = build_testbed(hosts=["h0", "h1"])
        runtime = bed.add_runtime("h0", codec_enabled=True)
        peer = bed.add_runtime("h1", codec_enabled=True)
        attributes = {"label": "\ud800", "serial": 2**70}
        translator = Translator("meter", role="sensor", attributes=attributes)
        translator.add_digital_output("reading", "text/plain")
        runtime.register_translator(translator)
        bed.settle(2.0)
        profile = translator.profile
        assert profile.encoded_size() == encoded_size(profile.to_dict())
        assert runtime.directory.codec_frames_sent > 0
        assert [p.attributes for p in peer.lookup(Query(role="sensor"))] == [attributes]


# -- mixed-flag federation -------------------------------------------------


def build_fanout(sink_codec_flags, **producer_kwargs):
    hosts = ["h0"] + [f"p{i}" for i in range(len(sink_codec_flags))]
    bed = build_testbed(hosts=hosts)
    producer = bed.add_runtime("h0", **producer_kwargs)
    source = Translator("feed", role="sensor")
    out = source.add_digital_output("data-out", "text/plain")
    producer.register_translator(source)
    sinks = []
    translators = []
    for index, flag in enumerate(sink_codec_flags):
        runtime = bed.add_runtime(f"p{index}", codec_enabled=flag)
        received = []
        sink = Translator(f"display-{index}", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        runtime.register_translator(sink)
        sinks.append((runtime, received))
        translators.append(sink)
    bed.settle(1.0)
    qos = QosPolicy(buffer_capacity=256)
    for sink in translators:
        producer.connect(out, sink.profile.port_ref("data-in"), qos=qos)
    bed.settle(0.5)
    return bed, producer, out, sinks


class TestMixedVersionFederation:
    """Runtimes with different data-plane flags in one federation: each
    sender's own flags pick its wire form, and every receiver decodes
    every frame kind."""

    def send_burst(self, out, count=60):
        # Back-to-back sends so the batched sender accumulates
        # multi-envelope batches, whose envelopes 2..n ride as deltas.
        for index in range(count):
            out.send(UMessage("text/plain", f"m{index}", 120))

    def test_compression_sender_reaches_mixed_flag_sinks(self):
        bed, producer, out, sinks = build_fanout(
            [False, True], compression_enabled=True
        )
        self.send_burst(out, count=120)
        bed.settle(30.0)
        for _runtime, received in sinks:
            assert [m.payload for m in received] == [f"m{i}" for i in range(120)]
        # The producer's flags alone chose delta frames, every frame it
        # sent was one, and both sinks decoded them whatever their own
        # flags.
        transport = producer.transport
        assert transport.codec_frames_sent == transport.batches_sent > 0
        # No handshake: no journal holds a codec-negotiation record or a
        # spooled negotiation envelope.
        for runtime in [producer] + [runtime for runtime, _received in sinks]:
            records, _clean, discarded = replay_blob(runtime.journal.blob)
            assert discarded == 0
            assert "codec-" not in json.dumps(records)

    def test_json_only_peer_falls_back_per_peer(self):
        bed, producer, out, sinks = build_fanout([True, False], codec_enabled=True)
        self.send_burst(out)
        bed.settle(30.0)
        for _runtime, received in sinks:
            assert [m.payload for m in received] == [f"m{i}" for i in range(60)]
        assert producer.transport.codec_frames_sent > 0
        # The wire form is per sending peer: the data-plane sink gossips
        # binary, the JSON-only sink keeps every frame it sends JSON while
        # decoding the producer's binary batches.
        (codec_peer, _), (json_peer, _) = sinks
        assert codec_peer.directory.codec_frames_sent > 0
        assert json_peer.directory.codec_frames_sent == 0
        assert json_peer.transport.codec_frames_sent == 0
        assert json_peer.journal.binary is False

    def test_codec_off_everywhere_sends_no_binary_frames(self):
        bed, producer, out, sinks = build_fanout([False])
        self.send_burst(out)
        bed.settle(30.0)
        assert producer.transport.codec_frames_sent == 0
        assert producer.directory.codec_frames_sent == 0
        assert producer.journal.binary is False

    def test_codec_on_everywhere_goes_binary_including_gossip_and_journal(self):
        bed, producer, out, sinks = build_fanout(
            [True], codec_enabled=True, batching_enabled=True
        )
        self.send_burst(out)
        bed.settle(30.0)
        _runtime, received = sinks[0]
        assert [m.payload for m in received] == [f"m{i}" for i in range(60)]
        assert producer.transport.codec_frames_sent > 0
        assert producer.directory.codec_frames_sent > 0
        assert producer.journal.binary is True
        # The binary journal replays to the same state a JSON journal
        # would: every record decodes with its kind intact.
        records, _clean, discarded = replay_blob(producer.journal.blob)
        assert discarded == 0
        assert any(r["kind"] == "spool-batch" or r["kind"] == "spool" for r in records)


class TestCompressionFederation:
    """Two data-plane runtimes, switched on by the ``compression_enabled``
    keyword: delta batches flow and reconstruct every message
    losslessly."""

    def burst(self, bed, out, count=120):
        # Back-to-back sends so the batched sender accumulates
        # multi-envelope batches, whose envelopes 2..n ride as deltas.
        for index in range(count):
            out.send(UMessage("text/plain", f"m{index}", 120))
        bed.settle(30.0)

    def fanout_pair(self):
        bed = build_testbed(hosts=["h0", "p0"])
        producer = bed.add_runtime("h0", compression_enabled=True)
        runtime = bed.add_runtime("p0", compression_enabled=True)
        source = Translator("feed", role="sensor")
        out = source.add_digital_output("data-out", "text/plain")
        producer.register_translator(source)
        received = []
        sink = Translator("display-0", role="display")
        sink.add_digital_input("data-in", "text/plain", received.append)
        runtime.register_translator(sink)
        bed.settle(1.0)
        producer.connect(
            out,
            sink.profile.port_ref("data-in"),
            qos=QosPolicy(buffer_capacity=256),
        )
        bed.settle(0.5)
        return bed, producer, runtime, out, received

    def test_compression_everywhere_sends_delta_batches(self):
        bed, producer, peer, out, received = self.fanout_pair()
        self.burst(bed, out)
        # Lossless: the peer received the identical message sequence, so
        # delta frames reconstructed every header byte-for-byte.
        assert [m.payload for m in received] == [f"m{i}" for i in range(120)]
        transport = producer.transport
        assert transport.codec_frames_sent == transport.batches_sent > 0
