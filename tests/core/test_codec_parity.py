"""Parity between :mod:`repro.core.codec` and the oracle codec.

``tests/core/codec_oracle.py`` keeps the codec as it stood before its
fast rewrite (a bounds-checked reader object, per-byte journal
unescaping, per-frame table snapshots).  These tests pin the rewrite to
it on seeded fuzz inputs:

- every frame, gossip body and journal body is byte-for-byte identical,
  including on one long-lived stream encoder with failed inline encodes
  interleaved (a payload that does not encode rides out of band, and the
  rollback must undo exactly what the failed attempt taught the table);
- the same bytes decode to equal values;
- every truncation and single-bit flip is rejected with
  :class:`CodecError` by both, or decodes to the same value in both.

The fuzz inputs cover every value canonical JSON carries, ints beyond the
varint range, strings holding lone surrogates and non-finite float map
keys included.
"""

import json
import random
import zlib
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest

from repro.core import codec
from repro.core.codec import BinaryFrame, CodecError
from tests.core import codec_oracle as oracle


class Level(IntEnum):
    LOW = 1
    HIGH = 2**40


class Tag(str):
    pass


Pair = namedtuple("Pair", "left right")

WORDS = [
    "kind", "payload", "size", "text/plain", "rt-h0", "sensor", "path:a:b",
    "healthy", "é中", "", "line\nbreak", "esc\x1bape", "\x1b\x1bn",
    "\ud800", "lone \udfff low",
]
INTS = [
    0, 1, -1, 63, 64, -64, -65, 127, 128, 8191, 8192, -8193, 2**31,
    -(2**31), 2**63, -(2**63), 2**69 - 1, -(2**69), 2**69, -(2**69) - 1,
    2**71 - 1, 2**71, -(2**71), -(2**71) - 1, 10**40, -(10**400),
]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 5e-324, float("inf"), 3.14159]


def fuzz_str(rng):
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(WORDS)
    if roll < 0.7:
        # Many distinct short strings: the dynamic table grows past the
        # one-byte ids.
        return f"s{rng.randrange(3000)}"
    if roll < 0.9:
        return "".join(rng.choice("ab\n\x1bn é中\udc80") for _ in range(rng.randrange(40)))
    # Around the interning cut-off (96 characters).
    return "L" * rng.randrange(90, 110)


def fuzz_key(rng):
    roll = rng.random()
    if roll < 0.8:
        return fuzz_str(rng)
    return rng.choice([
        7, -3, 2.5, True, False, None, Level.LOW, Tag("tagged"), 2**70,
        float("nan"), float("inf"), float("-inf"),
    ])


def fuzz_value(rng, depth=0):
    kinds = ["none", "bool", "int", "float", "str", "bytes", "enum", "strsub"]
    if depth < 3:
        kinds += ["list", "tuple", "dict", "odict", "pair", "dict", "list"]
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(INTS + [rng.randrange(-10**9, 10**9)])
    if kind == "float":
        return rng.choice(FLOATS)
    if kind == "str":
        return fuzz_str(rng)
    if kind == "bytes":
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20)))
        return raw if rng.random() < 0.5 else bytearray(raw)
    if kind == "enum":
        return rng.choice(list(Level))
    if kind == "strsub":
        return Tag(fuzz_str(rng))
    if kind == "pair":
        return Pair(fuzz_value(rng, depth + 1), fuzz_value(rng, depth + 1))
    items = [fuzz_value(rng, depth + 1) for _ in range(rng.randrange(0, 6))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    pairs = [(fuzz_key(rng), item) for item in items]
    return dict(pairs) if kind == "dict" else OrderedDict(pairs)


def fuzz_envelope(rng, index):
    payload = fuzz_value(rng) if rng.random() < 0.7 else f"stand-in-{index}"
    envelope = {
        "kind": "message",
        "mime": rng.choice(["text/plain", "image/jpeg"]),
        "payload": payload,
        "size": rng.choice([0, 120, 4096, -5, None]),
        "source": f"rt-h{rng.randrange(3)}/feed/data-out",
        "headers": {"n": index} if rng.random() < 0.5 else {},
        "dst": f"rt-p{rng.randrange(4)}/display/data-in",
        "stream": f"path:{index % 3}",
        "seq": index + 1,
    }
    if rng.random() < 0.3:
        del envelope["headers"]
    if rng.random() < 0.2:
        envelope[fuzz_key(rng)] = fuzz_value(rng)
    return envelope


def unencodable(rng, index):
    """An envelope whose payload or headers neither codec can encode
    inline, after defining fresh symbols: the field rides out of band."""
    envelope = fuzz_envelope(rng, index)
    bad = object() if rng.random() < 0.5 else {("tuple", "key"): 1}
    field = "payload" if rng.random() < 0.7 else "headers"
    envelope[field] = {f"fresh-{index}": [f"new-{index}", bad]}
    return envelope


def outcome(decode, *args):
    """``repr`` of the decoded value (NaN-safe, order-sensitive), or
    "CodecError"."""
    try:
        return repr(decode(*args))
    except CodecError:
        return "CodecError"


def same_frame(new, old):
    assert new.data == old.data
    assert new.oob_bytes == old.oob_bytes
    assert len(new.objs) == len(old.objs)
    assert all(a is b for a, b in zip(new.objs, old.objs))


def reseal(data: bytes) -> bytes:
    """A wire frame with its CRC recomputed, so a corrupted body reaches
    the decoder instead of failing the checksum."""
    body = data[2:-4]
    return data[:2] + body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "big")


# -- byte-identical encoding ------------------------------------------------


class TestEncodeParity:
    def test_values_encode_identically_on_every_self_contained_surface(self):
        rng = random.Random(101)
        for index in range(1500):
            value = fuzz_value(rng)
            assert codec.encoded_size(value) == oracle.encoded_size(value)
            body = {"kind": "umiddle-directory", "version": index, "body": value}
            for compress in (False, True):
                new = codec.encode_gossip(body, compress=compress)
                same_frame(new, oracle.encode_gossip(body, compress=compress))
                assert outcome(codec.decode_gossip, new) == outcome(
                    oracle.decode_gossip, new
                )
                record = {"data": {"value": value}, "kind": "register", "lsn": index}
                journal = codec.encode_journal_body(record, compress=compress)
                assert journal == oracle.encode_journal_body(record, compress=compress)
                assert outcome(codec.decode_journal_body, journal) == outcome(
                    oracle.decode_journal_body, journal
                )

    def test_compressible_bodies_take_the_z_forms_identically(self):
        rng = random.Random(103)
        profiles = [
            {"translator_id": f"t-{i}", "role": "display", "attributes": fuzz_value(rng)}
            for i in range(60)
        ]
        body = {"kind": "umiddle-directory", "full": True, "profiles": profiles}
        new = codec.encode_gossip(body, compress=True)
        assert new.data[1] == codec.FRAME_GOSSIP_Z
        same_frame(new, oracle.encode_gossip(body, compress=True))
        record = {"data": body, "kind": "checkpoint", "lsn": 1}
        journal = codec.encode_journal_body(record, compress=True)
        assert journal[0] == codec.JOURNAL_MAGIC_Z
        assert journal == oracle.encode_journal_body(record, compress=True)
        assert codec.decode_journal_body(journal) == oracle.decode_journal_body(journal)

    def test_symbol_ids_follow_the_table_length(self):
        # The encoder takes each new dynamic id from its table's length and
        # writes ids as one- or two-byte varints.
        assert len(set(codec.STATIC_SYMBOLS)) == len(codec.STATIC_SYMBOLS)
        assert len(codec.STATIC_SYMBOLS) + codec.DYNAMIC_LIMIT <= 1 << 14

    def test_long_lived_stream_matches_with_failed_encodes_interleaved(self):
        rng = random.Random(107)
        new_enc, old_enc = codec.WireEncoder(), oracle.WireEncoder()
        new_dec, old_dec = codec.WireDecoder(), oracle.WireDecoder()
        methods = ("encode_envelope", "encode_batch", "encode_batch_delta")
        fallbacks = 0
        for index in range(700):
            method = rng.choice(methods)
            envelopes = [fuzz_envelope(rng, index * 16 + i) for i in range(rng.randrange(1, 6))]
            if rng.random() < 0.15:
                envelopes[rng.randrange(len(envelopes))] = unencodable(rng, index)
                if method == "encode_envelope":
                    envelopes = [unencodable(rng, index)]
            if index == 350:
                # One frame that alone overflows the dynamic table: later
                # new strings must ship verbatim in both codecs.
                envelopes = [{"kind": "message", "seq": 0,
                              "payload": [f"fill-{i}" for i in range(4200)]}]
            arg = envelopes[0] if method == "encode_envelope" else envelopes
            new = getattr(new_enc, method)(arg)
            old = getattr(old_enc, method)(arg)
            same_frame(new, old)
            decoded = outcome(new_dec.decode_frame, new)
            assert decoded != "CodecError"
            assert decoded == outcome(old_dec.decode_frame, old)
            # Every out-of-band dict is a field whose inline encode failed:
            # fuzzed headers always encode, and so does a structured
            # payload that is not one of unencodable()'s.
            fallbacks += sum(isinstance(obj, dict) for obj in new.objs)
        assert fallbacks > 50
        assert len(old_enc._symbols) == codec.DYNAMIC_LIMIT

    def test_canonical_json_matches_json_dumps(self):
        """The shared encoder behind the journal's JSON bodies, profile
        digests and ``json_size`` is byte-identical to ``json.dumps``, and
        refuses exactly what it refuses."""
        rng = random.Random(101)
        encoded = 0
        for index in range(1500):
            value = fuzz_value(rng) if index % 2 else fuzz_envelope(rng, index)
            try:
                expected = json.dumps(
                    value, sort_keys=True, separators=(",", ":")
                ).encode()
            except TypeError:
                with pytest.raises(TypeError):
                    codec.canonical_json(value)
                continue
            assert codec.canonical_json(value) == expected
            encoded += 1
        assert encoded > 1000
        with pytest.raises(TypeError):
            codec.canonical_json({"tags": {"a", "b"}})


# -- identical rejections -----------------------------------------------------


def corruptions(data: bytes, start: int):
    """Every truncation, and every single-bit flip at or after ``start``."""
    for end in range(len(data)):
        yield data[:end]
    for offset in range(start, len(data)):
        for bit in range(8):
            mutated = bytearray(data)
            mutated[offset] ^= 1 << bit
            yield bytes(mutated)


def stream_frames():
    rng = random.Random(109)
    envelopes = [fuzz_envelope(rng, i) for i in range(4)]
    envelopes[1]["payload"] = {"floats": [1.5, -0.0], "blob": b"\x1b\n\x00", "n": -70000}
    return [
        codec.WireEncoder().encode_envelope(envelopes[1]),
        codec.WireEncoder().encode_batch(envelopes),
        codec.WireEncoder().encode_batch_delta(envelopes),
    ]


class TestRejectionParity:
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["envelope", "batch", "delta"])
    def test_stream_frame_corruption(self, index):
        frame = stream_frames()[index]
        for data in corruptions(frame.data, 0):
            for candidate in (data, reseal(data) if len(data) >= 6 else data):
                new = BinaryFrame(candidate, frame.objs, frame.oob_bytes)
                assert outcome(codec.WireDecoder().decode_frame, new) == outcome(
                    oracle.WireDecoder().decode_frame, new
                ), candidate.hex()

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "z"])
    def test_gossip_corruption(self, compress):
        body = {
            "kind": "umiddle-directory",
            "profiles": [{"id": f"t{i}", "role": "display", "n": i * 300} for i in range(12)],
            "removed": ["t-gone", 2.5, None, True],
        }
        frame = codec.encode_gossip(body, compress=compress)
        for data in corruptions(frame.data, 0):
            for candidate in (data, reseal(data) if len(data) >= 6 else data):
                assert outcome(codec.decode_gossip, BinaryFrame(candidate)) == outcome(
                    oracle.decode_gossip, BinaryFrame(candidate)
                ), candidate.hex()

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "z"])
    def test_journal_body_corruption(self, compress):
        # Journal bodies carry no checksum of their own (the record line's
        # CRC covers them), so every flip reaches the decoder.
        data = {"peer": "rt-p0", "entries": [[{"seq": i, "mime": "text/plain",
                                               "payload": {"v": [i, -i, 1.5]}}, 120]
                                              for i in range(10)]}
        body = codec.encode_journal_body(
            {"data": data, "kind": "spool-batch", "lsn": 12}, compress=compress
        )
        assert b"\x1b" in body  # the escaping is exercised
        for candidate in corruptions(body, 0):
            assert outcome(codec.decode_journal_body, candidate) == outcome(
                oracle.decode_journal_body, candidate
            ), candidate.hex()

    @pytest.mark.parametrize(
        "body, error",
        [
            # An 11-byte varint, complete but past the 10-byte cap.
            ("08 01 09 00 03 80 80 80 80 80 80 80 80 80 80 00", "varint overflow"),
            ("08 01 09 7f 00", "undefined symbol"),
            ("08 01 0a 05 01 61 00", "static range"),
            ("08 01 03 00 00", "expected a string"),
            ("08 01 09 00 0d", "unknown tag"),
            ("08 01 09 00 0c 05 61 62", "truncated"),  # wide int
            ("08 01 09 00 05 01 ff", "malformed"),
            ("08 01 09 00 0a 70 01 ff", "malformed"),
            ("08 01 09 00 04 00 00 00", "truncated"),  # float
            ("08 01 09 00 05 05 61 62", "truncated"),  # string
            ("08 01 09 00 06 05 61 62", "truncated"),  # bytes
            ("08 01 09 00 0b 00", "out-of-band placeholder"),
            ("08 00 00", "trailing bytes"),
            ("07 00", "is not a"),
            ("", "truncated"),
        ],
    )
    def test_crafted_malformed_bodies_are_rejected_by_both(self, body, error):
        raw = bytes.fromhex(body)
        frame = BinaryFrame(reseal(bytes((codec.WIRE_MAGIC, codec.FRAME_GOSSIP)) + raw + bytes(4)))
        journal = codec.encode_journal_body({"data": {}, "kind": "x", "lsn": 1})[:1]
        journal += raw.replace(b"\x1b", b"\x1b\x1b").replace(b"\n", b"\x1bn")
        for decode, arg in (("decode_gossip", frame), ("decode_journal_body", journal)):
            for module in (codec, oracle):
                with pytest.raises(CodecError, match=error):
                    getattr(module, decode)(arg)

    @pytest.mark.parametrize(
        "kind, body, error",
        [
            (codec.FRAME_BATCH, "ff 01", "implausible batch count"),
            (codec.FRAME_BATCH_DELTA, "05 08 00", "implausible batch count"),
            (codec.FRAME_BATCH_DELTA, "01 07 00", "base is not an envelope map"),
            (codec.FRAME_ENVELOPE, "07 00", "is not a"),
            (codec.FRAME_ENVELOPE, "08 01 09 06 0b 10", "missing an out-of-band payload"),
            (codec.FRAME_BATCH, "01 08 00 00", "trailing bytes"),
            (codec.FRAME_GOSSIP, "08 00", "unexpected frame kind"),
        ],
    )
    def test_crafted_malformed_frames_are_rejected_by_both(self, kind, body, error):
        frame = BinaryFrame(reseal(bytes((codec.WIRE_MAGIC, kind)) + bytes.fromhex(body) + bytes(4)))
        for module in (codec, oracle):
            with pytest.raises(CodecError, match=error):
                module.WireDecoder().decode_frame(frame)

    @pytest.mark.parametrize(
        "escaped",
        [
            b"\x1b",  # truncated escape at the end of the body
            b"\x1b\x1b\x1b",  # an escaped ESC, then a truncated escape
            b"\x1bx",  # bad escape byte
            b"\x1b\x00",
            b"\x1bn\x1bN",
        ],
    )
    def test_bad_journal_escapes_are_rejected(self, escaped):
        good = codec.encode_journal_body({"data": {}, "kind": "register", "lsn": 1})
        for body in (good + escaped, good[:1] + escaped + good[1:]):
            with pytest.raises(CodecError):
                codec.decode_journal_body(body)
            with pytest.raises(CodecError):
                oracle.decode_journal_body(body)

    def test_escaped_escapes_unescape_left_to_right(self):
        # ESC ESC n is an escaped ESC followed by a literal "n", never ESC
        # followed by an escaped newline.
        record = {"data": {"text": "\x1bn\n\x1b\x1b\n"}, "kind": "register", "lsn": 1}
        body = codec.encode_journal_body(record)
        assert body == oracle.encode_journal_body(record)
        assert codec.decode_journal_body(body) == record
