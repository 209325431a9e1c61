# Test-only oracle for tests/core/test_codec_parity.py: the binary codec
# as it stood before the fast rewrite of repro.core.codec (one method call
# per byte, per-byte journal unescape).  Its code is kept as it was (one
# comment in the symbol table is reworded), except that it learned, in its
# own simple way, the value rules the codec gained later: ints beyond the
# varint range (tag WIDE_INT), strings holding lone surrogates, JSON's
# spelling of non-finite float map keys, and a ``payload`` or ``headers``
# that does not encode riding out of band.  The parity tests use it to
# prove the rewrite emits the same bytes and rejects the same inputs; do
# not optimise it.

"""Binary wire codec with per-peer symbol interning (ROADMAP item 3).

Every inter-runtime frame, directory gossip body and WAL record used to be
canonical JSON.  JSON spends most of its bytes repeating the same short
strings -- envelope keys, port references, mime types, profile field names
-- on every single frame.  This module replaces that with a compact
length-prefixed binary encoding plus *symbol interning*: well-known
protocol strings ship as one- or two-byte ids from a static table, and any
other recurring string is assigned a dynamic id the first time it appears
(an inline ``SYMDEF``) and referenced by id from then on.

Three framing contexts share the value encoding:

- **Bound wire frames** (:class:`WireEncoder`/:class:`WireDecoder`): one
  encoder per peer stream, one decoder per accepted stream.  The dynamic
  table persists across frames, so a port reference costs its full UTF-8
  bytes once per TCP stream and two bytes afterwards.  Definitions ride
  inline in the defining frame, which is safe because a stream is FIFO and
  encoder/decoder lifetimes are pinned to the stream (a reconnect resets
  both sides).  Frames carry a trailing CRC-32 so truncation or bit rot
  raises :class:`~repro.core.errors.CodecError` instead of mis-decoding.
- **Self-contained gossip bodies** (:func:`encode_gossip`): a fresh table
  per datagram -- UDP multicast has no per-receiver state -- which still
  vectorizes beautifully because one announcement repeats the same profile
  field names for every entry it carries.
- **Journal record bodies** (:func:`encode_journal_body`): a fresh table
  per record, newline-escaped so the journal's line framing and CRC
  machinery are untouched; the record-level CRC already covers integrity.
  Folded ``spool-batch`` records repeat envelope keys per entry, so the
  per-record table is exactly the vectorized encoding the fold wants.

Message payloads are special.  A :class:`~repro.core.messages.UMessage`
payload is usually a *stand-in* Python object whose declared ``size``
models the native data's bytes.  The codec therefore inline-encodes only
*structured* payloads (dicts/lists -- data whose wire form is the
structure itself) and carries every other payload out of band at its
declared size (an ``OBJ`` placeholder in the byte stream, the object
riding alongside in :attr:`BinaryFrame.objs`).  A structured payload,
or ``headers``, that the codec cannot encode rides out of band too.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import CodecError

__all__ = [
    "BinaryFrame",
    "CodecError",
    "WireDecoder",
    "WireEncoder",
    "decode_gossip",
    "decode_journal_body",
    "encode_gossip",
    "encode_journal_body",
    "encoded_size",
    "is_binary_journal_body",
    "json_size",
]

# -- wire tags ----------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_MAP = 0x08
_T_SYM = 0x09
_T_SYMDEF = 0x0A
_T_OBJ = 0x0B
_T_WIDE_INT = 0x0C

#: First byte of every transport/gossip frame.
WIRE_MAGIC = 0xB1
#: First byte of a binary journal record body (JSON bodies start with '{').
JOURNAL_MAGIC = 0xB2
#: First byte of a zlib-compressed binary journal record body.
JOURNAL_MAGIC_Z = 0xB3

#: Frame kinds (second byte of a wire frame).
FRAME_ENVELOPE = 0x01
FRAME_BATCH = 0x02
FRAME_GOSSIP = 0x03
#: Batch whose inner envelopes 2..n are field deltas against their
#: predecessor (stream/origin/dst metadata repeats per envelope; only the
#: fields that actually change ride the wire).  Sent only to peers that
#: negotiated the ``z`` capability.
FRAME_BATCH_DELTA = 0x04
#: Self-contained gossip body, zlib-compressed (bulk/full-state transfers).
#: Sent only to peers that negotiated the ``z`` capability.
FRAME_GOSSIP_Z = 0x05

#: zlib level for block compression: 6 is the stdlib default trade-off and
#: deterministic for a given input, which the journal relies on.
_Z_LEVEL = 6
#: Upper bound accepted for a compressed body's declared raw length; a
#: corrupt or hostile header cannot make the decoder allocate unbounded
#: memory.
_Z_MAX_RAW = 1 << 31

#: Strings longer than this are never interned (one-shot blobs would only
#: bloat the table); shorter recurring strings pay for their definition by
#: the second occurrence.
INTERN_MAX_LEN = 96
#: Dynamic table ceiling per encoder; beyond it new strings ship verbatim.
DYNAMIC_LIMIT = 4096

#: Protocol strings every encoder and decoder knows a priori (ids are the
#: tuple indexes; the dynamic table starts right after).  Order is part of
#: the wire protocol -- append, never reorder.
STATIC_SYMBOLS: Tuple[str, ...] = (
    # envelope / batch framing
    "kind", "message", "batch", "count", "envelopes", "mime", "payload",
    "size", "source", "headers", "dst", "origin", "stream", "seq",
    # control envelopes
    "connect", "disconnect", "path_id", "src", "codec-hello",
    "codec-welcome",
    # journal record framing and kinds
    "data", "lsn", "peer", "envelope", "entries", "upto", "state",
    "times_opened", "spool", "spool-batch", "spool-ack", "spool-drop",
    "spool-flush", "seq-reserve", "register", "unregister", "health",
    "breaker", "checkpoint", "binding-open", "binding-close", "path-open",
    "path-close", "opaque",
    # checkpoint sections
    "registered", "bindings", "paths", "stream_seqs", "breakers",
    "shard_entries", "shard_owned", "shards", "owned", "profile",
    # profile wire form
    "translator_id", "name", "platform", "device_type", "role",
    "runtime_id", "description", "attributes", "ports", "direction", "in",
    "out", "physical", "healthy", "degraded", "quarantined",
    # directory gossip
    "umiddle-directory", "runtime", "id", "address", "transport_port",
    "directory_port", "full", "heartbeat", "version", "digest", "profiles",
    "digests", "removed", "changed", "query", "qos", "failover",
    "binding_id", "open", "closed",
    # common mime types
    "text/plain", "application/json", "application/octet-stream",
    # data-plane v3 (delta/compression/weighted placement) protocol strings.
    # Appended last -- append-only keeps every older id stable.
    "caps", "z", "shard_load", "tiers", "codec-z-ready", "shard-weights",
    "codec_z_peers", "shard_weights",
)
_STATIC_IDS: Dict[str, int] = {s: i for i, s in enumerate(STATIC_SYMBOLS)}
_DYNAMIC_BASE = len(STATIC_SYMBOLS)

_FLOAT = struct.Struct(">d")


def json_size(value: Any) -> int:
    """Byte length of the canonical-JSON wire form of ``value``.

    This is the size a payload occupies on the JSON wire path, and the
    honest default for :class:`~repro.core.messages.UMessage` payloads
    constructed without an explicit size.  Raises :class:`TypeError` for
    values JSON cannot represent, like ``json.dumps``.
    """
    return len(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


class BinaryFrame:
    """One encoded frame: the byte stream plus any out-of-band payloads.

    ``objs`` holds message payloads the codec deliberately did not encode
    (opaque native-data stand-ins); they are modeled at their declared
    sizes, accumulated in ``oob_bytes``.  The frame's simulated wire cost
    is therefore ``len(data) + oob_bytes``.
    """

    __slots__ = ("data", "objs", "oob_bytes")

    def __init__(self, data: bytes, objs: Tuple[Any, ...] = (), oob_bytes: int = 0):
        self.data = data
        self.objs = objs
        self.oob_bytes = oob_bytes

    @property
    def wire_size(self) -> int:
        return len(self.data) + self.oob_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BinaryFrame({len(self.data)}B encoded, {len(self.objs)} oob "
            f"object(s), wire {self.wire_size}B)"
        )


def _write_varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _map_key(key: Any) -> str:
    """Coerce a dict key the way ``json.dumps`` does (parity matters: the
    journal's replayed state must match what the JSON encoding produced)."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    if isinstance(key, float):
        if key != key:
            return "NaN"
        if key == float("inf"):
            return "Infinity"
        if key == float("-inf"):
            return "-Infinity"
        return float.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key)}")


class WireEncoder:
    """Stateful value encoder; one instance per peer stream (or per
    self-contained frame)."""

    __slots__ = ("_symbols",)

    def __init__(self):
        self._symbols: Dict[str, int] = {}

    def reset(self) -> None:
        """Drop the dynamic table (the peer stream was reopened; the new
        accepted stream starts a fresh decoder)."""
        self._symbols.clear()

    # -- value encoding ------------------------------------------------------

    def _write_str(self, buf: bytearray, text: str) -> None:
        sym = _STATIC_IDS.get(text)
        if sym is None:
            sym = self._symbols.get(text)
            if sym is None:
                if len(text) <= INTERN_MAX_LEN and len(self._symbols) < DYNAMIC_LIMIT:
                    sym = _DYNAMIC_BASE + len(self._symbols)
                    self._symbols[text] = sym
                    raw = text.encode("utf-8", "surrogatepass")
                    buf.append(_T_SYMDEF)
                    _write_varint(buf, sym)
                    _write_varint(buf, len(raw))
                    buf += raw
                else:
                    raw = text.encode("utf-8", "surrogatepass")
                    buf.append(_T_STR)
                    _write_varint(buf, len(raw))
                    buf += raw
                return
        buf.append(_T_SYM)
        _write_varint(buf, sym)

    def _write_value(self, buf: bytearray, value: Any) -> None:
        if value is None:
            buf.append(_T_NONE)
        elif value is True:
            buf.append(_T_TRUE)
        elif value is False:
            buf.append(_T_FALSE)
        elif isinstance(value, str):
            self._write_str(buf, value)
        elif isinstance(value, int):
            zigzag = value << 1 if value >= 0 else ((-value) << 1) - 1
            if zigzag < 1 << 70:
                buf.append(_T_INT)
                _write_varint(buf, zigzag)
            else:
                length = 1
                while not -(1 << (8 * length - 1)) <= value < 1 << (8 * length - 1):
                    length += 1
                buf.append(_T_WIDE_INT)
                _write_varint(buf, length)
                buf += value.to_bytes(length, "big", signed=True)
        elif isinstance(value, float):
            buf.append(_T_FLOAT)
            buf += _FLOAT.pack(value)
        elif isinstance(value, dict):
            buf.append(_T_MAP)
            _write_varint(buf, len(value))
            for key, item in value.items():
                self._write_str(buf, _map_key(key))
                self._write_value(buf, item)
        elif isinstance(value, (list, tuple)):
            buf.append(_T_LIST)
            _write_varint(buf, len(value))
            for item in value:
                self._write_value(buf, item)
        elif isinstance(value, (bytes, bytearray)):
            buf.append(_T_BYTES)
            _write_varint(buf, len(value))
            buf += value
        else:
            raise TypeError(
                f"object of type {type(value).__name__} is not codec-serializable"
            )

    # -- envelope / batch frames --------------------------------------------

    def _write_field(
        self, buf: bytearray, key: Any, item: Any, envelope: dict, objs: List[Any]
    ) -> int:
        """Encode one envelope field's value; returns bytes carried out of
        band.

        The ``payload`` field is inline-encoded only when it is structured
        data (dict/list); any other object is a native-payload stand-in
        whose declared ``size`` is authoritative, so it rides out of band
        as an ``OBJ`` placeholder charged at that size.  A structured
        ``payload`` or a ``headers`` value that does not encode rides out
        of band too (``headers`` charged nothing), leaving no byte and no
        symbol of the failed attempt behind.
        """
        if key in ("payload", "headers"):
            if key == "headers" or isinstance(item, (dict, list, tuple)):
                snapshot = dict(self._symbols)
                length = len(buf)
                try:
                    self._write_value(buf, item)
                    return 0
                except TypeError:
                    self._symbols = snapshot
                    del buf[length:]
            declared = envelope.get("size") if key == "payload" else 0
            declared = declared if isinstance(declared, int) and declared >= 0 else 0
            buf.append(_T_OBJ)
            _write_varint(buf, declared)
            objs.append(item)
            return declared
        self._write_value(buf, item)
        return 0

    def _write_envelope(
        self, buf: bytearray, envelope: dict, objs: List[Any]
    ) -> int:
        """Encode one envelope map; returns bytes carried out of band
        (see :meth:`_write_field`)."""
        oob = 0
        buf.append(_T_MAP)
        _write_varint(buf, len(envelope))
        for key, item in envelope.items():
            self._write_str(buf, _map_key(key))
            oob += self._write_field(buf, key, item, envelope, objs)
        return oob

    def _seal(self, buf: bytearray, objs: List[Any], oob: int) -> BinaryFrame:
        buf += struct.pack(">I", zlib.crc32(bytes(buf[2:])) & 0xFFFFFFFF)
        return BinaryFrame(bytes(buf), tuple(objs), oob)

    def encode_envelope(self, envelope: dict) -> BinaryFrame:
        """One single-envelope wire frame.

        Raises :class:`TypeError` when a field other than ``payload`` and
        ``headers`` is not representable; the dynamic table is rolled back
        so a failed attempt does not desync the peer's decoder.
        """
        snapshot = dict(self._symbols)
        buf = bytearray((WIRE_MAGIC, FRAME_ENVELOPE))
        objs: List[Any] = []
        try:
            oob = self._write_envelope(buf, envelope, objs)
        except TypeError:
            self._symbols = snapshot
            raise
        return self._seal(buf, objs, oob)

    def encode_batch(self, envelopes: List[dict]) -> BinaryFrame:
        """One coalesced batch frame carrying ``envelopes`` in order."""
        snapshot = dict(self._symbols)
        buf = bytearray((WIRE_MAGIC, FRAME_BATCH))
        _write_varint(buf, len(envelopes))
        objs: List[Any] = []
        oob = 0
        try:
            for envelope in envelopes:
                oob += self._write_envelope(buf, envelope, objs)
        except TypeError:
            self._symbols = snapshot
            raise
        return self._seal(buf, objs, oob)

    def _write_envelope_delta(
        self, buf: bytearray, envelope: dict, prev: dict, objs: List[Any]
    ) -> int:
        """Encode ``envelope`` as a field delta against ``prev``.

        Wire form: varint changed-count, then (key, value) pairs, then
        varint removed-count, then removed keys.  Fields get the same
        out-of-band treatment as in :meth:`_write_envelope`, and the
        ``payload`` field is never delta-suppressed -- payload identity across envelopes
        is not a wire-protocol assumption we want to make.
        """
        oob = 0
        missing = object()
        changed = [
            (key, item)
            for key, item in envelope.items()
            if key == "payload" or prev.get(key, missing) != item
        ]
        removed = [key for key in prev if key not in envelope]
        _write_varint(buf, len(changed))
        for key, item in changed:
            self._write_str(buf, _map_key(key))
            oob += self._write_field(buf, key, item, envelope, objs)
        _write_varint(buf, len(removed))
        for key in removed:
            self._write_str(buf, _map_key(key))
        return oob

    def encode_batch_delta(self, envelopes: List[dict]) -> BinaryFrame:
        """One batch frame with envelopes 2..n delta-encoded.

        The first envelope rides in full; every subsequent one carries
        only the fields that differ from its predecessor (typically just
        ``seq``, ``payload`` and ``size`` -- stream/origin/dst/path
        metadata repeats across a batch).  Raises :class:`TypeError` with
        the dynamic table rolled back when any field is not
        representable, exactly like :meth:`encode_batch`.
        """
        snapshot = dict(self._symbols)
        buf = bytearray((WIRE_MAGIC, FRAME_BATCH_DELTA))
        _write_varint(buf, len(envelopes))
        objs: List[Any] = []
        oob = 0
        prev: Optional[dict] = None
        try:
            for envelope in envelopes:
                if prev is None:
                    oob += self._write_envelope(buf, envelope, objs)
                else:
                    oob += self._write_envelope_delta(buf, envelope, prev, objs)
                prev = envelope
        except TypeError:
            self._symbols = snapshot
            raise
        return self._seal(buf, objs, oob)


class _Reader:
    """Bounds-checked cursor over a frame body; every overrun raises."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, start: int, end: int):
        self.data = data
        self.pos = start
        self.end = end

    def byte(self) -> int:
        if self.pos >= self.end:
            raise CodecError("truncated frame")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        shift = 0
        result = 0
        while True:
            part = self.byte()
            result |= (part & 0x7F) << shift
            if not part & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise CodecError("varint overflow")

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > self.end:
            raise CodecError("truncated frame")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.end


class WireDecoder:
    """Mirror of :class:`WireEncoder`; one instance per accepted stream."""

    __slots__ = ("_symbols",)

    def __init__(self):
        self._symbols: Dict[int, str] = {}

    # -- value decoding ------------------------------------------------------

    def _read_symbol(self, reader: _Reader, tag: int) -> str:
        if tag == _T_SYM:
            sym = reader.varint()
            if sym < _DYNAMIC_BASE:
                if sym < len(STATIC_SYMBOLS):
                    return STATIC_SYMBOLS[sym]
                raise CodecError(f"unknown static symbol {sym}")
            text = self._symbols.get(sym)
            if text is None:
                raise CodecError(f"undefined symbol {sym}")
            return text
        if tag == _T_SYMDEF:
            sym = reader.varint()
            if sym < _DYNAMIC_BASE:
                raise CodecError(f"symbol definition in static range: {sym}")
            try:
                text = reader.take(reader.varint()).decode("utf-8", "surrogatepass")
            except UnicodeDecodeError as exc:
                raise CodecError(f"malformed symbol definition: {exc}") from exc
            self._symbols[sym] = text
            return text
        if tag == _T_STR:
            try:
                return reader.take(reader.varint()).decode("utf-8", "surrogatepass")
            except UnicodeDecodeError as exc:
                raise CodecError(f"malformed string: {exc}") from exc
        raise CodecError(f"expected a string, got tag {tag:#x}")

    def _read_value(self, reader: _Reader, objs: Optional[Iterator[Any]]) -> Any:
        tag = reader.byte()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            raw = reader.varint()
            return raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
        if tag == _T_FLOAT:
            return _FLOAT.unpack(reader.take(8))[0]
        if tag in (_T_STR, _T_SYM, _T_SYMDEF):
            return self._read_symbol(reader, tag)
        if tag == _T_BYTES:
            return reader.take(reader.varint())
        if tag == _T_WIDE_INT:
            return int.from_bytes(reader.take(reader.varint()), "big", signed=True)
        if tag == _T_LIST:
            return [self._read_value(reader, objs) for _ in range(reader.varint())]
        if tag == _T_MAP:
            result = {}
            for _ in range(reader.varint()):
                key = self._read_symbol(reader, reader.byte())
                result[key] = self._read_value(reader, objs)
            return result
        if tag == _T_OBJ:
            reader.varint()  # declared out-of-band size (already modeled)
            if objs is None:
                raise CodecError("out-of-band placeholder in a pure-value frame")
            try:
                return next(objs)
            except StopIteration:
                raise CodecError("frame is missing an out-of-band payload") from None
        raise CodecError(f"unknown tag {tag:#x}")

    # -- frames --------------------------------------------------------------

    def _open(self, frame: BinaryFrame, expect_kind: Optional[int] = None):
        data = frame.data
        if len(data) < 6 or data[0] != WIRE_MAGIC:
            raise CodecError("not a binary wire frame")
        body_end = len(data) - 4
        (crc,) = struct.unpack_from(">I", data, body_end)
        if zlib.crc32(data[2:body_end]) & 0xFFFFFFFF != crc:
            raise CodecError("frame checksum mismatch")
        kind = data[1]
        if expect_kind is not None and kind != expect_kind:
            raise CodecError(f"unexpected frame kind {kind:#x}")
        return kind, _Reader(data, 2, body_end)

    def decode_frame(self, frame: BinaryFrame) -> dict:
        """Decode an envelope or batch frame into its wire dict form.

        Batch frames come back as the legacy ``{"kind": "batch", ...}``
        dict, so everything downstream of the receive loop (dedup,
        dispatch, cost accounting) is codec-agnostic.
        """
        kind, reader = self._open(frame)
        objs = iter(frame.objs)
        if kind == FRAME_ENVELOPE:
            envelope = self._read_value(reader, objs)
        elif kind == FRAME_BATCH:
            count = reader.varint()
            if count > reader.end - reader.pos:
                raise CodecError(f"implausible batch count {count}")
            envelopes = [self._read_value(reader, objs) for _ in range(count)]
            envelope = {"kind": "batch", "count": count, "envelopes": envelopes}
        elif kind == FRAME_BATCH_DELTA:
            count = reader.varint()
            if count > reader.end - reader.pos:
                raise CodecError(f"implausible batch count {count}")
            envelopes = []
            prev: Optional[dict] = None
            for _ in range(count):
                if prev is None:
                    env = self._read_value(reader, objs)
                    if not isinstance(env, dict):
                        raise CodecError("delta batch base is not an envelope map")
                else:
                    env = dict(prev)
                    for _ in range(reader.varint()):
                        key = self._read_symbol(reader, reader.byte())
                        env[key] = self._read_value(reader, objs)
                    for _ in range(reader.varint()):
                        env.pop(self._read_symbol(reader, reader.byte()), None)
                envelopes.append(env)
                prev = env
            envelope = {"kind": "batch", "count": count, "envelopes": envelopes}
        else:
            raise CodecError(f"unexpected frame kind {kind:#x}")
        if not reader.exhausted:
            raise CodecError("trailing bytes after frame body")
        if not isinstance(envelope, dict):
            raise CodecError("frame body is not an envelope map")
        return envelope


# -- self-contained frames (gossip datagrams) ---------------------------------


def encode_gossip(payload: dict, compress: bool = False) -> BinaryFrame:
    """Encode one directory announcement body, self-contained.

    Datagrams carry their whole symbol table inline (fresh per frame);
    the win is vectorization across the repeated per-profile field names
    within one announcement.  Raises :class:`TypeError` for bodies the
    codec cannot represent.

    With ``compress=True`` the encoded body is zlib-deflated into a
    ``FRAME_GOSSIP_Z`` frame (varint raw length + deflate stream) -- the
    block-compression form for bulk/full-state transfers.  Callers must
    only send it to peers that negotiated the ``z`` capability; the CRC
    still covers the compressed bytes, so corruption is caught before
    inflation.  Falls back to the plain frame when deflate does not
    actually shrink the body (tiny payloads), keeping the compressed path
    never worse than the plain one.
    """
    encoder = WireEncoder()
    body = bytearray()
    encoder._write_value(body, payload)
    if compress:
        raw = bytes(body)
        packed = zlib.compress(raw, _Z_LEVEL)
        header = bytearray()
        _write_varint(header, len(raw))
        if len(packed) + len(header) < len(raw):
            buf = bytearray((WIRE_MAGIC, FRAME_GOSSIP_Z)) + header + packed
            buf += struct.pack(">I", zlib.crc32(bytes(buf[2:])) & 0xFFFFFFFF)
            return BinaryFrame(bytes(buf))
    buf = bytearray((WIRE_MAGIC, FRAME_GOSSIP)) + body
    buf += struct.pack(">I", zlib.crc32(bytes(buf[2:])) & 0xFFFFFFFF)
    return BinaryFrame(bytes(buf))


def _inflate(packed: bytes, raw_len: int) -> bytes:
    """Inflate a compressed body, bounded by its declared raw length."""
    if raw_len > _Z_MAX_RAW:
        raise CodecError(f"implausible compressed body length {raw_len}")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(packed, raw_len + 1)
    except zlib.error as exc:
        raise CodecError(f"corrupt compressed body: {exc}") from exc
    if len(raw) != raw_len or not inflater.eof or inflater.unconsumed_tail:
        raise CodecError("compressed body length mismatch")
    return raw


def decode_gossip(frame: BinaryFrame) -> dict:
    """Decode a self-contained gossip body (plain or compressed)."""
    decoder = WireDecoder()
    kind, reader = decoder._open(frame)
    if kind == FRAME_GOSSIP_Z:
        raw_len = reader.varint()
        raw = _inflate(reader.take(reader.end - reader.pos), raw_len)
        reader = _Reader(raw, 0, len(raw))
    elif kind != FRAME_GOSSIP:
        raise CodecError(f"unexpected frame kind {kind:#x}")
    payload = decoder._read_value(reader, None)
    if not reader.exhausted:
        raise CodecError("trailing bytes after gossip body")
    if not isinstance(payload, dict):
        raise CodecError("gossip body is not a map")
    return payload


def encoded_size(value: Any) -> int:
    """Byte length of the self-contained binary encoding of ``value``.

    The codec-honest replacement for JSON-derived size estimates
    (``Profile.estimated_size`` and friends) when the binary codec is the
    active wire format.
    """
    encoder = WireEncoder()
    buf = bytearray()
    encoder._write_value(buf, value)
    return len(buf)


# -- journal record bodies ----------------------------------------------------

_ESC = 0x1B
_ESC_BYTE = b"\x1b"
_NL_SUB = b"\x1bn"
_ESC_SUB = b"\x1b\x1b"


def encode_journal_body(record: dict, compress: bool = False) -> bytes:
    """Encode one journal record body (``{"data", "kind", "lsn"}``).

    The body must coexist with the journal's line framing: a leading
    magic byte discriminates it from JSON bodies (which start with
    ``{``), and every 0x0A/0x1B inside the encoding is escaped so the
    record still terminates at its own newline.  The record-level CRC is
    computed over the escaped on-disk bytes, exactly as for JSON bodies,
    so replay and tail-repair semantics are untouched.  Raises
    :class:`TypeError` (before any state changes) for non-representable
    data, mirroring ``json.dumps``.

    With ``compress=True`` the encoded value bytes are zlib-deflated
    before escaping and the body leads with :data:`JOURNAL_MAGIC_Z`
    instead -- used for checkpoint records, which are whole-state blobs.
    Deflate is only kept when it actually shrinks the body, so small
    checkpoints stay plain and the choice is deterministic for a given
    record.
    """
    encoder = WireEncoder()
    buf = bytearray()
    encoder._write_value(buf, record)
    raw = bytes(buf)
    magic = JOURNAL_MAGIC
    if compress:
        packed = zlib.compress(raw, _Z_LEVEL)
        if len(packed) < len(raw):
            raw = packed
            magic = JOURNAL_MAGIC_Z
    escaped = raw.replace(_ESC_BYTE, _ESC_SUB).replace(b"\n", _NL_SUB)
    return bytes((magic,)) + escaped


def is_binary_journal_body(body: bytes) -> bool:
    return body[:1] in (bytes((JOURNAL_MAGIC,)), bytes((JOURNAL_MAGIC_Z,)))


def decode_journal_body(body: bytes) -> dict:
    """Decode a binary journal record body back into its record dict."""
    if not is_binary_journal_body(body):
        raise CodecError("not a binary journal body")
    unescaped = bytearray()
    data = body[1:]
    i = 0
    length = len(data)
    while i < length:
        byte = data[i]
        if byte == _ESC:
            i += 1
            if i >= length:
                raise CodecError("truncated escape sequence")
            nxt = data[i]
            if nxt == _ESC:
                unescaped.append(_ESC)
            elif nxt == 0x6E:  # 'n'
                unescaped.append(0x0A)
            else:
                raise CodecError(f"bad escape sequence {nxt:#x}")
        else:
            unescaped.append(byte)
        i += 1
    raw = bytes(unescaped)
    if body[0] == JOURNAL_MAGIC_Z:
        try:
            raw = zlib.decompress(raw)
        except zlib.error as exc:
            raise CodecError(f"corrupt compressed journal body: {exc}") from exc
    decoder = WireDecoder()
    reader = _Reader(raw, 0, len(raw))
    record = decoder._read_value(reader, None)
    if not reader.exhausted:
        raise CodecError("trailing bytes after journal body")
    if not isinstance(record, dict):
        raise CodecError("journal body is not a record map")
    return record
