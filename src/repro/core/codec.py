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
  bytes once per TCP stream and two or three bytes afterwards.
  Definitions ride inline in the defining frame, which is safe because a
  stream is FIFO and encoder/decoder lifetimes are pinned to the stream (a
  reconnect resets both sides).  Frames carry a trailing CRC-32 so
  truncation or bit rot raises :class:`~repro.core.errors.CodecError`
  instead of mis-decoding.
- **Self-contained gossip bodies** (:func:`encode_gossip`): a fresh table
  per datagram -- UDP multicast has no per-receiver state -- which still
  vectorizes beautifully because one announcement repeats the same profile
  field names for every entry it carries.
- **Journal record bodies** (:func:`encode_journal_body`): newline-escaped
  so the journal's line framing and CRC machinery are untouched; the
  record-level CRC already covers integrity.  Every journal binds one
  table to each blob, as the transport binds one to each stream: a blob
  is written in order by one writer and replayed front to back, so a
  record's body (magic ``0xB4``) references every string the blob's
  earlier records defined, and a checkpoint -- which rewrites the blob
  as one self-contained body (``0xB2``, or ``0xB3`` compressed) --
  restarts the table, like a reconnect.  The writer holds a
  :class:`WireEncoder`, the reader a :class:`BlobSymbols`.

Which form a frame takes is decided by the sender's own flags alone; every
receiver decodes every frame kind whatever its own flags, so no per-peer
negotiation exists.  A runtime with the data plane off sends no binary
frame at all (its journal is binary all the same), and a runtime with it
on sends delta batches and compressed bulk gossip to every peer.

Message payloads are special.  A :class:`~repro.core.messages.UMessage`
payload is usually a *stand-in* Python object whose declared ``size``
models the native data's bytes.  The codec therefore inline-encodes only
*structured* payloads (dicts/lists -- data whose wire form is the
structure itself) and carries every other payload out of band at its
declared size (an ``OBJ`` placeholder in the byte stream, the object
riding alongside in :attr:`BinaryFrame.objs`).

The codec carries every value canonical JSON carries -- ints of any
width, strings holding lone surrogates -- so the only values it refuses
are ones JSON refuses too: objects that are not data.  In an envelope
such an object can only sit in one of the two fields a caller fills,
and a ``payload`` or ``headers`` the codec cannot encode inline rides
out of band as well (``payload`` at its declared size, ``headers`` at
none).  Gossip and journal bodies have no out-of-band channel, so there
it raises :class:`TypeError`, like ``json.dumps``.  No caller keeps a
second encoding for values the codec refuses.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import CodecError

__all__ = [
    "BinaryFrame",
    "BlobSymbols",
    "CodecError",
    "WireDecoder",
    "WireEncoder",
    "canonical_json",
    "decode_gossip",
    "decode_journal_body",
    "encode_gossip",
    "encode_journal_body",
    "encoded_size",
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
#: First byte of a self-contained journal record body.
JOURNAL_MAGIC = 0xB2
#: First byte of a zlib-compressed binary journal record body.
JOURNAL_MAGIC_Z = 0xB3
#: First byte of a blob-scoped binary journal record body: encoded against
#: the symbol table its blob's earlier records built.
JOURNAL_MAGIC_BLOB = 0xB4

#: Frame kinds (second byte of a wire frame).
FRAME_ENVELOPE = 0x01
FRAME_BATCH = 0x02
FRAME_GOSSIP = 0x03
#: Batch whose inner envelopes 2..n are field deltas against their
#: predecessor (stream/origin/dst metadata repeats per envelope; only the
#: fields that actually change ride the wire).  Sent by runtimes with the
#: data plane on.
FRAME_BATCH_DELTA = 0x04
#: Self-contained gossip body, zlib-compressed (bulk/full-state transfers).
#: Sent by runtimes with the data plane on.
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
#: the wire protocol -- append, never reorder.  Eleven strings are no longer
#: emitted and stay as reserved ids, because removing them would renumber
#: every later id: six belong to the retired per-peer codec handshake and
#: its journal records (ids 18, 19, 93, 94, 97 and 99), four to the
#: retired load-weighted shard placement (``shard_load``, ``tiers``,
#: ``shard-weights`` and ``shard_weights``: ids 95, 96, 98 and 100), and
#: one to the retired folded spool record (``spool-batch``: id 29).
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
    # Appended after PR 9 -- append-only keeps every older id stable.
    "caps", "z", "shard_load", "tiers", "codec-z-ready", "shard-weights",
    "codec_z_peers", "shard_weights",
)
_DYNAMIC_BASE = len(STATIC_SYMBOLS)
#: One-byte symbol ids below this name a static symbol, so a reader can
#: resolve them without a varint loop or a table lookup.
_STATIC_ONE_BYTE = min(_DYNAMIC_BASE, 0x80)
#: Zigzag-encoded ints below this bound ride as a varint: the decoder
#: stops a varint at 10 bytes (70 bits), so tag ``INT`` carries
#: ``-2**69 .. 2**69 - 1``.  Wider ints ride as tag ``WIDE_INT``.
_ZIGZAG_LIMIT = 1 << 70

_FLOAT = struct.Struct(">d")
#: A float value with its tag: one pack call per float.
_TAGGED_FLOAT = struct.Struct(">Bd")
_CRC = struct.Struct(">I")
#: Values of the three constant tags, indexed by tag.
_CONSTANTS = (None, True, False)


#: ``json.dumps`` with non-default arguments builds a new encoder per
#: call; the canonical form shares this one.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> bytes:
    """The canonical (key-sorted, compact) JSON encoding of ``value``.

    Byte-identical to ``json.dumps(value, sort_keys=True,
    separators=(",", ":")).encode("utf-8")``, and like it raises
    :class:`TypeError` for values JSON cannot represent.
    """
    return _CANONICAL_JSON.encode(value).encode("utf-8")


def json_size(value: Any) -> int:
    """Byte length of the canonical-JSON wire form of ``value``.

    This is the size a payload occupies on the JSON wire path, and the
    honest default for :class:`~repro.core.messages.UMessage` payloads
    constructed without an explicit size.  Raises :class:`TypeError` for
    values JSON cannot represent, like ``json.dumps``.
    """
    return len(canonical_json(value))


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


def _sym_ref(sym: int) -> bytes:
    """The encoded ``SYM`` reference to symbol id ``sym``: ids stay below
    ``_DYNAMIC_BASE + DYNAMIC_LIMIT`` (< 2**14), so the varint is one or
    two bytes."""
    if sym < 0x80:
        return bytes((_T_SYM, sym))
    return bytes((_T_SYM, (sym & 0x7F) | 0x80, sym >> 7))


#: Pre-encoded references to the static symbols (2 bytes each), shared
#: by every encoder.
_STATIC_REFS: Dict[str, bytes] = {
    text: _sym_ref(sym) for sym, text in enumerate(STATIC_SYMBOLS)
}


def _write_int(buf: bytearray, value: int) -> None:
    zigzag = value << 1 if value >= 0 else ~(value << 1)
    if zigzag < 0x80:
        buf.append(_T_INT)
        buf.append(zigzag)
    elif zigzag < _ZIGZAG_LIMIT:
        buf.append(_T_INT)
        _write_varint(buf, zigzag)
    else:
        # Big-endian two's complement in the fewest bytes that hold the
        # sign bit: the zigzag form has exactly that many significant bits.
        raw = value.to_bytes((zigzag.bit_length() + 7) // 8, "big", signed=True)
        buf.append(_T_WIDE_INT)
        _write_varint(buf, len(raw))
        buf += raw


def _map_key(key: Any) -> str:
    """Coerce a dict key the way ``json.dumps`` does (parity matters: a
    value must decode to what the paper plane's JSON wire delivers),
    non-finite floats included.  An int or float subclass (an ``IntEnum``
    member, say) is spelled by its base type's ``__repr__``, as JSON spells
    it, never by its own ``__str__`` or ``__repr__``."""
    if isinstance(key, str):
        return str.__str__(key)
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
        if key == math.inf:
            return "Infinity"
        if key == -math.inf:
            return "-Infinity"
        return float.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key)}")


def _builtin(value: Any) -> Any:
    """The exact builtin an instance of a builtin's subclass encodes as
    (``OrderedDict`` -> dict, ``IntEnum`` -> int, a ``str`` subclass ->
    str, a namedtuple -> list); :class:`TypeError` for anything else."""
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, int):
        return int.__int__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, dict):
        return dict(value.items())
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise TypeError(
        f"object of type {type(value).__name__} is not codec-serializable"
    )


def _frame(kind: int, body: bytearray) -> bytes:
    """``[magic][kind][body][CRC-32 of body]``."""
    return b"".join((bytes((WIRE_MAGIC, kind)), body, _CRC.pack(zlib.crc32(body))))


class WireEncoder:
    """Stateful value encoder; one instance per peer stream or journal
    blob (or per self-contained frame)."""

    __slots__ = ("_symbols",)

    def __init__(self):
        #: Dynamic symbols in id order: text -> encoded ``SYM`` reference.
        self._symbols: Dict[str, bytes] = {}

    def reset(self) -> None:
        """Drop the dynamic table (the peer stream was reopened, or the
        journal blob rewritten; its reader starts a fresh table too)."""
        self._symbols.clear()

    def mark(self) -> int:
        """The table's size: :meth:`rollback` to it forgets every symbol
        defined from now on."""
        return len(self._symbols)

    def rollback(self, mark: int) -> None:
        """Forget the symbols defined since the table had ``mark``
        entries (dicts keep insertion order, so these are the newest)."""
        symbols = self._symbols
        while len(symbols) > mark:
            symbols.popitem()

    # -- value encoding ------------------------------------------------------

    def _write_new_str(self, buf: bytearray, text: str) -> None:
        """A string with no symbol yet: define one inline, or ship the
        text verbatim when it is too long or the table is full."""
        raw = text.encode("utf-8", "surrogatepass")
        symbols = self._symbols
        if len(text) <= INTERN_MAX_LEN and len(symbols) < DYNAMIC_LIMIT:
            ref = symbols[text] = _sym_ref(_DYNAMIC_BASE + len(symbols))
            buf.append(_T_SYMDEF)
            buf += ref[1:]
        else:
            buf.append(_T_STR)
        if len(raw) < 0x80:
            buf.append(len(raw))
        else:
            _write_varint(buf, len(raw))
        buf += raw

    def _write_value(self, buf: bytearray, value: Any) -> None:
        # Dispatch on the exact type; scalars inside maps and lists are
        # written inline rather than through a recursive call each.  Map
        # keys are mostly protocol field names, so they try the static
        # table first; string values are mostly runtime data (ids, names,
        # port references), so they try the dynamic table first.
        symbols = self._symbols
        kind = type(value)
        if kind is str:
            ref = symbols.get(value) or _STATIC_REFS.get(value)
            if ref is None:
                self._write_new_str(buf, value)
            else:
                buf += ref
        elif kind is dict:
            buf.append(_T_MAP)
            count = len(value)
            if count < 0x80:
                buf.append(count)
            else:
                _write_varint(buf, count)
            for key, item in value.items():
                # A hit can only be a str key: the tables hold nothing else.
                ref = _STATIC_REFS.get(key) or symbols.get(key)
                if ref is None:
                    self._write_value(buf, _map_key(key))
                else:
                    buf += ref
                kind = type(item)
                if kind is str:
                    ref = symbols.get(item) or _STATIC_REFS.get(item)
                    if ref is None:
                        self._write_new_str(buf, item)
                    else:
                        buf += ref
                elif kind is int:
                    _write_int(buf, item)
                elif kind is bool:
                    buf.append(_T_TRUE if item else _T_FALSE)
                elif item is None:
                    buf.append(_T_NONE)
                else:
                    self._write_value(buf, item)
        elif kind is list or kind is tuple:
            buf.append(_T_LIST)
            count = len(value)
            if count < 0x80:
                buf.append(count)
            else:
                _write_varint(buf, count)
            for item in value:
                kind = type(item)
                if kind is str:
                    ref = symbols.get(item) or _STATIC_REFS.get(item)
                    if ref is None:
                        self._write_new_str(buf, item)
                    else:
                        buf += ref
                elif kind is int:
                    _write_int(buf, item)
                else:
                    self._write_value(buf, item)
        elif kind is int:
            _write_int(buf, value)
        elif kind is bool:
            buf.append(_T_TRUE if value else _T_FALSE)
        elif value is None:
            buf.append(_T_NONE)
        elif kind is float:
            buf += _TAGGED_FLOAT.pack(_T_FLOAT, value)
        elif kind is bytes or kind is bytearray:
            buf.append(_T_BYTES)
            _write_varint(buf, len(value))
            buf += value
        else:
            self._write_value(buf, _builtin(value))

    # -- envelope / batch frames --------------------------------------------

    def _write_fields(
        self, buf: bytearray, fields, envelope: dict, objs: List[Any]
    ) -> int:
        """Encode an envelope's ``(key, value)`` pairs; returns bytes
        carried out of band.

        ``payload`` and ``headers``, the fields a caller fills, ride out
        of band as an ``OBJ`` placeholder when they do not encode inline:
        ``payload`` charged the envelope's declared ``size``, which is
        authoritative for the native data it models, and ``headers``
        nothing.  A ``payload`` that is not structured data (dict/list)
        is a native-payload stand-in and always rides out of band.
        """
        oob = 0
        symbols = self._symbols
        for key, item in fields:
            ref = _STATIC_REFS.get(key) or symbols.get(key)
            if ref is None:
                self._write_value(buf, _map_key(key))
            else:
                buf += ref
            if key != "payload" and key != "headers":
                self._write_value(buf, item)
                continue
            if key == "headers" or isinstance(item, (dict, list, tuple)):
                start = len(buf)
                mark = len(symbols)
                try:
                    self._write_value(buf, item)
                    continue
                except TypeError:
                    # The failed attempt's bytes and symbol definitions
                    # must never reach the decoder.
                    del buf[start:]
                    self.rollback(mark)
            declared = 0 if key == "headers" else envelope.get("size")
            declared = declared if isinstance(declared, int) and declared >= 0 else 0
            buf.append(_T_OBJ)
            _write_varint(buf, declared)
            objs.append(item)
            oob += declared
        return oob

    def _write_envelope(
        self, buf: bytearray, envelope: dict, objs: List[Any]
    ) -> int:
        """Encode one envelope map; returns bytes carried out of band."""
        buf.append(_T_MAP)
        _write_varint(buf, len(envelope))
        return self._write_fields(buf, envelope.items(), envelope, objs)

    def _write_envelope_delta(
        self, buf: bytearray, envelope: dict, prev: dict, objs: List[Any]
    ) -> int:
        """Encode ``envelope`` as a field delta against ``prev``.

        Wire form: varint changed-count, then (key, value) pairs, then
        varint removed-count, then removed keys.  Fields get the same
        out-of-band treatment as in :meth:`_write_envelope`, and the
        ``payload`` field is never delta-suppressed -- payload identity
        across envelopes is not a wire-protocol assumption we want to
        make.
        """
        missing = object()
        changed = [
            (key, item)
            for key, item in envelope.items()
            if key == "payload" or prev.get(key, missing) != item
        ]
        removed = [key for key in prev if key not in envelope]
        _write_varint(buf, len(changed))
        oob = self._write_fields(buf, changed, envelope, objs)
        _write_varint(buf, len(removed))
        for key in removed:
            self._write_value(buf, _map_key(key))
        return oob

    def _encode_frame(self, kind: int, envelopes: List[dict]) -> BinaryFrame:
        """One envelope, batch or delta-batch frame.  Any exception rolls
        the dynamic table back to its state before the frame, so a failed
        attempt never leaves a symbol the peer's decoder was not taught."""
        mark = len(self._symbols)
        buf = bytearray()
        objs: List[Any] = []
        oob = 0
        try:
            if kind == FRAME_ENVELOPE:
                oob = self._write_envelope(buf, envelopes[0], objs)
            else:
                _write_varint(buf, len(envelopes))
                prev: Optional[dict] = None
                for envelope in envelopes:
                    if prev is None or kind == FRAME_BATCH:
                        oob += self._write_envelope(buf, envelope, objs)
                    else:
                        oob += self._write_envelope_delta(buf, envelope, prev, objs)
                    prev = envelope
        except BaseException:
            self.rollback(mark)
            raise
        return BinaryFrame(_frame(kind, buf), tuple(objs), oob)

    def encode_envelope(self, envelope: dict) -> BinaryFrame:
        """One single-envelope wire frame.

        A ``payload`` or ``headers`` the codec cannot encode rides out of
        band.  Any other field it cannot encode raises
        :class:`TypeError`, with the dynamic table rolled back so a
        failed attempt does not desync the peer's decoder.
        """
        return self._encode_frame(FRAME_ENVELOPE, [envelope])

    def encode_batch(self, envelopes: List[dict]) -> BinaryFrame:
        """One coalesced batch frame carrying ``envelopes`` in order,
        encoded like :meth:`encode_envelope` encodes one."""
        return self._encode_frame(FRAME_BATCH, envelopes)

    def encode_batch_delta(self, envelopes: List[dict]) -> BinaryFrame:
        """One batch frame with envelopes 2..n delta-encoded.

        The first envelope rides in full; every subsequent one carries
        only the fields that differ from its predecessor (typically just
        ``seq``, ``payload`` and ``size`` -- stream/origin/dst/path
        metadata repeats across a batch).  Fields ride out of band as in
        :meth:`encode_batch`, and a one-envelope delta frame has the
        :meth:`encode_batch` frame's body byte for byte.
        """
        return self._encode_frame(FRAME_BATCH_DELTA, envelopes)


# -- decoding -----------------------------------------------------------------
#
# A decoder walks one ``bytes`` body with a plain integer position: every
# reader below takes ``(data, pos)`` and returns ``(value, new pos)``.
# Indexing past the end raises IndexError, which the entry points turn
# into ``CodecError("truncated frame")``; reads of a known length (strings,
# bytes, floats) check it explicitly, because slicing never raises.


def _read_varint(data: bytes, pos: int, first: int) -> Tuple[int, int]:
    """Finish a varint whose first byte ``first`` (continuation bit set)
    was read just before ``pos``."""
    result = first & 0x7F
    shift = 7
    while True:
        part = data[pos]
        pos += 1
        result |= (part & 0x7F) << shift
        if part < 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint overflow")


def _take(data: bytes, pos: int) -> Tuple[bytes, int]:
    """A varint length followed by that many bytes."""
    length = data[pos]
    pos += 1
    if length > 0x7F:
        length, pos = _read_varint(data, pos, length)
    end = pos + length
    if end > len(data):
        raise CodecError("truncated frame")
    return data[pos:end], end


def _read_text(
    data: bytes, pos: int, tag: int, symbols: Dict[int, str]
) -> Tuple[str, int]:
    """A string-form value (``SYM``, ``SYMDEF`` or ``STR``) whose tag was
    read just before ``pos``."""
    if tag == _T_STR:
        raw, pos = _take(data, pos)
        return raw.decode("utf-8", "surrogatepass"), pos
    if tag != _T_SYM and tag != _T_SYMDEF:
        raise CodecError(f"expected a string, got tag {tag:#x}")
    sym, pos = _read_varint_at(data, pos)
    if tag == _T_SYM:
        return (STATIC_SYMBOLS[sym] if sym < _DYNAMIC_BASE else symbols[sym]), pos
    if sym < _DYNAMIC_BASE:
        raise CodecError(f"symbol definition in static range: {sym}")
    raw, pos = _take(data, pos)
    text = symbols[sym] = raw.decode("utf-8", "surrogatepass")
    return text, pos


def _read_value(
    data: bytes, pos: int, symbols: Dict[int, str], objs: Optional[Iterator[Any]]
) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_MAP:
        count = data[pos]
        pos += 1
        if count > 0x7F:
            count, pos = _read_varint(data, pos, count)
        result = {}
        for _ in range(count):
            tag = data[pos]
            sym = data[pos + 1]
            if tag == _T_SYM and sym < _STATIC_ONE_BYTE:
                key = STATIC_SYMBOLS[sym]
                pos += 2
            else:
                key, pos = _read_text(data, pos + 1, tag, symbols)
            tag = data[pos]
            if tag == _T_SYM:
                sym = data[pos + 1]
                pos += 2
                if sym > 0x7F:
                    sym, pos = _read_varint(data, pos, sym)
                result[key] = STATIC_SYMBOLS[sym] if sym < _DYNAMIC_BASE else symbols[sym]
            elif tag == _T_INT and data[pos + 1] < 0x80:
                raw = data[pos + 1]
                result[key] = -((raw + 1) >> 1) if raw & 1 else raw >> 1
                pos += 2
            elif tag <= _T_FALSE:
                result[key] = _CONSTANTS[tag]
                pos += 1
            elif tag == _T_SYMDEF or tag == _T_STR:
                result[key], pos = _read_text(data, pos + 1, tag, symbols)
            else:
                result[key], pos = _read_value(data, pos, symbols, objs)
        return result, pos
    if tag == _T_LIST:
        count = data[pos]
        pos += 1
        if count > 0x7F:
            count, pos = _read_varint(data, pos, count)
        items = []
        for _ in range(count):
            tag = data[pos]
            if tag == _T_SYM:
                sym = data[pos + 1]
                pos += 2
                if sym > 0x7F:
                    sym, pos = _read_varint(data, pos, sym)
                items.append(STATIC_SYMBOLS[sym] if sym < _DYNAMIC_BASE else symbols[sym])
            elif tag == _T_INT and data[pos + 1] < 0x80:
                raw = data[pos + 1]
                items.append(-((raw + 1) >> 1) if raw & 1 else raw >> 1)
                pos += 2
            else:
                item, pos = _read_value(data, pos, symbols, objs)
                items.append(item)
        return items, pos
    if tag == _T_SYM or tag == _T_SYMDEF or tag == _T_STR:
        return _read_text(data, pos, tag, symbols)
    if tag == _T_INT:
        raw, pos = _read_varint_at(data, pos)
        return (-((raw + 1) >> 1) if raw & 1 else raw >> 1), pos
    if tag <= _T_FALSE:
        return _CONSTANTS[tag], pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated frame")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _T_BYTES:
        return _take(data, pos)
    if tag == _T_WIDE_INT:
        raw, pos = _take(data, pos)
        return int.from_bytes(raw, "big", signed=True), pos
    if tag == _T_OBJ:
        # The declared out-of-band size (already modeled) is skipped.
        _size, pos = _read_varint_at(data, pos)
        if objs is None:
            raise CodecError("out-of-band placeholder in a pure-value frame")
        try:
            return next(objs), pos
        except StopIteration:
            raise CodecError("frame is missing an out-of-band payload") from None
    raise CodecError(f"unknown tag {tag:#x}")


def _read_varint_at(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint starting at ``pos``."""
    first = data[pos]
    if first > 0x7F:
        return _read_varint(data, pos + 1, first)
    return first, pos + 1


def _read_batch(
    data: bytes, kind: int, symbols: Dict[int, str], objs: Iterator[Any]
) -> Tuple[List[Any], int]:
    """A batch body: varint count, then the envelopes.  In a delta batch
    every envelope after the first is a field delta against its
    predecessor: varint changed-count, (key, value) pairs, varint
    removed-count, removed keys."""
    count, pos = _read_varint_at(data, 0)
    if count > len(data) - pos:
        raise CodecError(f"implausible batch count {count}")
    envelopes: List[Any] = []
    prev: Optional[dict] = None
    for _ in range(count):
        if prev is None or kind == FRAME_BATCH:
            env, pos = _read_value(data, pos, symbols, objs)
            if kind == FRAME_BATCH_DELTA and not isinstance(env, dict):
                raise CodecError("delta batch base is not an envelope map")
        else:
            env = dict(prev)
            changed, pos = _read_varint_at(data, pos)
            for _ in range(changed):
                key, pos = _read_text(data, pos + 1, data[pos], symbols)
                env[key], pos = _read_value(data, pos, symbols, objs)
            removed, pos = _read_varint_at(data, pos)
            for _ in range(removed):
                key, pos = _read_text(data, pos + 1, data[pos], symbols)
                env.pop(key, None)
        envelopes.append(env)
        prev = env
    return envelopes, pos


def _checked(read, *args):
    """Call a body reader, turning a read past the end of the body, a
    reference to a symbol never defined, or malformed UTF-8 into
    :class:`CodecError`."""
    try:
        return read(*args)
    except IndexError:
        raise CodecError("truncated frame") from None
    except KeyError as exc:
        raise CodecError(f"undefined symbol {exc.args[0]}") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"malformed string: {exc}") from exc


def _open(frame: BinaryFrame) -> Tuple[int, bytes]:
    """Check a wire frame's magic and CRC; returns ``(kind, body)``."""
    data = frame.data
    if len(data) < 6 or data[0] != WIRE_MAGIC:
        raise CodecError("not a binary wire frame")
    body = data[2:-4]
    if zlib.crc32(body) != _CRC.unpack_from(data, len(data) - 4)[0]:
        raise CodecError("frame checksum mismatch")
    return data[1], body


def _read_map(
    data: bytes, symbols: Dict[int, str], objs: Optional[Iterator[Any]], what: str
) -> dict:
    """Decode ``data`` as exactly one map value."""
    value, pos = _checked(_read_value, data, 0, symbols, objs)
    if pos != len(data):
        raise CodecError(f"trailing bytes after {what}")
    if type(value) is not dict:
        raise CodecError(f"{what} is not a map")
    return value


class WireDecoder:
    """Mirror of :class:`WireEncoder`; one instance per accepted stream."""

    __slots__ = ("_symbols",)

    def __init__(self):
        #: Dynamic symbols defined on this stream: id -> text.
        self._symbols: Dict[int, str] = {}

    def decode_frame(self, frame: BinaryFrame) -> dict:
        """Decode an envelope or batch frame into its wire dict form.

        Batch frames come back as the legacy ``{"kind": "batch", ...}``
        dict, so everything downstream of the receive loop (dedup,
        dispatch, cost accounting) is codec-agnostic.
        """
        kind, body = _open(frame)
        objs = iter(frame.objs)
        if kind == FRAME_ENVELOPE:
            return _read_map(body, self._symbols, objs, "frame body")
        if kind != FRAME_BATCH and kind != FRAME_BATCH_DELTA:
            raise CodecError(f"unexpected frame kind {kind:#x}")
        envelopes, pos = _checked(_read_batch, body, kind, self._symbols, objs)
        if pos != len(body):
            raise CodecError("trailing bytes after frame body")
        return {"kind": "batch", "count": len(envelopes), "envelopes": envelopes}


class BlobSymbols(dict):
    """One journal blob's symbol table as its reader holds it (id -> text).

    The blob's writer defines symbols in id order, so a definition must
    extend the table by exactly the next id: one that does not marks the
    record corrupt.  That keeps the table a mirror of the writer's, and
    lets a rejected record's definitions be rolled back by dropping the
    newest entries."""

    __slots__ = ()

    def __setitem__(self, sym: int, text: str) -> None:
        if sym != _DYNAMIC_BASE + len(self) or len(self) >= DYNAMIC_LIMIT:
            raise CodecError(f"symbol {sym} defined out of order")
        dict.__setitem__(self, sym, text)

    def rollback(self, mark: int) -> None:
        """Forget the symbols defined since the table had ``mark`` entries."""
        while len(self) > mark:
            self.popitem()

    def encoder(self) -> WireEncoder:
        """A writer's table equal to this one: the blob's next record may
        reference every symbol defined here."""
        encoder = WireEncoder()
        encoder._symbols.update(
            (text, _sym_ref(sym)) for sym, text in self.items()
        )
        return encoder


# -- self-contained frames (gossip datagrams) ---------------------------------


def encode_gossip(payload: dict, compress: bool = False) -> BinaryFrame:
    """Encode one directory announcement body, self-contained.

    Datagrams carry their whole symbol table inline (fresh per frame);
    the win is vectorization across the repeated per-profile field names
    within one announcement.  Raises :class:`TypeError`, like
    ``json.dumps``, for a body holding an object that is not data.

    With ``compress=True`` the encoded body is zlib-deflated into a
    ``FRAME_GOSSIP_Z`` frame (varint raw length + deflate stream) -- the
    block-compression form for bulk/full-state transfers, which every
    receiver decodes; the CRC still covers the compressed bytes, so
    corruption is caught before inflation.  Falls back to the plain frame
    when deflate does not actually shrink the body (tiny payloads),
    keeping the compressed path never worse than the plain one.
    """
    body = bytearray()
    WireEncoder()._write_value(body, payload)
    if compress:
        packed = zlib.compress(body, _Z_LEVEL)
        header = bytearray()
        _write_varint(header, len(body))
        if len(packed) + len(header) < len(body):
            return BinaryFrame(_frame(FRAME_GOSSIP_Z, header + packed))
    return BinaryFrame(_frame(FRAME_GOSSIP, body))


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
    kind, body = _open(frame)
    if kind == FRAME_GOSSIP_Z:
        raw_len, pos = _checked(_read_varint_at, body, 0)
        body = _inflate(body[pos:], raw_len)
    elif kind != FRAME_GOSSIP:
        raise CodecError(f"unexpected frame kind {kind:#x}")
    return _read_map(body, {}, None, "gossip body")


def encoded_size(value: Any) -> int:
    """Byte length of the self-contained binary encoding of ``value``.

    The codec-honest replacement for JSON-derived size estimates
    (``Profile.estimated_size`` and friends) when the binary codec is the
    active wire format.
    """
    buf = bytearray()
    WireEncoder()._write_value(buf, value)
    return len(buf)


# -- journal record bodies ----------------------------------------------------

_ESC_BYTE = b"\x1b"
_NL_SUB = b"\x1bn"
_ESC_SUB = b"\x1b\x1b"
_JOURNAL_MAGICS = (
    bytes((JOURNAL_MAGIC,)), bytes((JOURNAL_MAGIC_Z,)), bytes((JOURNAL_MAGIC_BLOB,))
)


def encode_journal_body(
    record: dict, compress: bool = False, table: Optional[WireEncoder] = None
) -> bytes:
    """Encode one journal record body (``{"data", "kind", "lsn"}``).

    The body must coexist with the journal's line framing: a leading
    magic byte declares its form, and every 0x0A/0x1B inside the
    encoding is escaped so the record still terminates at its own
    newline.  The record-level CRC is computed over the escaped on-disk
    bytes.  Raises :class:`TypeError` (before any state changes) for
    non-representable data, mirroring ``json.dumps``.

    Given ``table`` -- the writer's table of the blob the record goes
    to -- the body is blob-scoped (:data:`JOURNAL_MAGIC_BLOB`): strings
    the blob's earlier records defined ride as references, new ones are
    defined in the table, and a failed encode leaves the table as it was.
    Otherwise the body is self-contained, and with ``compress=True`` the
    encoded value bytes are zlib-deflated before escaping and the body
    leads with :data:`JOURNAL_MAGIC_Z` instead -- used for checkpoint
    records, which are whole-state blobs.  Deflate is only kept when it
    actually shrinks the body, so small checkpoints stay plain and the
    choice is deterministic for a given record.
    """
    raw = bytearray()
    if table is not None:
        mark = table.mark()
        try:
            table._write_value(raw, record)
        except BaseException:
            table.rollback(mark)
            raise
        magic = JOURNAL_MAGIC_BLOB
    else:
        WireEncoder()._write_value(raw, record)
        magic = JOURNAL_MAGIC
        if compress:
            packed = zlib.compress(raw, _Z_LEVEL)
            if len(packed) < len(raw):
                raw = packed
                magic = JOURNAL_MAGIC_Z
    escaped = raw.replace(_ESC_BYTE, _ESC_SUB).replace(b"\n", _NL_SUB)
    return bytes((magic,)) + escaped


def decode_journal_body(body: bytes, table: Optional[BlobSymbols] = None) -> dict:
    """Decode a binary journal record body back into its record dict.

    A blob-scoped body decodes against ``table``, the reader's table of
    the blob it was read from, and extends it with the body's
    definitions; a body that fails to decode leaves the table as it was.
    A blob-scoped body without a table raises :class:`CodecError`.
    Self-contained bodies neither read nor extend the table.
    """
    if body[:1] not in _JOURNAL_MAGICS:
        raise CodecError("not a journal body")
    scoped = body[0] == JOURNAL_MAGIC_BLOB
    if scoped and table is None:
        raise CodecError("blob-scoped journal body read without its blob's table")
    # Unescape with bytes operations: split at the escaped ESCs, turn
    # ESC-n back into newlines within each piece, and reject any ESC
    # still left (a truncated or bad escape) before rejoining.
    pieces = [piece.replace(_NL_SUB, b"\n") for piece in body[1:].split(_ESC_SUB)]
    for piece in pieces:
        if _ESC_BYTE in piece:
            raise CodecError("truncated or bad escape sequence")
    raw = _ESC_BYTE.join(pieces)
    if body[0] == JOURNAL_MAGIC_Z:
        try:
            raw = zlib.decompress(raw)
        except zlib.error as exc:
            raise CodecError(f"corrupt compressed journal body: {exc}") from exc
    if not scoped:
        return _read_map(raw, {}, None, "journal body")
    mark = len(table)
    try:
        return _read_map(raw, table, None, "journal body")
    except BaseException:
        table.rollback(mark)
        raise
