"""Write-ahead journal: crash-consistent durability for uMiddle runtimes.

uMiddle intermediaries live "in the infrastructure" (design choice 4-b), so
a crashed intermediary must come back without losing the slice of the
semantic space it was hosting.  Before this module, ``crash()``/``restart()``
only worked because the Python objects happened to survive in memory.  This
module gives each runtime *simulated stable storage*: an append-only,
checksummed, monotonically-sequenced record log (an ARIES-style redo log)
that survives ``crash(lose_state=True)``, plus the replay machinery that
reconstructs directory state, standing queries, concrete paths, the unacked
per-peer spool, and breaker snapshots purely from the log.

Record format
-------------

One record per line::

    <crc32 hex, 8 chars> <body: {"data": ..., "kind": ..., "lsn": n}>\\n

- The body is the record in the binary codec (:mod:`repro.core.codec`),
  whatever the runtime's data-plane flags: a checkpoint is
  self-contained (``0xB2``, or ``0xB3`` when zlib shrinks it) and
  restarts the blob's symbol table, every other record is blob-scoped
  (``0xB4``) -- encoded against the table the blob's earlier records
  built, so a string costs its bytes once per blob and a 2-3 byte
  reference after that.
- ``lsn`` is a per-journal monotonic sequence number; a gap or regression
  during replay stops the scan (a torn or reordered tail is never applied).
- The CRC-32 covers the body; a mismatch (bit flip) also stops the
  scan, as does a blob-scoped body that does not decode against the
  table.  Replay therefore always recovers the *last checksum-consistent
  prefix* -- anything after the first bad record is discarded and must be
  re-learned through the normal gossip pull.

Group commit
------------

Appends go to an in-memory *pending* buffer; ``fsync_interval`` seconds
later (simulated time) the buffer is flushed to the durable blob in one
write.  ``fsync_interval=0`` (the default) flushes synchronously on every
append.  A crash drops whatever is still pending -- exactly the durability
window the interval buys in exchange for fewer (simulated and wall-clock)
flushes, which the durability benchmark measures.

Checkpoints
-----------

The journal keeps a live *mirror* of what replay would produce (every
appended record is folded into it immediately).  Every
``CHECKPOINT_EVERY_RECORDS`` appends -- and at the end of every cold
recovery -- the blob is rewritten as a single ``checkpoint`` record
serialized from the mirror and the LSN chain restarts at 1, so neither
the blob nor replay time grows with uptime.  The mirror is also the
repair source when :meth:`Journal.sync` finds the durable tail corrupted
underneath a live runtime: instead of appending after the damage (which
would strand every later record past the first bad frame), it rewrites
the blob from the mirror, so nothing that was ever appended is lost.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.codec import (
    BlobSymbols,
    CodecError,
    WireEncoder,
    decode_journal_body,
    encode_journal_body,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import UMiddleRuntime
    from repro.simnet.net import Network

__all__ = [
    "DurableMedia",
    "Journal",
    "RecoveredState",
    "durable_media",
    "encode_record",
    "replay_blob",
]


class DurableMedia:
    """Simulated stable storage: one append-only blob per ``runtime_id``.

    The media object lives on the :class:`~repro.simnet.net.Network` (one
    "disk array" per simulation), so it survives any runtime's
    ``crash(lose_state=True)`` while still being isolated between
    simulations -- a fresh testbed starts with empty disks.
    """

    def __init__(self):
        self._blobs: Dict[str, bytearray] = {}

    def blob(self, runtime_id: str) -> bytearray:
        return self._blobs.setdefault(runtime_id, bytearray())

    def size(self, runtime_id: str) -> int:
        return len(self._blobs.get(runtime_id, b""))

    # -- corruption hooks (chaos's JournalCorruption fault) -----------------

    def truncate_tail(self, runtime_id: str, nbytes: int) -> int:
        """Chop ``nbytes`` off the end of the blob (a torn tail write).

        Returns the number of bytes actually removed.
        """
        blob = self.blob(runtime_id)
        removed = min(max(nbytes, 0), len(blob))
        if removed:
            del blob[len(blob) - removed :]
        return removed

    def flip_tail_byte(self, runtime_id: str, offset_from_end: int = 4) -> bool:
        """XOR one byte near the end of the blob (tail-record bit rot).

        Returns False when the blob is too short to corrupt.
        """
        blob = self.blob(runtime_id)
        if not blob:
            return False
        index = len(blob) - 1 - min(max(offset_from_end, 0), len(blob) - 1)
        blob[index] ^= 0x5A
        return True


def durable_media(network: "Network") -> DurableMedia:
    """The network's stable-storage array, created on first use."""
    media = getattr(network, "_durable_media", None)
    if media is None:
        media = DurableMedia()
        network._durable_media = media
    return media


def encode_record(
    lsn: int,
    kind: str,
    data: dict,
    compress: bool = False,
    table: Optional[WireEncoder] = None,
) -> bytes:
    """One checksummed, line-framed journal record.

    The body is the escaped binary codec encoding of the record (see
    :func:`~repro.core.codec.encode_journal_body`).  ``table``, the
    writer's symbol table of the blob the record is appended to, makes
    the body blob-scoped (magic ``0xB4``): it references the strings the
    blob's earlier records defined.  Without it the body is
    self-contained (``0xB2``), and ``compress=True`` additionally
    zlib-deflates it (magic ``0xB3``) when that shrinks it -- used for
    checkpoint records, which serialize the whole mirror.  The body's
    encoding raises :class:`TypeError` for a value it cannot represent
    -- the codec refuses only what JSON refuses too -- and a failed
    encode leaves ``table`` as it was.
    """
    body = encode_journal_body(
        {"data": data, "kind": kind, "lsn": lsn}, compress=compress, table=table
    )
    return b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"


def _decode_line(line: bytes, symbols: BlobSymbols) -> Optional[dict]:
    """Parse one framed record, decoding a blob-scoped body against
    ``symbols``; None on any structural or checksum fault."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    body = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    try:
        record = decode_journal_body(body, table=symbols)
    except CodecError:
        return None
    if "lsn" not in record or "kind" not in record:
        return None
    return record


def replay_blob(
    blob: bytes, symbols: Optional[BlobSymbols] = None
) -> Tuple[List[dict], int, int]:
    """Scan a journal blob to its last checksum-consistent prefix.

    Returns ``(records, clean_bytes, discarded_bytes)``.  The scan stops at
    the first record that is torn (no trailing newline), fails its CRC,
    does not parse, or breaks LSN monotonicity; everything after that point
    counts as discarded.  Blob-scoped bodies decode against one symbol
    table for the whole blob; ``symbols``, an empty table when given, ends
    up holding what the clean prefix defined.
    """
    if symbols is None:
        symbols = BlobSymbols()
    records: List[dict] = []
    offset = 0
    last_lsn = 0
    view = bytes(blob)
    while offset < len(view):
        end = view.find(b"\n", offset)
        if end < 0:
            break  # torn tail: partial record without its newline
        mark = len(symbols)
        record = _decode_line(view[offset:end], symbols)
        lsn = None if record is None else record["lsn"]
        if not isinstance(lsn, int) or lsn != last_lsn + 1:
            symbols.rollback(mark)  # a rejected record defines nothing
            break
        last_lsn = lsn
        records.append(record)
        offset = end + 1
    return records, offset, len(view) - offset


@dataclass
class RecoveredState:
    """Everything :meth:`Journal.replay` reconstructs from the log."""

    #: translator_id -> profile wire dict, in registration order, with the
    #: latest journaled health applied.
    registered: Dict[str, dict] = field(default_factory=dict)
    #: binding_id -> {"port", "query", "failover"} for open standing queries.
    bindings: Dict[str, dict] = field(default_factory=dict)
    #: path_id -> {"src", "dst", "qos"} for open application paths.
    paths: Dict[str, dict] = field(default_factory=dict)
    #: peer runtime_id -> ordered unacked (envelope, size) spool entries.
    spool: Dict[str, List[Tuple[dict, int]]] = field(default_factory=dict)
    #: sender-side stream key -> highest sequence number ever assigned or
    #: reserved (``seq-reserve`` records keep this ahead of anything that
    #: could have reached a receiver, even when the spool records for the
    #: group-commit window died with the crash).
    stream_seqs: Dict[str, int] = field(default_factory=dict)
    #: peer runtime_id -> last breaker snapshot ({"state", "times_opened"}).
    breakers: Dict[str, dict] = field(default_factory=dict)
    #: translator_id -> {"profile": wire dict, "shards": [shard ids]} for
    #: profiles stored on this node's owned shards (sharded directory).
    shard_entries: Dict[str, dict] = field(default_factory=dict)
    #: shard ids this node owned at its last ownership transition.
    shard_owned: List[int] = field(default_factory=list)
    #: runtime ids of the shard map's membership view at that transition
    #: (empty from blobs that predate them): the view a recovered router
    #: routes on until its peers have announced again.
    shard_members: List[str] = field(default_factory=list)
    #: str(shard) -> {"entries": {translator_id: profile dict}}
    #: for the passive replica slices this node holds for its peers.
    replica_slices: Dict[str, dict] = field(default_factory=dict)
    #: saga_id -> folded saga progress (see ``_apply``'s saga-* kinds):
    #: the coordinator-side state machine for every saga that has begun
    #: but not yet journaled its ``saga-end``.
    sagas: Dict[str, dict] = field(default_factory=dict)
    #: participant-side reply cache: "origin|saga|step|leg" -> {"seq"} for
    #: every saga invocation this runtime durably applied, so a re-driven
    #: step after recovery re-replies instead of re-applying.
    saga_applied: Dict[str, dict] = field(default_factory=dict)
    applied_records: int = 0
    discarded_bytes: int = 0

    @property
    def truncated(self) -> bool:
        return self.discarded_bytes > 0


class Journal:
    """One runtime's write-ahead log on the simulated durable media.

    Redo-only: the runtime appends a record *before* applying each durable
    state change (registration, standing query, application path, spool
    envelope, ack, breaker trip/close, health change, sequence
    reservation), and :meth:`replay` folds the record stream back into a
    :class:`RecoveredState`.  ``muted`` suppresses appends while the
    runtime is crashed or replaying -- recovery must never re-log what it
    reads.
    """

    #: Rewrite the blob as one checkpoint record after this many appends,
    #: so blob size and replay time stay bounded regardless of uptime.
    CHECKPOINT_EVERY_RECORDS = 2048

    def __init__(
        self,
        runtime: "UMiddleRuntime",
        media: DurableMedia,
        enabled: bool = True,
        fsync_interval: float = 0.0,
    ):
        self.runtime = runtime
        self.media = media
        self.enabled = enabled
        self.fsync_interval = fsync_interval
        #: True while the runtime is crashed or replaying: appends dropped.
        self.muted = False
        self._pending = bytearray()
        self._flush_scheduled = False
        # Continue the LSN chain and the symbol table (``_encoder``, see
        # :meth:`_scan`) of whatever already survives on disk, and seed the
        # mirror from it.
        records, clean, _junk = self._scan()
        self._lsn = records[-1]["lsn"] if records else 0
        #: Byte copy of the last durably-flushed frame, compared against
        #: the blob tail before every flush (see :meth:`sync`).
        self._tail_frame = self._last_frame(self.blob, clean)
        #: The most recent record appended to the pending buffer; becomes
        #: the new tail frame when the buffer flushes.
        self._pending_tail = b""
        self._mirror = RecoveredState(applied_records=len(records))
        for record in records:
            self._apply(self._mirror, record["kind"], record["data"])
        self._records_since_checkpoint = 0
        self.records_appended = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.records_lost = 0
        self.checkpoints = 0
        self.tail_repairs = 0

    @property
    def blob(self) -> bytearray:
        return self.media.blob(self.runtime.runtime_id)

    @property
    def size_bytes(self) -> int:
        return len(self.blob)

    @property
    def pending_bytes(self) -> int:
        return len(self._pending)

    def _scan(self) -> Tuple[List[dict], int, int]:
        """:func:`replay_blob` over the durable blob, rebinding the writer's
        symbol table to the one the scan built: records are blob-scoped,
        and the writer's table always equals what a reader of the durable
        blob plus the pending records holds."""
        symbols = BlobSymbols()
        scan = replay_blob(self.blob, symbols)
        #: The blob's symbol table, writer side.
        self._encoder = symbols.encoder()
        return scan

    # -- writing ------------------------------------------------------------

    def append(self, kind: str, data: dict) -> None:
        if not self.enabled or self.muted:
            return
        # Encode before committing the LSN: a non-serializable payload must
        # raise without leaving a gap in the sequence chain.
        record = encode_record(self._lsn + 1, kind, data, table=self._encoder)
        self._lsn += 1
        self._pending += record
        self._pending_tail = record
        self.records_appended += 1
        self._apply(self._mirror, kind, data)
        self._records_since_checkpoint += 1
        if self._records_since_checkpoint >= self.CHECKPOINT_EVERY_RECORDS:
            self.checkpoint()
        elif self.fsync_interval <= 0:
            self.sync()
        elif not self._flush_scheduled:
            self._flush_scheduled = True
            self.runtime.kernel.call_later(self.fsync_interval, self._flush_timer)

    def append_spool(self, peer: str, envelope: dict, size: int) -> None:
        """Write-ahead-log one spooled envelope as one ``spool`` record.

        Raises :class:`TypeError` (before mutating any state) when the
        envelope is not JSON-representable, like :meth:`append`.
        """
        self.append("spool", {"peer": peer, "envelope": envelope, "size": size})

    def sync(self) -> None:
        """Flush the pending buffer to stable storage (one group commit).

        The tail frame is verified before extending: corruption that lands
        while the runtime is alive (the ``JournalCorruption`` fault has no
        crashed precondition) would otherwise strand every later record
        behind the first bad frame.  Damage is repaired by rewriting the
        blob from the in-memory mirror, so nothing appended is lost."""
        if not self._pending:
            return
        blob = self.blob
        if not self._tail_consistent(blob):
            self.tail_repairs += 1
            self.runtime.trace(
                "journal.tail-repair",
                "durable tail corrupted under a live runtime; "
                "rewrote stable storage from the in-memory mirror",
            )
            self.checkpoint()
            return
        self._tail_frame = self._pending_tail
        blob.extend(self._pending)
        self.fsyncs += 1
        self.bytes_written += len(self._pending)
        self._pending.clear()

    @staticmethod
    def _last_frame(view, end: int) -> bytes:
        """The bytes of the last whole frame in ``view[:end]``."""
        if end <= 0:
            return b""
        start = view.rfind(b"\n", 0, end - 1) + 1
        return bytes(view[start:end])

    def _tail_consistent(self, blob: bytearray) -> bool:
        """Cheap memcmp check that the durable tail still ends with the
        frame we last flushed -- no per-flush CRC or JSON work."""
        tail = self._tail_frame
        if not tail:
            return len(blob) == 0
        return blob.endswith(tail)

    def checkpoint(self) -> None:
        """Compact: replace the whole blob with one ``checkpoint`` record
        serialized from the mirror (which already folds any pending
        records), restarting the LSN chain at 1.  Checkpoints are durable
        immediately -- they never sit in the group-commit buffer."""
        if not self.enabled or self.muted:
            return
        record = encode_record(1, "checkpoint", self._checkpoint_data(), compress=True)
        blob = self.blob
        del blob[:]
        blob.extend(record)
        self._pending.clear()  # effects already folded into the snapshot
        self._encoder.reset()  # the self-contained record defines nothing
        self._lsn = 1
        self._tail_frame = record
        self._records_since_checkpoint = 0
        self.checkpoints += 1
        self.fsyncs += 1
        self.bytes_written += len(record)

    def _checkpoint_data(self) -> dict:
        mirror = self._mirror
        data = {
            "registered": mirror.registered,
            "bindings": mirror.bindings,
            "paths": mirror.paths,
            "spool": {
                peer: [[envelope, size] for envelope, size in entries]
                for peer, entries in mirror.spool.items()
            },
            "stream_seqs": mirror.stream_seqs,
            "breakers": mirror.breakers,
        }
        # Shard fields ride the checkpoint only when sharding ever wrote
        # them, so non-sharded checkpoints stay byte-identical.  The shard
        # store and the replica slices often hold the same profile (one
        # node is primary for some of a profile's shards and replica for
        # others), so each distinct profile dict is written once, in the
        # ``profiles`` table, and both sections name it by index: the same
        # dict object, or else an equal dict for the same translator id.
        # ``registered`` keeps whole dicts: they are the mirror's own
        # copies, which ``health`` records mutate.
        table: List[dict] = []
        by_identity: Dict[int, int] = {}
        by_translator: Dict[str, List[int]] = {}

        def ref(profile: dict) -> int:
            index = by_identity.get(id(profile))
            if index is None:
                versions = by_translator.setdefault(profile["translator_id"], [])
                for known in versions:
                    if table[known] == profile:
                        index = known
                        break
                else:
                    index = len(table)
                    table.append(profile)
                    versions.append(index)
                by_identity[id(profile)] = index
            return index

        if mirror.shard_entries:
            data["shard_entries"] = {
                translator_id: {
                    "profile": ref(entry["profile"]),
                    "shards": entry["shards"],
                }
                for translator_id, entry in mirror.shard_entries.items()
            }
        if mirror.shard_owned:
            data["shard_owned"] = mirror.shard_owned
        if mirror.shard_members:
            data["shard_members"] = mirror.shard_members
        if mirror.replica_slices:
            data["replica_slices"] = {
                shard_key: {
                    "entries": {
                        translator_id: ref(profile)
                        for translator_id, profile in slice_["entries"].items()
                    }
                }
                for shard_key, slice_ in mirror.replica_slices.items()
            }
        if table:
            data["profiles"] = table
        # Same discipline for saga state: the fields appear only once
        # something wrote them, so saga-off checkpoints stay
        # byte-identical to saga-free builds.
        if mirror.sagas:
            data["sagas"] = mirror.sagas
        if mirror.saga_applied:
            data["saga_applied"] = mirror.saga_applied
        return data

    def _flush_timer(self) -> None:
        self._flush_scheduled = False
        self.sync()

    def lose_pending(self) -> None:
        """Crash semantics: un-fsynced group-commit records die with the
        process.  The LSN counter rolls back with them so the on-disk chain
        stays gapless, and the mirror and the symbol table are rebuilt from
        what is actually durable."""
        if self._pending:
            lost = self._pending.count(b"\n")
            self.records_lost += lost
            self._lsn -= lost
            self._pending.clear()
            self._pending_tail = b""
            records, _clean, _junk = self._scan()
            self._mirror = RecoveredState(applied_records=len(records))
            for record in records:
                self._apply(self._mirror, record["kind"], record["data"])

    # -- replay -------------------------------------------------------------

    def replay(self) -> RecoveredState:
        """Fold the durable record stream into a :class:`RecoveredState`.

        Stops at the last checksum-consistent prefix (see
        :func:`replay_blob`); a corrupted tail is physically truncated so
        post-recovery appends extend the consistent prefix, not the junk,
        and continue its symbol table.  Cold recovery runs it after
        :meth:`lose_pending`, with nothing pending.
        """
        records, clean_bytes, discarded = self._scan()
        if discarded:
            self.media.truncate_tail(self.runtime.runtime_id, discarded)
            self._lsn = records[-1]["lsn"] if records else 0
        self._tail_frame = self._last_frame(self.blob, clean_bytes)
        state = RecoveredState(
            applied_records=len(records), discarded_bytes=discarded
        )
        for record in records:
            self._apply(state, record["kind"], record["data"])
        # The replayed state becomes the new mirror; the caller (cold
        # recovery) may prune it -- e.g. drop opaque spool markers it will
        # not respool -- before sealing it with a checkpoint.
        self._mirror = state
        return state

    @staticmethod
    def _apply(state: RecoveredState, kind: str, data: dict) -> None:
        if kind == "register":
            # A copy: ``health`` records change registered entries in
            # place, and the record's dict may be the profile's own
            # cached wire form.
            profile = data["profile"]
            state.registered[profile["translator_id"]] = dict(profile)
        elif kind == "unregister":
            state.registered.pop(data["translator_id"], None)
        elif kind == "health":
            entry = state.registered.get(data["translator_id"])
            if entry is not None:
                entry["health"] = data["health"]
        elif kind == "binding-open":
            state.bindings[data["binding_id"]] = data
        elif kind == "binding-close":
            state.bindings.pop(data["binding_id"], None)
        elif kind == "path-open":
            state.paths[data["path_id"]] = data
        elif kind == "path-close":
            state.paths.pop(data["path_id"], None)
        elif kind == "spool":
            envelope = data["envelope"]
            state.spool.setdefault(data["peer"], []).append((envelope, data["size"]))
            stream = envelope.get("stream")
            seq = envelope.get("seq")
            if stream is not None and isinstance(seq, int):
                state.stream_seqs[stream] = max(state.stream_seqs.get(stream, 0), seq)
        elif kind == "spool-ack":
            entries = state.spool.get(data["peer"])
            if entries:
                # Per-peer delivery is FIFO: the ack pops the ``count``
                # envelopes of one acknowledged frame from the head.
                del entries[: data["count"]]
        elif kind == "spool-drop":
            entries = state.spool.get(data["peer"])
            if entries:
                entries.pop(0)  # capacity eviction also removes the oldest
        elif kind == "spool-flush":
            state.spool.pop(data["peer"], None)
        elif kind == "seq-reserve":
            # Durable before any envelope in its range can reach a peer,
            # so a recovered sender never re-stamps a sequence number the
            # receiver may already have seen (lost group-commit window or
            # truncated tail notwithstanding).
            stream = data["stream"]
            state.stream_seqs[stream] = max(
                state.stream_seqs.get(stream, 0), int(data["upto"])
            )
        elif kind == "shard-store":
            # Shard and replica profile dicts are kept, not copied: no
            # branch mutates them, so the mirror shares the live path's
            # cached wire forms (and a checkpoint's table entries).
            profile = data["profile"]
            state.shard_entries[profile["translator_id"]] = {
                "profile": profile,
                "shards": list(data["shards"]),
            }
        elif kind == "shard-remove":
            state.shard_entries.pop(data["translator_id"], None)
        elif kind == "shard-drop":
            dropped = set(data["shards"])
            for translator_id in list(state.shard_entries):
                entry = state.shard_entries[translator_id]
                remaining = [s for s in entry["shards"] if s not in dropped]
                if remaining:
                    entry["shards"] = remaining
                else:
                    del state.shard_entries[translator_id]
        elif kind == "shard-own":
            state.shard_owned = list(data["owned"])
            state.shard_members = list(data.get("members", ()))
        elif kind == "shard-replica":
            slice_ = state.replica_slices.setdefault(
                str(data["shard"]), {"entries": {}}
            )
            if data.get("full"):
                slice_["entries"] = {}
            for profile in data.get("profiles", ()):
                slice_["entries"][profile["translator_id"]] = profile
            for translator_id in data.get("removed", ()):
                slice_["entries"].pop(translator_id, None)
        elif kind == "shard-promote":
            # Warm-ingest promotion: the promoted profiles are already in
            # the journal as shard-replica slice content, so the record
            # only points at them (shard -> translator ids) instead of
            # re-serializing every profile.
            for shard_key, translator_ids in data["slices"].items():
                slice_ = state.replica_slices.get(str(shard_key))
                if not slice_:
                    continue
                for translator_id in translator_ids:
                    profile = slice_["entries"].get(translator_id)
                    if profile is None:
                        continue
                    entry = state.shard_entries.get(translator_id)
                    if entry is None:
                        state.shard_entries[translator_id] = {
                            "profile": profile,
                            "shards": [int(shard_key)],
                        }
                    elif int(shard_key) not in entry["shards"]:
                        entry["shards"] = sorted(
                            set(entry["shards"]) | {int(shard_key)}
                        )
        elif kind == "shard-replica-drop":
            for shard in data["shards"]:
                state.replica_slices.pop(str(shard), None)
        elif kind == "shard-replica-origin":
            origin = data["origin"]
            for slice_ in state.replica_slices.values():
                slice_["entries"] = {
                    translator_id: profile
                    for translator_id, profile in slice_["entries"].items()
                    if profile.get("runtime_id") != origin
                }
        elif kind == "saga-begin":
            state.sagas[data["saga_id"]] = {
                "steps": [dict(step) for step in data["steps"]],
                "status": "running",
                "step": 0,
                "attempt": 0,
                "inflight": False,
                "targets": {},
                "applied": [],
                "compensated": [],
                "cancels": [],
            }
        elif kind == "saga-step-start":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["step"] = data["step"]
                saga["attempt"] = data["attempt"]
                saga["inflight"] = True
                saga["targets"][str(data["step"])] = data["target"]
                rebound_from = data.get("rebound_from")
                if rebound_from:
                    # The previous target may have applied the step before
                    # going dark; a cancel undoes it if it did.
                    saga["cancels"].append(
                        {"step": data["step"], "target": rebound_from}
                    )
        elif kind == "saga-step-done":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["inflight"] = False
                saga["attempt"] = 0
                if data["status"] == "applied":
                    saga["applied"].append(data["step"])
                    saga["step"] = data["step"] + 1
                else:  # compensated
                    saga["compensated"].append(data["step"])
        elif kind == "saga-compensate":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                saga["status"] = "compensating"
                if data.get("phase") == "begin":
                    saga["inflight"] = False
                    saga["attempt"] = 0
                    saga["cancels"].extend(
                        dict(entry) for entry in data.get("cancels", ())
                    )
                else:  # one compensation attempt for one step
                    saga["step"] = data["step"]
                    saga["attempt"] = data["attempt"]
                    saga["inflight"] = True
        elif kind == "saga-cancel-done":
            saga = state.sagas.get(data["saga_id"])
            if saga is not None:
                for index, entry in enumerate(saga["cancels"]):
                    if (
                        entry["step"] == data["step"]
                        and entry["target"] == data["target"]
                    ):
                        del saga["cancels"][index]
                        break
        elif kind == "saga-end":
            state.sagas.pop(data["saga_id"], None)
        elif kind == "saga-applied":
            state.saga_applied[data["key"]] = {"seq": data["seq"]}
        elif kind == "checkpoint":
            state.registered = {
                key: dict(value) for key, value in data["registered"].items()
            }
            state.bindings = dict(data["bindings"])
            state.paths = dict(data["paths"])
            state.spool = {
                peer: [(envelope, size) for envelope, size in entries]
                for peer, entries in data["spool"].items()
            }
            state.stream_seqs = {
                key: int(value) for key, value in data["stream_seqs"].items()
            }
            state.breakers = dict(data["breakers"])
            # A checkpoint with a ``profiles`` table names its shard and
            # replica profiles by index, and they replay as one shared
            # dict each; a checkpoint without one (every blob written
            # before the table) holds the dicts inline.  Either way the
            # dicts come fresh from the decoder, so none is copied.
            table = data.get("profiles")
            resolve = (
                (lambda profile: profile) if table is None else table.__getitem__
            )
            state.shard_entries = {
                key: {
                    "profile": resolve(value["profile"]),
                    "shards": list(value["shards"]),
                }
                for key, value in data.get("shard_entries", {}).items()
            }
            state.shard_owned = list(data.get("shard_owned", ()))
            state.shard_members = list(data.get("shard_members", ()))
            state.replica_slices = {
                key: {
                    "entries": {
                        translator_id: resolve(profile)
                        for translator_id, profile in value["entries"].items()
                    },
                }
                for key, value in data.get("replica_slices", {}).items()
            }
            state.sagas = {}
            for key, value in data.get("sagas", {}).items():
                saga = dict(value)
                saga["steps"] = [dict(step) for step in value["steps"]]
                saga["targets"] = dict(value["targets"])
                saga["applied"] = list(value["applied"])
                saga["compensated"] = list(value["compensated"])
                saga["cancels"] = [dict(entry) for entry in value["cancels"]]
                state.sagas[key] = saga
            state.saga_applied = {
                key: dict(value)
                for key, value in data.get("saga_applied", {}).items()
            }
        elif kind == "breaker":
            if data.get("state") == "closed":
                state.breakers.pop(data["peer"], None)
            else:
                state.breakers[data["peer"]] = data
        # Unknown kinds are ignored: forward-compatible replay (older blobs
        # also carry the retired codec-negotiation, ownership-epoch,
        # load-weight and spool-batch kinds).
