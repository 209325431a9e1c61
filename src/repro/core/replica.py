"""Replicated shard slices behind an owner-anchored fence.

The sharded directory (:mod:`repro.core.shard`) single-homes each
``(axis, value)`` slice on one rendezvous-hashed owner: an owner crash or
a partition blacks out keyed lookups for those shards until lease reaping
and origin re-push reconverge.  This module adds the availability tier on
top, gated on ``UMiddleRuntime(replication_factor=...)``:

- **Placement** -- each virtual shard is placed on the top-R members of
  the existing :meth:`ShardMap.owners_ranked` order.  Rank 0 is the
  *primary* (authoritative, exactly the PR 6 owner); ranks ``1..R-1``
  hold passive *replica slices* streamed from the primary.  No new hash,
  no new coordination: every node derives the identical replica sets
  from the identical membership view.
- **ReplicaStore** -- the passive side: per-shard profile slices with the
  simulated time of the last accepted sync (the bounded-staleness marker
  degraded reads report).
- **Owner fencing** -- a replica applies a replica-plane frame (slice
  push, full sync or digest) only when its sender owns the shard under
  the replica's own membership view, the authority anchor used
  everywhere else in the directory.  Anything else is dropped and
  counted in ``fenced_frames``, so a primary deposed into a minority
  partition can never resurrect reaped state after heal.
- **Anti-entropy** -- on every membership change the primary sends its
  replicas a per-shard ``(count, digest)`` summary; a replica answers
  with the shards whose slice digest mismatches and the primary re-syncs
  exactly those with a full-slice push.  The same exchange bootstraps a
  brand-new replica (its empty slice always mismatches) and repairs a
  slice that diverged across a partition.

The authoritative store, origin re-push and lease reaping are untouched:
replication is purely an availability overlay, and the correctness
backstop of PR 6 (origins re-push on every membership change) remains
the final word on slice content.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.core.profile import TranslatorProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.shard import ShardMap

__all__ = [
    "ReplicaSlice",
    "ReplicaStore",
    "replicas_of",
    "slice_digest",
]


def replicas_of(
    shard_map: "ShardMap", shard: int, replication_factor: int
) -> List[str]:
    """The replica members of ``shard``: ranks ``1..R-1`` of the
    rendezvous order (rank 0 is the primary).  Fewer members than R means
    fewer replicas -- never a wrap-around double placement."""
    if replication_factor <= 1:
        return []
    ranked = shard_map.owners_ranked(shard)
    return ranked[1:replication_factor]


def slice_digest(entries: Dict[str, TranslatorProfile]) -> str:
    """Order-insensitive digest of one shard slice's content, compared
    between primary and replica during anti-entropy."""
    hasher = hashlib.sha1()
    for translator_id in sorted(entries):
        hasher.update(translator_id.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(entries[translator_id].wire_digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class ReplicaSlice:
    """One shard's passive replica: content plus staleness state."""

    __slots__ = ("shard", "synced_at", "entries")

    def __init__(self, shard: int, synced_at: float = 0.0):
        self.shard = shard
        #: Simulated time of the last accepted sync from the primary: the
        #: bound a degraded read reports as its staleness marker.
        self.synced_at = synced_at
        self.entries: Dict[str, TranslatorProfile] = {}

    def digest(self) -> str:
        return slice_digest(self.entries)


class ReplicaStore:
    """All replica slices one node passively holds for its peers.

    Kept strictly apart from the authoritative :class:`ShardStore`: the
    placement invariant, journaling and sweep semantics of the primary
    path are untouched, and a replica slice only ever surfaces through an
    explicitly-traced degraded read or a warm-ingest promotion.
    """

    def __init__(self):
        self._slices: Dict[int, ReplicaSlice] = {}

    # -- inspection --------------------------------------------------------

    @property
    def slice_count(self) -> int:
        return len(self._slices)

    @property
    def profile_count(self) -> int:
        return sum(len(s.entries) for s in self._slices.values())

    def shards(self) -> List[int]:
        return list(self._slices)

    def estimated_bytes(self) -> int:
        """Modeled bytes of every replicated profile held here -- the
        replica-tier share of a node's state footprint (the benchmark's
        fattest-node accounting sums this with the primary store's)."""
        return sum(
            profile.estimated_size()
            for slice_ in self._slices.values()
            for profile in slice_.entries.values()
        )

    def origins(self) -> "set[str]":
        """Every origin runtime with at least one replicated profile --
        swept against the membership view just like the primary store's
        origins."""
        found = set()
        for slice_ in self._slices.values():
            for profile in slice_.entries.values():
                found.add(profile.runtime_id)
        return found

    def get(self, shard: int) -> Optional[ReplicaSlice]:
        return self._slices.get(shard)

    def snapshot(self) -> Dict[str, dict]:
        """Canonical JSON-serializable content (recovery equivalence).
        Shard keys are strings so the blob round-trips through JSON."""
        return {
            str(shard): {
                "entries": {
                    tid: slice_.entries[tid].to_dict()
                    for tid in sorted(slice_.entries)
                },
            }
            for shard, slice_ in sorted(self._slices.items())
        }

    # -- mutation ----------------------------------------------------------

    def _slice(self, shard: int) -> ReplicaSlice:
        slice_ = self._slices.get(shard)
        if slice_ is None:
            slice_ = ReplicaSlice(shard)
            self._slices[shard] = slice_
        return slice_

    def apply_store(
        self,
        shard: int,
        profiles: Iterable[TranslatorProfile],
        now: float,
        full: bool = False,
    ) -> None:
        """Merge (or, with ``full``, replace with) the pushed profiles.
        Fencing is the caller's job (:meth:`ShardRouter._handle_replica`
        admits only frames from the shard's current map owner)."""
        slice_ = self._slice(shard)
        if full:
            slice_.entries.clear()
        for profile in profiles:
            slice_.entries[profile.translator_id] = profile
        slice_.synced_at = now

    def apply_remove(
        self, shard: int, translator_ids: Iterable[str], now: float
    ) -> None:
        slice_ = self._slices.get(shard)
        if slice_ is None:
            return  # nothing to remove
        for translator_id in translator_ids:
            slice_.entries.pop(translator_id, None)
        slice_.synced_at = now

    def drop(self, shard: int) -> bool:
        return self._slices.pop(shard, None) is not None

    def drop_origin(self, origin: str) -> List[int]:
        """Reap every replica entry from a conclusively-lost origin (the
        replica-plane analog of the primary's ``origin_lost``); returns
        the shards touched."""
        touched = []
        for shard, slice_ in list(self._slices.items()):
            gone = [
                tid
                for tid, profile in slice_.entries.items()
                if profile.runtime_id == origin
            ]
            if gone:
                for tid in gone:
                    del slice_.entries[tid]
                touched.append(shard)
        return touched

    def clear(self) -> None:
        self._slices.clear()

    # -- serving -----------------------------------------------------------

    def bucket(
        self, shard: int, key: Tuple[str, str]
    ) -> List[TranslatorProfile]:
        """Profiles in one replica slice carrying ``key``.  Slices are
        small (one virtual shard), so a linear scan beats maintaining a
        per-slice index that degraded reads rarely consult."""
        slice_ = self._slices.get(shard)
        if slice_ is None:
            return []
        return [
            profile
            for profile in slice_.entries.values()
            if key in profile.index_keys()
        ]
