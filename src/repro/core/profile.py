"""Translator profiles: what the directory advertises about a translator.

A profile is the directory-visible description of a translator: identity,
origin platform, role, shape, and free-form attributes.  Profiles are plain
data (JSON-serializable) so they can be gossiped between uMiddle runtimes
by the directory module.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

from repro.core import codec
from repro.core.errors import ShapeError
from repro.core.shapes import Direction, DigitalType, PhysicalType, PortSpec, Shape

__all__ = ["PortRef", "TranslatorProfile", "same_except_health"]


def _canonical_digest(data: Dict[str, Any]) -> str:
    """Content digest of a wire-form dict (canonical JSON, key-sorted)."""
    return hashlib.sha1(codec.canonical_json(data)).hexdigest()


#: Profiles reconstructed from the wire, keyed by content digest.  Unchanged
#: re-announcements of the same profile skip PortSpec/Shape reconstruction and
#: validation entirely and share one instance (which also makes the cached
#: wire form and index keys below pay off across the whole federation view).
_INTERNED: "weakref.WeakValueDictionary[str, TranslatorProfile]" = (
    weakref.WeakValueDictionary()
)


@dataclass(frozen=True, order=True)
class PortRef:
    """A globally unique reference to one port of one translator."""

    runtime_id: str
    translator_id: str
    port_name: str

    def __str__(self) -> str:
        return f"{self.runtime_id}/{self.translator_id}/{self.port_name}"

    @classmethod
    def parse(cls, text: str) -> "PortRef":
        parts = text.split("/")
        if len(parts) != 3 or not all(parts):
            raise ShapeError(f"malformed port reference: {text!r}")
        return cls(*parts)


@dataclass(frozen=True)
class TranslatorProfile:
    """The advertised description of one translator.

    ``attributes`` carry platform- or application-specific metadata such as
    G2 UI geographic coordinates or the native device's address.

    ``health`` is the owner runtime's observed health of the translator
    (``healthy``/``degraded``/``quarantined``); it rides the wire form so
    remote directories order lookups health-first, but it is *not* part of
    the discovery index keys (health changes never re-bucket an entry).
    """

    translator_id: str
    name: str
    platform: str
    device_type: str
    role: str
    runtime_id: str
    shape: Shape
    description: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)
    health: str = "healthy"

    def with_health(self, health: str) -> "TranslatorProfile":
        """A copy differing only in ``health`` (self when unchanged)."""
        if health == self.health:
            return self
        return replace(self, health=health)

    def port_ref(self, port_name: str) -> PortRef:
        self.shape.port(port_name)  # validates existence
        return PortRef(self.runtime_id, self.translator_id, port_name)

    # -- wire form ---------------------------------------------------------
    #
    # The profile is frozen, so its wire form, estimated size, content
    # digest and discovery index keys are each computed once and cached on
    # the instance (via object.__setattr__).  Callers must treat the dict
    # returned by to_dict() as immutable.

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form used by directory advertisements."""
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return cached
        ports = []
        for spec in self.shape:
            entry: Dict[str, Any] = {
                "name": spec.name,
                "direction": spec.direction.value,
            }
            if spec.is_digital:
                entry["mime"] = spec.digital_type.mime
            else:
                entry["physical"] = str(spec.physical_type)
            ports.append(entry)
        wire = {
            "translator_id": self.translator_id,
            "name": self.name,
            "platform": self.platform,
            "device_type": self.device_type,
            "role": self.role,
            "runtime_id": self.runtime_id,
            "description": self.description,
            "attributes": dict(self.attributes),
            "health": self.health,
            "ports": ports,
        }
        object.__setattr__(self, "_wire", wire)
        return wire

    @property
    def wire_bytes(self) -> bytes:
        """The canonical JSON encoding of the wire form, computed once.

        Both the content digest and the JSON size estimate derive from
        this one cached encoding -- previously each site re-serialized
        the dict independently.
        """
        cached = self.__dict__.get("_wire_bytes")
        if cached is None:
            cached = codec.canonical_json(self.to_dict())
            object.__setattr__(self, "_wire_bytes", cached)
        return cached

    @property
    def wire_digest(self) -> str:
        """Stable content digest of the wire form (delta/digest gossip)."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = hashlib.sha1(self.wire_bytes).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], digest: str = None
    ) -> "TranslatorProfile":
        """Reconstruct (or intern-share) a profile from its wire form.

        ``digest`` lets senders that already know the content digest (it is
        cached on their instance and shipped alongside the wire form) skip
        the canonical-JSON + SHA-1 recompute here -- the dominant cost of a
        cold full-state apply.  A wrong digest would alias a different
        profile, so only pass digests produced by :attr:`wire_digest`.
        """
        if digest is None:
            digest = _canonical_digest(data)
        interned = _INTERNED.get(digest)
        if interned is not None:
            return interned
        specs = []
        for entry in data["ports"]:
            direction = Direction(entry["direction"])
            if "mime" in entry:
                specs.append(
                    PortSpec(
                        name=entry["name"],
                        direction=direction,
                        digital_type=DigitalType(entry["mime"]),
                    )
                )
            else:
                specs.append(
                    PortSpec(
                        name=entry["name"],
                        direction=direction,
                        physical_type=PhysicalType.parse(entry["physical"]),
                    )
                )
        profile = cls(
            translator_id=data["translator_id"],
            name=data["name"],
            platform=data["platform"],
            device_type=data["device_type"],
            role=data["role"],
            runtime_id=data["runtime_id"],
            shape=Shape(specs),
            description=data.get("description", ""),
            attributes=dict(data.get("attributes", {})),
            health=data.get("health", "healthy"),
        )
        # Seed the digest cache with the incoming form's digest: our own
        # senders always emit the canonical (port-sorted) form, so this
        # equals the canonical digest for all gossiped profiles.
        object.__setattr__(profile, "_digest", digest)
        _INTERNED[digest] = profile
        return profile

    def estimated_size(self) -> int:
        """Approximate advertisement size in bytes (for simulated costs)."""
        cached = self.__dict__.get("_size")
        if cached is not None:
            return cached
        base = 96
        base += len(self.name) + len(self.device_type) + len(self.role)
        base += 32 * len(self.shape)
        base += sum(len(str(k)) + len(str(v)) for k, v in self.attributes.items())
        object.__setattr__(self, "_size", base)
        return base

    def encoded_size(self) -> int:
        """Advertisement size in bytes under the binary wire codec.

        The codec-honest counterpart of :meth:`estimated_size`: callers
        that charge simulated bandwidth while the data plane is on use
        the actual self-contained binary encoding length, not the JSON
        heuristic.
        """
        cached = self.__dict__.get("_bin_size")
        if cached is not None:
            return cached
        size = codec.encoded_size(self.to_dict())
        object.__setattr__(self, "_bin_size", size)
        return size

    def index_keys(self) -> Tuple[Tuple[str, str], ...]:
        """Every coarse (axis, value) key this profile is discoverable by.

        The closure property: for any query ``q`` with ``q.matches(self)``,
        ``set(q.index_keys()) <= set(self.index_keys())``.  Scalar axes are
        indexed verbatim; each concrete port type is expanded to all
        wildcard patterns it satisfies, so pattern queries are exact-key
        lookups too.
        """
        cached = self.__dict__.get("_index_keys")
        if cached is not None:
            return cached
        keys = [
            ("platform", self.platform),
            ("device", self.device_type),
            ("role", self.role),
        ]
        for spec in self.shape:
            if spec.is_digital:
                axis = "din" if spec.direction is Direction.IN else "dout"
                keys.extend((axis, text) for text in spec.digital_type.expansions())
            else:
                axis = "pin" if spec.direction is Direction.IN else "pout"
                keys.extend((axis, text) for text in spec.physical_type.expansions())
        result = tuple(dict.fromkeys(keys))
        object.__setattr__(self, "_index_keys", result)
        return result


def same_except_health(a: TranslatorProfile, b: TranslatorProfile) -> bool:
    """True when two profiles differ in nothing but ``health``.

    The directory uses this to distinguish a *health-only* gossip change
    (entry swapped in place, ``changed`` notification) from a real shape/
    attribute change (``removed`` + ``added``, so bindings re-evaluate
    against the new shape).
    """
    return (
        a.translator_id == b.translator_id
        and a.name == b.name
        and a.platform == b.platform
        and a.device_type == b.device_type
        and a.role == b.role
        and a.runtime_id == b.runtime_id
        and a.description == b.description
        and a.attributes == b.attributes
        and a.shape == b.shape
    )
