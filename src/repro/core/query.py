"""Queries over the intermediary semantic space (Figure 6's ``Query``).

A query selects translators by any combination of:

- identity-ish criteria: ``platform``, ``device_type``, ``role``,
  ``name_contains``;
- shape criteria with wildcard types: ``input_mime`` ("accepts this data"),
  ``output_mime`` ("produces this data"), ``physical_output`` /
  ``physical_input`` ("affects the world this way" -- the paper's
  ``visible/paper`` printing example);
- a full shape ``template`` (every template port must be satisfied);
- arbitrary ``attributes`` equality.

All given criteria must hold (conjunction).  An empty query matches every
translator, which is how Pads enumerates the semantic space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.errors import BindingError
from repro.core.profile import TranslatorProfile
from repro.core.shapes import DigitalType, Direction, PhysicalType, PortSpec, Shape

__all__ = ["Query"]

#: The exact filter of a query whose one criterion is ``platform``,
#: ``device_type``, ``role`` or ``name_contains`` (in this order), built
#: from that criterion's value (the lower-cased needle for
#: ``name_contains``).  Each test closes over the value alone, never the
#: query, so a query holds no reference cycle.
_LONE_TESTS: Tuple[Callable[[Any], Callable[[TranslatorProfile], bool]], ...] = (
    lambda value: lambda profile: profile.platform == value,
    lambda value: lambda profile: profile.device_type == value,
    lambda value: lambda profile: profile.role == value,
    lambda needle: lambda profile: needle in profile.folded_name,
)


@dataclass(frozen=True)
class Query:
    """A conjunctive filter over translator profiles.

    Construction also builds the query's exact filter, :attr:`predicate`:
    lookups run it on every candidate, so a one-criterion query pays one
    field test per profile rather than all ten of :meth:`matches`.
    ``name_contains`` compares the lower-cased needle against each
    profile's ``folded_name``, which the profile computes once."""

    platform: Optional[str] = None
    device_type: Optional[str] = None
    role: Optional[str] = None
    name_contains: Optional[str] = None
    input_mime: Optional[DigitalType] = None
    output_mime: Optional[DigitalType] = None
    physical_input: Optional[PhysicalType] = None
    physical_output: Optional[PhysicalType] = None
    template: Optional[Shape] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Health-aware lookup normally excludes quarantined translators; set
    #: True to see them anyway (diagnostic queries, health dashboards).
    #: Not a match criterion: it never affects matches()/is_empty().
    include_quarantined: bool = False

    def __post_init__(self):
        # Allow plain-string convenience at construction time.
        if isinstance(self.input_mime, str):
            object.__setattr__(self, "input_mime", DigitalType(self.input_mime))
        if isinstance(self.output_mime, str):
            object.__setattr__(self, "output_mime", DigitalType(self.output_mime))
        if isinstance(self.physical_input, str):
            object.__setattr__(
                self, "physical_input", PhysicalType.parse(self.physical_input)
            )
        if isinstance(self.physical_output, str):
            object.__setattr__(
                self, "physical_output", PhysicalType.parse(self.physical_output)
            )
        # Case-folded needle, computed once instead of on every matches().
        needle = None if self.name_contains is None else self.name_contains.lower()
        object.__setattr__(self, "_needle", needle)
        scalars = (self.platform, self.device_type, self.role, needle)
        lone = None
        if (
            scalars.count(None) == 3
            and self.input_mime is None
            and self.output_mime is None
            and self.physical_input is None
            and self.physical_output is None
            and self.template is None
            and not self.attributes
        ):
            for make_test, value in zip(_LONE_TESTS, scalars):
                if value is not None:
                    lone = make_test(value)
        object.__setattr__(self, "_lone", lone)

    @property
    def predicate(self) -> Callable[[TranslatorProfile], bool]:
        """The exact filter every lookup path runs on its candidates.

        A query with one criterion, and that one ``platform``,
        ``device_type``, ``role`` or ``name_contains``, tests just that
        field; any other query is :meth:`matches` itself, whose inline
        early exits beat a chain of per-criterion calls.  Both answer
        alike for every profile."""
        return self._lone or self.matches

    def matches(self, profile: TranslatorProfile) -> bool:
        """True if ``profile`` satisfies every criterion of this query."""
        if self.platform is not None and profile.platform != self.platform:
            return False
        if self.device_type is not None and profile.device_type != self.device_type:
            return False
        if self.role is not None and profile.role != self.role:
            return False
        if self._needle is not None and self._needle not in profile.folded_name:
            return False
        shape = profile.shape
        if self.input_mime is not None and not shape.inputs_accepting(self.input_mime):
            return False
        if self.output_mime is not None and not shape.outputs_producing(
            self.output_mime
        ):
            return False
        if self.physical_input is not None and not any(
            p.physical_type.matches(self.physical_input)
            for p in shape.physical_inputs()
        ):
            return False
        if self.physical_output is not None and not any(
            p.physical_type.matches(self.physical_output)
            for p in shape.physical_outputs()
        ):
            return False
        if self.template is not None and not shape.satisfies(self.template):
            return False
        for key, value in self.attributes.items():
            if profile.attributes.get(key) != value:
                return False
        return True

    def index_keys(self) -> Tuple[Tuple[str, str], ...]:
        """The coarse (axis, value) keys this query constrains.

        Every profile matching this query carries *all* of these keys in
        its :meth:`TranslatorProfile.index_keys` set, so the directory can
        intersect the index buckets for these keys to get a candidate
        superset before running :attr:`predicate` as the exact filter.
        ``name_contains`` and ``attributes`` are not coarsely indexable and
        contribute nothing; an empty result means "must scan".
        """
        cached = self.__dict__.get("_index_keys")
        if cached is not None:
            return cached
        keys = []
        if self.platform is not None:
            keys.append(("platform", self.platform))
        if self.device_type is not None:
            keys.append(("device", self.device_type))
        if self.role is not None:
            keys.append(("role", self.role))
        if self.input_mime is not None:
            keys.append(("din", self.input_mime.mime))
        if self.output_mime is not None:
            keys.append(("dout", self.output_mime.mime))
        if self.physical_input is not None:
            keys.append(("pin", str(self.physical_input)))
        if self.physical_output is not None:
            keys.append(("pout", str(self.physical_output)))
        if self.template is not None:
            for spec in self.template:
                if spec.is_digital:
                    axis = "din" if spec.direction is Direction.IN else "dout"
                    keys.append((axis, spec.digital_type.mime))
                else:
                    axis = "pin" if spec.direction is Direction.IN else "pout"
                    keys.append((axis, str(spec.physical_type)))
        result = tuple(dict.fromkeys(keys))
        object.__setattr__(self, "_index_keys", result)
        return result

    # -- wire form (journaled with standing-query records) ------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for the write-ahead journal (standing queries must
        survive a cold restart).  Only set criteria are emitted."""
        data: Dict[str, Any] = {}
        if self.platform is not None:
            data["platform"] = self.platform
        if self.device_type is not None:
            data["device_type"] = self.device_type
        if self.role is not None:
            data["role"] = self.role
        if self.name_contains is not None:
            data["name_contains"] = self.name_contains
        if self.input_mime is not None:
            data["input_mime"] = self.input_mime.mime
        if self.output_mime is not None:
            data["output_mime"] = self.output_mime.mime
        if self.physical_input is not None:
            data["physical_input"] = str(self.physical_input)
        if self.physical_output is not None:
            data["physical_output"] = str(self.physical_output)
        if self.template is not None:
            ports = []
            for spec in self.template:
                entry: Dict[str, Any] = {
                    "name": spec.name,
                    "direction": spec.direction.value,
                }
                if spec.is_digital:
                    entry["mime"] = spec.digital_type.mime
                else:
                    entry["physical"] = str(spec.physical_type)
                ports.append(entry)
            data["template"] = ports
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.include_quarantined:
            data["include_quarantined"] = True
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Query":
        template = None
        if "template" in data:
            specs = []
            for entry in data["template"]:
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
            template = Shape(specs)
        return cls(
            platform=data.get("platform"),
            device_type=data.get("device_type"),
            role=data.get("role"),
            name_contains=data.get("name_contains"),
            input_mime=data.get("input_mime"),
            output_mime=data.get("output_mime"),
            physical_input=data.get("physical_input"),
            physical_output=data.get("physical_output"),
            template=template,
            attributes=dict(data.get("attributes", {})),
            include_quarantined=bool(data.get("include_quarantined", False)),
        )

    def is_empty(self) -> bool:
        """True if this query has no criteria (matches everything)."""
        return (
            self.platform is None
            and self.device_type is None
            and self.role is None
            and self.name_contains is None
            and self.input_mime is None
            and self.output_mime is None
            and self.physical_input is None
            and self.physical_output is None
            and self.template is None
            and not self.attributes
        )

    def require_some_criterion(self) -> None:
        """Raise if the query is empty; used by connect-by-query, where an
        empty query would bind to *every* translator in the space."""
        if self.is_empty():
            raise BindingError("refusing to bind with an empty (match-all) query")
