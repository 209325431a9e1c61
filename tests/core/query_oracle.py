# Test-only oracle for tests/core/test_directory_index.py: Query.matches as
# it stood before queries built a one-criterion predicate and profiles
# folded their names once.  It reads only the query's public fields and
# lower-cases both the needle and the name on every call.  The randomized
# lookup oracle uses it to prove that Query.predicate and Query.matches
# answer what it answers for every query and profile; do not optimise it.

"""Reference semantics of ``Query.matches``."""

from __future__ import annotations

from repro.core.profile import TranslatorProfile
from repro.core.query import Query

__all__ = ["matches"]


def matches(query: Query, profile: TranslatorProfile) -> bool:
    """True if ``profile`` satisfies every criterion of ``query``."""
    if query.platform is not None and profile.platform != query.platform:
        return False
    if query.device_type is not None and profile.device_type != query.device_type:
        return False
    if query.role is not None and profile.role != query.role:
        return False
    if (
        query.name_contains is not None
        and query.name_contains.lower() not in profile.name.lower()
    ):
        return False
    shape = profile.shape
    if query.input_mime is not None and not shape.inputs_accepting(query.input_mime):
        return False
    if query.output_mime is not None and not shape.outputs_producing(
        query.output_mime
    ):
        return False
    if query.physical_input is not None and not any(
        p.physical_type.matches(query.physical_input)
        for p in shape.physical_inputs()
    ):
        return False
    if query.physical_output is not None and not any(
        p.physical_type.matches(query.physical_output)
        for p in shape.physical_outputs()
    ):
        return False
    if query.template is not None and not shape.satisfies(query.template):
        return False
    for key, value in query.attributes.items():
        if profile.attributes.get(key) != value:
            return False
    return True
