"""Randomized oracle for the inverted discovery index.

The index is an optimisation, not a semantics change: for every query,
``Directory.lookup`` (indexed) must return exactly what the pre-index
linear scan returns, in the same order, across arbitrary profile/query
corpora -- including wildcard physical types and shape templates -- and
the index must stay consistent with the entry table through churn
(register/unregister/announcement apply/expire/sweep/crash).

The exact filter is pinned too: for every query and every profile, the
query's predicate, ``Query.matches`` and the reference semantics in
``tests/core/query_oracle.py`` agree -- every one-criterion shape,
mixed-case ``name_contains`` against mixed-case names included.
"""

from __future__ import annotations

import random

import pytest

from repro.core.directory import LEASE
from repro.core.profile import TranslatorProfile
from repro.core.query import Query
from repro.core.runtime import UMiddleRuntime
from repro.core.shapes import Direction, PortSpec, Shape

from tests.core import query_oracle
from tests.core.conftest import make_sink

PLATFORMS = ["upnp", "jini", "bluetooth", "motes", "umiddle"]
DEVICE_TYPES = ["camera", "printer", "light", "sensor", "renderer"]
ROLES = ["display", "sensor", "printer", "player", "storage"]
#: Mixed case on purpose: ``name_contains`` folds both sides.
NAMES = ["Living-Room TV", "Lab Printer", "Cam-7", "Motion Sensor", "speaker"]
MIMES = ["text/plain", "image/jpeg", "audio/wav", "application/postscript"]
MIME_PATTERNS = MIMES + ["image/*", "audio/*", "*/jpeg", "*/*"]
PERCEPTIONS = ["visible", "audible", "tangible"]
MEDIA = ["paper", "screen", "air", "light"]


@pytest.fixture
def offline(kernel, network):
    """A runtime with no sockets: pure directory data-structure behavior."""
    node = network.add_node("oracle-host")
    return UMiddleRuntime(node, name="oracle-rt", auto_start=False)


def random_profile(rng: random.Random, index: int, runtime_id: str) -> TranslatorProfile:
    specs = []
    for port in range(rng.randint(0, 4)):
        direction = rng.choice([Direction.IN, Direction.OUT])
        if rng.random() < 0.6:
            specs.append(
                PortSpec.digital(f"p{port}", direction, rng.choice(MIMES))
            )
        else:
            tag = f"{rng.choice(PERCEPTIONS)}/{rng.choice(MEDIA)}"
            specs.append(PortSpec.physical(f"p{port}", direction, tag))
    attributes = {}
    if rng.random() < 0.4:
        attributes["zone"] = rng.choice(["room-a", "room-b"])
    return TranslatorProfile(
        translator_id=f"rnd-{index}",
        name=rng.choice(NAMES),
        platform=rng.choice(PLATFORMS),
        device_type=rng.choice(DEVICE_TYPES),
        role=rng.choice(ROLES),
        runtime_id=runtime_id,
        shape=Shape(specs),
        attributes=attributes,
    )


def random_physical_pattern(rng: random.Random) -> str:
    perception = rng.choice(PERCEPTIONS + ["*"])
    media = rng.choice(MEDIA + ["*"])
    return f"{perception}/{media}"


def random_template(rng: random.Random) -> Shape:
    specs = []
    for port in range(rng.randint(1, 2)):
        direction = rng.choice([Direction.IN, Direction.OUT])
        if rng.random() < 0.5:
            specs.append(
                PortSpec.digital(f"w{port}", direction, rng.choice(MIME_PATTERNS))
            )
        else:
            specs.append(
                PortSpec.physical(f"w{port}", direction, random_physical_pattern(rng))
            )
    return Shape(specs)


def random_query(rng: random.Random) -> Query:
    """A random query: three in ten set exactly one criterion, each kind
    alike; the rest draw every criterion on its own."""
    criteria = {
        "platform": (0.35, lambda: rng.choice(PLATFORMS)),
        "device_type": (0.25, lambda: rng.choice(DEVICE_TYPES)),
        "role": (0.35, lambda: rng.choice(ROLES)),
        "name_contains": (
            0.2,
            lambda: rng.choice(["tv", "TV", "printer", "PrInT", "Cam", "sENSOR", "q"]),
        ),
        "input_mime": (0.3, lambda: rng.choice(MIME_PATTERNS)),
        "output_mime": (0.3, lambda: rng.choice(MIME_PATTERNS)),
        "physical_input": (0.25, lambda: random_physical_pattern(rng)),
        "physical_output": (0.25, lambda: random_physical_pattern(rng)),
        "template": (0.15, lambda: random_template(rng)),
        "attributes": (0.15, lambda: {"zone": rng.choice(["room-a", "room-b"])}),
    }
    if rng.random() < 0.3:
        name = rng.choice(list(criteria))
        return Query(**{name: criteria[name][1]()})
    return Query(
        **{
            name: draw()
            for name, (chance, draw) in criteria.items()
            if rng.random() < chance
        }
    )


def assert_oracle(directory, query: Query) -> None:
    indexed = directory.lookup(query)
    linear = directory.lookup_linear(query)
    assert [p.translator_id for p in indexed] == [
        p.translator_id for p in linear
    ], f"indexed lookup diverged for {query!r}"
    predicate = query.predicate
    for profile in directory.profiles():
        expected = query_oracle.matches(query, profile)
        assert predicate(profile) == query.matches(profile) == expected, (
            f"{query!r} on {profile!r}"
        )


class TestLookupOracle:
    def test_indexed_lookup_equals_linear_scan(self, offline):
        rng = random.Random(20060705)
        directory = offline.directory
        for index in range(150):
            profile = random_profile(rng, index, offline.runtime_id)
            if index % 3 == 0:
                # A third of the corpus is remote soft state.
                profile = TranslatorProfile(
                    translator_id=profile.translator_id,
                    name=profile.name,
                    platform=profile.platform,
                    device_type=profile.device_type,
                    role=profile.role,
                    runtime_id=f"peer-{index % 5}",
                    shape=profile.shape,
                    attributes=profile.attributes,
                )
                directory._store_entry(profile, local=False, now=offline.kernel.now)
            else:
                directory.register(profile)
        directory.check_index_consistency()
        lone_shapes = set()
        for _ in range(300):
            query = random_query(rng)
            assert_oracle(directory, query)
            criteria = set(query.to_dict())
            if len(criteria) == 1:
                lone_shapes |= criteria
                # A lone scalar or name criterion tests just its field.
                fast = criteria <= {"platform", "device_type", "role", "name_contains"}
                assert (query.predicate != query.matches) == fast, query
        assert lone_shapes == {
            "platform", "device_type", "role", "name_contains", "input_mime",
            "output_mime", "physical_input", "physical_output", "template",
            "attributes",
        }
        # The empty query (non-indexable) still enumerates everything.
        assert len(directory.lookup(Query())) == 150

    def test_index_consistent_under_churn(self, offline):
        rng = random.Random(42)
        directory = offline.directory
        versions = {}
        live = []
        for step in range(400):
            op = rng.random()
            if op < 0.45 or not live:
                profile = random_profile(rng, 1000 + step, offline.runtime_id)
                directory.register(profile)
                live.append(profile.translator_id)
            elif op < 0.65:
                victim = live.pop(rng.randrange(len(live)))
                directory.unregister(victim)
            elif op < 0.85:
                # A peer announces a delta with a fresh remote profile.
                peer = f"churn-peer-{rng.randrange(3)}"
                remote = random_profile(rng, 2000 + step, peer)
                versions[peer] = versions.get(peer, 0) + 1
                directory._apply_announcement(
                    {
                        "kind": "umiddle-directory",
                        "runtime": {
                            "id": peer,
                            "address": "10.9.9.9",
                            "transport_port": 7700,
                            "directory_port": 7701,
                        },
                        "full": False,
                        "heartbeat": False,
                        "version": versions[peer],
                        "digest": None,
                        "profiles": [remote.to_dict()],
                        "removed": [],
                    }
                )
            elif op < 0.95:
                peer = f"churn-peer-{rng.randrange(3)}"
                directory.expire_runtime(peer, reason="churn test")
                versions.pop(peer, None)
            else:
                directory.forget_remote()
                versions.clear()
            directory.check_index_consistency()
            if step % 20 == 0:
                assert_oracle(directory, random_query(rng))
        assert directory.profiles()  # churn left a live population


class TestIndexThroughRecoveryPaths:
    def test_index_survives_crash_and_lease_sweep(self, rig):
        """Crash/forget_remote/lease-sweep all maintain the index: lookups
        after recovery are still oracle-identical."""
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        make_sink(r1, name="projector", role="display")
        rig.settle(1.0)
        r1.directory.check_index_consistency()
        assert len(r1.lookup(Query(role="display"))) == 2

        r1.crash()  # forget_remote drops the soft state + index entries
        r1.directory.check_index_consistency()
        assert [p.name for p in r1.lookup(Query(role="display"))] == ["projector"]
        r1.restart()
        rig.settle(6.0)
        r1.directory.check_index_consistency()
        assert len(r1.lookup(Query(role="display"))) == 2

        # Now silence r0 past the lease: the sweeper must unindex its entry.
        r0.directory.stop()
        r0.transport.stop()
        rig.settle(LEASE + 3.0)
        r1.directory.check_index_consistency()
        assert [p.name for p in r1.lookup(Query(role="display"))] == ["projector"]
        assert_oracle(r1.directory, Query(role="display"))

    def test_expire_runtime_keeps_index_consistent(self, rig):
        r0, r1 = rig.runtimes
        make_sink(r0, name="tv", role="display")
        rig.settle(1.0)
        assert r1.lookup(Query(role="display"))
        r1.directory.expire_runtime(r0.runtime_id, reason="test")
        r1.directory.check_index_consistency()
        assert not r1.lookup(Query(role="display"))
        assert_oracle(r1.directory, Query(role="display"))
