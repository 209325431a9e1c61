"""The chaos suite's configuration, read once from the environment.

CI runs ``tests/chaos`` across a matrix of these variables, and every
invariant must hold under each entry:

- ``CHAOS_SEED`` (default 7) salts the fault schedules and workloads.
- ``CHAOS_LOSE_STATE=1`` turns every drawn runtime crash into a cold
  crash (in-memory state lost, healed via write-ahead-journal recovery)
  while keeping the fault *schedule* identical.
- ``CHAOS_DATAPLANE`` picks the data plane every runtime runs:

  - ``off`` (default): the paper's stop-and-wait JSON wire;
  - ``on``: batched, pipelined, load-adaptive senders speaking the
    binary codec on the wire and in gossip bodies, with intra-batch
    delta frames and zlib bulk transfers.

  Both write the same binary WAL, compressed checkpoints included.

- ``CHAOS_SHARDED=1`` puts the rendezvous-sharded directory in the loop
  (ownership handoff, routed lookups, interest-scoped gossip).
- ``CHAOS_REPLICATION=1`` adds replicated shard slices
  (``replication_factor=2``): owner-fenced replica pushes, degraded
  reads and warm handoff ingest.  Only meaningful together with
  ``CHAOS_SHARDED=1``, except in the shard churn tests, which always
  shard.
"""

import os

DATAPLANES = ("off", "on")

SEED = int(os.environ.get("CHAOS_SEED", "7"))
LOSE_STATE = os.environ.get("CHAOS_LOSE_STATE", "0") == "1"
DATAPLANE = os.environ.get("CHAOS_DATAPLANE") or "off"
if DATAPLANE not in DATAPLANES:
    raise ValueError(f"CHAOS_DATAPLANE must be one of {DATAPLANES}, got {DATAPLANE!r}")
SHARDED = os.environ.get("CHAOS_SHARDED", "0") == "1"
REPLICATION = os.environ.get("CHAOS_REPLICATION", "0") == "1"

#: Runtime keyword arguments selecting the data plane.
DATA_PLANE_FLAGS = {"batching_enabled": DATAPLANE == "on"}
#: Runtime keyword arguments shared by every chaos scenario runtime: the
#: data plane plus the directory mode.
RUNTIME_FLAGS = dict(DATA_PLANE_FLAGS, sharding_enabled=SHARDED)
