"""Transactional multi-device bindings: journaled sagas on the WAL.

uMiddle's purpose is composing devices across platforms ("door unlocks AND
light turns on AND camera records"), but a plain composite action has no
atomicity: a mid-sequence crash leaves half-applied device state.  This
module adds the mediator-owned coordination protocol (the mediating
connector owns compensation, not the heterogeneous endpoints): a
:class:`Saga` is an ordered list of :class:`SagaStep`\\ s -- each a
translator invocation plus an optional compensation action -- driven by a
journaled state machine with the invariant **all effects applied, or all
applied effects compensated, never half**.

Protocol
--------

The *coordinator* (the runtime that called ``connect_saga``) journals
``saga-begin`` (the full step list, so recovery needs nothing else), then
per step: ``saga-step-start`` -> invoke -> ``saga-step-done``.  Every saga
record is force-synced -- state transitions never sit in the group-commit
window.  Steps execute through the structured
:meth:`~repro.core.translator.Translator.invoke` surface (breaker-wrapped
for generic translators), local targets inline and remote targets via
``saga-invoke`` control envelopes with a per-step timeout and a jittered,
budgeted retry loop.  A terminal failure (non-retryable
:class:`~repro.core.errors.InvokeError`, or an exhausted budget) flips the
saga to ``compensating``: applied steps are compensated in reverse order
(``saga-compensate`` records), then ``saga-end`` closes the saga either
way.

The *participant* side owns idempotency.  Each applied invocation journals
a ``saga-applied`` record -- in the same atomic kernel event as the
handler's device effect, and force-synced before the reply leaves -- keyed
``origin|saga|step|leg|translator``.  A re-driven step (coordinator
restart, lost reply, TCP retry) hits the cache and re-replies success
without touching the device.  Saga envelopes deliberately bypass the
transport's generic ``(origin, stream, seq)`` dedup window (they carry no
stream stamp): that window is in-memory and forgets across a cold restart,
while the reply cache is journaled -- exactly-once re-drives survive any
crash the journal survives.

Failover and the cancel protocol
--------------------------------

Query-addressed steps re-resolve through the healthy-first directory on
every attempt, so a resumed step re-binds to an equivalent translator when
the journaled target is quarantined or gone (PR 3 failover).  A timed-out
attempt is *ambiguous* -- the old target may have applied the step and
lost the reply -- so a rebind records ``rebound_from`` in its
``saga-step-start`` and queues a *cancel*: a compensation invoke pinned to
the abandoned target, drained before the saga may end.  A target that
never applied the forward step answers a cancel with "nothing to undo"
(no forward entry in its reply cache); one that did applies the
compensation.  Either way the invariant holds.

Recovery matrix
---------------

``recover()`` rebuilds every unfinished saga from the journal mirror and
re-drives it: a saga interrupted mid-step re-runs the step (fresh attempt
number, deduped by the participant cache), one interrupted
mid-compensation finishes compensating, and one that crashed between a
boundary's journal append and its side effects converges because every
record is idempotent to re-fold.  Warm restarts keep the in-memory saga
objects and just respawn the drivers.  The chaos suite crashes at every
boundary (``tests/chaos/test_saga_boundaries.py``) to prove the matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.errors import (
    InvokeError,
    PortError,
    SagaError,
    ShardUnavailable,
    TransportError,
)
from repro.core.health import HealthState, jittered_backoff
from repro.core.messages import UMessage
from repro.core.profile import PortRef
from repro.core.query import Query

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import UMiddleRuntime

__all__ = ["SagaStep", "Saga", "SagaManager"]

_saga_counter = itertools.count(1)

#: Jittered exponential backoff between step retries (and compensation
#: retries, which have no budget -- see :meth:`SagaManager._compensate`).
RETRY_BACKOFF_BASE_S = 0.25
RETRY_BACKOFF_MAX_S = 4.0

#: A boundary hook: ``hook(saga_id, boundary, step, phase)`` called with
#: phase "pre" (before the boundary's journal append) and "post" (after
#: the append + sync).  The chaos fault model crashes runtimes from here.
BoundaryHook = Callable[[str, str, Optional[int], str], None]


def _message_to_dict(message: UMessage) -> dict:
    return {
        "mime": message.mime.mime,
        "payload": message.payload,
        "size": message.size,
        "headers": dict(message.headers),
    }


def _message_from_dict(data: dict) -> UMessage:
    return UMessage(
        mime=data["mime"],
        payload=data["payload"],
        size=data["size"],
        headers=dict(data.get("headers", {})),
    )


@dataclass(frozen=True)
class SagaStep:
    """One step: a forward invocation and its undo.

    ``query`` addresses the target through the directory (healthy-first,
    re-resolved per attempt -> failover); ``target`` pins a concrete port
    instead (no failover).  Exactly one of the two must be set.
    ``compensation`` is the message that undoes the forward effect; a step
    without one is declared side-effect free (nothing to undo, and no
    cancel is ever queued for it).
    """

    message: UMessage
    compensation: Optional[UMessage] = None
    query: Optional[Query] = None
    target: Optional[PortRef] = None
    timeout_s: float = 5.0
    max_attempts: int = 3

    def __post_init__(self):
        if (self.query is None) == (self.target is None):
            raise SagaError("a saga step needs exactly one of query/target")
        if self.query is not None:
            self.query.require_some_criterion()
        if self.max_attempts < 1:
            raise SagaError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s <= 0:
            raise SagaError(f"timeout_s must be positive, got {self.timeout_s}")

    def to_dict(self) -> dict:
        return {
            "message": _message_to_dict(self.message),
            "compensation": (
                _message_to_dict(self.compensation)
                if self.compensation is not None
                else None
            ),
            "query": self.query.to_dict() if self.query is not None else None,
            "target": str(self.target) if self.target is not None else None,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SagaStep":
        return cls(
            message=_message_from_dict(data["message"]),
            compensation=(
                _message_from_dict(data["compensation"])
                if data.get("compensation")
                else None
            ),
            query=Query.from_dict(data["query"]) if data.get("query") else None,
            target=PortRef.parse(data["target"]) if data.get("target") else None,
            timeout_s=data["timeout_s"],
            max_attempts=data["max_attempts"],
        )


class _Outcome:
    """One invocation attempt's result, as seen by the coordinator."""

    __slots__ = ("ok", "retryable", "timeout", "detail")

    def __init__(
        self,
        ok: bool,
        retryable: bool = False,
        timeout: bool = False,
        detail: str = "",
    ):
        self.ok = ok
        self.retryable = retryable
        self.timeout = timeout
        self.detail = detail


class Saga:
    """Coordinator-side state of one invocation group.

    Mutated only by the :class:`SagaManager` driver; every durable
    transition is journaled *before* the in-memory update, so the journal
    mirror and this object never disagree by more than the record being
    written.
    """

    def __init__(self, saga_id: str, steps: List[SagaStep]):
        self.saga_id = saga_id
        self.steps = steps
        #: running -> committed, or running -> compensating -> compensated.
        #: "aborted" marks a begin whose record never became durable.
        self.status = "running"
        #: Next forward step index (== len(steps) when all applied).
        self.current = 0
        #: Attempts already journaled for the in-flight (comp-)step.
        self.attempt = 0
        #: step index -> journaled target port-ref string.  Compensation is
        #: pinned to the journaled forward target, never re-resolved.
        self.targets: Dict[int, str] = {}
        self.applied: List[int] = []
        self.compensated: List[int] = []
        #: Abandoned-target undo queue (see the cancel protocol above).
        self.cancels: List[dict] = []
        #: step index -> True when an attempt timed out against the current
        #: target: it may have applied the step without us hearing back.
        self.suspect: Dict[int, bool] = {}
        #: Completion event (created by ``begin`` on the live kernel; a
        #: cold-recovered saga has none -- poll the manager instead).
        self.completed = None
        #: Resolution-stall tracking, in-memory only: when the current
        #: step's query matches nothing (directory still re-learning after
        #: a recovery, or the device really left), stalls wait with their
        #: own patience window instead of burning invocation attempts.
        self.stall_since: Optional[float] = None
        self.stalls = 0

    @property
    def finished(self) -> bool:
        return self.status in ("committed", "compensated", "aborted")

    def wait(self) -> Generator:
        """Process helper: ``status = yield from saga.wait()``."""
        if self.completed is not None and not self.finished:
            yield self.completed
        return self.status

    @classmethod
    def from_mirror(cls, saga_id: str, data: dict) -> "Saga":
        """Rebuild from the journal mirror's folded representation."""
        saga = cls(saga_id, [SagaStep.from_dict(s) for s in data["steps"]])
        saga.status = data["status"]
        saga.attempt = data["attempt"]
        saga.targets = {int(key): value for key, value in data["targets"].items()}
        saga.applied = list(data["applied"])
        saga.compensated = list(data["compensated"])
        saga.cancels = [dict(entry) for entry in data["cancels"]]
        if saga.status == "running":
            saga.current = (
                data["step"] if data["inflight"] else len(saga.applied)
            )
            if data["inflight"]:
                # The crash interrupted this step between start and done:
                # its journaled target may have applied it.  Treat it like
                # a timeout, so a failover rebind queues the cancel.
                saga.suspect[saga.current] = True
        return saga


class SagaManager:
    """One runtime's saga coordinator *and* participant.

    Lives at ``runtime.sagas``.  An idle manager writes nothing to the
    wire or the journal: saga traffic exists only once a caller begins a
    saga (:meth:`UMiddleRuntime.connect_saga`).
    """

    def __init__(self, runtime: "UMiddleRuntime"):
        self.runtime = runtime
        #: Unfinished sagas this runtime coordinates, by saga_id.
        self._active: Dict[str, Saga] = {}
        #: saga_id -> terminal status, for post-completion inspection
        #: (in-memory only; a finished saga has no journal footprint).
        self._finished: Dict[str, str] = {}
        #: saga_id -> driver process.
        self._drivers: Dict[str, Any] = {}
        #: (saga_id, step, leg) -> (attempt, target, event) reply waiters.
        self._waiters: Dict[Tuple[str, int, str], Tuple[int, str, Any]] = {}
        #: Participant reply cache: "origin|saga|step|leg|translator" ->
        #: {"seq": attempt}.  Journaled (``saga-applied``) and restored by
        #: :meth:`recover`, so re-drives stay exactly-once across cold
        #: restarts.
        self._applied: Dict[str, dict] = {}
        #: In-flight participant apply processes (killed on crash).
        self._apply_procs: Set[Any] = set()
        #: True while the runtime is crashed; drivers unwind through
        #: :meth:`_halted` instead of journaling into a muted journal.
        self._suspended = False
        self._boundary_hooks: List[BoundaryHook] = []
        # Counters (cheap, test/benchmark-facing).
        self.begun = 0
        self.committed = 0
        self.rolled_back = 0
        self.rebinds = 0
        self.step_timeouts = 0
        self.duplicate_applies = 0
        self.comp_failures = 0

    # -- inspection -----------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def idle(self) -> bool:
        return not self._active

    def saga(self, saga_id: str) -> Optional[Saga]:
        return self._active.get(saga_id)

    def outcome(self, saga_id: str) -> Optional[str]:
        """Terminal status of a finished saga, when still known.

        In-memory only: a cold restart forgets outcomes (a finished saga
        leaves no journal footprint by design), so callers across cold
        crashes verify device state instead.
        """
        return self._finished.get(saga_id)

    # -- boundary hooks (chaos integration) -----------------------------------

    def add_boundary_hook(self, hook: BoundaryHook) -> None:
        self._boundary_hooks.append(hook)

    def remove_boundary_hook(self, hook: BoundaryHook) -> None:
        if hook in self._boundary_hooks:
            self._boundary_hooks.remove(hook)

    def _emit_boundary(
        self, saga_id: str, boundary: str, step: Optional[int], phase: str
    ) -> None:
        for hook in list(self._boundary_hooks):
            hook(saga_id, boundary, step, phase)

    # -- coordinator API ------------------------------------------------------

    def begin(
        self, steps: List[SagaStep], saga_id: Optional[str] = None
    ) -> Saga:
        """Start a saga; returns immediately with the driving saga object.

        The ``saga-begin`` record (carrying the full serialized step list)
        is durable before the first step starts, so recovery re-drives
        from the journal alone.
        """
        if self.runtime.crashed:
            raise SagaError("cannot begin a saga on a crashed runtime")
        if not steps:
            raise SagaError("a saga needs at least one step")
        for step in steps:
            if not isinstance(step, SagaStep):
                raise SagaError(f"not a SagaStep: {step!r}")
        sid = saga_id or f"{self.runtime.runtime_id}:s{next(_saga_counter)}"
        saga = Saga(sid, list(steps))
        saga.completed = self.runtime.kernel.event(name=f"saga-done:{sid}")
        self.begun += 1
        written = self._journal_saga(
            saga,
            "saga-begin",
            {"saga_id": sid, "steps": [step.to_dict() for step in steps]},
            boundary="begin",
        )
        if not written:
            # Crashed at the begin boundary before the record was durable:
            # the saga never began -- no step may run, nothing to recover.
            saga.status = "aborted"
            return saga
        self._active[sid] = saga
        self.runtime.trace(
            "saga.begin", f"{sid}: {len(steps)} step(s)", steps=len(steps)
        )
        if not self._halted():
            self._spawn_driver(saga)
        return saga

    # -- journal + boundary plumbing ------------------------------------------

    def _halted(self) -> bool:
        return self.runtime.crashed or self._suspended

    def _journal_saga(
        self,
        saga: Saga,
        kind: str,
        data: dict,
        boundary: str,
        step: Optional[int] = None,
    ) -> bool:
        """Append + force-sync one saga record, bracketed by the boundary
        hooks.  Returns False when a pre-phase hook crashed the runtime --
        the record was *not* written and the caller must not apply the
        in-memory transition either."""
        self._emit_boundary(saga.saga_id, boundary, step, "pre")
        if self._halted():
            return False
        journal = self.runtime.journal
        journal.append(kind, data)
        # Saga transitions are the recovery truth: never leave one in the
        # group-commit window for a crash to eat.
        journal.sync()
        self._emit_boundary(saga.saga_id, boundary, step, "post")
        return True

    def _backoff(self, saga_id: str, index: int, leg: str, attempt: int) -> float:
        return jittered_backoff(
            f"saga:{saga_id}:{index}:{leg}",
            attempt,
            RETRY_BACKOFF_BASE_S,
            RETRY_BACKOFF_MAX_S,
        )

    # -- the driver -----------------------------------------------------------

    def _spawn_driver(self, saga: Saga) -> None:
        self._drivers[saga.saga_id] = self.runtime.kernel.process(
            self._drive(saga), name=f"saga-driver:{saga.saga_id}"
        )

    def _drive(self, saga: Saga) -> Generator:
        kernel = self.runtime.kernel
        try:
            if saga.status == "running":
                while (
                    not self._halted()
                    and saga.status == "running"
                    and saga.current < len(saga.steps)
                ):
                    yield from self._drive_step(saga)
                if self._halted():
                    return
                if saga.status == "running":
                    if not (yield from self._drain_cancels(saga)):
                        return
                    self._finish(saga, "committed")
                    return
            if saga.status == "compensating" and not self._halted():
                yield from self._compensate(saga)
        finally:
            if self._drivers.get(saga.saga_id) is kernel.active_process:
                self._drivers.pop(saga.saga_id, None)

    def _drive_step(self, saga: Saga) -> Generator:
        """One forward attempt: resolve, journal start, invoke, settle.

        Mutates the saga (advance / flip to compensating / burn an
        attempt); the caller's loop re-checks the state."""
        kernel = self.runtime.kernel
        index = saga.current
        step = saga.steps[index]
        attempt = saga.attempt + 1
        if attempt > step.max_attempts:
            self._begin_compensation(
                saga, f"step {index}: retry budget exhausted"
            )
            return
        target = self._resolve_target(saga, index)
        if target is None:
            # Nothing eligible matches right now (storm, quarantine, or a
            # recovered coordinator whose directory is still re-learning
            # via gossip).  A stall is not a failed invocation, so it does
            # not burn the retry budget -- but a bounded patience window
            # (the step's whole invocation budget worth of time) keeps a
            # saga from stalling forever against an empty query.
            now = kernel.now
            if saga.stall_since is None:
                saga.stall_since = now
            if now - saga.stall_since > step.timeout_s * step.max_attempts:
                self._begin_compensation(
                    saga, f"step {index}: no eligible target"
                )
                return
            saga.stalls += 1
            if self.runtime.tracing:
                self.runtime.trace(
                    "saga.stall",
                    f"{saga.saga_id} step {index}: no eligible target "
                    f"(stall {saga.stalls})",
                )
            yield kernel.timeout(
                self._backoff(saga.saga_id, index, "s", saga.stalls)
            )
            return
        saga.stall_since = None
        prev = saga.targets.get(index)
        rebound_from = None
        if prev is not None and str(target) != prev:
            # Failover rebind (PR 3): the previous target is quarantined
            # or gone.  If an earlier attempt against it timed out it may
            # have applied the step -- queue a cancel to undo it (skipped
            # for steps with no compensation: declared side-effect free).
            if saga.suspect.get(index) and step.compensation is not None:
                rebound_from = prev
            self.rebinds += 1
            self.runtime.trace(
                "saga.rebind",
                f"{saga.saga_id} step {index}: {prev} -> {target}",
            )
        data = {
            "saga_id": saga.saga_id,
            "step": index,
            "attempt": attempt,
            "target": str(target),
        }
        if rebound_from is not None:
            data["rebound_from"] = rebound_from
        if not self._journal_saga(saga, "saga-step-start", data, "step-start", index):
            return
        saga.attempt = attempt
        saga.targets[index] = str(target)
        if rebound_from is not None:
            saga.cancels.append({"step": index, "target": rebound_from})
        if prev is not None and str(target) != prev:
            saga.suspect.pop(index, None)
        if self._halted():
            return
        outcome = yield from self._invoke(
            saga, index, target, step.message, attempt, "f", step.timeout_s
        )
        if self._halted():
            return
        if outcome.ok:
            if not self._journal_saga(
                saga,
                "saga-step-done",
                {"saga_id": saga.saga_id, "step": index, "status": "applied"},
                "step-done",
                index,
            ):
                return
            saga.applied.append(index)
            saga.current = index + 1
            saga.attempt = 0
            saga.suspect.pop(index, None)
            if self.runtime.tracing:
                self.runtime.trace(
                    "saga.step",
                    f"{saga.saga_id} step {index} applied on {target} "
                    f"(attempt {attempt})",
                )
            return
        if outcome.timeout:
            # Ambiguous: the target may have applied without replying.
            saga.suspect[index] = True
            yield kernel.timeout(self._backoff(saga.saga_id, index, "f", attempt))
            return
        # An explicit failure reply proves the step was *not* applied on
        # this target (an applied step re-replies success from the cache).
        saga.suspect.pop(index, None)
        if outcome.retryable:
            yield kernel.timeout(self._backoff(saga.saga_id, index, "f", attempt))
            return
        self._begin_compensation(saga, f"step {index}: {outcome.detail}")

    def _resolve_target(self, saga: Saga, index: int) -> Optional[PortRef]:
        step = saga.steps[index]
        if step.target is not None:
            return step.target
        monitor = self.runtime.health
        prev = saga.targets.get(index)
        best = None
        try:
            matches = self.runtime.directory.lookup(step.query)
        except ShardUnavailable:
            # No reachable shard owner right now reads as "no eligible
            # target": the caller already treats that as a retryable
            # resolution failure and re-resolves after a backoff.
            matches = []
        for profile in matches:
            if (
                monitor.enabled
                and monitor.effective_health(profile) is HealthState.QUARANTINED
            ):
                continue
            specs = profile.shape.inputs_accepting(step.message.mime)
            if not specs:
                continue
            ref = profile.port_ref(specs[0].name)
            if prev is not None and str(ref) == prev:
                # Stability: stick with the journaled target while it is
                # still eligible -- a rebind costs a cancel round.
                return ref
            if best is None:
                best = ref  # lookup orders healthy-first already
        return best

    def _begin_compensation(self, saga: Saga, reason: str) -> None:
        index = saga.current
        cancels = []
        if (
            saga.suspect.get(index)
            and saga.targets.get(index) is not None
            and index < len(saga.steps)
            and saga.steps[index].compensation is not None
        ):
            # The current step's last target may have applied it (timeout
            # ambiguity) even though we are giving up: undo it too.
            cancels.append({"step": index, "target": saga.targets[index]})
        data = {
            "saga_id": saga.saga_id,
            "phase": "begin",
            "step": index,
            "reason": reason,
        }
        if cancels:
            data["cancels"] = cancels
        if not self._journal_saga(saga, "saga-compensate", data, "compensate", index):
            return
        saga.status = "compensating"
        saga.attempt = 0
        saga.cancels.extend(cancels)
        saga.suspect.pop(index, None)
        self.rolled_back += 1
        self.runtime.trace(
            "saga.abort", f"{saga.saga_id}: compensating ({reason})"
        )

    def _compensate(self, saga: Saga) -> Generator:
        """Undo applied steps in reverse order, then drain cancels.

        Transient compensation failures retry forever (capped backoff):
        holding the all-or-compensated invariant beats a bounded wait.  A
        *terminal* compensation failure cannot be retried into success --
        it is surfaced loudly (trace + counter + ``error`` on the record)
        and the step is marked compensated so the saga can close."""
        kernel = self.runtime.kernel
        while not self._halted():
            pending = [
                i for i in reversed(saga.applied) if i not in saga.compensated
            ]
            if not pending:
                break
            index = pending[0]
            step = saga.steps[index]
            if step.compensation is None:
                if not self._journal_saga(
                    saga,
                    "saga-step-done",
                    {
                        "saga_id": saga.saga_id,
                        "step": index,
                        "status": "compensated",
                    },
                    "step-done",
                    index,
                ):
                    return
                saga.compensated.append(index)
                saga.attempt = 0
                continue
            # Compensation is pinned to the journaled forward target: undo
            # must land where the effect landed, never on an equivalent.
            target = PortRef.parse(saga.targets[index])
            attempt = saga.attempt + 1
            if not self._journal_saga(
                saga,
                "saga-compensate",
                {
                    "saga_id": saga.saga_id,
                    "phase": "step",
                    "step": index,
                    "attempt": attempt,
                    "target": str(target),
                },
                "compensate",
                index,
            ):
                return
            saga.attempt = attempt
            if self._halted():
                return
            outcome = yield from self._invoke(
                saga, index, target, step.compensation, attempt, "c",
                step.timeout_s,
            )
            if self._halted():
                return
            if not outcome.ok and not outcome.retryable and not outcome.timeout:
                self.comp_failures += 1
                self.runtime.trace(
                    "saga.compensate-failed",
                    f"{saga.saga_id} step {index}: terminal compensation "
                    f"failure on {target}: {outcome.detail}",
                )
            if outcome.ok or (not outcome.retryable and not outcome.timeout):
                done = {
                    "saga_id": saga.saga_id,
                    "step": index,
                    "status": "compensated",
                }
                if not outcome.ok:
                    done["error"] = outcome.detail
                if not self._journal_saga(saga, "saga-step-done", done, "step-done", index):
                    return
                saga.compensated.append(index)
                saga.attempt = 0
                continue
            yield kernel.timeout(self._backoff(saga.saga_id, index, "c", attempt))
        if self._halted():
            return
        if not (yield from self._drain_cancels(saga)):
            return
        self._finish(saga, "compensated")

    def _drain_cancels(self, saga: Saga) -> Generator:
        """Undo possibly-applied attempts on abandoned targets.

        Runs before *any* saga-end -- a committed saga must not leave a
        stray effect on a target it failed over away from.  Returns False
        when halted mid-drain (recovery resumes the queue from the
        journal)."""
        kernel = self.runtime.kernel
        while saga.cancels:
            if self._halted():
                return False
            entry = saga.cancels[0]
            index = entry["step"]
            target = PortRef.parse(entry["target"])
            compensation = saga.steps[index].compensation
            attempt = 0
            while compensation is not None:
                if self._halted():
                    return False
                attempt += 1
                outcome = yield from self._invoke(
                    saga, index, target, compensation, attempt, "c",
                    saga.steps[index].timeout_s,
                )
                if self._halted():
                    return False
                if outcome.ok:
                    if self.runtime.tracing:
                        self.runtime.trace(
                            "saga.cancel",
                            f"{saga.saga_id} step {index}: abandoned target "
                            f"{target} cancelled",
                        )
                    break
                if not outcome.retryable and not outcome.timeout:
                    self.comp_failures += 1
                    self.runtime.trace(
                        "saga.compensate-failed",
                        f"{saga.saga_id} step {index}: terminal cancel "
                        f"failure on {target}: {outcome.detail}",
                    )
                    break
                yield kernel.timeout(
                    self._backoff(saga.saga_id, index, "x", attempt)
                )
            if not self._journal_saga(
                saga,
                "saga-cancel-done",
                {
                    "saga_id": saga.saga_id,
                    "step": index,
                    "target": str(target),
                },
                "cancel",
                index,
            ):
                return False
            saga.cancels.pop(0)
        return True

    def _finish(self, saga: Saga, status: str) -> None:
        if not self._journal_saga(
            saga,
            "saga-end",
            {"saga_id": saga.saga_id, "status": status},
            boundary="end",
        ):
            return
        saga.status = status
        self._active.pop(saga.saga_id, None)
        self._finished[saga.saga_id] = status
        if status == "committed":
            self.committed += 1
        if saga.completed is not None and not saga.completed.triggered:
            saga.completed.succeed(status)
        self.runtime.trace("saga.end", f"{saga.saga_id}: {status}")

    # -- invocation (both legs) ----------------------------------------------

    def _invoke(
        self,
        saga: Saga,
        index: int,
        target: PortRef,
        message: UMessage,
        attempt: int,
        leg: str,
        timeout_s: float,
    ) -> Generator:
        runtime = self.runtime
        if target.runtime_id == runtime.runtime_id:
            outcome = yield from self._apply_local(
                runtime.runtime_id, saga.saga_id, index, leg, target, message,
                attempt,
            )
            return outcome
        envelope = {
            "kind": "saga-invoke",
            "saga": saga.saga_id,
            "step": index,
            "leg": leg,
            "attempt": attempt,
            "target": str(target),
            "mime": message.mime.mime,
            "payload": message.payload,
            "size": message.size,
            "headers": dict(message.headers),
        }
        key = (saga.saga_id, index, leg)
        event = runtime.kernel.event(name=f"saga-wait:{saga.saga_id}:{index}:{leg}")
        self._waiters[key] = (attempt, str(target), event)
        try:
            runtime.transport.send_saga(target.runtime_id, envelope, message.size)
        except TransportError as exc:
            self._waiters.pop(key, None)
            return _Outcome(ok=False, retryable=True, detail=str(exc))
        timeout = runtime.kernel.timeout(timeout_s)
        yield runtime.kernel.any_of([event, timeout])
        if event.processed:
            outcome = event.value
            if outcome.ok:
                runtime.health.peer_success(target.runtime_id)
            return outcome
        self._waiters.pop(key, None)
        self.step_timeouts += 1
        # Step outcomes feed the health monitor's peer overlay: repeated
        # saga timeouts quarantine the peer, which is what makes the next
        # _resolve_target fail over without waiting for lease expiry.
        runtime.health.peer_failure(target.runtime_id)
        return _Outcome(
            ok=False,
            retryable=True,
            timeout=True,
            detail=f"no reply from {target.runtime_id} within {timeout_s}s",
        )

    # -- participant side -----------------------------------------------------

    @staticmethod
    def _applied_key(
        origin: str, saga_id: str, step: int, leg: str, target: PortRef
    ) -> str:
        # The translator id is part of the key: a cancel against an
        # abandoned target and a compensation against its replacement may
        # address the same (saga, step, leg) on one runtime.
        return f"{origin}|{saga_id}|{step}|{leg}|{target.translator_id}"

    def handle_invoke(self, envelope: dict) -> None:
        """Inbound ``saga-invoke`` from a coordinator (transport ingress)."""
        origin = envelope.get("origin")
        if origin is None:
            return
        self._apply_procs = {p for p in self._apply_procs if p.is_alive}
        self._apply_procs.add(
            self.runtime.kernel.process(
                self._serve_invoke(origin, envelope),
                name=f"saga-apply:{envelope['saga']}:{envelope['step']}",
            )
        )

    def _serve_invoke(self, origin: str, envelope: dict) -> Generator:
        message = UMessage(
            mime=envelope["mime"],
            payload=envelope["payload"],
            size=envelope["size"],
            headers=dict(envelope.get("headers", {})),
        )
        target = PortRef.parse(envelope["target"])
        try:
            outcome = yield from self._apply_local(
                origin,
                envelope["saga"],
                envelope["step"],
                envelope["leg"],
                target,
                message,
                envelope["attempt"],
            )
        finally:
            self._apply_procs.discard(self.runtime.kernel.active_process)
        if self._halted():
            return  # crashed while applying: no reply; the coordinator re-drives
        self._reply(origin, envelope, outcome)

    def _reply(self, origin: str, envelope: dict, outcome: _Outcome) -> None:
        try:
            self.runtime.transport._send_control(
                origin,
                {
                    "kind": "saga-result",
                    "saga": envelope["saga"],
                    "step": envelope["step"],
                    "leg": envelope["leg"],
                    "attempt": envelope["attempt"],
                    "target": envelope["target"],
                    "ok": outcome.ok,
                    "retryable": outcome.retryable,
                    "detail": outcome.detail,
                },
            )
        except TransportError:
            pass  # coordinator unknown/unreachable: its timeout re-drives

    def _apply_local(
        self,
        origin: str,
        saga_id: str,
        index: int,
        leg: str,
        target: PortRef,
        message: UMessage,
        attempt: int,
    ) -> Generator:
        """Apply one (forward or compensation) invocation exactly once.

        The handler's device effect (its final atomic segment) and the
        ``saga-applied`` record land in the same kernel event, force-synced
        before any reply -- a crash can separate neither effect from
        record nor record from effect."""
        key = self._applied_key(origin, saga_id, index, leg, target)
        if key in self._applied:
            self.duplicate_applies += 1
            return _Outcome(ok=True, detail="duplicate (already applied)")
        if leg == "c":
            forward = self._applied_key(origin, saga_id, index, "f", target)
            if forward not in self._applied:
                # The forward invocation never applied here: this is a
                # cancel for a suspected-but-innocent target.  Cache the
                # answer so retried cancels stay idempotent.
                self._remember_applied(key, attempt)
                return _Outcome(ok=True, detail="nothing to undo")
        translator = self.runtime.translators.get(target.translator_id)
        if translator is None:
            return _Outcome(
                ok=False,
                retryable=True,
                detail=f"no local translator {target.translator_id!r}",
            )
        self._emit_boundary(saga_id, "applied", index, "pre")
        if self._halted():
            return _Outcome(ok=False, retryable=True, detail="crashed before apply")
        try:
            yield from translator.invoke(target.port_name, message, step=index)
        except InvokeError as exc:
            return _Outcome(ok=False, retryable=exc.retryable, detail=str(exc))
        except PortError as exc:
            return _Outcome(ok=False, retryable=False, detail=str(exc))
        self._remember_applied(key, attempt)
        self._emit_boundary(saga_id, "applied", index, "post")
        return _Outcome(ok=True)

    def _remember_applied(self, key: str, attempt: int) -> None:
        self._applied[key] = {"seq": attempt}
        journal = self.runtime.journal
        journal.append("saga-applied", {"key": key, "seq": attempt})
        journal.sync()  # the reply must never outrun the record

    def handle_result(self, envelope: dict) -> None:
        """Inbound ``saga-result`` reply (transport ingress)."""
        key = (envelope["saga"], envelope["step"], envelope["leg"])
        waiter = self._waiters.get(key)
        if waiter is None:
            return  # late reply after a timeout: the re-drive supersedes it
        attempt, target, event = waiter
        if envelope.get("target") != target:
            return  # stale reply from an abandoned (failed-over) target
        ok = bool(envelope.get("ok"))
        if not ok and envelope.get("attempt") != attempt:
            # A success is a success whichever attempt earned it (the
            # cache replies for all of them), but a failure only settles
            # the attempt it answers -- older ones already timed out.
            return
        self._waiters.pop(key, None)
        if not event.triggered:
            event.succeed(
                _Outcome(
                    ok=ok,
                    retryable=bool(envelope.get("retryable")),
                    detail=envelope.get("detail", ""),
                )
            )

    # -- lifecycle (crash / restart / recover) --------------------------------

    def deactivate(self) -> None:
        """Crash semantics: drivers, apply processes and reply waiters die
        with the process.  The kernel's *active* process is never killed
        (a boundary hook may be crashing the runtime from inside a driver
        frame); it unwinds itself through the :meth:`_halted` checks."""
        self._suspended = True
        active = self.runtime.kernel.active_process
        for sid, proc in list(self._drivers.items()):
            if proc is active:
                continue
            if proc.is_alive:
                proc.kill("saga manager deactivated")
            self._drivers.pop(sid, None)
        for proc in list(self._apply_procs):
            if proc is active:
                continue
            if proc.is_alive:
                proc.kill("saga manager deactivated")
            self._apply_procs.discard(proc)
        self._waiters.clear()

    def discard_state(self) -> None:
        """Cold-crash semantics: in-memory saga state dies; only the
        journal survives for :meth:`recover`."""
        self._active.clear()
        self._applied.clear()
        self._finished.clear()
        self._waiters.clear()

    def resume(self) -> None:
        """Warm restart: respawn a driver for every unfinished saga.  The
        re-driven step burns a fresh attempt number; participant reply
        caches make the re-drive idempotent."""
        self._suspended = False
        for saga in list(self._active.values()):
            if saga.saga_id not in self._drivers:
                self._spawn_driver(saga)

    def recover(self, state) -> None:
        """Cold restart: rebuild unfinished sagas and the participant
        reply cache from the journal mirror.  Drivers are respawned by
        :meth:`resume` once the transport is back up."""
        self._applied = {
            key: {"seq": entry["seq"]}
            for key, entry in state.saga_applied.items()
        }
        for sid, data in state.sagas.items():
            self._active[sid] = Saga.from_mirror(sid, data)
        if state.sagas:
            self.runtime.trace(
                "saga.recover",
                f"{len(state.sagas)} unfinished saga(s) rebuilt from the "
                f"journal ({len(self._applied)} applied-record(s))",
            )
