"""Exception hierarchy for the uMiddle core."""

from __future__ import annotations

__all__ = [
    "UMiddleError",
    "ShapeError",
    "PortError",
    "UsdlError",
    "TranslationError",
    "InvokeError",
    "TransportError",
    "DirectoryError",
    "ShardUnavailable",
    "BindingError",
    "CodecError",
    "SagaError",
]


class UMiddleError(Exception):
    """Base class for all uMiddle errors."""


class ShapeError(UMiddleError):
    """Malformed data types, port specs or shapes."""


class PortError(UMiddleError):
    """Port misuse: wrong direction, detached translator, duplicate names."""


class UsdlError(UMiddleError):
    """Invalid USDL documents (parse or validation failures)."""


class TranslationError(UMiddleError):
    """A device-level translation failed (native invocation errors)."""


class InvokeError(TranslationError):
    """One failed translator invocation, in structured form.

    Raised by :meth:`Translator.invoke` (and the generic translator's
    native-invoke path) instead of letting bare platform exceptions
    escape.  The saga coordinator reads ``retryable`` to decide between
    re-driving the step and running compensations; other callers get a
    stable exception surface carrying the failing translator.

    Attributes:
        translator_id: the translator whose invocation failed.
        step: saga step index when invoked from a saga, else ``None``.
        cause: the underlying platform exception, if any.
        retryable: True when the failure is transient (breaker shed, or
            the platform exception declared ``retryable = True``); a saga
            burns retry budget on these and compensates on the rest.
    """

    def __init__(
        self,
        translator_id: str,
        detail: str = "",
        step=None,
        cause: "Exception | None" = None,
        retryable: bool = False,
    ):
        self.translator_id = translator_id
        self.step = step
        self.cause = cause
        self.retryable = retryable
        self.detail = detail or (str(cause) if cause is not None else "")
        label = f"invoke failed on {translator_id!r}"
        if step is not None:
            label += f" (step {step})"
        if self.detail:
            label += f": {self.detail}"
        super().__init__(label)


class TransportError(UMiddleError):
    """Message-path failures: unknown ports, unreachable runtimes."""


class DirectoryError(UMiddleError):
    """Directory failures: duplicate registrations, unknown translators."""


class ShardUnavailable(DirectoryError):
    """A keyed routed lookup could not reach any holder of a shard.

    Raised by the sharded lookup surface instead of silently returning a
    partial result when a sub-shard's primary is unreachable (crashed,
    partitioned away, or quarantined) and no ranked replica or stale
    cache entry can serve the bucket.  Callers that can tolerate an
    incomplete view (standing-query bindings, saga resolution) catch it
    and hold their current state; everyone else gets a stable structured
    surface instead of a wrong answer.

    Attributes:
        shard: the virtual shard that could not be served.
        owner: the shard's primary owner under the caller's map (``None``
            before any membership view converged).
        retryable: True when the failure is transient (owner expected to
            heal or hand off within a lease) -- currently always True.
    """

    def __init__(
        self,
        shard: int,
        owner: "str | None" = None,
        retryable: bool = True,
    ):
        self.shard = shard
        self.owner = owner
        self.retryable = retryable
        label = f"shard {shard} unavailable"
        if owner is not None:
            label += f" (primary {owner!r} unreachable)"
        super().__init__(label)


class BindingError(UMiddleError):
    """Dynamic-binding failures: incompatible ports, bad queries."""


class CodecError(UMiddleError):
    """Malformed or truncated binary wire frames and journal bodies."""


class SagaError(UMiddleError):
    """Saga misuse: empty step lists, begin on a crashed or
    saga-disabled runtime, malformed step actions."""
