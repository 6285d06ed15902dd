"""Exception hierarchy for the reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-classes mirror the main
subsystems: algebra, encoding/mapping, sharing, the query protocol and the
XML substrate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "AlgebraError",
    "RingMismatchError",
    "MappingError",
    "MappingCapacityError",
    "UnknownTagError",
    "EncodingError",
    "TagRecoveryError",
    "VerificationError",
    "SharingError",
    "ThresholdError",
    "ProtocolError",
    "TransportError",
    "TransientServerError",
    "ServerBusyError",
    "RetryExhaustedError",
    "UpdateConflictError",
    "QueryError",
    "XmlParseError",
    "XPathSyntaxError",
]


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class AlgebraError(ReproError):
    """Errors from the algebraic substrate (rings, fields, polynomials)."""


class RingMismatchError(AlgebraError):
    """Two elements from incompatible rings were combined."""


class MappingError(ReproError):
    """Errors related to the private tag-name mapping function."""


class MappingCapacityError(MappingError):
    """The ring is too small for the number of distinct tag names."""


class UnknownTagError(MappingError, KeyError):
    """A tag name was queried that has no assigned mapping value."""


class EncodingError(ReproError):
    """Errors while encoding an XML tree into a polynomial tree."""


class TagRecoveryError(EncodingError):
    """Theorem 1/2 reconstruction failed (inconsistent polynomials)."""


class VerificationError(ReproError):
    """The client could not verify a server-provided answer."""


class SharingError(ReproError):
    """Errors in the secret-sharing layer."""


class ThresholdError(SharingError):
    """Not enough shares to reconstruct a secret, or invalid threshold."""


class ProtocolError(ReproError):
    """Client/server protocol violations (unexpected or malformed messages)."""


class TransportError(ProtocolError):
    """The connection itself failed (reset, truncated frame, refused).

    Unlike a plain :class:`ProtocolError` — which means one side violated
    the protocol and retrying would repeat the violation — a transport
    error says nothing about the request, so a resilient client may
    reconnect and replay it.  The failure is *ambiguous*: the server may
    or may not have processed the request before the connection died,
    which is why replayed requests carry idempotency keys.
    """


class TransientServerError(ProtocolError):
    """The server failed to answer but expects to succeed on a retry.

    Carried over the wire as an :class:`~repro.net.messages.ErrorResponse`
    with the ``retryable`` flag, e.g. for a momentary store backend
    failure.  The session itself is healthy; a resilient client retries
    the same request without reconnecting.
    """


class ServerBusyError(TransientServerError):
    """The server shed this request under load (graceful degradation).

    Carried over the wire as a :class:`~repro.net.messages.BusyResponse`;
    ``retry_after_s`` is the server's backoff hint.  Overloaded servers
    answer in-band instead of dropping connections, so sessions (and
    their negotiated protocol state) survive load spikes.
    """

    def __init__(self, message: str = "the server is busy",
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class RetryExhaustedError(ProtocolError):
    """A resilient client gave up: deadline, attempt cap or budget spent."""


class UpdateConflictError(ProtocolError):
    """An update batch was rejected because its base versions are stale.

    Raised client-side from a
    :class:`~repro.net.messages.ConflictResponse`.  ``conflicts`` names
    the node ids another writer changed first; ``versions`` carries the
    server's current version for each conflicting node that still exists
    (a conflicting id absent from ``versions`` was removed).  Nothing was
    applied server-side — the caller refetches the conflicting subtrees
    and rebase-retries, which :class:`~repro.net.client.RemoteUpdatableTree`
    does automatically up to its rebase cap.  A frontier request naming
    nodes another writer removed is refused the same way (``versions``
    empty); lookups and XPath queries restart on it from the root.
    """

    def __init__(self, message: str, conflicts=(), versions=None) -> None:
        super().__init__(message)
        self.conflicts = sorted(int(n) for n in conflicts)
        self.versions = {int(k): int(v)
                         for k, v in (versions or {}).items()}


class QueryError(ReproError):
    """Errors while planning or executing a query."""


class XmlParseError(ReproError):
    """The from-scratch XML parser rejected its input."""


class XPathSyntaxError(QueryError):
    """The XPath-subset parser rejected a query string."""
