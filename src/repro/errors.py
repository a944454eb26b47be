"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding a Self-Managed Cell can catch library failures with a
single ``except`` clause while still distinguishing subsystem-specific
failures when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class CodecError(ReproError):
    """Raised when encoding or decoding wire data fails."""


class PacketError(CodecError):
    """A packet was malformed: bad magic, truncated, checksum mismatch."""


class TransportError(ReproError):
    """Raised for transport-layer failures (closed transport, bad address)."""


class TransportClosedError(TransportError):
    """An operation was attempted on a transport that has been closed."""


class AddressError(TransportError):
    """An address could not be parsed or is not reachable on this transport."""


class FilterError(ReproError):
    """A content filter was malformed (unknown operator, bad operand type)."""


class MatchingError(ReproError):
    """Raised by matching engines for invalid subscriptions/unsubscriptions."""


class SubscriptionNotFoundError(MatchingError):
    """An unsubscribe referenced a subscription id that is not registered."""


class BusError(ReproError):
    """Raised by the event bus for protocol violations."""


class NotAMemberError(BusError):
    """An operation referenced a service that is not an SMC member."""


class DuplicateMemberError(BusError):
    """A member id was admitted twice without an intervening purge."""


class DiscoveryError(ReproError):
    """Raised by the discovery service."""


class AuthenticationError(DiscoveryError):
    """A device failed SMC admission authentication."""


class PolicyError(ReproError):
    """Raised by the policy service."""


class PolicyParseError(PolicyError):
    """The Ponder-lite policy source text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PolicyConflictError(PolicyError):
    """Two policies with the same name were loaded into one engine."""


class AuthorisationDenied(PolicyError):
    """An obligation action was blocked by a negative authorisation policy."""


class SimulationError(ReproError):
    """Raised by the simulation kernel (e.g. scheduling in the past)."""

