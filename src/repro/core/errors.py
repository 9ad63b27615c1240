"""Exception hierarchy for the TBON middleware.

Every error raised by :mod:`repro` derives from :class:`TBONError` so
applications can catch middleware failures with a single handler while
still distinguishing configuration errors (bad topologies, unknown
filters) from runtime errors (broken channels, dead nodes).
"""

from __future__ import annotations

__all__ = [
    "TBONError",
    "TopologyError",
    "SerializationError",
    "FormatStringError",
    "FilterError",
    "FilterLoadError",
    "StreamError",
    "StreamClosedError",
    "TransportError",
    "ChannelClosedError",
    "ChannelBusyError",
    "NetworkShutdownError",
    "NodeFailureError",
    "RecoveryError",
    "SimulationError",
    "ProtocolError",
]


class TBONError(Exception):
    """Base class for all errors raised by the TBON middleware."""


class TopologyError(TBONError):
    """A topology specification is malformed or violates tree invariants.

    Raised for cycles, multiple parents, orphaned nodes, empty trees,
    duplicate node identifiers, or parse errors in topology files.
    """


class SerializationError(TBONError):
    """A packet payload could not be packed or unpacked."""


class FormatStringError(SerializationError):
    """A packet format string contains an unknown or malformed directive."""


class FilterError(TBONError):
    """A filter raised during execution or produced an invalid output."""


class FilterLoadError(FilterError):
    """A filter could not be resolved or dynamically loaded.

    The dynamic loader mirrors MRNet's ``dlopen``-style interface; this
    is the Python equivalent of a failed ``dlopen``/``dlsym``.
    """


class StreamError(TBONError):
    """A stream operation is invalid (unknown stream, bad membership...)."""


class StreamClosedError(StreamError):
    """An operation was attempted on a closed stream."""


class TransportError(TBONError):
    """A transport-level failure (socket error, thread death...)."""


class ChannelClosedError(TransportError):
    """A send or receive was attempted on a closed FIFO channel."""


class ChannelBusyError(TransportError):
    """A send waited its full stall time at a full send queue.

    The socket transport bounds each per-peer send queue; a send at the
    high-water mark waits for the queue to drain (backpressure) and
    raises this only if it has not drained within
    :data:`repro.transport.reactor.SEND_STALL_S`.  See docs/PROTOCOL.md
    §7 (transport architecture / backpressure).
    """


class NetworkShutdownError(TBONError):
    """An operation was attempted on a network that has been shut down."""


class NodeFailureError(TBONError):
    """A communication process failed (used by failure injection)."""


class RecoveryError(TBONError):
    """Tree reconfiguration after a failure could not be completed."""


class SimulationError(TBONError):
    """The discrete-event simulator reached an inconsistent state."""


class ProtocolError(TBONError):
    """A control-plane message violated the TBON wire protocol."""
