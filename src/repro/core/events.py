"""Control-plane protocol constants and event records.

The TBON control plane rides on the same packet mechanism as application
data: control packets use the reserved stream id 0 and tags below
:data:`FIRST_APPLICATION_TAG`.  Communication processes interpret these
packets to build per-stream routing state; everything else is forwarded
untouched.  Stream creates and topology updates are pushed into every
process's endpoint directly, never through the tree.  Shutdown is not a
message: the network closes every rank's endpoint directly.

Reserved control tags (keep in sync with the constants below and the
table in docs/PROTOCOL.md §4):

====  ====================  ===========================================
 tag  constant              purpose
====  ====================  ===========================================
   1  TAG_STREAM_CREATE     instantiate per-stream filter state (pushed)
   2  TAG_STREAM_CLOSE      loss-free close handshake (down + up ack)
   3  (retired)             formerly TAG_FILTER_LOAD; never reused
   4  (retired)             formerly TAG_SHUTDOWN; never reused
   5  TAG_TOPOLOGY_ATTACH   adopt reconfigured routing state (pushed)
   6  TAG_TOPOLOGY_DETACH   announce a departing subtree
   7  TAG_HEARTBEAT         liveness probe
   8  TAG_CLOCK_PROBE       clock-offset measurement request
   9  TAG_CLOCK_REPLY       clock-offset measurement reply
  10  TAG_ERROR             error report routed to the front-end
  11  TAG_P2P               back-end to back-end routing through the tree
  12  TAG_TELEMETRY         in-tree stats reduction (request down,
                            merged registry snapshots up)
====  ====================  ===========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "CONTROL_STREAM_ID",
    "FIRST_STREAM_ID",
    "TAG_STREAM_CREATE",
    "TAG_STREAM_CLOSE",
    "TAG_TOPOLOGY_ATTACH",
    "TAG_TOPOLOGY_DETACH",
    "TAG_HEARTBEAT",
    "TAG_CLOCK_PROBE",
    "TAG_CLOCK_REPLY",
    "TAG_ERROR",
    "TAG_P2P",
    "TAG_TELEMETRY",
    "FIRST_APPLICATION_TAG",
    "Direction",
    "Envelope",
    "StreamSpec",
]

#: Stream id reserved for control messages.
CONTROL_STREAM_ID = 0
#: First id handed out to application streams.
FIRST_STREAM_ID = 1

# Reserved control tags (all below FIRST_APPLICATION_TAG).
TAG_STREAM_CREATE = 1
TAG_STREAM_CLOSE = 2
# Tag 3 (TAG_FILTER_LOAD) is retired: every node shares the front-end's
# filter registry, so ``Network.load_filter`` resolves names in place.
# Tag 4 (TAG_SHUTDOWN) is retired: shutdown closes endpoints directly.
TAG_TOPOLOGY_ATTACH = 5
TAG_TOPOLOGY_DETACH = 6
TAG_HEARTBEAT = 7
TAG_CLOCK_PROBE = 8
TAG_CLOCK_REPLY = 9
TAG_ERROR = 10
TAG_P2P = 11
TAG_TELEMETRY = 12

#: Application tags must be >= this value.
FIRST_APPLICATION_TAG = 100


class Direction(Enum):
    """Which way a packet is travelling through the tree."""

    UPSTREAM = "up"      # toward the front-end (reduction path)
    DOWNSTREAM = "down"  # toward the back-ends (multicast path)

    @property
    def wire_code(self) -> int:
        """Single-byte code used in the socket transport's frame header.

        The frame layout (docs/PROTOCOL.md §2) is
        ``u32 length | u8 direction | i32 src``; this is the ``u8``:
        0 = upstream, 1 = downstream.  The reactor transport encodes
        with this property and decodes with :meth:`from_wire`.
        """
        return 0 if self is Direction.UPSTREAM else 1

    @classmethod
    def from_wire(cls, code: int) -> "Direction":
        """Inverse of :attr:`wire_code` for frame decoding."""
        if code == 0:
            return cls.UPSTREAM
        if code == 1:
            return cls.DOWNSTREAM
        from .errors import ProtocolError

        raise ProtocolError(f"unknown wire direction code {code!r}")


@dataclass(frozen=True)
class Envelope:
    """One in-flight message on a FIFO channel.

    Attributes:
        src: rank of the sending process (-1 for the application layer
            injecting at an endpoint).
        direction: travel direction relative to the tree.
        packet: the application-level packet (control or data).
    """

    src: int
    direction: Direction
    packet: "object"  # Packet; typed loosely to avoid an import cycle


@dataclass(frozen=True)
class StreamSpec:
    """Wire-level description of a stream, pushed at creation time.

    Attributes:
        stream_id: unique id (>= :data:`FIRST_STREAM_ID`).
        members: sorted tuple of back-end ranks on the stream.
        transform: registered name of the transformation filter.
        sync: registered name of the synchronization filter.
        transform_params: keyword parameters for the transformation
            filter (must be picklable; sent once at stream creation).
        sync_params: keyword parameters for the synchronization filter
            (e.g. ``{"window": 0.05}`` for ``time_out``).
        down_transform: optional transformation filter applied to
            *downstream* packets at every node — the paper's planned
            bidirectional-filter extension ("we plan to extend MRNet so
            that a filter can propagate information along a stream in
            either direction").  Empty string disables it.
    """

    stream_id: int
    members: tuple[int, ...]
    transform: str
    sync: str
    transform_params: tuple[tuple[str, object], ...] = ()
    sync_params: tuple[tuple[str, object], ...] = ()
    down_transform: str = ""

    def transform_kwargs(self) -> dict:
        return dict(self.transform_params)

    def sync_kwargs(self) -> dict:
        return dict(self.sync_params)
