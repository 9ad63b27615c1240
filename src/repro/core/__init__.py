"""Core TBON model: packets, topologies, filters, streams, networks.

This package implements the paper's primary contribution — the
tree-based overlay network computational model of Section 2 — as a
reusable middleware.  See :mod:`repro.core.network` for the entry-point
API.
"""

from .backend import BackEnd
from .builtin_filters import (
    AverageFilter,
    ConcatFilter,
    CountFilter,
    MaxFilter,
    MinFilter,
    SumFilter,
)
from .errors import (
    ChannelClosedError,
    FilterError,
    FilterLoadError,
    FormatStringError,
    NetworkShutdownError,
    NodeFailureError,
    ProtocolError,
    RecoveryError,
    SerializationError,
    SimulationError,
    StreamClosedError,
    StreamError,
    TBONError,
    TopologyError,
    TransportError,
)
from .events import (
    CONTROL_STREAM_ID,
    Direction,
    Envelope,
    FIRST_APPLICATION_TAG,
    StreamSpec,
)
from .filter_registry import (
    FilterRegistry,
    default_registry,
    register_sync,
    register_transform,
)
from .filters import (
    FilterContext,
    FunctionFilter,
    PassthroughFilter,
    SuperFilter,
    SynchronizationFilter,
    TransformationFilter,
)
from .network import Network
from .packet import Packet, make_packet
from .serialization import pack_payload, parse_format, unpack_payload
from .stream import Stream
from .sync_filters import NullSync, TimeOut, WaitForAll
from .topology import (
    NodeDesc,
    NodeRole,
    Topology,
    assign_hosts,
    balanced_topology,
    deep_topology,
    flat_topology,
    internal_node_overhead,
    knomial_topology,
    parse_topology_file,
)

__all__ = [
    "BackEnd",
    "Network",
    "Stream",
    "Packet",
    "make_packet",
    "Topology",
    "NodeDesc",
    "NodeRole",
    "balanced_topology",
    "deep_topology",
    "flat_topology",
    "knomial_topology",
    "parse_topology_file",
    "assign_hosts",
    "internal_node_overhead",
    "FilterContext",
    "TransformationFilter",
    "SynchronizationFilter",
    "FunctionFilter",
    "PassthroughFilter",
    "SuperFilter",
    "SumFilter",
    "MinFilter",
    "MaxFilter",
    "CountFilter",
    "AverageFilter",
    "ConcatFilter",
    "WaitForAll",
    "TimeOut",
    "NullSync",
    "FilterRegistry",
    "default_registry",
    "register_transform",
    "register_sync",
    "StreamSpec",
    "Direction",
    "Envelope",
    "CONTROL_STREAM_ID",
    "FIRST_APPLICATION_TAG",
    "pack_payload",
    "unpack_payload",
    "parse_format",
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
    "NetworkShutdownError",
    "NodeFailureError",
    "RecoveryError",
    "SimulationError",
    "ProtocolError",
]
