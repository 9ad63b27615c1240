"""Failure injection for live TBON networks.

MRNet's roadmap (Section 2.2) covers "communication and back-end
processes [that] show up or leave at any time (perhaps as a response to
failures, recoveries, or load balancing)"; reference [2] is the authors'
zero-cost reliability work.  This module provides the *failure* half:
killing a communication process in a running network so the recovery
machinery (:mod:`repro.reliability.recovery`) can be exercised.

A killed node stops consuming its inbox and its channels close; packets
queued at the dead node are lost (exactly the failure mode reference [2]
compensates for with filter state), while packets already forwarded are
safe.
"""

from __future__ import annotations

from ..core.errors import NodeFailureError, TopologyError
from ..core.network import Network
from ..telemetry.registry import GLOBAL as _REGISTRY, TELEMETRY as _TEL

__all__ = ["FailureInjector"]

_m_crashes = _REGISTRY.counter(
    "tbon_reliability_faults_total", labels={"kind": "crash"}
)


class FailureInjector:
    """Inject communication-process failures into a live network.

    Only internal nodes may be killed: the paper's model keeps the
    front-end alive (it is the application), and back-end failures are
    membership changes, not tree failures (use
    :meth:`repro.core.topology.Topology.detach_backend`).
    """

    def __init__(self, network: Network):
        self.network = network
        self.failed: set[int] = set()

    def kill_node(self, rank: int) -> None:
        """Crash the communication process at ``rank``.

        The node's event loop halts and its inbox closes — subsequent
        sends to it raise, as writes to a dead TCP peer would.
        """
        net = self.network
        if rank == net.topology.root:
            raise NodeFailureError("cannot kill the front-end's root process")
        if rank not in net.nodes:
            raise TopologyError(f"rank {rank} is not a communication process")
        if rank in self.failed:
            raise NodeFailureError(f"rank {rank} already failed")
        node = net.nodes[rank]
        node.running = False
        # Sever the dead rank's channels as an *expected* close first, so
        # surviving peers see an orderly disconnect rather than a reactor
        # error (teardown race).  A no-op on the thread transport.
        net.transport.disconnect_rank(rank)
        net.transport.inbox(rank).close()  # unblocks the loop, closes channel
        node.join(timeout=2.0)
        self.failed.add(rank)
        if _TEL.enabled:
            _m_crashes.inc()

    def is_failed(self, rank: int) -> bool:
        return rank in self.failed
