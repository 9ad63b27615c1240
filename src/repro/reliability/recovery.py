"""Tree reconfiguration after a communication-process failure.

The paper's dynamic-topology extension: "communication and back-end
processes can show up or leave at any time ... and the network properly
reconfigures and re-routes traffic without any data loss" for data still
in surviving queues.  Recovery here re-parents the failed node's
children onto its parent (the minimal structure-preserving repair),
rebinds the transport — the thread transport remaps queues; the socket
transport reconnects the surviving edges with capped exponential backoff
plus jitter through its one edge setup
(:func:`repro.transport.tcp.open_edges`) and re-registers each repaired
channel with its event loop — then pushes the new topology to every
process (:meth:`Network.push_topology`), whose nodes recheck blocked
synchronization waves so reductions waiting on the lost subtree
release.

Guarantees (asserted by the test suite):

* **liveness** — open streams keep working after recovery: new waves
  from all surviving members aggregate and reach the front-end
  (``test_chaos.py::test_liveness_after_recovery``);
* **membership consistency** — every surviving process agrees on the
  new tree; close handshakes complete
  (``test_chaos.py::test_membership_consistency``);
* packets queued *at* the dead node are lost (the window reference [2]
  closes with filter-state compensation; that compensation is out of
  scope here and documented as such in DESIGN.md), and packets sent
  while an edge is being rebound fall into the same documented loss
  window.
"""

from __future__ import annotations

import time

from ..core.errors import RecoveryError
from ..core.network import Network
from ..core.topology import Topology
from ..telemetry.registry import GLOBAL as _REGISTRY, TELEMETRY as _TEL

__all__ = ["recover_from_failure"]

_m_latency = _REGISTRY.histogram("tbon_recovery_latency_seconds")


def recover_from_failure(network: Network, failed_rank: int) -> Topology:
    """Repair the tree after ``failed_rank`` died; returns the new topology.

    The failed node's children are adopted by its parent, the transport
    rebinds onto the new tree, and every surviving process receives the
    new topology directly in its inbox — the tree is what broke, so the
    push must not depend on it.
    """
    t0 = time.perf_counter()
    old_topo = network.topology
    if failed_rank not in old_topo:
        raise RecoveryError(f"rank {failed_rank} not in topology")
    dead_node = network.nodes.get(failed_rank)
    if dead_node is not None and dead_node.running:
        raise RecoveryError(f"rank {failed_rank} is still running; kill it first")

    new_topo = old_topo.replace_subtree_parent(failed_rank)
    network.transport.rebind(new_topo)
    network.topology = new_topo
    network.nodes.pop(failed_rank, None)
    network.push_topology()
    if _TEL.enabled:
        _m_latency.observe(time.perf_counter() - t0)
    return new_topo
