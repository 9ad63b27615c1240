"""Failure injection and tree recovery (the paper's dynamic-topology work)."""

from .chaos import (
    ChaosEngine,
    ChaosReport,
    ChaosSchedule,
    ChaosTransport,
    CrashFault,
    EdgeFault,
    generate_schedule,
    run_chaos,
)
from .failure import FailureInjector
from .recovery import recover_from_failure

__all__ = [
    "ChaosEngine",
    "ChaosReport",
    "ChaosSchedule",
    "ChaosTransport",
    "CrashFault",
    "EdgeFault",
    "FailureInjector",
    "generate_schedule",
    "recover_from_failure",
    "run_chaos",
]
