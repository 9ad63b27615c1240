"""Transports: FIFO channel implementations for TBON process trees."""

from .base import Inbox, Transport
from .local import ThreadTransport

__all__ = [
    "Inbox",
    "Transport",
    "ThreadTransport",
    "ReactorTransport",
    "make_transport",
]


def make_transport(kind: str) -> Transport:
    """The transport named ``kind``: ``"thread"`` (in-process queues) or
    ``"tcp"`` (localhost sockets on one reactor thread)."""
    if kind == "thread":
        return ThreadTransport()
    if kind == "tcp":
        from .reactor import ReactorTransport

        return ReactorTransport()
    raise ValueError(f"unknown transport {kind!r}")


def __getattr__(name: str):
    # The socket transport is imported lazily: it spins up socket
    # machinery that pure in-process users never need.
    if name == "ReactorTransport":
        from .reactor import ReactorTransport

        return ReactorTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
