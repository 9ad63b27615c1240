"""Transports: FIFO channel implementations for TBON process trees."""

from .base import Inbox, Transport
from .local import ThreadTransport

__all__ = ["Inbox", "Transport", "ThreadTransport", "ReactorTransport"]


def __getattr__(name: str):
    # The socket transport is imported lazily: it spins up socket
    # machinery that pure in-process users never need.
    if name == "ReactorTransport":
        from .reactor import ReactorTransport

        return ReactorTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
