"""tboncheck fixture: TB1xx wire-format rules.

Never imported — only parsed by the analysis engine.  Lines carrying a
``# expect: <rules>`` marker must produce exactly those findings; all
other lines must be clean.  ``# tbon:`` pragmas must sit last on their
line (everything after ``tbon:`` is the pragma body).
"""

from repro.core.packet import Packet, make_packet
from repro.core.serialization import pack_payload, unpack_payload, validate_values


def positives(be, stream):
    pack_payload("%q", (1,))  # expect: TB101
    unpack_payload("%d %zz", b"")  # expect: TB101
    pack_payload("%d", (1, 2))  # expect: TB102
    validate_values("%d %d", (1,))  # expect: TB102
    pack_payload("%d %s", (1, 2))  # expect: TB103
    Packet(1, 2, "%d %d", (1,))  # expect: TB102
    Packet(1, 2, "%d", (True,))  # expect: TB103
    make_packet(1, 2, "%d", 1, 2)  # expect: TB102
    make_packet(1, 2, "%s", 7)  # expect: TB103
    be.send(5, 7, "%d %f", 1)  # expect: TB102
    be.send_p2p(3, 7, "%x", 1)  # expect: TB101
    stream.send(7, "%b", "yes")  # expect: TB103


def negatives(be, stream, fmt, values, xs):
    pack_payload("%d %f", (1, 2.0))
    pack_payload("%d %f %s %ac %as %am %o", values)
    unpack_payload("%d %d %d %d %s", b"")
    pack_payload(fmt, (1,))
    pack_payload("%d %d", (*xs,))
    Packet(1, 2, "%d", (-3,))
    make_packet(1, 2, "%d %f", 1, 2.5)
    make_packet(1, 2, "%d", *xs)
    be.send(5, 7, "%d", 1)
    be.send(5, 7, "%s", "ok")
    stream.send(7, "%d %s", 4, "ok")
    be.send_p2p(3, 7, "%f", 2.5)


def suppressed():
    pack_payload("%q", (1,))  # tbon: ignore[TB101]
    pack_payload("%d", (1, 2))  # tbon: ignore[*]
