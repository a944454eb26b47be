"""The generic transport layer (paper Section III-D).

Components in the core of an SMC "use a generic transport layer to
communicate with each other, which decouples higher level components from
the actual network layer beneath".  The abstract interface exchanges raw
byte arrays — deliberately *not* language-level serialised objects — so SMC
services can be written in any language (the paper's motivation for avoiding
Java serialisation).

Two concrete transports are provided:

* :class:`~repro.transport.simnet.SimTransport` — rides the simulated
  network (latency, loss, fragmentation, range, host CPU costs, faults);
  on its ideal link (:func:`~repro.transport.simnet.ideal_network`) it is
  the zero-cost network the unit tests run on;
* :class:`~repro.transport.udp.UdpTransport` — real UDP datagram sockets,
  equivalent to the paper's prototype transport.

Above the datagram layer, :mod:`repro.transport.packets` defines the framing
(48-bit sender ids, sequence numbers, CRC-32) and
:mod:`repro.transport.reliability` implements the acknowledged, ordered,
duplicate-suppressed channel the event bus semantics are built on.
"""

from repro.transport.base import Transport, TransportStats
from repro.transport.endpoint import PacketEndpoint
from repro.transport.packets import Packet, PacketFlags, PacketType
from repro.transport.reliability import ChannelStats, ReliableChannel
from repro.transport.simnet import SimTransport
from repro.transport.udp import UdpTransport

__all__ = [
    "Transport",
    "TransportStats",
    "SimTransport",
    "UdpTransport",
    "Packet",
    "PacketType",
    "PacketFlags",
    "ReliableChannel",
    "ChannelStats",
    "PacketEndpoint",
]
