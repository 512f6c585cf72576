"""Packet-level discrete-event network simulation substrate.

This subpackage stands in for the real Internet paths the paper measured
with ping/traceroute/mtr/iperf.  It provides:

* :mod:`repro.net.simulator` — the event loop.
* :mod:`repro.net.packet` — packets with TTL, protocol and timestamps.
* :mod:`repro.net.queues` — drop-tail FIFO queues.
* :mod:`repro.net.loss` — loss models (Bernoulli, Gilbert-Elliott, and
  handover-gated burst loss).
* :mod:`repro.net.link` — links with serialisation, propagation
  (possibly time-varying), queueing and loss.
* :mod:`repro.net.node` — store-and-forward nodes with TTL handling and
  ICMP-style time-exceeded / echo behaviour.
* :mod:`repro.net.topology` — the network container and static routing.
* :mod:`repro.net.trace` / :mod:`repro.net.ping` — traceroute and ping
  measurement apps running inside the simulation.
"""

from repro.net.link import Link
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    HandoverBurstLoss,
    NoLoss,
)
from repro.net.node import Node
from repro.net.packet import Packet, Protocol
from repro.net.ping import PingResult, ping
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator
from repro.net.topology import Network
from repro.net.trace import HopResult, TracerouteResult, traceroute

__all__ = [
    "BernoulliLoss",
    "CompositeLoss",
    "DropTailQueue",
    "GilbertElliottLoss",
    "HandoverBurstLoss",
    "HopResult",
    "Link",
    "Network",
    "NoLoss",
    "Node",
    "Packet",
    "PingResult",
    "Protocol",
    "Simulator",
    "TracerouteResult",
    "ping",
    "traceroute",
]
