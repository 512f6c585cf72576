"""Packet and queue tests."""

import pytest

from repro.errors import ConfigurationError
from repro.net.packet import UNASSIGNED_PACKET_ID, Packet, Protocol
from repro.net.queues import DropTailQueue
from repro.net.topology import Network


def _packet(size=1500, **kwargs):
    defaults = dict(src="a", dst="b", protocol=Protocol.UDP, size_bytes=size)
    defaults.update(kwargs)
    return Packet(**defaults)


def _line(*names):
    """A routed chain of nodes; returns the network and a list that
    collects the packets each node's ``"f1"`` handler receives."""
    net = Network()
    for name in names:
        net.add_node(name)
    for a, b in zip(names, names[1:]):
        net.connect(a, b, rate_bps=1e6, delay=0.001)
    net.compute_routes()
    received = []
    for name in names:
        net.node(name).register_handler("f1", lambda p, now: received.append(p))
    return net, received


def test_packet_created_unassigned():
    # Ids are per-run: a packet gets one from the simulator it enters,
    # never from process-global state.
    assert _packet().packet_id == UNASSIGNED_PACKET_ID


def test_packet_ids_unique_within_allocator():
    # The hop assigns a missing id from the run's allocator; a packet
    # forwarded over a second link keeps the id it got on the first.
    net, received = _line("a", "b", "c")
    first, second = _packet(dst="c", flow_id="f1"), _packet(dst="c", flow_id="f1")
    net.node("a").send(first)
    net.node("a").send(second)
    net.sim.run()
    assert received == [first, second]
    assert [p.hops for p in received] == [2, 2]
    assert [p.packet_id for p in received] == [1, 2]
    assert net.sim.packet_ids.next_id() == 3  # two ids handed out in all


def test_packet_rejects_bad_size():
    with pytest.raises(ValueError):
        _packet(size=0)


def test_packet_rejects_negative_ttl():
    with pytest.raises(ValueError):
        _packet(ttl=-1)


def test_icmp_reply_swaps_endpoints():
    # A UDP probe to a closed port draws the destination's ICMP reply.
    net, received = _line("a", "b")
    net.node("b").unregister_handler("f1")
    net.node("a").send(_packet(flow_id="f1", seq=42))
    net.sim.run()
    (reply,) = received
    assert (reply.src, reply.dst) == ("b", "a")
    assert (reply.protocol, reply.size_bytes) == (Protocol.ICMP, 56)
    assert reply.flow_id == "f1"
    assert reply.seq == 42
    assert reply.payload["type"] == "port-unreachable"


def test_copy_is_independent():
    net, received = _line("a", "b")
    original = _packet(flow_id="f1")
    net.node("a").send(original)
    original.payload["k"] = 1
    duplicate = original.copy()
    duplicate.payload["k"] = 2
    assert original.payload["k"] == 1
    # The copy is unassigned until it enters a simulator itself.
    assert duplicate.packet_id == UNASSIGNED_PACKET_ID
    net.node("a").send(duplicate)
    net.sim.run()
    assert received == [original, duplicate]
    assert (original.packet_id, duplicate.packet_id) == (1, 2)


def test_queue_fifo_order():
    queue = DropTailQueue(capacity_bytes=10_000)
    packets = [_packet() for _ in range(3)]
    for p in packets:
        assert queue.offer(p)
    assert [queue.poll() for _ in range(3)] == packets
    assert queue.poll() is None


def test_queue_rejects_bad_capacity():
    with pytest.raises(ConfigurationError):
        DropTailQueue(capacity_bytes=0)


def test_queue_tail_drop_at_capacity():
    queue = DropTailQueue(capacity_bytes=3000)
    assert queue.offer(_packet())
    assert queue.offer(_packet())
    assert not queue.offer(_packet())  # 4500 > 3000
    assert queue.drops == 1
    assert queue.enqueued == 2


def test_queue_byte_accounting():
    # Admission reads the queued bytes: full at 3000, 1000 freed by
    # the poll, all of them by the clear.
    queue = DropTailQueue(capacity_bytes=3000)
    assert queue.offer(_packet(size=1000))
    assert queue.offer(_packet(size=2000))
    assert not queue.offer(_packet(size=1))
    queue.poll()
    assert not queue.offer(_packet(size=1001))
    assert queue.offer(_packet(size=1000))
    queue.clear()
    assert len(queue) == 0
    assert queue.offer(_packet(size=3000))


def test_queue_frees_space_after_poll():
    queue = DropTailQueue(capacity_bytes=1500)
    assert queue.offer(_packet())
    assert not queue.offer(_packet())
    queue.poll()
    assert queue.offer(_packet())


def test_packet_ids_reproducible_fresh_vs_reused_process():
    """Regression: ids came from a process-global ``itertools.count``,
    so a run's ids depended on how many packets *earlier* runs in the
    same process had created — fresh-process and reused-process
    executions of the same scenario disagreed.  Ids are now allocated
    per simulator run."""
    from repro.net.link import Link
    from repro.net.simulator import Simulator

    class _Sink:
        def __init__(self):
            self.name = "sink"
            self.ids = []

        def receive(self, packet, link):
            self.ids.append(packet.packet_id)

    class _Source:
        name = "src"

    def run_once():
        sim = Simulator()
        sink = _Sink()
        link = Link(sim, _Source(), sink, rate_bps=1e6, delay=0.001)
        for _ in range(5):
            link.send(_packet(size=1000, src="src", dst="sink"))
        sim.run()
        return sink.ids

    first = run_once()
    # A "reused process" second run must see the identical id sequence.
    second = run_once()
    assert first == second
    assert first == [1, 2, 3, 4, 5]
