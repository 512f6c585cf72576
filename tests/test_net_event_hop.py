"""The event engine's hop against the three-event chain it replaced.

A link whose receiver will forward a packet (addressed elsewhere, TTL
above 1, a positive processing delay) delivers it that processing delay
late, and ``Node.receive`` sends it on at once (DESIGN.md §10).  The
reference kept here is the chain before it:
``_finish_transmission`` schedules ``_deliver`` at the delivery time,
``_deliver`` calls ``Node.receive``, and ``receive`` schedules the
forwarding ``send`` a processing delay later.  Both run the same
traffic on the same drawn networks and must agree to the bit, the new
run executing exactly the reference's events less its forwarding ones.

They differ, by design, in one tie: the one-event arrival takes its
sequence number when the link finishes the packet, the old forwarding
event took its own at the delivery, so an event scheduled in between
for exactly the same instant now fires after the arrival instead of
before it.  The reference orders its forwarding event by the link's
finish too; ``test_exact_tie_orders_the_forwarded_arrival_first`` shows
the one difference from the old order on a drawn network that ties.
"""

from __future__ import annotations

import math
from heapq import heappush
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.net.link import Link
from repro.net.loss import BernoulliLoss, HandoverBurstLoss
from repro.net.node import Node
from repro.net.ping import ping
from repro.net.queues import DropTailQueue
from repro.net.simulator import Simulator
from repro.net.topology import Network
from repro.net.trace import traceroute
from repro.nodes.iperf import run_udp_burst
from repro.tcp.flow import TcpFlow

# -- the reference chain ------------------------------------------------------


class _CountingSimulator(Simulator):
    """Counts the events every ``run`` call executes."""

    executed = 0

    def run(self, until=None, max_events=50_000_000):
        executed = super().run(until, max_events)
        self.executed += executed
        return executed


class _RecordingNode(Node):
    """A node that logs every local delivery and TTL expiry: where,
    which packet, its hops, TTL and queueing, and when (as hex, so
    equal entries are equal to the bit)."""

    def __init__(self, sim, name, processing_delay_s, log):
        super().__init__(sim, name, processing_delay_s)
        self.log = log

    def _record(self, what, packet):
        self.log.append(
            (
                what,
                self.name,
                packet.flow_id,
                packet.seq,
                packet.packet_id,
                packet.hops,
                packet.ttl,
                self.sim.now.hex(),
                packet.queueing_s.hex(),
            )
        )

    def _deliver_local(self, packet):
        self._record("local", packet)
        super()._deliver_local(packet)

    def _send_time_exceeded(self, original):
        self._record("expired", original)
        super()._send_time_exceeded(original)


class _ReferenceNode(_RecordingNode):
    """``Node.receive`` as it was: a forwarded packet waits out the
    processing delay in a second scheduled event.

    Among events at its instant, that event runs in the order of a
    sequence number.  With ``tie="delivery"`` it takes the number when
    it is scheduled, at the delivery, as it used to.  With
    ``tie="finish"`` it takes the one its link reserved when it finished
    the packet (``reserved``, by packet id), the one-event hop's order.
    """

    forwarding_events = 0

    def __init__(self, sim, name, processing_delay_s, log, tie):
        super().__init__(sim, name, processing_delay_s, log)
        self.tie = tie
        self.reserved = {}

    def receive(self, packet, link):
        self.received += 1
        if packet.dst == self.name:
            self._deliver_local(packet)
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.ttl_expired += 1
            self._send_time_exceeded(packet)
            return
        self.forwarded += 1
        if self.processing_delay_s > 0:
            sim = self.sim
            at = sim.now + self.processing_delay_s
            if self.tie == "finish":
                sequence = self.reserved.pop(packet.packet_id)
                heappush(sim._heap, [at, sequence, self._forward_send, (packet,)])
            else:
                sim.schedule_at(at, self._forward_send, packet)
        else:
            self.send(packet)

    def _forward_send(self, packet):
        self.forwarding_events += 1
        self.send(packet)


class _ReferenceLink(Link):
    """The link as it was: every packet is delivered at its delivery
    time, whatever the receiver does with it.  It reserves the sequence
    number of the receiver's forwarding event when the receiver orders
    that event by the link's finish."""

    def _finish_transmission(self, packet):
        sim = self.sim
        now = sim.now
        if self.loss.should_drop(packet, now):
            self.lost += 1
        else:
            total_delay = self.propagation_delay_s(now)
            if self.extra_delay is not None:
                extra = self.extra_delay(now)
                if extra < 0:
                    raise ConfigurationError(f"extra_delay returned {extra}")
                packet.queueing_s += extra
                total_delay += extra
            delivery_at = max(now + total_delay, self._last_delivery_s)
            self._last_delivery_s = delivery_at
            self._propagating += 1
            sim.schedule_at(now + (delivery_at - now), self._deliver, packet)
            receiver = self.dst
            if (
                receiver.tie == "finish"
                and receiver.processing_delay_s > 0
                and packet.dst != receiver.name
                and packet.ttl > 1
            ):
                receiver.reserved[packet.packet_id] = next(sim._sequence)
        next_packet = self.queue.poll()
        if next_packet is not None:
            self._begin_transmission(next_packet, now)
        else:
            self._transmitting = False
            if self._enqueue_times:
                self._enqueue_times.clear()


# -- drawn networks and traffic -------------------------------------------------

#: One link direction: delay, loss, extra-delay and queue kinds.
_LINK_SPECS = st.tuples(
    st.sampled_from(["constant", "callable"]),
    st.sampled_from(["none", "bernoulli", "handover"]),
    st.sampled_from(["none", "jitter", "spike"]),
    st.sampled_from(["roomy", "tiny"]),
)

_APPS = ("traceroute", "ping", "udp", "tcp")


@st.composite
def _scenarios(draw):
    """A chain or tree of 2–6 nodes (most with a processing delay), a
    kind for each link direction, and every app once, in a drawn order
    between drawn endpoints."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        parents = list(range(n - 1))  # a chain
    else:
        parents = [draw(st.integers(0, i)) for i in range(n - 1)]  # a tree
    edges = [(parent, child) for child, parent in enumerate(parents, start=1)]
    n_links = 2 * len(edges)
    apps = [
        (app, draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1)))
        for app in draw(st.permutations(_APPS))
    ]
    return SimpleNamespace(
        n=n,
        edges=edges,
        processing=draw(
            st.lists(st.sampled_from([True, True, False]), min_size=n, max_size=n)
        ),
        links=draw(st.lists(_LINK_SPECS, min_size=n_links, max_size=n_links)),
        apps=apps,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _delay(kind, values):
    """A constant propagation delay or a callable of time."""
    base_s = float(values.uniform(1e-3, 2e-2))
    if kind == "constant":
        return base_s
    swing_s = float(values.uniform(0.0, 0.9)) * base_s
    period_s = float(values.uniform(0.05, 2.0))

    def delay(t_s):
        return base_s + swing_s * math.sin(t_s / period_s)

    return delay


def _loss(kind, values, generators):
    """No loss, Bernoulli loss or handover bursts, each with its own
    generator (appended to ``generators``)."""
    if kind == "none":
        return None
    rng = np.random.default_rng(values.integers(2**32))
    generators.append(rng)
    if kind == "bernoulli":
        return BernoulliLoss(float(values.uniform(0.02, 0.3)), rng=rng)
    starts = np.sort(values.uniform(0.0, 3.0, 3))
    windows = [
        (float(t), float(t + values.uniform(0.05, 0.4)), float(p))
        for t, p in zip(starts, values.uniform(0.2, 0.9, 3))
    ]
    return HandoverBurstLoss(windows, residual_loss=0.01, rng=rng)


def _extra(kind, values, jitter):
    """No extra delay, exponential jitter, or spikes, all drawn from the
    one ``jitter`` generator the links share."""
    if kind == "none":
        return None
    if kind == "jitter":
        scale_s = float(values.uniform(1e-4, 3e-3))
        return lambda t_s: float(jitter.exponential(scale_s))
    # Mostly nothing, now and then far more than the spacing of
    # back-to-back packets: the monotone clamp then delivers the packets
    # behind a spike at exactly the spike's time.
    spike_s = float(values.uniform(0.01, 0.04))
    return lambda t_s: spike_s if jitter.random() < 0.15 else 0.0


def _build(scenario, reference, values):
    """The drawn network on the current hop (``reference`` None) or on
    the reference chain with that tie order: ``(network, links,
    generators, log)``."""
    sim = _CountingSimulator()
    network = Network(sim)
    log = []
    link_class = Link if reference is None else _ReferenceLink
    names = [f"n{i}" for i in range(scenario.n)]
    for name, forwards_late in zip(names, scenario.processing):
        delay_s = float(values.uniform(1e-4, 2e-3)) if forwards_late else 0.0
        if reference is None:
            node = _RecordingNode(sim, name, delay_s, log)
        else:
            node = _ReferenceNode(sim, name, delay_s, log, reference)
        network.nodes[name] = node
    jitter = np.random.default_rng(values.integers(2**32))
    generators = [jitter]
    directions = scenario.edges + [(b, a) for a, b in scenario.edges]
    links = []
    for (a, b), kinds in zip(directions, scenario.links):
        delay_kind, loss_kind, extra_kind, queue_kind = kinds
        if queue_kind == "roomy":
            capacity = 256 * 1500
        else:
            capacity = int(values.integers(1, 4)) * 1500
        link = link_class(
            sim,
            network.nodes[names[a]],
            network.nodes[names[b]],
            rate_bps=float(values.uniform(2e6, 50e6)),
            delay=_delay(delay_kind, values),
            queue=DropTailQueue(capacity),
            loss=_loss(loss_kind, values, generators),
            extra_delay=_extra(extra_kind, values, jitter),
        )
        network.nodes[names[a]].attach_link(link)
        links.append(link)
    network.compute_routes()
    return network, links, generators, log


def _drive(network, scenario, values):
    """Run the drawn apps one after another; what each one returned."""
    names = list(network.nodes)
    sim = network.sim
    results = []
    for app, src_index, offset in scenario.apps:
        src = names[src_index]
        dst = names[(src_index + offset) % scenario.n]
        if app == "traceroute":
            # To the node farthest from the source, with one TTL per
            # router on the path and one past the destination, so a TTL
            # expires at every router.
            dst = max(names, key=lambda name: len(network.path(src, name)))
            trace = traceroute(
                network,
                src,
                dst,
                probes_per_hop=2,
                max_ttl=len(network.path(src, dst)),
                probe_gap_s=float(values.uniform(0.002, 0.02)),
                timeout_s=0.5,
            )
            hops = [(h.ttl, h.responder, h.sent, h.rtts_s) for h in trace.hops]
            results.append([hop[:3] + ([r.hex() for r in hop[3]],) for hop in hops])
        elif app == "ping":
            result = ping(
                network,
                src,
                dst,
                count=3,
                interval_s=float(values.uniform(0.01, 0.05)),
                timeout_s=0.5,
            )
            results.append([r.hex() for r in result.rtts_s])
        elif app == "udp":
            result = run_udp_burst(
                SimpleNamespace(network=network, client=dst, server=src),
                rate_bps=float(values.uniform(5e6, 60e6)),
                duration_s=0.02,
                packet_bytes=int(values.integers(200, 1473)),
                drain_s=0.5,
            )
            results.append(result)
        else:
            flow = TcpFlow(
                network,
                src,
                dst,
                total_bytes=int(values.integers(5_000, 40_000)),
                start_s=sim.now,
            )
            sim.run()
            results.append((flow.done, flow.stats))
    return results


def _run(scenario, reference=None):
    """Build the drawn network (current hop, or reference chain with
    the ``reference`` tie order), run its apps and drain it; everything
    the comparison reads."""
    values = np.random.default_rng(scenario.seed)  # the drawn numbers
    network, links, generators, log = _build(scenario, reference, values)
    results = _drive(network, scenario, values)
    sim = network.sim
    sim.run()  # drain whatever an app's horizon left in flight
    for link in links:
        link.check_conservation()
    counters = [
        (
            link.offered,
            link.delivered,
            link.lost,
            link.cleared,
            link.in_flight,
            link.queue.drops,
            link.queue.enqueued,
            link._last_delivery_s.hex(),
        )
        for link in links
    ]
    nodes = network.nodes.values()
    counters += [(n.received, n.forwarded, n.ttl_expired) for n in nodes]
    return SimpleNamespace(
        log=log,
        results=results,
        counters=counters,
        states=[g.bit_generator.state for g in generators],
        events=sim.executed,
        forwarding=sum(getattr(n, "forwarding_events", 0) for n in nodes),
        now=sim.now.hex(),
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_scenarios())
def test_one_event_handoff_matches_the_three_event_chain(scenario):
    """Chains and small trees of 2–6 nodes, zero and positive
    processing delays, constant and callable delays, a jitter generator
    shared by links, Bernoulli and handover loss, queues that tail-drop
    and spikes the monotone clamp turns into exact delivery ties:
    traceroutes, pings, a UDP burst and a TCP flow arrive with the same
    flow, sequence, hops, TTL, time and queueing to the bit, every
    counter and generator ends the same, and the new hop executes
    exactly the reference's events less its forwarding events."""
    want = _run(scenario, reference="finish")
    got = _run(scenario)
    assert got.log == want.log
    assert got.results == want.results
    assert got.counters == want.counters
    assert got.states == want.states
    assert got.now == want.now
    assert got.events == want.events - want.forwarding


def test_forwarding_handoff_is_one_event_at_delivery_plus_processing():
    """Through one router with a processing delay: the forwarded packet
    reaches the far end at the reference's time, and the hop into the
    router runs two events (serialisation, delivery) instead of three."""
    scenario = SimpleNamespace(
        n=3,
        edges=[(0, 1), (1, 2)],
        processing=[False, True, False],
        links=[("constant", "none", "none", "roomy")] * 4,
        apps=[("ping", 0, 2)],
        seed=5,
    )
    want = _run(scenario, reference="finish")
    got = _run(scenario)
    assert got.log == want.log
    # Three echoes and their replies each cross the router once.
    assert want.forwarding == 6
    assert got.events == want.events - 6


def test_exact_tie_orders_the_forwarded_arrival_first():
    """A TCP flow clocked by its acks brings a segment to router n1 at
    exactly the instant n1's link to n0 finishes the segment before it.
    The one-event arrival fires first, finds the link busy and waits in
    its queue for no time; the old forwarding event, numbered later,
    fired after the finish and found the link idle.  The segment starts
    at the same instant either way, so every time, queueing delay,
    draw, counter and result agrees but one: the old order enqueued one
    segment fewer on that link.  (Into a full queue, the new order
    would drop the segment the old one admitted.)"""
    scenario = SimpleNamespace(
        n=3,
        edges=[(0, 1), (1, 2)],
        processing=[True, True, True],
        links=[
            ("constant", "none", "none", "roomy"),
            ("constant", "bernoulli", "none", "tiny"),
            ("constant", "none", "none", "roomy"),
            ("constant", "none", "none", "roomy"),
        ],
        apps=[("traceroute", 0, 1), ("tcp", 2, 1), ("udp", 0, 1), ("ping", 0, 1)],
        seed=118,
    )
    got = _run(scenario)
    for reference in ("finish", "delivery"):
        want = _run(scenario, reference=reference)
        assert got.log == want.log
        assert got.results == want.results
        assert got.states == want.states
        assert got.events == want.events - want.forwarding
    want = _run(scenario, reference="finish")
    assert got.counters == want.counters
    old = _run(scenario, reference="delivery")
    differ = [
        i for i, (a, b) in enumerate(zip(got.counters, old.counters)) if a != b
    ]
    assert differ == [2]  # links: n0->n1, n1->n2, n1->n0, n2->n1
    enqueued = 6
    assert got.counters[2][enqueued] == old.counters[2][enqueued] + 1
    assert got.counters[2][:enqueued] == old.counters[2][:enqueued]


def test_table2_event_count(monkeypatch):
    """Table 2 at scale 0.1, seed 0: 12 traceroute runs execute 82,800
    events (115,200 with a separate forwarding event per router hop)."""
    counted = [0, 0]
    run = Simulator.run

    def counting_run(self, *args, **kwargs):
        executed = run(self, *args, **kwargs)
        counted[0] += 1
        counted[1] += executed
        return executed

    monkeypatch.setattr(Simulator, "run", counting_run)
    run_experiment("table2", seed=0, scale=0.1)
    assert counted == [12, 82_800]
