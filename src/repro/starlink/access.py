"""Topology builders for the access technologies compared in Fig 5.

Each builder assembles a :class:`repro.net.topology.Network` for one
client behind a particular access technology — Starlink bent pipe,
fixed broadband (Wi-Fi at a university, the paper's "best of class"
baseline), cellular, or legacy GEO — connected through an internet
exchange and a transit chain to a measurement server (e.g. the
N. Virginia VM the paper traceroutes to, or the per-node nearest
Google Cloud site).

The entry point is :class:`Scenario`: a small builder that owns the
(bentpipe, config, locations) tuple and produces :class:`AccessPath`
objects.  All tunables live in the frozen :class:`AccessConfig`
dataclass.

Starlink scenarios can precompute the simulated window
(``Scenario.precompute``): the batch kernel fills the bent pipe's
link-state table for every scheduler epoch of the window, so
per-packet delay queries hit the table instead of scanning each epoch
on first use.  The kernel matches the scan bit for bit
(DESIGN.md §7), so a precompute never changes results.

Terrestrial segments use great-circle distance with a 1.3 route-
inflation factor at 2/3 c (standard fibre-path modelling); hop-level
queueing jitter is injected with per-hop samplers so the max-min
estimator of Table 2 sees realistic variance concentrated where each
technology actually queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.constants import SPEED_OF_LIGHT_M_S
from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint, great_circle_distance_m
from repro.knobs import check, resolve
from repro.net.link import Link
from repro.net.loss import LossModel
from repro.net.queues import DropTailQueue
from repro.net.topology import Network
from repro.rng import stream
from repro.starlink.bentpipe import BentPipeModel, epoch_starts
from repro.units import mbps_to_bps

FIBRE_SPEED_M_S = SPEED_OF_LIGHT_M_S * 2.0 / 3.0
ROUTE_INFLATION = 1.3


class AccessTechnology(Enum):
    """Access technology of a client."""

    STARLINK = "starlink"
    BROADBAND = "broadband"
    CELLULAR = "cellular"
    GEO_SATELLITE = "geo"


def terrestrial_delay_s(a: GeoPoint, b: GeoPoint) -> float:
    """One-way fibre delay between two points, seconds."""
    return great_circle_distance_m(a, b) * ROUTE_INFLATION / FIBRE_SPEED_M_S


@dataclass(frozen=True)
class AccessConfig:
    """Tunables of one access path, shared by every technology.

    ``None`` means "use the technology's default": rates fall back to
    the bent pipe's capacity model (Starlink) or the calibrated consumer
    plans (70/20 broadband, 45/12 cellular, 25/3 GEO, Mbps), and the
    transit queueing mean falls back to the city plan (Starlink) or the
    0.6 ms terrestrial default.  Fields a technology does not use are
    ignored (e.g. ``loss_dl`` outside Starlink, ``wifi_delay_s`` outside
    broadband).

    Attributes:
        dl_rate_bps / ul_rate_bps: Access-link rates, bits/s.
        loss_dl / loss_ul: Loss models for the two bent-pipe directions
            (e.g. a handover burst model).  Starlink only.
        time_offset_s: Campaign time corresponding to simulation t=0.
        stochastic_wireless_queueing: Inject load-coupled queueing
            jitter on the bent pipe.  Enable for traceroute-style
            experiments; disable for TCP dynamics (a FIFO does not
            reorder, but a stochastic per-packet delay would).
        queue_packets: Drop-tail queue size on the access link, packets.
        seed: RNG root for the path's jitter samplers.
        transit_queue_mean_s: Mean queueing delay per transit hop.
        wifi_delay_s: Client-to-router Wi-Fi delay (broadband only).
        ran_delay_s: Radio-access delay (cellular only).
        engine: Packet-path engine — ``"event"`` (heap-driven oracle),
            ``"batch"`` (vectorised, see :mod:`repro.net.batch`), or
            ``None`` (unset) to defer to ``REPRO_ENGINE`` / the event
            default (the ``engine`` knob, DESIGN.md §5).
    """

    dl_rate_bps: float | None = None
    ul_rate_bps: float | None = None
    loss_dl: LossModel | None = None
    loss_ul: LossModel | None = None
    time_offset_s: float = 0.0
    stochastic_wireless_queueing: bool = True
    queue_packets: int = 256
    seed: int = 0
    transit_queue_mean_s: float | None = None
    wifi_delay_s: float = 0.002
    ran_delay_s: float = 0.023
    engine: str | None = None

    def __post_init__(self) -> None:
        check("engine", self.engine)


@dataclass
class AccessPath:
    """A built client-to-server path.

    Attributes:
        network: The assembled network (routes computed).
        technology: Access technology of the client.
        client: Client node name.
        server: Server node name.
        hop_names: Expected traceroute responders, in order.
        bentpipe: The bent-pipe model (Starlink paths only).
        access_forward: Client->core direction of the access link.
        access_reverse: Core->client direction of the access link
            (the downlink bottleneck for download tests).
        engine: Resolved packet-path engine for flows over this path
            (``"event"`` or ``"batch"``; packet-level consumers such as
            :mod:`repro.nodes.iperf` dispatch on it).
    """

    network: Network
    technology: AccessTechnology
    client: str
    server: str
    hop_names: list[str] = field(default_factory=list)
    bentpipe: BentPipeModel | None = None
    access_forward: Link | None = None
    access_reverse: Link | None = None
    engine: str = "event"


@dataclass
class Scenario:
    """One client-to-server measurement scenario, ready to build.

    The object experiments hand to the runtime: it owns the bent pipe
    (for Starlink), the client/server locations and the
    :class:`AccessConfig`, and produces :class:`AccessPath` instances
    on demand.  Construct via the classmethods::

        scenario = Scenario.starlink(bentpipe, server.location, config)
        scenario.precompute(duration_s=600.0)   # batch-fills the window
        path = scenario.build()

    ``build`` may be called repeatedly (e.g. one path per traceroute
    batch); every call assembles a fresh network from the same inputs.
    """

    technology: AccessTechnology
    server_location: GeoPoint
    config: AccessConfig = field(default_factory=AccessConfig)
    bentpipe: BentPipeModel | None = None
    client_location: GeoPoint | None = None

    @classmethod
    def starlink(
        cls,
        bentpipe: BentPipeModel,
        server_location: GeoPoint,
        config: AccessConfig | None = None,
    ) -> Scenario:
        """Starlink bent-pipe scenario."""
        return cls(
            technology=AccessTechnology.STARLINK,
            server_location=server_location,
            config=config if config is not None else AccessConfig(),
            bentpipe=bentpipe,
        )

    @classmethod
    def broadband(
        cls,
        client_location: GeoPoint,
        server_location: GeoPoint,
        config: AccessConfig | None = None,
    ) -> Scenario:
        """Fixed broadband over Wi-Fi (the paper's university connection)."""
        return cls(
            technology=AccessTechnology.BROADBAND,
            server_location=server_location,
            config=config if config is not None else AccessConfig(),
            client_location=client_location,
        )

    @classmethod
    def cellular(
        cls,
        client_location: GeoPoint,
        server_location: GeoPoint,
        config: AccessConfig | None = None,
    ) -> Scenario:
        """Cellular access: RAN + packet core before the exchange."""
        return cls(
            technology=AccessTechnology.CELLULAR,
            server_location=server_location,
            config=config if config is not None else AccessConfig(),
            client_location=client_location,
        )

    @classmethod
    def geo(
        cls,
        client_location: GeoPoint,
        server_location: GeoPoint,
        config: AccessConfig | None = None,
    ) -> Scenario:
        """Legacy GEO satellite access (HughesNet/ViaSat class)."""
        return cls(
            technology=AccessTechnology.GEO_SATELLITE,
            server_location=server_location,
            config=config if config is not None else AccessConfig(),
            client_location=client_location,
        )

    def precompute(self, duration_s: float, start_s: float | None = None) -> None:
        """Batch-fill the bent pipe's link states for every scheduler
        epoch of the simulated window ``[start_s, start_s + duration_s]``.

        ``start_s`` defaults to the config's ``time_offset_s`` — the
        campaign time at simulation t=0, which is where the built
        path's per-packet delay queries land.  Epochs already in the
        table are not recomputed.  Only meaningful for Starlink
        scenarios (no-op otherwise).
        """
        if self.technology is not AccessTechnology.STARLINK:
            return
        if start_s is None:
            start_s = self.config.time_offset_s
        self.bentpipe.fill_link_states(epoch_starts([start_s], duration_s))

    def build(self) -> AccessPath:
        """Assemble the network for this scenario and return the path."""
        engine = resolve("engine", self.config.engine)
        if self.technology is AccessTechnology.STARLINK:
            if self.bentpipe is None:
                raise ConfigurationError("Starlink scenario needs a bentpipe")
            path = _build_starlink_path(
                self.bentpipe, self.server_location, self.config
            )
        else:
            if self.client_location is None:
                raise ConfigurationError(
                    f"{self.technology.value} scenario needs a client_location"
                )
            builder = {
                AccessTechnology.BROADBAND: _build_broadband_path,
                AccessTechnology.CELLULAR: _build_cellular_path,
                AccessTechnology.GEO_SATELLITE: _build_geo_path,
            }[self.technology]
            path = builder(self.client_location, self.server_location, self.config)
        path.engine = engine
        return path


def _jitter_sampler(rng: np.random.Generator, mean_s: float):
    """Exponential queueing-jitter sampler for an abstracted segment.

    The returned callable carries a ``batch`` attribute drawing a whole
    vector at once, which the batch engine uses.  Because one ``rng``
    is shared by every sampler on a path, batched draws consume the
    stream in per-link chunk order rather than global event order — so
    end-to-end paths with jitter are statistically (not bit-) identical
    across engines (DESIGN.md §10).
    """

    def sample(now_s: float) -> float:
        return float(rng.exponential(mean_s))

    def sample_batch(times_s) -> np.ndarray:
        return rng.exponential(mean_s, size=len(times_s))

    sample.batch = sample_batch
    return sample


def _add_transit_chain(
    network: Network,
    from_node: str,
    server: str,
    from_location: GeoPoint,
    server_location: GeoPoint,
    rng: np.random.Generator,
    transit_queue_mean_s: float = 0.0006,
    core_rate_bps: float = 10e9,
) -> list[str]:
    """IXP -> transit -> long-haul -> server chain; returns hop names.

    The long-haul (e.g. transatlantic) segment gets 75% of the total
    terrestrial delay, mirroring how a single submarine-cable hop
    dominates real traces.
    """
    total_delay = terrestrial_delay_s(from_location, server_location)
    ixp = f"{from_node}-ixp"
    transit_a = f"{from_node}-transit1"
    transit_b = f"{from_node}-transit2"
    network.add_node(ixp, processing_delay_s=0.0002)
    network.add_node(transit_a, processing_delay_s=0.0002)
    network.add_node(transit_b, processing_delay_s=0.0002)
    if server not in network.nodes:
        network.add_node(server)
    jitter = _jitter_sampler(rng, transit_queue_mean_s)
    network.connect(from_node, ixp, core_rate_bps, 0.0005, extra_delay=jitter)
    network.connect(
        ixp, transit_a, core_rate_bps, 0.10 * total_delay, extra_delay=jitter
    )
    network.connect(
        transit_a, transit_b, core_rate_bps, 0.75 * total_delay, extra_delay=jitter
    )
    network.connect(
        transit_b, server, core_rate_bps, 0.15 * total_delay, extra_delay=jitter
    )
    return [ixp, transit_a, transit_b, server]


# -- Starlink ---------------------------------------------------------------


def _build_starlink_path(
    bentpipe: BentPipeModel, server_location: GeoPoint, config: AccessConfig
) -> AccessPath:
    """client -> dish -> (bent pipe) -> PoP -> ... -> server.

    The bent-pipe model defines geometry, weather and capacity; rates
    default to its capacity at ``config.time_offset_s``.
    """
    network = Network()
    rng = stream(config.seed, "access", "starlink", bentpipe.city_name)
    client, dish, pop = "client", "dish", "starlink-pop"
    network.add_node(client)
    network.add_node(dish, processing_delay_s=0.0005)
    network.add_node(pop, processing_delay_s=0.0005)
    network.connect(client, dish, rate_bps=1e9, delay=0.0005)

    time_offset_s = config.time_offset_s
    dl_rate_bps = config.dl_rate_bps
    ul_rate_bps = config.ul_rate_bps
    if dl_rate_bps is None:
        dl_rate_bps = bentpipe.capacity_bps(time_offset_s, downlink=True, noisy=False)
    if ul_rate_bps is None:
        ul_rate_bps = bentpipe.capacity_bps(time_offset_s, downlink=False, noisy=False)
    extra = (
        bentpipe.wireless_extra_delay_provider(time_offset_s)
        if config.stochastic_wireless_queueing
        else None
    )
    delay = bentpipe.link_delay_provider(time_offset_s)
    uplink = Link(
        network.sim,
        network.node(dish),
        network.node(pop),
        rate_bps=ul_rate_bps,
        delay=delay,
        queue=DropTailQueue(config.queue_packets * 1500),
        loss=config.loss_ul,
        extra_delay=extra,
    )
    downlink = Link(
        network.sim,
        network.node(pop),
        network.node(dish),
        rate_bps=dl_rate_bps,
        delay=delay,
        queue=DropTailQueue(config.queue_packets * 1500),
        loss=config.loss_dl,
        extra_delay=extra,
    )
    network.node(dish).attach_link(uplink)
    network.node(pop).attach_link(downlink)

    plan = bentpipe.capacity.plan
    hops = _add_transit_chain(
        network,
        pop,
        "server",
        bentpipe.gateway,
        server_location,
        rng,
        transit_queue_mean_s=(
            config.transit_queue_mean_s
            if config.transit_queue_mean_s is not None
            else plan.transit_queue_mean_ms / 1000.0 / 3.0
        ),
    )
    # The server node is created by the transit chain's final connect.
    path = AccessPath(
        network=network,
        technology=AccessTechnology.STARLINK,
        client=client,
        server="server",
        hop_names=[dish, pop] + hops,
        bentpipe=bentpipe,
        access_forward=uplink,
        access_reverse=downlink,
    )
    network.compute_routes()
    return path


# -- broadband --------------------------------------------------------------


def _build_broadband_path(
    client_location: GeoPoint, server_location: GeoPoint, config: AccessConfig
) -> AccessPath:
    """Fixed broadband over Wi-Fi; rates default to a 70/20 Mbps plan."""
    dl_rate_bps = (
        config.dl_rate_bps if config.dl_rate_bps is not None else mbps_to_bps(70.0)
    )
    ul_rate_bps = (
        config.ul_rate_bps if config.ul_rate_bps is not None else mbps_to_bps(20.0)
    )
    transit_queue_mean_s = (
        config.transit_queue_mean_s
        if config.transit_queue_mean_s is not None
        else 0.0006
    )
    network = Network()
    rng = stream(config.seed, "access", "broadband")
    client, wifi_router, isp_edge = "client", "wifi-router", "isp-edge"
    network.add_node(client)
    network.add_node(wifi_router, processing_delay_s=0.0003)
    network.add_node(isp_edge, processing_delay_s=0.0003)
    network.connect(
        client,
        wifi_router,
        rate_bps=300e6,
        delay=config.wifi_delay_s,
        extra_delay=_jitter_sampler(rng, 0.0002),
    )
    # Forward direction (wifi_router -> isp_edge) carries uploads; the
    # reverse direction is the download bottleneck.
    network.connect(
        wifi_router,
        isp_edge,
        rate_bps=ul_rate_bps,
        delay=0.0025,
        rate_bps_reverse=dl_rate_bps,
        queue=DropTailQueue(config.queue_packets * 1500),
        queue_reverse=DropTailQueue(config.queue_packets * 1500),
        extra_delay=_jitter_sampler(rng, 0.0004),
    )
    hops = _add_transit_chain(
        network,
        isp_edge,
        "server",
        client_location,
        server_location,
        rng,
        transit_queue_mean_s=transit_queue_mean_s,
    )
    path = AccessPath(
        network=network,
        technology=AccessTechnology.BROADBAND,
        client=client,
        server="server",
        hop_names=[wifi_router, isp_edge] + hops,
    )
    network.compute_routes()
    return path


# -- cellular ---------------------------------------------------------------


def _build_cellular_path(
    client_location: GeoPoint, server_location: GeoPoint, config: AccessConfig
) -> AccessPath:
    """Cellular access: RAN + packet core (CGNAT) before the exchange.

    The radio segment carries both a high base delay and heavy jitter
    (scheduling grants, HARQ), which is why the paper's Figure 5 shows
    cellular per-hop RTTs well above both Starlink and broadband from
    the very first hop.  Rates default to a 45/12 Mbps plan.
    """
    dl_rate_bps = (
        config.dl_rate_bps if config.dl_rate_bps is not None else mbps_to_bps(45.0)
    )
    ul_rate_bps = (
        config.ul_rate_bps if config.ul_rate_bps is not None else mbps_to_bps(12.0)
    )
    network = Network()
    rng = stream(config.seed, "access", "cellular")
    client, basestation, core = "client", "enodeb", "packet-core"
    network.add_node(client)
    network.add_node(basestation, processing_delay_s=0.001)
    network.add_node(core, processing_delay_s=0.001)
    # client -> basestation is the uplink; basestation -> client the
    # downlink bottleneck.
    network.connect(
        client,
        basestation,
        rate_bps=ul_rate_bps,
        delay=config.ran_delay_s,
        rate_bps_reverse=dl_rate_bps,
        queue=DropTailQueue(config.queue_packets * 1500),
        queue_reverse=DropTailQueue(config.queue_packets * 1500),
        extra_delay=_jitter_sampler(rng, 0.010),
    )
    network.connect(
        basestation,
        core,
        rate_bps=10e9,
        delay=0.004,
        extra_delay=_jitter_sampler(rng, 0.002),
    )
    hops = _add_transit_chain(
        network, core, "server", client_location, server_location, rng
    )
    path = AccessPath(
        network=network,
        technology=AccessTechnology.CELLULAR,
        client=client,
        server="server",
        hop_names=[basestation, core] + hops,
    )
    network.compute_routes()
    return path


# -- GEO --------------------------------------------------------------------


GEO_ALTITUDE_M = 35_786_000.0
"""Geostationary orbit altitude — the 35,000 km the paper's introduction
contrasts with Starlink's 550 km."""


def _build_geo_path(
    client_location: GeoPoint, server_location: GeoPoint, config: AccessConfig
) -> AccessPath:
    """Legacy GEO satellite access (HughesNet/ViaSat class).

    The baseline the paper's introduction motivates against: a
    geostationary bent pipe spans ~2x 35,786 km before touching ground,
    giving an irreducible ~480 ms of propagation RTT regardless of how
    close the content is.  Rates default to typical 2022 consumer GEO
    plans (25/3 Mbps).  Used by the ``extension_geo`` experiment to
    quantify the LEO-vs-GEO claim.
    """
    dl_rate_bps = (
        config.dl_rate_bps if config.dl_rate_bps is not None else mbps_to_bps(25.0)
    )
    ul_rate_bps = (
        config.ul_rate_bps if config.ul_rate_bps is not None else mbps_to_bps(3.0)
    )
    network = Network()
    rng = stream(config.seed, "access", "geo")
    client, terminal, teleport = "client", "geo-terminal", "geo-teleport"
    network.add_node(client)
    network.add_node(terminal, processing_delay_s=0.001)
    network.add_node(teleport, processing_delay_s=0.001)
    network.connect(client, terminal, rate_bps=1e9, delay=0.0005)
    # Slant range exceeds altitude off-nadir; 38,500 km is typical for
    # mid-latitude terminals.  Up and down legs plus MAC scheduling.
    slant_m = 38_500_000.0
    one_way = 2.0 * slant_m / SPEED_OF_LIGHT_M_S + 0.012
    network.connect(
        terminal,
        teleport,
        rate_bps=ul_rate_bps,
        delay=one_way,
        rate_bps_reverse=dl_rate_bps,
        queue=DropTailQueue(config.queue_packets * 1500),
        queue_reverse=DropTailQueue(config.queue_packets * 1500),
        extra_delay=_jitter_sampler(rng, 0.004),
    )
    hops = _add_transit_chain(
        network, teleport, "server", client_location, server_location, rng
    )
    path = AccessPath(
        network=network,
        technology=AccessTechnology.GEO_SATELLITE,
        client=client,
        server="server",
        hop_names=[terminal, teleport] + hops,
    )
    network.compute_routes()
    return path
