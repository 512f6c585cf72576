"""The user terminal ("dishy") and its status API.

The paper's volunteer nodes query the Starlink Status (Dishy) gRPC API
from the local network to read link parameters (its ref [14], the
starlink-cli community tools).  :class:`Dish` reproduces that interface
against the simulated bent pipe: orientation toward the serving
satellite, PoP ping latency, throughput, obstruction/outage state and
SNR-like link quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.geo.coordinates import GeoPoint, elevation_azimuth_range
from repro.starlink.bentpipe import BentPipeModel
from repro.units import bps_to_mbps, s_to_ms


class DishState(Enum):
    """Connection state reported by the dishy API."""

    CONNECTED = "CONNECTED"
    SEARCHING = "SEARCHING"
    DEGRADED = "DEGRADED"  # heavy rain fade


@dataclass(frozen=True)
class DishyStatus:
    """A snapshot of the terminal state, dishy-API style.

    Attributes:
        t_s: Campaign timestamp of the snapshot.
        state: Connection state.
        serving_satellite: Name of the serving satellite (None while
            searching).
        azimuth_deg: Dish boresight azimuth toward the serving satellite.
        elevation_deg: Dish boresight elevation.
        pop_ping_latency_ms: Expected RTT to the PoP.
        downlink_throughput_mbps: Currently achievable downlink rate.
        uplink_throughput_mbps: Currently achievable uplink rate.
        snr_margin_db: Remaining link margin after weather fade (a
            clear-sky margin of 9 dB is assumed).
        weather: Weather condition string as OWM would report it.
    """

    t_s: float
    state: DishState
    serving_satellite: str | None
    azimuth_deg: float | None
    elevation_deg: float | None
    pop_ping_latency_ms: float
    downlink_throughput_mbps: float
    uplink_throughput_mbps: float
    snr_margin_db: float
    weather: str


CLEAR_SKY_MARGIN_DB = 9.0
DEGRADED_MARGIN_DB = 3.0


class Dish:
    """A Starlink user terminal bound to a bent-pipe model."""

    def __init__(self, bentpipe: BentPipeModel) -> None:
        self.bentpipe = bentpipe

    @property
    def location(self) -> GeoPoint:
        """Terminal position."""
        return self.bentpipe.terminal

    def status(self, t_s: float) -> DishyStatus:
        """Dishy-API snapshot at campaign time ``t_s``."""
        link = self.bentpipe.link_state(t_s)
        geometry, impairment = link.geometry, link.impairment
        margin = CLEAR_SKY_MARGIN_DB - impairment.attenuation_db
        condition = self.bentpipe.condition_at(t_s)
        if geometry is None:
            return DishyStatus(
                t_s=t_s,
                state=DishState.SEARCHING,
                serving_satellite=None,
                azimuth_deg=None,
                elevation_deg=None,
                pop_ping_latency_ms=float("inf"),
                downlink_throughput_mbps=0.0,
                uplink_throughput_mbps=0.0,
                snr_margin_db=margin,
                weather=condition.value,
            )
        satellite = self.bentpipe.shell.satellite(geometry.satellite)
        elevation, azimuth, _ = elevation_azimuth_range(
            self.location, satellite.position_ecef(t_s)
        )
        state = (
            DishState.CONNECTED if margin > DEGRADED_MARGIN_DB else DishState.DEGRADED
        )
        return DishyStatus(
            t_s=t_s,
            state=state,
            serving_satellite=geometry.satellite,
            azimuth_deg=azimuth,
            elevation_deg=elevation,
            pop_ping_latency_ms=s_to_ms(self.bentpipe.mean_rtt_to_pop_s(t_s)),
            downlink_throughput_mbps=bps_to_mbps(
                self.bentpipe.capacity_bps(t_s, downlink=True, noisy=False)
            ),
            uplink_throughput_mbps=bps_to_mbps(
                self.bentpipe.capacity_bps(t_s, downlink=False, noisy=False)
            ),
            snr_margin_db=margin,
            weather=condition.value,
        )
