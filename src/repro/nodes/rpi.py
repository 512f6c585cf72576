"""The volunteer measurement node (Raspberry Pi behind a dish).

Each node is wired directly to its Starlink receiver (Figure 2 of the
paper) and measures against a VM in the nearest Google Cloud location:

* a 5-minute cron speedtest (Librespeed-based, like the extension's but
  from a wired host),
* half-hourly iperf3 TCP tests (Figure 6(b)'s cadence),
* UDP loss tests (Figures 6(c) and 7),
* mtr/traceroute for the queueing-delay analysis (Table 2, Figure 5),
* dishy-API status snapshots.

A node's geometry lives in its bent pipe's link-state table:
:meth:`MeasurementNode.precompute_geometry` batch-fills it for a planned
sample schedule, and an epoch outside the schedule is scanned on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geo.cities import NEAREST_GCP, city
from repro.nodes.iperf import IperfResult, analytic_udp_loss_fraction, run_iperf_tcp
from repro.nodes.mtr import MtrReport, run_mtr
from repro.orbits.constellation import WalkerShell, starlink_shell1
from repro.rng import stream
from repro.starlink.access import AccessConfig, AccessPath, Scenario
from repro.starlink.bentpipe import BentPipeModel, epoch_starts
from repro.starlink.dish import Dish, DishyStatus
from repro.starlink.pop import pop_for_city
from repro.units import bps_to_mbps
from repro.weather.history import WeatherHistory

NODE_CITIES = ("north_carolina", "wiltshire", "barcelona")
"""The paper's three volunteer locations."""

IPERF_EFFICIENCY = 0.94
"""Goodput fraction a well-tuned single TCP flow attains on a clean
link (validated against the packet-level stack in the test suite)."""

@dataclass(frozen=True)
class NodeSpeedtest:
    """A cron speedtest sample from a node."""

    t_s: float
    download_mbps: float
    upload_mbps: float


class MeasurementNode:
    """One RPi + dish + nearest-GCP server.

    Args:
        city_name: One of :data:`NODE_CITIES` (any known city works).
        shell: Constellation shell (shared across nodes for speed).
        weather: Weather history (None -> clear sky).
        seed: RNG root.
    """

    def __init__(
        self,
        city_name: str,
        shell: WalkerShell | None = None,
        weather: WeatherHistory | None = None,
        seed: int = 0,
    ) -> None:
        if city_name not in NEAREST_GCP:
            raise ConfigurationError(
                f"no nearest-GCP mapping for {city_name!r}; known: {sorted(NEAREST_GCP)}"
            )
        self.city = city(city_name)
        self.server_city = city(NEAREST_GCP[city_name])
        self.shell = shell if shell is not None else starlink_shell1(
            n_planes=36, sats_per_plane=18
        )
        pop = pop_for_city(city_name)
        self.bentpipe = BentPipeModel(
            self.shell,
            self.city.location,
            pop.gateway,
            city_name,
            weather=weather,
            seed=seed,
        )
        self.dish = Dish(self.bentpipe)
        self._rng = stream(seed, "node", city_name)

    def precompute_geometry(self, times, horizon_s: float = 0.0) -> None:
        """Batch-fill the bent pipe's link states for a planned sample
        schedule.

        Covers exactly the scheduler epochs the samples will touch —
        each ``t`` in ``times`` plus ``horizon_s`` of look-ahead (UDP
        loss tests query ``[t, t + duration)``) — in the kernel's
        batched calls, so per-sample queries hit the table instead of
        scanning each epoch.  Results are bit-identical to the
        on-demand path; epochs outside the schedule, or outside the
        weather history, are still scanned on first use.
        """
        self.bentpipe.fill_link_states(epoch_starts(times, horizon_s))

    # -- analytic cron measurements -------------------------------------------

    def speedtest(self, t_s: float) -> NodeSpeedtest:
        """One cron speedtest sample (analytic)."""
        dl = self.bentpipe.capacity_bps(t_s, downlink=True, noisy=True)
        ul = self.bentpipe.capacity_bps(t_s, downlink=False, noisy=True)
        return NodeSpeedtest(
            t_s=t_s,
            download_mbps=bps_to_mbps(dl * IPERF_EFFICIENCY),
            upload_mbps=bps_to_mbps(ul * IPERF_EFFICIENCY),
        )

    def udp_loss_test(
        self, t_s: float, duration_s: float = 10.0, rate_pps: float = 1000.0
    ) -> float:
        """Measured loss fraction of a UDP test starting at ``t_s``."""
        model, _, _ = self.bentpipe.handover_loss_model(
            t_s,
            t_s + duration_s,
            seed=int(t_s) % (2**31),
            time_offset_s=t_s,
            residual_loss=self.bentpipe.loss_rate(t_s),
        )
        return analytic_udp_loss_fraction(
            model.loss_probability_at, 0.0, duration_s, rate_pps, self._rng
        )

    # -- packet-level measurements ----------------------------------------------

    def build_path(
        self,
        t_s: float,
        with_handover_loss: bool = False,
        stochastic_wireless_queueing: bool = True,
        duration_hint_s: float = 30.0,
        seed: int = 0,
    ) -> AccessPath:
        """Access path to the node's GCP server at campaign time ``t_s``."""
        loss_dl = None
        if with_handover_loss:
            loss_dl, _, _ = self.bentpipe.handover_loss_model(
                t_s, t_s + duration_hint_s + 10.0, seed=seed, time_offset_s=t_s
            )
        config = AccessConfig(
            loss_dl=loss_dl,
            time_offset_s=t_s,
            stochastic_wireless_queueing=stochastic_wireless_queueing,
            seed=seed,
        )
        return Scenario.starlink(
            self.bentpipe, self.server_city.location, config
        ).build()

    def iperf(
        self,
        t_s: float,
        cc: str = "cubic",
        duration_s: float = 10.0,
    ) -> IperfResult:
        """Packet-level TCP download test at campaign time ``t_s``, on
        the event engine."""
        path = self.build_path(
            t_s,
            with_handover_loss=True,
            stochastic_wireless_queueing=False,
            duration_hint_s=duration_s,
        )
        return run_iperf_tcp(path, cc=cc, duration_s=duration_s)

    def mtr(self, t_s: float, cycles: int = 30) -> MtrReport:
        """mtr run to the node's server at campaign time ``t_s``."""
        path = self.build_path(t_s)
        return run_mtr(path, cycles=cycles)

    def dishy_status(self, t_s: float) -> DishyStatus:
        """Dishy API snapshot."""
        return self.dish.status(t_s)
