"""Terminal obstruction model (trees, roofs, chimneys).

The dishy API the paper queries exposes obstruction statistics: the
fraction of sky blocked and the fraction of time the terminal loses
connectivity to obstructions.  Residential installs rarely have a
perfectly clear view; an obstructed wedge of sky turns otherwise-usable
satellite passes into micro-outages.

:class:`ObstructionMask` models the blocked sky as a set of azimuth
wedges, each with its own elevation horizon.  It composes with the
visibility machinery: a satellite is *usable* only if above the global
mask **and** above the obstruction horizon at its azimuth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.orbits.visibility import VisibilitySample
from repro.rng import stream


@dataclass(frozen=True)
class ObstructionWedge:
    """One blocked wedge of sky.

    Attributes:
        azimuth_start_deg: Wedge start, degrees clockwise from north.
        azimuth_end_deg: Wedge end; may wrap through north (start > end).
        horizon_elevation_deg: Satellites below this elevation are
            blocked within the wedge (e.g. a 40-degree tree line).
    """

    azimuth_start_deg: float
    azimuth_end_deg: float
    horizon_elevation_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.horizon_elevation_deg <= 90.0:
            raise ConfigurationError(
                f"horizon elevation out of range: {self.horizon_elevation_deg}"
            )

    def contains_azimuth(self, azimuth_deg: float) -> bool:
        """Whether an azimuth falls inside the wedge (handles wrap)."""
        azimuth = azimuth_deg % 360.0
        start = self.azimuth_start_deg % 360.0
        end = self.azimuth_end_deg % 360.0
        if start <= end:
            return start <= azimuth <= end
        return azimuth >= start or azimuth <= end

    @property
    def width_deg(self) -> float:
        """Angular width of the wedge."""
        return (self.azimuth_end_deg - self.azimuth_start_deg) % 360.0


@dataclass
class ObstructionMask:
    """The blocked-sky map of one terminal install."""

    wedges: list[ObstructionWedge] = field(default_factory=list)

    def blocks(self, azimuth_deg: float, elevation_deg: float) -> bool:
        """Whether a direction is obstructed."""
        return any(
            wedge.contains_azimuth(azimuth_deg)
            and elevation_deg < wedge.horizon_elevation_deg
            for wedge in self.wedges
        )

    def blocks_array(
        self, azimuth_deg: np.ndarray, elevation_deg: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`blocks` over aligned direction arrays.

        Pure comparisons (no rounding), so each element agrees exactly
        with the scalar method on the same inputs.
        """
        azimuth = np.asarray(azimuth_deg) % 360.0
        elevation = np.asarray(elevation_deg)
        blocked = np.zeros(azimuth.shape, dtype=bool)
        for wedge in self.wedges:
            start = wedge.azimuth_start_deg % 360.0
            end = wedge.azimuth_end_deg % 360.0
            if start <= end:
                inside = (azimuth >= start) & (azimuth <= end)
            else:
                inside = (azimuth >= start) | (azimuth <= end)
            blocked |= inside & (elevation < wedge.horizon_elevation_deg)
        return blocked

    def filter_visible(self, samples: list[VisibilitySample]) -> list[VisibilitySample]:
        """Drop samples whose direction is obstructed."""
        return [
            s for s in samples if not self.blocks(s.azimuth_deg, s.elevation_deg)
        ]

    def sky_fraction_obstructed(
        self, min_elevation_deg: float = 25.0, resolution: int = 720
    ) -> float:
        """Fraction of the usable sky dome (above the mask) blocked.

        Evaluated on an (azimuth, elevation) grid weighted uniformly —
        a serviceable approximation of the dishy API's
        ``fraction_obstructed`` statistic.
        """
        azimuths = np.linspace(0.0, 360.0, resolution, endpoint=False)
        elevations = np.linspace(min_elevation_deg, 90.0, 32)
        if len(azimuths) == 0 or len(elevations) == 0:
            return 0.0
        az_grid, el_grid = np.meshgrid(azimuths, elevations, indexing="ij")
        blocked = self.blocks_array(az_grid, el_grid)
        return float(np.count_nonzero(blocked)) / blocked.size

    @classmethod
    def generate(
        cls, seed: int, severity: str = "typical"
    ) -> "ObstructionMask":
        """A random residential install.

        Severities: ``clear`` (no wedges), ``typical`` (one or two low
        tree lines), ``bad`` (a tall tree/building plus a tree line).
        """
        rng = stream(seed, "obstruction", severity)
        if severity == "clear":
            return cls(wedges=[])
        if severity == "typical":
            count = int(rng.integers(1, 3))
            horizons = rng.uniform(28.0, 38.0, count)
            widths = rng.uniform(20.0, 60.0, count)
        elif severity == "bad":
            count = int(rng.integers(2, 4))
            horizons = rng.uniform(35.0, 55.0, count)
            widths = rng.uniform(40.0, 110.0, count)
        else:
            raise ConfigurationError(
                f"unknown severity {severity!r}; use clear/typical/bad"
            )
        wedges = []
        for horizon, width in zip(horizons, widths):
            start = float(rng.uniform(0.0, 360.0))
            wedges.append(
                ObstructionWedge(
                    azimuth_start_deg=start,
                    azimuth_end_deg=(start + float(width)) % 360.0,
                    horizon_elevation_deg=float(horizon),
                )
            )
        return cls(wedges=wedges)

