"""Inter-satellite link (ISL) topology and space-path routing.

The paper's §4 takeaway: "connections between geographically distant
end points may not see the full benefits of Starlink until
Inter-satellite Links (ISLs) become the norm, offsetting the additional
latency of the satellite link with lower delays in crossing the
Atlantic via ISLs" (citing Handley [24] and Bhattacherjee [8]).  This
module implements that future: the standard +grid ISL topology (each
satellite links to its in-plane neighbours and to the same slot in the
adjacent planes) and latency-optimal routing over it, so the
reproduction can quantify the takeaway as an experiment.

Light in vacuum beats light in fibre by 3/2, so for sufficiently long
paths an up-over-and-down space route undercuts the terrestrial
great-circle fibre path — the crossover the `extension_isl` experiment
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import SPEED_OF_LIGHT_M_S, STARLINK_MIN_ELEVATION_DEG
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.constellation import WalkerShell
from repro.orbits.visibility import visible_satellites

if TYPE_CHECKING:
    import networkx as nx

ISL_PROCESSING_DELAY_S = 0.0003
"""Per-ISL-hop switching/processing delay, seconds."""

GROUND_PROCESSING_DELAY_S = 0.002
"""Up/downlink processing at the terminal/gateway, seconds."""


@dataclass(frozen=True)
class IslPath:
    """A routed space path between two ground points.

    Attributes:
        hops: Satellite names along the path, in order.
        latency_s: One-way latency including processing, seconds.
        distance_m: Total geometric path length, metres.
    """

    hops: tuple[str, ...]
    latency_s: float
    distance_m: float

    @property
    def n_isl_hops(self) -> int:
        """Number of inter-satellite hops (satellites minus one)."""
        return max(0, len(self.hops) - 1)


class IslNetwork:
    """+grid ISL topology over one Walker shell.

    Args:
        shell: The constellation shell carrying the lasers.
        min_elevation_deg: Ground-to-satellite usability mask.
    """

    def __init__(
        self,
        shell: WalkerShell,
        min_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
    ) -> None:
        self.shell = shell
        self.min_elevation_deg = min_elevation_deg
        #: (plane, slot) -> satellite index, for +grid neighbour lookup.
        self._grid = {
            (sat.plane, sat.slot): index
            for index, sat in enumerate(shell.satellites)
        }
        self._edges = self._build_edge_list()

    def _build_edge_list(self) -> list[tuple[int, int]]:
        """+grid: in-plane ring + same-slot links to adjacent planes."""
        edges: set[tuple[int, int]] = set()
        n_planes = self.shell.n_planes
        sats_per_plane = self.shell.sats_per_plane
        for (plane, slot), index in self._grid.items():
            in_plane = self._grid[(plane, (slot + 1) % sats_per_plane)]
            cross_plane = self._grid[((plane + 1) % n_planes, slot)]
            edges.add(tuple(sorted((index, in_plane))))
            edges.add(tuple(sorted((index, cross_plane))))
        return sorted(edges)

    @property
    def n_isls(self) -> int:
        """Number of laser links in the grid (2 per satellite)."""
        return len(self._edges)

    def graph_at(self, t_s: float) -> nx.Graph:
        """Weighted ISL graph at time ``t_s`` (weights = seconds)."""
        import networkx as nx

        positions = self.shell.positions_ecef(t_s)
        graph = nx.Graph()
        graph.add_nodes_from(range(len(self.shell)))
        for a, b in self._edges:
            distance = float(np.linalg.norm(positions[a] - positions[b]))
            graph.add_edge(
                a,
                b,
                weight=distance / SPEED_OF_LIGHT_M_S + ISL_PROCESSING_DELAY_S,
                distance=distance,
            )
        return graph

    def _attach_ground(
        self, graph: nx.Graph, node_name: str, location: GeoPoint, t_s: float
    ) -> None:
        candidates = visible_satellites(
            self.shell, location, t_s, self.min_elevation_deg
        )
        if not candidates:
            raise VisibilityError(f"no satellite visible from {node_name} at t={t_s}")
        name_to_index = {sat.name: i for i, sat in enumerate(self.shell.satellites)}
        graph.add_node(node_name)
        for sample in candidates:
            graph.add_edge(
                node_name,
                name_to_index[sample.satellite],
                weight=sample.slant_range_m / SPEED_OF_LIGHT_M_S
                + GROUND_PROCESSING_DELAY_S,
                distance=sample.slant_range_m,
            )

    def route(self, src: GeoPoint, dst: GeoPoint, t_s: float) -> IslPath:
        """Latency-optimal space path from ``src`` to ``dst`` at ``t_s``.

        Raises:
            VisibilityError: if either endpoint sees no satellite, or no
                ISL path connects their access satellites.
        """
        import networkx as nx

        graph = self.graph_at(t_s)
        self._attach_ground(graph, "src", src, t_s)
        self._attach_ground(graph, "dst", dst, t_s)
        try:
            nodes = nx.shortest_path(graph, "src", "dst", weight="weight")
        except nx.NetworkXNoPath:
            raise VisibilityError("no ISL path between endpoints") from None
        latency = 0.0
        distance = 0.0
        for a, b in zip(nodes, nodes[1:]):
            latency += graph.edges[a, b]["weight"]
            distance += graph.edges[a, b]["distance"]
        hops = tuple(
            self.shell.satellites[n].name for n in nodes if isinstance(n, int)
        )
        return IslPath(hops=hops, latency_s=latency, distance_m=distance)
