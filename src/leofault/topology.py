"""+GRID inter-satellite topology, link snapshots, and ground visibility.

Each satellite links to its two neighbors within its orbital plane and to
the same-index satellite in each adjacent plane, giving a static degree-4
graph per shell (2*P*S undirected edges). Shells too small for the grid
(fewer than 3 planes or 3 satellites per plane) carry no links.

Link state is evaluated per timestep from propagated positions: grazing
altitude, segment length, and viability against a threshold. A scan
evaluates grazing altitude only, one step at a time over a time grid,
with the maneuver offsets active at each step; simulate and the ISL
altitude CDF both read link state that way. Steps are not batched into
(steps x edges) arrays: that raises peak memory without saving time.
Ground geometry reads satellites through the fleet arrays: visibility runs
come from one diff along time of a (steps x satellites) elevation matrix,
and all their edges are bisected together, each open edge at its own
midpoint and station position; the handover schedule takes, per step, the
highest elevation among the owners of open windows, lowest id on ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM
from .geometry import (
    DEFAULT_ISL_THRESHOLD_KM,
    GroundStation,
    elevation_angle,
    grazing_altitude,
    ground_station_eci,
    is_isl_viable,
)
from .faults import ManeuverEvent, offsets_at
from .orbital import Constellation, FleetArrays, SatelliteId, propagate_arrays, time_grid

INTRA_PLANE = "intra_plane"
CROSS_PLANE = "cross_plane"


@dataclass(frozen=True)
class IslLink:
    """State of one +GRID edge at a single timestep."""

    a: SatelliteId
    b: SatelliteId
    kind: str
    grazing_km: float
    length_km: float
    viable: bool


@dataclass(frozen=True)
class VisibilityWindow:
    """Maximal interval during which a satellite stays above min elevation."""

    gs_id: str
    sat: SatelliteId
    start_s: float
    end_s: float
    max_elevation_deg: float


def grid_edges(planes: int, sats_per_plane: int) -> List[Tuple[Tuple[int, int], Tuple[int, int], str]]:
    """Deduplicated +GRID edge list: ((plane, index), (plane, index), kind)."""
    if planes < 3 or sats_per_plane < 3:
        raise ValueError(
            f"+GRID needs at least 3 planes and 3 satellites per plane, "
            f"got {planes}x{sats_per_plane}"
        )
    edges = []
    for p in range(planes):
        for s in range(sats_per_plane):
            edges.append(((p, s), (p, (s + 1) % sats_per_plane), INTRA_PLANE))
            edges.append(((p, s), ((p + 1) % planes, s), CROSS_PLANE))
    return edges


class GridTopology:
    """Precomputed +GRID structure of a constellation for fast snapshots.

    Shell membership and grid dimensions are inferred from the satellite
    ids, which must form complete plane/index grids per shell (as built
    by build_constellation). Shells smaller than 3x3 contribute no edges.
    """

    def __init__(self, constellation: Constellation, earth_radius_km: float = EARTH_RADIUS_KM):
        self.earth_radius_km = earth_radius_km
        self._fleet = FleetArrays.from_constellation(constellation)
        self.sat_ids: List[SatelliteId] = self._fleet.sat_ids
        self._index_of = {sat: i for i, sat in enumerate(self.sat_ids)}

        shells: Dict[int, List[SatelliteId]] = {}
        for sat in self.sat_ids:
            shells.setdefault(sat.shell, []).append(sat)

        edge_pairs: List[Tuple[int, int]] = []
        edge_ids: List[Tuple[SatelliteId, SatelliteId]] = []
        kinds: List[str] = []
        for shell, members in sorted(shells.items()):
            planes = 1 + max(s.plane for s in members)
            per_plane = 1 + max(s.index for s in members)
            if planes < 3 or per_plane < 3:
                continue
            if len(members) != planes * per_plane:
                raise ValueError(
                    f"shell {shell} is not a complete {planes}x{per_plane} grid"
                )
            for (pa, sa), (pb, sb), kind in grid_edges(planes, per_plane):
                a = SatelliteId(shell, pa, sa)
                b = SatelliteId(shell, pb, sb)
                if b < a:
                    a, b = b, a
                edge_pairs.append((self._index_of[a], self._index_of[b]))
                edge_ids.append((a, b))
                kinds.append(kind)

        self.edge_ids = edge_ids
        self.edge_kinds = kinds
        self._edge_a = np.array([p[0] for p in edge_pairs], dtype=int)
        self._edge_b = np.array([p[1] for p in edge_pairs], dtype=int)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def positions(self, t_s: float, offsets: Optional[Mapping[SatelliteId, float]] = None) -> np.ndarray:
        """Positions of every satellite at t_s, shape (N, 3), km.

        offsets maps satellites of this topology to radial offsets in km.
        """
        offset_km: np.ndarray | float = 0.0
        if offsets:
            offset_km = np.zeros(len(self.sat_ids))
            for sat, dh_km in offsets.items():
                offset_km[self._index_of[sat]] = dh_km
        return self._fleet.propagate(t_s, offset_km)

    def _endpoints(
        self, t_s: float, offsets: Optional[Mapping[SatelliteId, float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        pos = self.positions(t_s, offsets)
        return pos.take(self._edge_a, axis=0), pos.take(self._edge_b, axis=0)

    def grazing(
        self, t_s: float, offsets: Optional[Mapping[SatelliteId, float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-edge (grazing_km, length_km) arrays at t_s."""
        p1, p2 = self._endpoints(t_s, offsets)
        dx, dy, dz = (p2 - p1).T
        length = np.sqrt(dx * dx + dy * dy + dz * dz)
        return grazing_altitude(p1, p2, self.earth_radius_km), length

    def scan(
        self, times: Sequence[float], maneuvers: Sequence[ManeuverEvent] = ()
    ) -> Iterator[Tuple[float, np.ndarray]]:
        """(t, per-edge grazing_km) at each time, one step at a time.

        Each step applies the offsets of the maneuvers (sorted by start)
        active at t.
        """
        for t in times:
            t = float(t)
            p1, p2 = self._endpoints(t, offsets_at(maneuvers, t))
            yield t, grazing_altitude(p1, p2, self.earth_radius_km)

    def snapshot(
        self,
        t_s: float,
        threshold_km: float = DEFAULT_ISL_THRESHOLD_KM,
        offsets: Optional[Mapping[SatelliteId, float]] = None,
    ) -> List[IslLink]:
        """All +GRID links evaluated at one instant."""
        grazing, length = self.grazing(t_s, offsets)
        viable = is_isl_viable(grazing, threshold_km)
        return [
            IslLink(
                a=a,
                b=b,
                kind=kind,
                grazing_km=float(g),
                length_km=float(l),
                viable=bool(v),
            )
            for (a, b), kind, g, l, v in zip(
                self.edge_ids, self.edge_kinds, grazing, length, viable
            )
        ]


def _bisect_crossings(
    fleet: FleetArrays,
    rows: np.ndarray,
    t_outside: np.ndarray,
    t_inside: np.ndarray,
    gs: GroundStation,
    earth_radius_km: float,
) -> np.ndarray:
    """Bisect the elevation threshold crossing of each fleet row to 0.1 s.

    Edge k of satellite rows[k] samples below the minimum elevation at
    t_outside[k] and at or above it at t_inside[k], in either temporal
    order. All edges still wider than the tolerance are halved together.
    """
    lo, hi = t_outside.copy(), t_inside.copy()
    open_ = np.flatnonzero(np.abs(hi - lo) > 0.1)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        r = rows[open_]
        pos = propagate_arrays(
            fleet.a_km[r], fleet.inclination_rad[r], fleet.raan_rad[r], fleet.phase_rad[r], mid
        )
        gs_pos = ground_station_eci(gs, mid, earth_radius_km)
        above = elevation_angle(gs_pos, pos) >= gs.min_elevation_deg
        hi[open_[above]] = mid[above]
        lo[open_[~above]] = mid[~above]
        open_ = open_[np.abs(hi[open_] - lo[open_]) > 0.1]
    return 0.5 * (lo + hi)


def visibility_windows(
    gs: GroundStation,
    constellation: Constellation,
    t0_s: float,
    t1_s: float,
    step_s: float,
    earth_radius_km: float = EARTH_RADIUS_KM,
) -> List[VisibilityWindow]:
    """Maximal above-min-elevation intervals per satellite.

    Sampled on a step_s grid; interval endpoints are refined by bisection
    to 0.1 s. max_elevation_deg is the largest sampled elevation within
    the window.
    """
    times = time_grid(t0_s, t1_s, step_s)
    fleet = FleetArrays.from_constellation(constellation)
    elevations = np.empty((len(times), len(fleet.sat_ids)))
    for k, t in enumerate(times):
        pos = fleet.propagate(float(t))
        gs_pos = ground_station_eci(gs, float(t), earth_radius_km)
        elevations[k] = elevation_angle(gs_pos, pos)

    # run boundaries per satellite: +1 at a run's first sample, -1 one past its last
    visible = (elevations >= gs.min_elevation_deg).T.astype(np.int8)
    steps = np.diff(visible, axis=1, prepend=0, append=0)
    sats, first = np.nonzero(steps == 1)
    last = np.nonzero(steps == -1)[1] - 1
    # start edges, then end edges; one inside the grid lies between an inner and an outer sample
    inner = np.concatenate([first, last])
    outer = np.concatenate([first - 1, last + 1])
    edges = times[inner]
    refine = (outer >= 0) & (outer < len(times))
    edges[refine] = _bisect_crossings(
        fleet, np.concatenate([sats, sats])[refine], times[outer[refine]], edges[refine],
        gs, earth_radius_km,
    )
    starts, ends = np.split(edges, 2)
    windows = [
        VisibilityWindow(gs.id, fleet.sat_ids[j], start, end, float(np.max(elevations[a : b + 1, j])))
        for j, a, b, start, end in zip(
            sats.tolist(), first.tolist(), last.tolist(), starts.tolist(), ends.tolist()
        )
        if end > start
    ]
    windows.sort(key=lambda w: (w.start_s, tuple(w.sat)))
    return windows


def handover_schedule(
    windows: Sequence[VisibilityWindow],
    gs: GroundStation,
    constellation: Constellation,
    step_s: float = 1.0,
    earth_radius_km: float = EARTH_RADIUS_KM,
) -> List[Tuple[float, SatelliteId, SatelliteId]]:
    """Attachment changes of a station tracking the highest-elevation satellite.

    The station attaches to the visible satellite with the highest
    elevation, ties broken by lowest satellite id; every
    satellite-to-satellite attachment change is reported as
    (time_s, from_sat, to_sat). Initial acquisition and loss of all
    coverage are not handovers and are not listed.
    """
    if not windows:
        return []
    if step_s <= 0.0:
        raise ValueError("step_s must be positive")

    # owners in id order, so argmax's first maximum is the lowest-id tie-break
    fleet = FleetArrays.from_constellation({w.sat: constellation[w.sat] for w in windows})
    owner_index = {sat: j for j, sat in enumerate(fleet.sat_ids)}
    starts = np.array([w.start_s for w in windows])
    ends = np.array([w.end_s for w in windows])
    owners = np.array([owner_index[w.sat] for w in windows])

    events: List[Tuple[float, SatelliteId, SatelliteId]] = []
    t_end = float(ends.max())
    current: Optional[SatelliteId] = None
    t = float(starts.min())
    while t <= t_end:
        active = owners[(starts <= t) & (t < ends)]
        best: Optional[SatelliteId] = None
        if active.size:
            gs_pos = ground_station_eci(gs, t, earth_radius_km)
            elevation = np.full(len(fleet.sat_ids), -np.inf)
            elevation[active] = elevation_angle(gs_pos, fleet.propagate(t)[active])
            best = fleet.sat_ids[int(np.argmax(elevation))]
        if best is not None and current is not None and best != current:
            events.append((t, current, best))
        current = best
        t += step_s
    return events
