"""+GRID inter-satellite topology, link snapshots, and ground visibility.

Each satellite links to its two neighbors within its orbital plane and to
the same-index satellite in each adjacent plane, giving a static degree-4
graph per shell (2*P*S undirected edges). Shells too small for the grid
(fewer than 3 planes or 3 satellites per plane) carry no links.

Link state is evaluated per timestep from propagated positions: grazing
altitude, segment length, and viability against a threshold. Over a time
grid one engine evaluates it: a step driver moves the maneuver offsets to
each time, and an edge kernel computes the grazing altitude of a set of
edges, propagating only their endpoints' rows as x, y, z planes (no (N, 3)
array is stacked; the endpoints are six 1-D gathers). scan, which the ISL
altitude CDF reads, passes every edge at every step. Steps are not batched
into (steps x edges) arrays: that raises peak memory without saving time.

simulate needs only viability, so its scan passes only the edges that are
due. Grazing altitude does not change when both endpoints rotate together,
so it may be measured in a frame turning at the mean (w_a + w_b) / 2 of
the orbits' angular-velocity vectors. There each endpoint moves at most at
|w_a - w_b| * r / 2, and every point of the segment, a convex combination
of the endpoints, moves at most as far as the farther endpoint; the
closest point to the center, and so grazing, changes at most at
L / 2 = |w_a - w_b| * max(r_a, r_b) / 2 km/s. An edge evaluated at t with
grazing g is next due at t + (|g - threshold| - slack) / (L / 2); until
then its viability cannot change, and it keeps the cached one. Same-plane
edges have L = 0 and are never due again unless a maneuver changes an
endpoint, which makes all that satellite's edges due and gives them a new
L. Both scans share the kernel, so every evaluated value equals scan's;
scan builds its endpoint rows once, the skip scan at each step.

The driver keeps the maneuver offsets as one dense per-satellite array,
touched only when a maneuver starts or ends (found by a pointer into the
start-sorted maneuvers and a heap of end times); only then are the radii
and mean motions recomputed. A satellite whose active maneuvers change
gets the left-to-right sum of their offsets in start order, clamped to
+-10 km, which is bit for bit what faults.offsets_at returns; a running
add and subtract would not be.

Ground geometry propagates satellites through the fleet arrays' planes.
Visibility evaluates a satellite only when it could be visible. With psi
the angle at the Earth's center between station and satellite, elevation
e or more needs psi <= psi_max = arccos(R cos e / r) - e, and psi changes
at most at n + w_Earth: the satellite's direction turns at its mean motion
n, the station's at most at the Earth's rate. A satellite evaluated at t
is next due at t + (psi - psi_max - slack) / (n + w_Earth), the slack
covering the rounding of computed angles; one at r <= R has no psi_max and
is due at every step. Each step evaluates only the due rows; per
satellite only the open run's first sample and highest elevation are
kept, and each run is closed as it ends. All run edges are then bisected
together, each open edge at its own midpoint and station position. The
handover schedule samples t0 + k*step from time_grid, the last sample
clipped to the last window end; each window covers a range of samples.
Whole samples are expanded into (sample, window) pairs in batches of about
8k pairs (one sample with more forms a batch alone), each batch propagated
and scored in one call; a sort on (sample, -elevation, id) picks each
sample's winner, lowest id on ties, and a handover is a change of winner
between consecutive covered samples.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, SIDEREAL_DAY_S, _check_range
from .geometry import (
    DEFAULT_ISL_THRESHOLD_KM,
    GroundStation,
    elevation_angle,
    _grazing_planes,
    grazing_altitude,
    ground_station_eci,
    is_isl_viable,
)
from .faults import MAX_TOTAL_OFFSET_KM, ManeuverEvent
from .orbital import Constellation, FleetArrays, SatelliteId, _mean_motion, time_grid

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
        _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
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
        r_km = self._fleet.a_km + offset_km
        return np.stack(self._fleet._planes(t_s, r_km=r_km, n_rad_s=_mean_motion(r_km)), axis=-1)

    def grazing(
        self, t_s: float, offsets: Optional[Mapping[SatelliteId, float]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-edge (grazing_km, length_km) arrays at t_s."""
        pos = self.positions(t_s, offsets)
        p1, p2 = pos.take(self._edge_a, axis=0), pos.take(self._edge_b, axis=0)
        dx, dy, dz = (p2 - p1).T
        length = np.sqrt(dx * dx + dy * dy + dz * dz)
        return grazing_altitude(p1, p2, self.earth_radius_km), length

    def scan(
        self, times: Sequence[float], maneuvers: Sequence[ManeuverEvent] = ()
    ) -> Iterator[Tuple[float, np.ndarray]]:
        """(t, per-edge grazing_km) at each time, one step at a time.

        Each step applies the offsets of the maneuvers active at t, as
        faults.offsets_at gives them. times must not decrease and
        maneuvers must be sorted by start_s; ValueError names the first
        entry out of order. Every step yields a fresh array.
        """
        every = self._endpoints(_blocks(np.arange(self.n_edges)))
        steps = self._steps(_checked_times(times, maneuvers), maneuvers)
        return ((t, self._edge_grazing(every, t, r, n)[: self.n_edges]) for t, r, n, _ in steps)

    def _steps(
        self, times: np.ndarray, maneuvers: Sequence[ManeuverEvent]
    ) -> Iterator[Tuple[float, np.ndarray, np.ndarray, List[int]]]:
        """(t, r_km, n_rad_s, changed) at each checked time: every row's orbit radius and
        mean motion under the maneuvers active at t, new only when some rows' offsets changed."""
        fleet = self._fleet
        offsets = _ManeuverOffsets(maneuvers, self._index_of, len(self.sat_ids))
        r_km, n_rad_s = fleet.a_km, _mean_motion(fleet.a_km)
        for t in times.tolist():
            changed = offsets.advance(t)
            if changed:
                r_km = fleet.a_km + offsets.km
                n_rad_s = _mean_motion(r_km)
            yield t, r_km, n_rad_s, changed

    def _endpoints(self, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, a, b) of edges padded by _blocks: the fleet rows of their
        endpoints, padded too, and each edge's endpoints as indices into rows."""
        a, b = self._edge_a.take(edges), self._edge_b.take(edges)
        used = np.zeros(len(self.sat_ids), dtype=bool)
        used[a] = used[b] = True
        rows = _blocks(np.flatnonzero(used))
        slot = np.empty(len(self.sat_ids), dtype=int)  # fleet row -> index among rows
        slot[rows] = np.arange(rows.size)
        return rows, slot.take(a), slot.take(b)

    def _edge_grazing(
        self,
        endpoints: Tuple[np.ndarray, np.ndarray, np.ndarray],
        t: float,
        r_km: np.ndarray,
        n_rad_s: np.ndarray,
    ) -> np.ndarray:
        """Grazing km at t of the edges whose _endpoints are given, one per entry;
        only the endpoints' rows are propagated, with their r_km and n_rad_s."""
        rows, a, b = endpoints
        x, y, z = self._fleet._planes(t, rows, r_km=r_km.take(rows), n_rad_s=n_rad_s.take(rows))
        return _grazing_planes(
            x.take(a), y.take(a), z.take(a), x.take(b), y.take(b), z.take(b),
            self.earth_radius_km,
        )

    def _viability_scan(
        self, times: Sequence[float], maneuvers: Sequence[ManeuverEvent], threshold_km: float
    ) -> Iterator[Tuple[float, np.ndarray, np.ndarray, np.ndarray, int]]:
        """Viability at each time, evaluating only the edges that are due.

        Yields (t, edges, grazing_km, flipped, infeasible): the ascending
        indices of the edges evaluated at t, their grazing altitudes, which
        of them changed viability since the previous time (none at the
        first), and how many edges are not viable at t. Viability, and
        the grazing of every evaluated edge, equal scan's values; times
        and maneuvers are checked as scan checks them.
        """
        times = _checked_times(times, maneuvers)
        edge_a, edge_b = self._edge_a, self._edge_b
        cos_i, sin_i, cos_o, sin_o = self._fleet._trig
        normal = (sin_i * sin_o, -sin_i * cos_o, cos_i)
        due_at = np.full(self.n_edges, -np.inf)
        viable = np.zeros(self.n_edges, dtype=bool)
        for k, (t, r_km, n_rad_s, changed) in enumerate(self._steps(times, maneuvers)):
            if not k:
                rate = _link_rate(edge_a, edge_b, r_km, n_rad_s, normal)
            elif changed:
                hit = np.flatnonzero(np.isin(edge_a, changed) | np.isin(edge_b, changed))
                rate[hit] = _link_rate(edge_a[hit], edge_b[hit], r_km, n_rad_s, normal)
                due_at[hit] = -np.inf
            edges = np.flatnonzero(due_at <= t)
            n, edges = edges.size, _blocks(edges)
            grazing = self._edge_grazing(self._endpoints(edges), t, r_km, n_rad_s)
            now = is_isl_viable(grazing, threshold_km)
            flipped = now != viable[edges] if k else np.zeros(edges.size, dtype=bool)
            viable[edges] = now
            margin = np.abs(grazing - threshold_km) - _SLACK_KM
            with np.errstate(divide="ignore", invalid="ignore"):
                due_at[edges] = np.where(margin > 0.0, t + margin / rate.take(edges), t)
            infeasible = self.n_edges - int(np.count_nonzero(viable))
            yield t, edges[:n], grazing[:n], flipped[:n], infeasible

    def snapshot(self, t_s: float, threshold_km: float = DEFAULT_ISL_THRESHOLD_KM) -> List[IslLink]:
        """All +GRID links evaluated at one instant."""
        grazing, length = self.grazing(t_s)
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


# km kept off every skipped edge's distance to the threshold: covers the
# rounding of computed grazing altitudes, which is below 1e-8 km
_SLACK_KM = 1e-3


def _link_rate(
    a: np.ndarray,
    b: np.ndarray,
    r_km: np.ndarray,
    n_rad_s: np.ndarray,
    normal: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Bound on |d grazing / dt| of the edges between fleet rows a and b, km/s.

    |w_a - w_b| * max(r_a, r_b) / 2, where w = n_rad_s * normal is the
    angular-velocity vector of each row's orbit, from x, y, z planes.
    """
    na, nb = n_rad_s.take(a), n_rad_s.take(b)
    dx, dy, dz = (na * c.take(a) - nb * c.take(b) for c in normal)
    return np.sqrt(dx * dx + dy * dy + dz * dz) * np.maximum(r_km.take(a), r_km.take(b)) * 0.5


def _blocks(index: np.ndarray) -> np.ndarray:
    """index repeated cyclically up to a whole number of 128-entry blocks.

    numpy keeps up to seven freed buffers of every size below 1 KiB, so
    per-step arrays of every length would pin megabytes over a long scan;
    in blocks they come in few sizes. Repeated entries give repeated,
    equal results.
    """
    return np.resize(index, index.size + -index.size % 128)


def _checked_times(times: Sequence[float], maneuvers: Sequence[ManeuverEvent]) -> np.ndarray:
    """times as an array; ValueError names the first time or maneuver start out of order."""
    times = np.asarray(times, dtype=float)
    bad = _first_out_of_order(times)
    if bad is not None:
        raise ValueError(f"times must not decrease: times[{bad}] is {times[bad]}")
    starts = np.array([m.start_s for m in maneuvers], dtype=float)
    bad = _first_out_of_order(starts)
    if bad is not None:
        raise ValueError(
            f"maneuvers must be sorted by start_s: maneuvers[{bad}] starts at {starts[bad]}"
        )
    return times


def _first_out_of_order(values: np.ndarray) -> Optional[int]:
    """Index of the first value that is NaN or below its predecessor."""
    bad = np.isnan(values)
    bad[1:] |= values[1:] < values[:-1]
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


class _ManeuverOffsets:
    """Per-satellite radial offsets of the maneuvers active at a forward-moving time.

    km[row] equals faults.offsets_at at the last time passed to advance,
    bit for bit, with 0.0 for satellites without a net offset. maneuvers
    must be sorted by start_s and the times must not decrease.
    """

    def __init__(
        self,
        maneuvers: Sequence[ManeuverEvent],
        index_of: Mapping[SatelliteId, int],
        n_sats: int,
    ) -> None:
        self.km = np.zeros(n_sats)
        self._maneuvers = maneuvers
        self._index_of = index_of
        self._next = 0
        self._ends: List[Tuple[float, int, int]] = []  # heap of (end_s, index, row)
        self._active: Dict[int, List[int]] = {}  # row -> active indices, in start order

    def advance(self, t_s: float) -> List[int]:
        """Move to t_s; returns the rows whose offset was recomputed."""
        maneuvers, active = self._maneuvers, self._active
        changed = set()
        while self._next < len(maneuvers) and maneuvers[self._next].start_s <= t_s:
            m = maneuvers[self._next]
            # one that ended by t_s, or whose end is NaN, is never active
            if t_s < m.end_s:
                row = self._index_of[m.sat]
                active.setdefault(row, []).append(self._next)
                heapq.heappush(self._ends, (m.end_s, self._next, row))
                changed.add(row)
            self._next += 1
        while self._ends and self._ends[0][0] <= t_s:
            _, index, row = heapq.heappop(self._ends)
            active[row].remove(index)
            changed.add(row)
        for row in changed:
            # summed from +0.0 as offsets_at sums, so a zero sum is +0.0, never -0.0
            total = 0.0
            for index in active[row]:
                total += maneuvers[index].dh_km
            self.km[row] = max(-MAX_TOTAL_OFFSET_KM, min(MAX_TOTAL_OFFSET_KM, total))
        return list(changed)


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
        pos = np.stack(fleet._planes(mid, rows[open_]), axis=-1)
        gs_pos = ground_station_eci(gs, mid, earth_radius_km)
        above = elevation_angle(gs_pos, pos) >= gs.min_elevation_deg
        hi[open_[above]] = mid[above]
        lo[open_[~above]] = mid[~above]
        open_ = open_[np.abs(hi[open_] - lo[open_]) > 0.1]
    return 0.5 * (lo + hi)


# rad kept off every skipped satellite's angle to its visibility limit: covers
# the rounding of computed angles, a few ulps of n * t (2e-9 rad at 1e7 rad,
# about three centuries after epoch)
_PSI_SLACK_RAD = 1e-6

# (sample, window) pairs handover_schedule scores in one batch of whole samples
_PAIRS_PER_BATCH = 8192


def _psi_rate(n_rad_s: np.ndarray) -> np.ndarray:
    """Bound on |d psi / dt| of satellites with mean motions n_rad_s, rad/s.

    The satellite's direction from the Earth's center turns at n, the
    station's at most at the Earth's rotation rate.
    """
    return n_rad_s + 2.0 * math.pi / SIDEREAL_DAY_S


def _geocentric_angle(elevation_deg, r_km: np.ndarray, earth_radius_km: float) -> np.ndarray:
    """Angle at the Earth's center between a station and a satellite at
    radius r_km seen at elevation_deg, rad: arccos(R cos e / r) - e."""
    e = np.radians(elevation_deg)
    return np.arccos(earth_radius_km * np.cos(e) / r_km) - e


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
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    times = time_grid(t0_s, t1_s, step_s)
    fleet = FleetArrays.from_constellation(constellation)
    r_km, n_sats = fleet.a_km, len(fleet.sat_ids)
    rate = _psi_rate(_mean_motion(r_km))
    with np.errstate(invalid="ignore"):
        # a row with r <= R has no usable limit; NaN keeps it due at every step
        psi_max = np.where(
            r_km > earth_radius_km, _geocentric_angle(gs.min_elevation_deg, r_km, earth_radius_km), np.nan
        )
    due_at = np.full(n_sats, -np.inf)
    first = np.full(n_sats, -1)  # first sample of each row's open run, -1 if none is open
    peak = np.empty(n_sats)  # highest sampled elevation of each open run
    runs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []  # (rows, first, last, peak)
    for k, t in enumerate(times.tolist()):
        rows = np.flatnonzero(due_at <= t)
        pos = np.stack(fleet._planes(t, rows), axis=-1)
        elevation = elevation_angle(ground_station_eci(gs, t, earth_radius_km), pos)
        above = elevation >= gs.min_elevation_deg
        is_open = first.take(rows) >= 0
        ended = rows[is_open & ~above]
        if ended.size:
            runs.append((ended, first.take(ended), np.full(ended.size, k - 1), peak.take(ended)))
            first[ended] = -1
        started = rows[above & ~is_open]
        first[started], peak[started] = k, -np.inf
        seen = rows[above]
        peak[seen] = np.maximum(peak.take(seen), elevation[above])
        with np.errstate(invalid="ignore"):
            margin = _geocentric_angle(elevation, r_km.take(rows), earth_radius_km)
            margin -= psi_max.take(rows) + _PSI_SLACK_RAD
            due_at[rows] = np.where(margin > 0.0, t + margin / rate.take(rows), t)
    still = np.flatnonzero(first >= 0)
    runs.append((still, first.take(still), np.full(still.size, len(times) - 1), peak.take(still)))
    sats, first, last, peak = (np.concatenate(column) for column in zip(*runs))

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
        VisibilityWindow(gs.id, fleet.sat_ids[j], start, end, high)
        for j, start, end, high in zip(sats.tolist(), starts.tolist(), ends.tolist(), peak.tolist())
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
    # time_grid checks step_s too, but only once there are windows to cover
    _check_range("step_s", step_s, 0.0, ends="()")
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    starts = np.array([w.start_s for w in windows])
    ends = np.array([w.end_s for w in windows])
    if not (windows and ends.max() > starts.min()):  # also NaN: no window is ever open
        return []

    # owners in id order, so the lowest row is the lowest-id tie-break
    fleet = FleetArrays.from_constellation({w.sat: constellation[w.sat] for w in windows})
    owner_index = {sat: j for j, sat in enumerate(fleet.sat_ids)}
    owners = np.array([owner_index[w.sat] for w in windows])
    times = time_grid(float(starts.min()), float(ends.max()), step_s)
    # window w is open (start <= t < end) at samples opens[w] <= k < closes[w]
    opens = np.searchsorted(times, starts)
    closes = np.maximum(np.searchsorted(times, ends), opens)
    n = times.size
    open_at = np.cumsum(np.bincount(opens, minlength=n + 1) - np.bincount(closes, minlength=n + 1))[:n]
    pairs_through = np.cumsum(open_at)  # (sample, window) pairs of samples 0..k
    events: List[Tuple[float, SatelliteId, SatelliteId]] = []
    last_k, last_row = -2, -1  # the last covered sample so far and its winner
    for s, e in _batches(pairs_through):
        w = np.flatnonzero((opens < e) & (closes > s))
        lo = np.maximum(opens[w], s)
        count = np.minimum(closes[w], e) - lo
        if not count.sum():
            continue
        # (sample, window) pairs, window by window
        w = np.repeat(w, count)
        k = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(w.size)
        rows = owners.take(w)
        pos = np.stack(fleet._planes(times.take(k), rows), axis=-1)
        gs_pos = ground_station_eci(gs, times[s:e], earth_radius_km).take(k - s, axis=0)
        order = np.lexsort((rows, -elevation_angle(gs_pos, pos), k))
        k, rows = k.take(order), rows.take(order)
        head = np.flatnonzero(np.diff(k, prepend=-1))  # each sample's winner leads its pairs
        k, rows = k.take(head), rows.take(head)
        before_k, before_row = np.append(last_k, k[:-1]), np.append(last_row, rows[:-1])
        hit = np.flatnonzero((k == before_k + 1) & (rows != before_row))
        events.extend(
            (t, fleet.sat_ids[a], fleet.sat_ids[b])
            for t, a, b in zip(times.take(k[hit]).tolist(), before_row[hit].tolist(), rows[hit].tolist())
        )
        last_k, last_row = int(k[-1]), int(rows[-1])
    return events


def _batches(pairs_through: np.ndarray) -> Iterator[Tuple[int, int]]:
    """Sample ranges [s, e) in order, each of whole samples holding at most
    _PAIRS_PER_BATCH pairs, or of one sample that alone holds more;
    pairs_through[k] counts the pairs of samples 0..k."""
    s = 0
    while s < pairs_through.size:
        done = int(pairs_through[s - 1]) if s else 0
        e = max(int(np.searchsorted(pairs_through, done + _PAIRS_PER_BATCH, side="right")), s + 1)
        yield s, e
        s = e
