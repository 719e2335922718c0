"""+GRID inter-satellite topology, link snapshots, and ground visibility.

Each satellite links to its two neighbors within its orbital plane and to
the same-index satellite in each adjacent plane, giving a static degree-4
graph per shell (2*P*S undirected edges). Shells too small for the grid
(fewer than 3 planes or 3 satellites per plane) carry no links. Every
function here takes the fleet as orbital.FleetArrays (FleetArrays.of
converts a dict once); a shell is a run of its id-ordered rows.

Link state is evaluated per timestep from propagated positions: grazing
altitude, segment length, and viability against a threshold. Over a time
grid one engine evaluates it: a step driver applies a schedule of maneuver
offset changes made before the scan, and an edge kernel computes the
grazing altitude of the links it is given as two fleet rows per sample, at
one time or one per sample, propagating both ends as x, y, z planes (no
(N, 3) array is stacked). scan passes every edge at every step; the ISL
altitude CDF passes one edge per Walker symmetry class, which scan's
values of the other edges round to (see stats). Batching all steps into
(steps x edges) arrays was measured to raise peak memory, not save time.

simulate needs only viability, so its scan passes only the edges that are
due. Grazing altitude does not change when both endpoints rotate together,
so it may be measured in a frame turning at the mean (w_a + w_b) / 2 of
the orbits' angular-velocity vectors. There each endpoint moves at most at
|w_a - w_b| * r / 2, and every point of the segment, a convex combination
of the endpoints, moves at most as far as the farther endpoint; the
closest point to the center, and so grazing, changes at most at L / 2 =
|w_a - w_b| * max(r_a, r_b) / 2 km/s. An edge evaluated at t with grazing
g is next due at t + (|g - threshold| - slack) / (L / 2); until then its
viability cannot change, and it keeps the cached one. Same-plane edges
have L = 0 and are never due again unless a maneuver changes an endpoint,
which makes all that satellite's edges due and gives them a new L. The
skip scan runs in blocks of at most _BLOCK_STEPS steps, split where a
maneuver changes an offset, so radii, mean motions and bounds hold within
a block. It yields once per block, its (step, edge) pairs unsorted, with
their viability and flips and the infeasible count of each step. Both
scans share the kernel, so every evaluated value equals scan's, and
_isl_transition_trace turns its flips into the trace's ISL events.

Both skip scans, of links and of ground visibility, evaluate a block in
two calls (_due_rounds): each row due in it once, at its first due step,
then each row due again, at every step of the block from then on. A
skipped sample is certified to keep its row's state, the cached viability
or being below the minimum elevation, so any superset of the due samples
gives the same flips, grazing bits and infeasible counts, and the same
runs, peaks and bisected edges; blocks spend a few such samples to save
calls.

In that schedule each maneuver is active from the first time at or after
its start to the first at or after its end, both found by searchsorted,
and one walk over these steps in order gives, wherever some satellites'
active maneuvers change, their new offsets: the left-to-right sum of the
offsets in start order, clamped to +-10 km, bit for bit what
faults.offsets_at returns (a running add and subtract would not be). The
driver keeps them in one dense per-satellite array and recomputes radii
and mean motions only at those steps.

Ground geometry propagates satellites through the fleet arrays' planes.
Visibility evaluates a satellite only when it could be visible. With psi
the angle at the Earth's center between station and satellite, elevation
e or more needs psi <= psi_max = arccos(R cos e / r) - e, and psi changes
at most at n + w_Earth: the satellite's direction turns at its mean motion
n, the station's at most at the Earth's rate. A satellite evaluated at t
is next due at t + (psi - psi_max - slack) / (n + w_Earth), the slack
covering the rounding of computed angles; one at r <= R has no psi_max and
is due at every step. The slack certifies the skip while the phase n * |t|
stays within about 1e7 rad, |t| up to some 8e9 s (250 years) for any orbit
above the surface; farther out a skipped sample may be above. The scan
runs in blocks of _BLOCK_STEPS steps in the two rounds above; a block's
samples above the minimum elevation, by (row, step), form runs of
consecutive steps, and a run that reaches its last step stays open into
the next block. All run edges are then bisected together, each at its own
midpoint and station position, until 0.1 s wide or its midpoint rounds to
an end.

The handover schedule samples t0 + k*step from time_grid, the last sample
clipped to the last window end; each window covers a range of samples.
Whole samples are expanded into (sample, window) pairs in blocks of as
many samples as hold 8k pairs at the peak count of open windows (at
least one sample), each block propagated and scored in one call; a sort
on (sample, -elevation, id) picks each sample's winner, lowest id on
ties, and a handover is a change of winner between consecutive covered
samples.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, SIDEREAL_DAY_S, _check_range, _first_out_of_order
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


class GridTopology:
    """Precomputed +GRID structure of a constellation for fast snapshots.

    Shell membership and grid dimensions are inferred from the satellite
    ids, which must form complete plane/index grids per shell (as built
    by build_constellation). Shells smaller than 3x3 contribute no edges.
    """

    def __init__(self, constellation: Constellation, earth_radius_km: float = EARTH_RADIUS_KM):
        _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
        self.earth_radius_km = earth_radius_km
        self._fleet = fleet = FleetArrays.of(constellation)

        # rows are in id order, so each shell is one run of rows
        starts = np.flatnonzero(np.diff(fleet.shell, prepend=-1)).tolist()
        ends = [np.empty((2, 0), dtype=int)]
        kinds: List[str] = []
        for lo, hi in zip(starts, starts[1:] + [len(fleet)]):
            planes = 1 + int(fleet.plane[lo:hi].max())
            per_plane = 1 + int(fleet.index[lo:hi].max())
            if planes < 3 or per_plane < 3:
                continue
            if hi - lo != planes * per_plane:  # ids are distinct and non-negative
                raise ValueError(f"shell {fleet.shell[lo]} is not a complete {planes}x{per_plane} grid")
            # rows are lo + plane * per_plane + index; per row, its intra- then cross-plane edge
            grid = lo + np.arange(hi - lo).reshape(planes, per_plane)
            a = np.repeat(grid.ravel(), 2)
            b = np.stack([np.roll(grid, -1, axis=1), np.roll(grid, -1, axis=0)], axis=-1).ravel()
            ends.append(np.array([np.minimum(a, b), np.maximum(a, b)]))
            kinds += [INTRA_PLANE, CROSS_PLANE] * grid.size

        self._edge_a, self._edge_b = np.concatenate(ends, axis=1)
        self.edge_kinds = kinds

    @property
    def sat_ids(self) -> List[SatelliteId]:
        return self._fleet.sat_ids

    @cached_property
    def edge_ids(self) -> List[Tuple[SatelliteId, SatelliteId]]:
        """(a, b) satellite ids of each edge, built on first use: simulate never reads them."""
        ids = self.sat_ids
        return [(ids[a], ids[b]) for a, b in zip(self._edge_a.tolist(), self._edge_b.tolist())]

    @property
    def n_edges(self) -> int:
        return self._edge_a.size

    @cached_property
    def _symmetry_classes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(class_of, reps, members): each edge's class, each class's lowest edge, which stands for
        it, and the edges grouped by class, in edge order; built on first use: only isl-cdf reads it.

        A shell's intra-plane edges form one class, and with F = 0 so do its cross-plane
        edges (p, s)-(p+1, s) of each index s. An edge stays in its class only if its
        endpoints have its representative's radius and inclination, its RAAN and phase steps
        are within _CLASS_RAD of the representative's, and, cross-plane, its first endpoint
        has the representative's phase; all others are classes of one.
        """
        edge_a, edge_b, fleet = self._edge_a, self._edge_b, self._fleet
        # each row's two edges come in turn, intra- then cross-plane, both from the row they share
        a2, b2 = edge_a.reshape(-1, 2), edge_b.reshape(-1, 2)
        src = np.repeat(np.where((a2[:, 0] == a2[:, 1]) | (a2[:, 0] == b2[:, 1]), a2[:, 0], b2[:, 0]), 2)
        dst = np.where(edge_a == src, edge_b, edge_a)
        shell, index = fleet.shell, fleet.index
        cross = np.arange(self.n_edges) % 2 == 1
        # a shell's edges are contiguous, in shell order: base is its first, and row (0, s)'s are base + 2s, + 1
        shell = shell.take(src)
        base = np.searchsorted(shell, shell)
        rep = np.where(cross, base + 2 * index.take(src) + 1, base)
        same = np.ones(self.n_edges, dtype=bool)
        for column in (fleet.a_km, fleet.inclination_rad):
            same &= (column.take(src) == column.take(src.take(rep))) & (column.take(dst) == column.take(dst.take(rep)))
        for angle in (fleet.raan_rad, fleet.phase_rad):
            step = angle.take(dst) - angle.take(src)
            same &= np.abs((step - step.take(rep) + math.pi) % (2.0 * math.pi) - math.pi) <= _CLASS_RAD
        same &= ~cross | (fleet.phase_rad.take(src) == fleet.phase_rad.take(src.take(rep)))
        leader = np.where(same, rep, np.arange(self.n_edges))
        reps = np.flatnonzero(np.bincount(leader))
        class_of = np.searchsorted(reps, leader)
        return class_of, reps, np.argsort(class_of, kind="stable")

    def positions(self, t_s: float, offsets: Optional[Mapping[SatelliteId, float]] = None) -> np.ndarray:
        """Positions of every satellite at t_s, shape (N, 3), km.

        offsets maps satellites of this topology to finite radial offsets in km;
        ValueError names a t_s that is not a finite number and the first offset that is not such.
        """
        _number("t_s", t_s)
        offset_km: np.ndarray | float = 0.0
        if offsets:
            offset_km = np.zeros(len(self._fleet))
            for sat, dh_km in offsets.items():
                if sat not in self._fleet:
                    raise ValueError(f"offsets key {sat} is not a satellite of this topology")
                offset_km[self._fleet._row_of[sat]] = _number(f"offsets[{sat}]", dh_km)
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
        faults.offsets_at gives them. times must be finite and must not
        decrease, and maneuvers must be sorted by a start_s that is a
        number, each on a satellite of this topology, with a finite dh_km
        and a dwell_s that is not NaN; ValueError names the first entry
        that is not. Every
        step yields a fresh array.
        """
        times = _checked_times(times, maneuvers, self._fleet._row_of)
        steps = zip(times.tolist(), self._steps(times, maneuvers))
        return ((t, self._edge_grazing(self._edge_a, self._edge_b, t, r, n)) for t, (_, _, r, n, _) in steps)

    def _steps(
        self, times: np.ndarray, maneuvers: Sequence[ManeuverEvent], most: int = 1
    ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray, List[int]]]:
        """(s, e, r_km, n_rad_s, changed) for blocks times[s:e] of at most `most` checked times,
        a new one starting wherever some rows' offsets change: every row's orbit radius and mean
        motion under the maneuvers active throughout the block, and the rows changed at times[s]."""
        a_km, offset_km = self._fleet.a_km, np.zeros(len(self._fleet))
        r_km, n_rad_s = a_km, _mean_motion(a_km)
        s, head = 0, []
        for k, rows, km in chain(_offset_changes(times, maneuvers, self._fleet._row_of), [(times.size, [], [])]):
            for b in range(s, k, most):
                yield b, min(b + most, k), r_km, n_rad_s, head if b == s else []
            s, head = k, rows
            offset_km[rows] = km
            r_km = a_km + offset_km
            n_rad_s = _mean_motion(r_km)

    def _edge_grazing(
        self, a: np.ndarray, b: np.ndarray, t: np.ndarray | float, r_km: np.ndarray, n_rad_s: np.ndarray
    ) -> np.ndarray:
        """Grazing km of the links between fleet rows a and b, at one time t or one per link."""
        # the planes go straight into the call, whose frame alone then holds them, so _grazing_planes frees them
        planes = self._fleet._planes
        return _grazing_planes(
            planes(t, a, r_km=r_km.take(a), n_rad_s=n_rad_s.take(a)),
            planes(t, b, r_km=r_km.take(b), n_rad_s=n_rad_s.take(b)),
            self.earth_radius_km,
        )

    def _viability_scan(
        self, times: Sequence[float], maneuvers: Sequence[ManeuverEvent], threshold_km: float
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Viability at each time, a block of steps at a time, evaluating only the edges that are due.

        Yields (t, at, edges, grazing_km, viable, flipped, infeasible) per
        block: its times; the (step, edge) pairs evaluated in it, as
        indices into t and edge indices, each pair once and in no set
        order; their grazing altitudes and viability; which pairs changed
        viability since the edge's previous time (none at the first time);
        and how many edges are not viable at each of its times. Viability,
        and the grazing of every evaluated edge, equal scan's values;
        times and maneuvers are checked as scan checks them.
        """
        times = _checked_times(times, maneuvers, self._fleet._row_of)
        edge_a, edge_b = self._edge_a, self._edge_b
        cos_i, sin_i, cos_o, sin_o = self._fleet._trig
        normal = (sin_i * sin_o, -sin_i * cos_o, cos_i)
        due_at = np.full(self.n_edges, -np.inf)
        viable = np.zeros(self.n_edges, dtype=bool)  # all down before step 0
        infeasible = self.n_edges
        for s, e, r_km, n_rad_s, changed in self._steps(times, maneuvers, _BLOCK_STEPS):
            if not s:
                rate = _link_rate(edge_a, edge_b, r_km, n_rad_s, normal)
            elif changed:
                moved = np.zeros(len(self._fleet), dtype=bool)
                moved[changed] = True
                hit = np.flatnonzero(moved.take(edge_a) | moved.take(edge_b))
                rate[hit] = _link_rate(edge_a[hit], edge_b[hit], r_km, n_rad_s, normal)
                due_at[hit] = -np.inf
            t, rounds = times[s:e], []

            def sample(edges, edge, at, start, end):
                k, at, edge = at.size, _blocks(at), _blocks(edge)
                grazing = self._edge_grazing(edge_a.take(edge), edge_b.take(edge), t.take(at), r_km, n_rad_s)
                now = is_isl_viable(grazing, threshold_km)
                before = now.take(np.arange(-1, k - 1))  # the previous pair's viability,
                before[start] = viable.take(edges)  # or the cached one at each edge's first
                rounds.append((at[:k], edge[:k], grazing[:k], now[:k], now[:k] != before))
                viable[edges] = now.take(end)  # each edge's last sample sets its viability
                return np.abs(grazing.take(end) - threshold_km) - _SLACK_KM

            _due_rounds(t, due_at, rate, sample)
            at, edge, grazing, now, flipped = (np.concatenate(c) for c in zip(*rounds))
            # infeasible counts run on through the block's down flips less its up flips
            drift = np.cumsum(np.bincount(at, flipped * (1 - 2 * now), t.size)).astype(int)
            infeasible_at = infeasible + drift
            infeasible = int(infeasible_at[-1])
            if not s:
                flipped &= at > 0  # step 0 has no previous time to flip from
            yield t, at, edge, grazing, now, flipped, infeasible_at

    def snapshot(self, t_s: float, threshold_km: float = DEFAULT_ISL_THRESHOLD_KM) -> List[IslLink]:
        """All +GRID links evaluated at one instant; t_s is checked as positions checks it."""
        grazing, length = self.grazing(t_s)
        viable = is_isl_viable(grazing, threshold_km)
        return [
            IslLink(a, b, kind, g, l, v)
            for (a, b), kind, g, l, v in zip(
                self.edge_ids, self.edge_kinds, grazing.tolist(), length.tolist(), viable.tolist()
            )
        ]


def _isl_transition_trace(
    topo: GridTopology, times: Sequence[float], maneuvers: Sequence[ManeuverEvent], threshold_km: float,
    samples: Counter,
) -> Iterator[tuple]:
    """ISL transition rows, (t, kind, a, b, grazing_km), at the given times in sort_key
    order, one block of steps at a time; sets "total" to the (link, step) sample count
    and counts the "infeasible" ones, those actually "evaluated" and the scan's "blocks".

    One lexsort orders a block's flips by (step, kind, a row, b row): a
    step's flips share t, "isl_down" sorts before "isl_up", and rows are in
    id order with a < b on every edge, so this is sort_key order.
    """
    samples["total"] = len(times) * topo.n_edges
    if topo.n_edges == 0:
        return
    sat_ids, edge_a, edge_b = topo.sat_ids, topo._edge_a, topo._edge_b
    for t, at, edges, grazing, viable, flipped, infeasible in topo._viability_scan(times, maneuvers, threshold_km):
        samples["blocks"] += 1
        samples["infeasible"] += int(infeasible.sum())
        samples["evaluated"] += edges.size
        at, edges, grazing, viable = (c.compress(flipped) for c in (at, edges, grazing, viable))
        order = np.lexsort((edge_b.take(edges), edge_a.take(edges), viable, at))
        grazing, edges = grazing.take(order), edges.take(order)
        columns = (at.take(order), viable.take(order), edge_a.take(edges), edge_b.take(edges), grazing)
        step_t = t.tolist()  # a step's rows share one time object, whose text the writer makes once
        yield from [(step_t[k], "isl_up" if up else "isl_down", sat_ids[a], sat_ids[b], g)
                    for k, up, a, b, g in zip(*(c.tolist() for c in columns))]


def _class_samples(
    topo: GridTopology, times: np.ndarray, near: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(grazing_km, group, weight) of the link samples at the times, a block of steps at a time.

    Each step evaluates one representative edge per symmetry class. Where
    near(grazing, eps) is False, with eps the class bound _class_eps, the
    value is group c < class count and stands for class c's weight = size
    samples; the caller's rule must then give each member's value what it
    gives the representative's. Where it is True, each member of the class
    is evaluated: group class count + e, weight 1, for edge e.
    """
    class_of, reps, members = topo._symmetry_classes
    edge_a, edge_b = topo._edge_a, topo._edge_b
    size = np.bincount(class_of)
    first = np.cumsum(size) - size  # each class's first entry in members
    rep_a, rep_b = edge_a.take(reps), edge_b.take(reps)
    for s, e, r_km, n_rad_s, _ in topo._steps(times, (), max(1, _CLASS_ROWS // (2 * reps.size))):
        t = times[s:e]
        grazing = topo._edge_grazing(np.tile(rep_a, t.size), np.tile(rep_b, t.size), t.repeat(reps.size), r_km, n_rad_s)
        grazing = grazing.reshape(t.size, reps.size)
        flagged = (size > 1) & near(grazing, _class_eps(topo._fleet, t)[:, None])
        kept = ~flagged
        # every member of a flagged class at that step, class by class
        step, c = np.nonzero(flagged)
        count = size.take(c)
        edges = members.take(np.repeat(first.take(c) - np.cumsum(count) + count, count) + np.arange(count.sum()))
        alone = topo._edge_grazing(edge_a.take(edges), edge_b.take(edges), t.take(step.repeat(count)), r_km, n_rad_s)
        classes = np.nonzero(kept)[1]
        yield (np.concatenate([grazing[kept], alone]), np.concatenate([classes, reps.size + edges]),
               np.concatenate([size.take(classes), np.ones(edges.size, dtype=size.dtype)]))


def _class_minima(
    topo: GridTopology, times: np.ndarray, near: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Each edge's least grazing km over the times, from _class_samples: its class's or its own."""
    class_of, reps, _ = topo._symmetry_classes
    least = np.full(reps.size + topo.n_edges, np.inf)
    for grazing, group, _ in _class_samples(topo, times, near):
        np.minimum.at(least, group, grazing)
    return np.minimum(least.take(class_of), least[reps.size:])


def _class_eps(fleet: FleetArrays, t: np.ndarray) -> np.ndarray:
    """km by which a class member's grazing may differ from its representative's at each time t.

    The kernel's products and the membership tolerance each move grazing
    by well under 2**-39 of the largest radius r; the argument of latitude
    u = phase + n * t rounds by up to |u| * 2**-53 per endpoint, which
    moves grazing by at most r times that, and the bound takes 128 times it.
    """
    u = np.abs(fleet.phase_rad).max() + _mean_motion(fleet.a_km).max() * np.abs(t)
    return fleet.a_km.max() * 2.0**-39 * (1.0 + u / 64.0)


# km kept off every skipped edge's distance to the threshold: covers the
# rounding of computed grazing altitudes, below 1e-8 km near epoch and growing
# with |t| through u = phase + n * t (links equal in exact arithmetic differ by
# 1.3e-7 km at t = 1e9 s)
_SLACK_KM = 1e-3

# most steps per block of _viability_scan: longer ones make fewer calls but evaluate more samples
_BLOCK_STEPS = 16

# rad an edge's RAAN and phase steps may differ from its class representative's; in
# build_constellation's shells they differ by a few ulps of 2 pi, about 1e-15
_CLASS_RAD = 1e-13

# about how many endpoint rows, two per link sample, _class_samples propagates per call
# for the class representatives
_CLASS_ROWS = 2**12


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


def _due_rounds(t: np.ndarray, due_at: np.ndarray, rate: np.ndarray, sample: Callable[..., np.ndarray]) -> None:
    """Evaluate the rows due in a block of times t in two rounds and move their due times on.

    Round 1 takes each row due in the block once, at its first due step;
    round 2 each row due again, at every step from then to the block's end.
    sample(rows, row, at, start, end) evaluates row[i] at step at[i], the
    samples of rows[j] from start[j] to end[j] in step order, and returns
    each row's margin at its last sample: with m > 0 it is next due m / rate
    later, else at the next step.
    """
    last = t.size - 1
    rows = np.flatnonzero(due_at <= t[-1])
    at = np.searchsorted(t, due_at.take(rows))
    row, start = rows, np.arange(rows.size)
    end = start
    for again in (False, True):
        margin = sample(rows, row, at, start, end)
        t_end = t.take(at.take(end))
        with np.errstate(divide="ignore", invalid="ignore"):
            due_at[rows] = np.where(margin > 0.0, t_end + margin / rate.take(rows), t_end)
        if again:
            return
        first = np.maximum(at + 1, np.searchsorted(t, due_at.take(rows)))
        rows, first = rows[first <= last], first[first <= last]
        count = last + 1 - first
        start = np.cumsum(count) - count
        end = start + count - 1
        at = np.repeat(first - start, count) + np.arange(int(count.sum()))
        row = np.repeat(rows, count)


def _blocks(index: np.ndarray) -> np.ndarray:
    """index padded with copies of its first entry up to a whole number of 128-entry blocks.

    numpy keeps up to seven freed buffers of every size below 1 KiB, so
    per-round arrays of every length would pin megabytes over a long scan;
    in blocks they come in few sizes. Repeated entries give repeated,
    equal results.
    """
    return np.concatenate([index, index[:1].repeat(-index.size % 128)])


def _checked_times(
    times: Sequence[float], maneuvers: Sequence[ManeuverEvent], index_of: Mapping[SatelliteId, int]
) -> np.ndarray:
    """times as an array; ValueError names the first time that is infinite or out of order, the first
    maneuver start_s that is no number (or beyond the float range), the first maneuver start out of
    order, or the first maneuver whose sat is not in index_of, whose dh_km is not a finite number or
    whose dwell_s is no number or NaN (faults.offsets_at and the scan would disagree)."""
    times = np.asarray(times, dtype=float)
    bad = _first_out_of_order(times)
    if bad is not None:
        raise ValueError(f"times must not decrease: times[{bad}] is {times[bad]}")
    infinite = np.flatnonzero(np.isinf(times))
    if infinite.size:
        raise ValueError(f"times must be finite: times[{infinite[0]}] is {times[infinite[0]]}")
    starts = np.array([_number(f"maneuvers[{i}].start_s", m.start_s, finite=False) for i, m in enumerate(maneuvers)])
    bad = _first_out_of_order(starts)
    if bad is not None:
        raise ValueError(
            f"maneuvers must be sorted by start_s: maneuvers[{bad}] starts at {starts[bad]}"
        )
    for i, m in enumerate(maneuvers):
        if m.sat not in index_of:
            raise ValueError(f"maneuvers[{i}].sat {m.sat} is not a satellite of this topology")
        _number(f"maneuvers[{i}].dh_km", m.dh_km)
        if math.isnan(_number(f"maneuvers[{i}].dwell_s", m.dwell_s, finite=False)):
            raise ValueError(f"maneuvers[{i}].dwell_s must not be NaN")
    return times


def _number(name: str, value, finite: bool = True) -> float:
    """value as a float; ValueError names name if it is a bool or no real number, lies beyond the
    float range or, unless finite is False, is not finite."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be within the float range") from None
    if finite and not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value}")
    return number


def _offset_changes(
    times: np.ndarray, maneuvers: Sequence[ManeuverEvent], index_of: Mapping[SatelliteId, int]
) -> Iterator[Tuple[int, List[int], List[float]]]:
    """(k, rows, km) at each step k where some rows' active maneuvers change: those rows and
    their offsets from times[k] on, bit for bit faults.offsets_at's (0.0 for none). Maneuver i
    is active at steps first[i] <= k < stop[i], where start_s <= times[k] < end_s, and never if
    end_s is NaN, which searchsorted puts after every time; one walk over the starts and stops
    in step order keeps each row's active maneuvers in start order."""
    row = [index_of[m.sat] for m in maneuvers]
    start_s, end_s = np.array([(m.start_s, m.end_s) for m in maneuvers], dtype=float).reshape(-1, 2).T
    first, stop = np.searchsorted(times, start_s), np.searchsorted(times, end_s)
    live = np.flatnonzero((first < stop) & ~np.isnan(end_s))
    # stable: a step's starts come in start order, before its stops; stops after the last time go
    on = np.concatenate([first[live], stop[live]])
    order = np.argsort(on, kind="stable")[: np.count_nonzero(on < times.size)]
    events = zip(on[order].tolist(), np.tile(live, 2)[order].tolist(), (order < live.size).tolist())
    active: Dict[int, List[int]] = {}  # row -> active maneuvers, in start order
    for k, group in groupby(events, key=itemgetter(0)):
        rows = set()
        for _, i, starts in group:
            if starts:
                active.setdefault(row[i], []).append(i)
            else:
                active[row[i]].remove(i)
            rows.add(row[i])
        km = []
        for r in rows:
            # left to right from +0.0 as offsets_at sums: never -0.0, and not sum(), which compensates on 3.12+
            total = 0.0
            for i in active[r]:
                total += maneuvers[i].dh_km
            km.append(max(-MAX_TOTAL_OFFSET_KM, min(MAX_TOTAL_OFFSET_KM, total)))
        yield k, list(rows), km


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
    order. All edges still wider than the tolerance are halved together;
    one whose midpoint rounds to an end, where floats are spaced over
    0.1 s apart, is as narrow as it gets.
    """
    lo, hi = t_outside.copy(), t_inside.copy()
    open_ = np.flatnonzero(np.abs(hi - lo) > 0.1)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        split = (mid != lo[open_]) & (mid != hi[open_])
        open_, mid = open_[split], mid[split]
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
    fleet = FleetArrays.of(constellation)
    r_km, n_sats = fleet.a_km, len(fleet)
    rate = _psi_rate(_mean_motion(r_km))
    with np.errstate(invalid="ignore"):
        # psi_max plus the slack; a row with r <= R has no usable limit, and NaN keeps it due at every step
        psi_limit = np.where(
            r_km > earth_radius_km, _geocentric_angle(gs.min_elevation_deg, r_km, earth_radius_km), np.nan
        ) + _PSI_SLACK_RAD
    due_at = np.full(n_sats, -np.inf)
    # (rows, first, last, peak) of each block's closed runs, and of the open runs, which end at the last step so far
    closed: List[Tuple[np.ndarray, ...]] = []
    still_open = (np.empty(0, dtype=int),) * 3 + (np.empty(0),)
    gs_pos = ground_station_eci(gs, times, earth_radius_km)
    for s in range(0, times.size, _BLOCK_STEPS):
        t, gs_t, seen = times[s:s + _BLOCK_STEPS], gs_pos[s:s + _BLOCK_STEPS], [still_open]

        def sample(rows, row, at, start, end):
            pos = np.stack(fleet._planes(t.take(at), row), axis=-1)
            elevation = elevation_angle(gs_t.take(at, axis=0), pos)
            up = elevation >= gs.min_elevation_deg
            k = at[up] + s
            seen.append((row[up], k, k, elevation[up]))
            with np.errstate(invalid="ignore"):
                return _geocentric_angle(elevation.take(end), r_km.take(rows), earth_radius_km) - psi_limit.take(rows)

        _due_rounds(t, due_at, rate, sample)
        # the samples above, each open run standing for its samples so far, by (row, step): the parts
        # are in row order, a row's steps rise from part to part, and the sort by row is stable
        parts = [np.concatenate(column) for column in zip(*seen)]
        order = np.argsort(parts[0], kind="stable")
        row, first, k, high = (column.take(order) for column in parts)
        # a run is a stretch of one row's samples at consecutive steps, as a skipped sample is
        # below; steps rise along it, so its last is its highest
        head = np.flatnonzero((np.diff(row, prepend=-1) != 0) | (np.diff(k, prepend=-2) != 1))
        run = (row.take(head), first.take(head), np.maximum.reduceat(k, head), np.maximum.reduceat(high, head))
        still = run[2] == s + t.size - 1  # runs that reach the block's last step stay open
        closed.append(tuple(column[~still] for column in run))
        still_open = tuple(column[still] for column in run)
    sats, first, last, peak = (np.concatenate(column) for column in zip(*closed, still_open))

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
    coverage are not handovers and are not listed. ValueError names the
    first window of another station or of a satellite not in constellation.
    """
    # time_grid checks step_s too, but only once there are windows to cover
    _check_range("step_s", step_s, 0.0, ends="()")
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    fleet = FleetArrays.of(constellation)
    for i, w in enumerate(windows):
        if w.gs_id != gs.id:
            raise ValueError(f"windows[{i}] is a window of station {w.gs_id!r}, not of {gs.id!r}")
        if w.sat not in fleet:
            raise ValueError(f"windows[{i}].sat {w.sat} is not a satellite of constellation")
    starts = np.array([w.start_s for w in windows])
    ends = np.array([w.end_s for w in windows])
    if not (windows and ends.max() > starts.min()):  # also NaN: no window is ever open
        return []

    # fleet rows are in id order, so the lowest row is the lowest-id tie-break
    owners = np.array([fleet._row_of[w.sat] for w in windows])
    times = time_grid(float(starts.min()), float(ends.max()), step_s)
    # window w is open (start <= t < end) at samples opens[w] <= k < closes[w]
    opens = np.searchsorted(times, starts)
    closes = np.maximum(np.searchsorted(times, ends), opens)
    n = times.size
    open_at = np.cumsum(np.bincount(opens, minlength=n + 1) - np.bincount(closes, minlength=n + 1))[:n]
    most = max(1, _PAIRS_PER_BATCH // max(1, int(open_at.max())))  # samples per batch
    events: List[Tuple[float, SatelliteId, SatelliteId]] = []
    last_k, last_row = -2, -1  # the last covered sample so far and its winner
    for s in range(0, n, most):
        e = min(s + most, n)
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
