import ast
import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from leofault import (
    CircularElements,
    GridTopology,
    GroundStation,
    ManeuverEvent,
    SatelliteId,
    ShellSpec,
    VisibilityWindow,
    build_constellation,
    elevation_angle,
    grazing_altitude,
    ground_station_eci,
    handover_schedule,
    offsets_at,
    propagate,
    visibility_windows,
)
from leofault.constants import EARTH_RADIUS_KM, SIDEREAL_DAY_S
from leofault.faults import MAX_TOTAL_OFFSET_KM
from leofault.orbital import FleetArrays, _mean_motion, propagate_arrays, time_grid
from leofault import topology
from leofault.topology import CROSS_PLANE, INTRA_PLANE


EQUATOR_STATION = GroundStation("eq", 0.0, 0.0)


def zenith_pass(t_zenith_s, altitude_km=550.0):
    """Elements of an equatorial satellite at the zenith of (0, 0) at t_zenith_s."""
    a_km = EARTH_RADIUS_KM + altitude_km
    rate_deg_s = math.degrees(_mean_motion(a_km)) - 360.0 / SIDEREAL_DAY_S
    return CircularElements(a_km, 0.0, 0.0, -rate_deg_s * t_zenith_s)


def elevation_at(gs, elements, t):
    return elevation_angle(ground_station_eci(gs, t), propagate(elements, t))


def reference_handover_schedule(windows, gs, constellation, step_s=1.0):
    """The scalar loop handover_schedule replaced, on its grid: one propagate per candidate."""
    events = []
    current = None
    t0, t1 = min(w.start_s for w in windows), max(w.end_s for w in windows)
    for t in time_grid(t0, t1, step_s).tolist():
        candidates = [w.sat for w in windows if w.start_s <= t < w.end_s]
        best = None
        if candidates:
            gs_pos = ground_station_eci(gs, t)
            best = max(
                candidates,
                key=lambda sat: (
                    elevation_angle(gs_pos, propagate(constellation[sat], t)),
                    tuple(-c for c in sat),
                ),
            )
        if best is not None and current is not None and best != current:
            events.append((t, current, best))
        current = best
    return events


def reference_refine_crossing(elements, gs, t_outside, t_inside, tol_s=0.1):
    """The scalar bisection visibility_windows replaced: one edge at a time."""

    def above(t):
        return elevation_at(gs, elements, t) >= gs.min_elevation_deg

    lo, hi = t_outside, t_inside
    while abs(hi - lo) > tol_s:
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reference_visibility_windows(gs, constellation, t0_s, t1_s, step_s):
    """Sampled runs found per satellite, each inner edge refined by the scalar bisection."""
    times = time_grid(t0_s, t1_s, step_s).tolist()
    fleet = FleetArrays.of(constellation)
    columns = (fleet.a_km, fleet.inclination_rad, fleet.raan_rad, fleet.phase_rad)
    elevations = [elevation_angle(ground_station_eci(gs, t), propagate_arrays(*columns, t)) for t in times]
    windows = []
    for j, sat in enumerate(fleet.sat_ids):
        column = [float(row[j]) for row in elevations]
        k = 0
        while k < len(times):
            if column[k] < gs.min_elevation_deg:
                k += 1
                continue
            first = k
            while k + 1 < len(times) and column[k + 1] >= gs.min_elevation_deg:
                k += 1
            start, end = times[first], times[k]
            if first > 0:
                start = reference_refine_crossing(constellation[sat], gs, times[first - 1], start)
            if k + 1 < len(times):
                end = reference_refine_crossing(constellation[sat], gs, times[k + 1], end)
            if end > start:
                windows.append(VisibilityWindow(gs.id, sat, start, end, max(column[first : k + 1])))
            k += 1
    windows.sort(key=lambda w: (w.start_s, tuple(w.sat)))
    return windows


def traced_peak(call, *args, **kwargs):
    """tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_scan(topo, times, maneuvers):
    """The per-step path scan replaced: offsets_at, positions, grazing_altitude."""
    index = {sat: i for i, sat in enumerate(topo.sat_ids)}
    a = np.array([index[x] for x, _ in topo.edge_ids], dtype=int)
    b = np.array([index[y] for _, y in topo.edge_ids], dtype=int)
    for t in times:
        t = float(t)
        pos = topo.positions(t, offsets_at(maneuvers, t))
        yield t, grazing_altitude(pos[a], pos[b])


def assert_scan_matches_reference(topo, times, maneuvers):
    """scan equals reference_scan, and the offsets its schedule of changes gives equal offsets_at, bit for bit."""
    index = {sat: i for i, sat in enumerate(topo.sat_ids)}
    schedule = list(topology._offset_changes(np.asarray(times, dtype=float), maneuvers, index))
    changes = {k: (rows, km) for k, rows, km in schedule}
    assert [k for k, _, _ in schedule] == sorted(changes) and set(changes) <= set(range(len(times)))
    state, before = np.zeros(len(index)), np.zeros(len(index))
    for k, t in enumerate(times):
        rows, km = changes.get(k, ([], []))
        state[rows] = km
        want = np.zeros(len(index))
        for sat, dh_km in offsets_at(maneuvers, float(t)).items():
            want[index[sat]] = dh_km
        assert set(np.flatnonzero(want != before).tolist()) <= set(rows)
        assert np.array_equal(state, want)
        before = want
    steps = list(topo.scan(times, maneuvers))
    expected = list(reference_scan(topo, times, maneuvers))
    assert [t for t, _ in steps] == [t for t, _ in expected]
    for (_, grazing), (_, want) in zip(steps, expected):
        assert np.array_equal(grazing, want)


def grid_edges(planes, sats_per_plane):
    """Deduplicated +GRID edge list: ((plane, index), (plane, index), kind),
    by the per-satellite loop the package ran before GridTopology built its
    edges by index arithmetic; planes and sats_per_plane are at least 3."""
    edges = []
    for p in range(planes):
        for s in range(sats_per_plane):
            edges.append(((p, s), (p, (s + 1) % sats_per_plane), INTRA_PLANE))
            edges.append(((p, s), ((p + 1) % planes, s), CROSS_PLANE))
    return edges


def grid_topology(planes, sats):
    return GridTopology(build_constellation([ShellSpec(550.0, 53.0, planes, sats)]))


def grid_adjacency(planes, sats):
    """Neighbor sets of every (plane, index) under GridTopology's edges."""
    adjacency = {}
    for a, b in grid_topology(planes, sats).edge_ids:
        adjacency.setdefault((a.plane, a.index), set()).add((b.plane, b.index))
        adjacency.setdefault((b.plane, b.index), set()).add((a.plane, a.index))
    return adjacency


class TestGridNeighbors:
    def test_corner_wraparound(self):
        assert grid_adjacency(72, 22)[(0, 0)] == {(0, 1), (0, 21), (1, 0), (71, 0)}

    def test_interior_and_plane_wrap(self):
        assert grid_adjacency(6, 58)[(5, 10)] == {(5, 9), (5, 11), (4, 10), (0, 10)}

    @pytest.mark.parametrize("planes,sats", [(2, 22), (72, 2), (1, 1)])
    def test_too_small(self, planes, sats):
        assert grid_topology(planes, sats).n_edges == 0

    def test_degree_four_handshake(self):
        planes, sats = 5, 4
        adjacency = grid_adjacency(planes, sats)
        appearance = {(p, s): 0 for p in range(planes) for s in range(sats)}
        for neighbors in adjacency.values():
            for nb in neighbors:
                appearance[nb] += 1
        assert all(count == 4 for count in appearance.values())

    @pytest.mark.parametrize("planes,sats", [(3, 3), (5, 4), (6, 58)])
    def test_edge_count_and_connectivity(self, planes, sats):
        edges = grid_topology(planes, sats).edge_ids
        undirected = {frozenset(edge) for edge in edges}
        assert len(edges) == len(undirected) == 2 * planes * sats
        # BFS from one node reaches every satellite
        adjacency = grid_adjacency(planes, sats)
        seen = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            node = frontier.pop()
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert len(seen) == planes * sats


class TestLinkSnapshot:
    def test_dense_shell_link_count(self, dense_constellation):
        links = GridTopology(dense_constellation).snapshot(0.0)
        assert len(links) == 2 * 72 * 22 == 3168
        kinds = {link.kind for link in links}
        assert kinds == {INTRA_PLANE, CROSS_PLANE}

    def test_intra_plane_grazing_and_length_constant_over_time(self, dense_constellation):
        topo = GridTopology(dense_constellation)
        intra = [i for i, k in enumerate(topo.edge_kinds) if k == INTRA_PLANE]
        ref_grazing, ref_length = topo.grazing(0.0)
        for t in (500.0, 1700.0, 3600.0):
            grazing, length = topo.grazing(t)
            assert np.max(np.abs(grazing[intra] - ref_grazing[intra])) < 1e-6
            assert np.max(np.abs(length[intra] - ref_length[intra])) < 1e-6

    def test_intra_plane_grazing_matches_closed_form(self, dense_constellation):
        # oracle: (R+h) cos(pi/S) - R for S satellites per plane
        expected = (EARTH_RADIUS_KM + 550.0) * math.cos(math.pi / 22) - EARTH_RADIUS_KM
        links = GridTopology(dense_constellation).snapshot(0.0)
        intra = [l.grazing_km for l in links if l.kind == INTRA_PLANE]
        assert max(abs(g - expected) for g in intra) < 0.5

    def test_dense_shell_fully_viable(self, dense_constellation):
        topo = GridTopology(dense_constellation)
        for t in np.linspace(0.0, 3600.0, 13):
            grazing, _ = topo.grazing(float(t))
            assert np.all(grazing >= 80.0)

    def test_link_fields_consistent(self, sparse_constellation):
        links = GridTopology(sparse_constellation).snapshot(120.0, threshold_km=80.0)
        for link in links[:50]:
            assert link.a < link.b
            assert link.a.shell == link.b.shell
            assert link.viable == (link.grazing_km >= 80.0)
            assert link.length_km > 0.0

    def test_offsets_change_radius(self, sparse_constellation):
        sat = SatelliteId(0, 0, 0)
        topo = GridTopology(sparse_constellation)
        base = topo.positions(0.0)
        shifted = topo.positions(0.0, offsets={sat: 3.0})
        i = topo.sat_ids.index(sat)
        assert np.linalg.norm(shifted[i]) - np.linalg.norm(base[i]) == pytest.approx(3.0, abs=1e-9)

    def test_scan_matches_grazing_altitude_per_step(self, sparse_constellation):
        topo = GridTopology(sparse_constellation)
        sats = topo.sat_ids
        maneuvers = [
            ManeuverEvent(sats[0], 0.0, 5.0, 200.0),
            ManeuverEvent(sats[5], 100.0, -3.0, 400.0),
            ManeuverEvent(sats[0], 150.0, 2.5, 100.0),
        ]
        times = time_grid(0.0, 600.0, 50.0)
        index = {sat: i for i, sat in enumerate(sats)}
        a = np.array([index[x] for x, _ in topo.edge_ids])
        b = np.array([index[y] for _, y in topo.edge_ids])
        steps = list(topo.scan(times, maneuvers))
        assert sum(1 for t, _ in steps if offsets_at(maneuvers, t)) >= 4
        assert [t for t, _ in steps] == [float(t) for t in times]
        for t, grazing in steps:
            pos = topo.positions(t, offsets_at(maneuvers, t))
            assert np.array_equal(grazing, grazing_altitude(pos[a], pos[b]))
            assert np.array_equal(grazing, topo.grazing(t, offsets_at(maneuvers, t))[0])

    def test_small_shells_have_no_links(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 1)])
        assert GridTopology(c).snapshot(0.0) == []


def reference_edges(topo):
    """(edge_a, edge_b, edge_ids, edge_kinds) by the per-edge loop over grid_edges
    that GridTopology ran before it built its edges by index arithmetic."""
    index_of = {sat: i for i, sat in enumerate(topo.sat_ids)}
    shells = {}
    for sat in topo.sat_ids:
        shells.setdefault(sat.shell, []).append(sat)
    pairs, ids, kinds = [], [], []
    for shell, members in sorted(shells.items()):
        planes = 1 + max(s.plane for s in members)
        per_plane = 1 + max(s.index for s in members)
        if planes < 3 or per_plane < 3:
            continue
        for (pa, sa), (pb, sb), kind in grid_edges(planes, per_plane):
            a, b = sorted([SatelliteId(shell, pa, sa), SatelliteId(shell, pb, sb)])
            pairs.append((index_of[a], index_of[b]))
            ids.append((a, b))
            kinds.append(kind)
    return [p[0] for p in pairs], [p[1] for p in pairs], ids, kinds


class TestGridEdges:
    """GridTopology's edges, built by index arithmetic, against grid_edges."""

    def test_matches_grid_edges(self):
        shells = [ShellSpec(550.0, 53.0, 5, 4), ShellSpec(600.0, 53.0, 2, 5), ShellSpec(1200.0, 70.0, 3, 7)]
        c = build_constellation(shells)
        # a TLE pseudo-shell: one plane, one slot per record
        c.update({SatelliteId(3, 0, i): CircularElements(7000.0, 50.0, 10.0 * i, 0.0) for i in range(6)})
        topo = GridTopology(c)
        a, b, ids, kinds = reference_edges(topo)
        assert topo.n_edges == len(ids) == 2 * (5 * 4 + 3 * 7)
        assert topo._edge_a.tolist() == a and topo._edge_b.tolist() == b
        assert topo._edge_a.dtype == topo._edge_b.dtype == np.dtype(int)
        assert topo.edge_ids == ids
        assert topo.edge_kinds == kinds

    def test_no_grid_shell_gives_empty_int_arrays(self):
        c = build_constellation([ShellSpec(600.0, 53.0, 2, 5)])
        c.update({SatelliteId(1, 0, i): CircularElements(7000.0, 50.0, 10.0 * i, 0.0) for i in range(6)})
        topo = GridTopology(c)
        assert topo.n_edges == 0 and topo.edge_ids == [] and topo.edge_kinds == []
        assert topo._edge_a.dtype == topo._edge_b.dtype == np.dtype(int)
        assert topo._edge_a.shape == topo._edge_b.shape == (0,)

    @pytest.mark.parametrize(
        "drop, add",
        [
            (SatelliteId(1, 2, 3), None),  # a hole
            (SatelliteId(1, 0, 0), SatelliteId(1, -1, 0)),  # the right count, not the grid's ids
            (SatelliteId(1, 1, 1), SatelliteId(1, 2, -1)),
        ],
    )
    def test_incomplete_grid_names_the_shell(self, drop, add):
        c = build_constellation([ShellSpec(550.0, 53.0, 4, 4), ShellSpec(600.0, 53.0, 3, 5)])
        elements = c.pop(drop)
        if add is not None:
            c[add] = elements
        # a negative id is named as the entry it is, before any grid is checked
        message = "shell 1 is not a complete 3x5 grid"
        if add is not None:
            message = f"constellation[{add!r}] must be keyed by a SatelliteId of integers in [0, 2**63)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridTopology(c)


GEN1_SPECS = [
    ShellSpec(550.0, 53.0, 72, 22),
    ShellSpec(540.0, 53.2, 72, 22),
    ShellSpec(570.0, 70.0, 36, 20),
    ShellSpec(560.0, 97.6, 6, 58),
    ShellSpec(560.0, 97.6, 4, 43),
]


class TestSymmetryClasses:
    """The Walker classes of links that isl-cdf evaluates one representative of."""

    @pytest.mark.parametrize(
        "specs, sizes",
        [
            ([ShellSpec(550.0, 53.0, 72, 22)], {1584: 1, 72: 22}),  # the seam joins its index's class
            ([ShellSpec(550.0, 53.0, 72, 22, raan_spread_deg=180.0)], {1584: 1, 71: 22, 1: 22}),
            ([ShellSpec(550.0, 53.0, 72, 22, phase_offset_f=1)], {1584: 1, 1: 1584}),
            (GEN1_SPECS, {1584: 2, 72: 44, 720: 1, 36: 20, 348: 1, 6: 58, 172: 1, 4: 43}),
        ],
        ids=["walker", "half-spread", "phased", "gen1"],
    )
    def test_class_sizes(self, specs, sizes):
        topo = GridTopology(build_constellation(specs))
        class_of, reps, members = topo._symmetry_classes
        assert Counter(np.bincount(class_of).tolist()) == sizes
        # each class's representative is its lowest edge, and members lists each class's edges in order
        assert np.array_equal(class_of.take(reps), np.arange(reps.size))
        assert (reps.take(class_of) <= np.arange(topo.n_edges)).all()
        assert np.array_equal(members, np.argsort(class_of, kind="stable"))

    def test_perturbed_raan_leaves_its_links_alone(self, dense_constellation):
        c = dict(dense_constellation)
        sat = SatelliteId(0, 5, 7)
        c[sat] = CircularElements(c[sat].semi_major_axis_km, c[sat].inclination_deg, c[sat].raan_deg + 1e-9,
                                  c[sat].phase_deg)
        topo = GridTopology(c)
        class_of, reps, _ = topo._symmetry_classes
        alone = reps[np.bincount(class_of) == 1].tolist()
        assert {topo.edge_ids[e] for e in alone} == {ends for ends in topo.edge_ids if sat in ends}
        assert len(alone) == 4


SMALL_SHELL = ShellSpec(altitude_km=560.0, inclination_deg=97.6, planes=4, sats_per_plane=5)
SCAN_TIMES = time_grid(0.0, 600.0, 50.0)
SAT = SatelliteId(0, 1, 2)
OTHER = SatelliteId(0, 3, 0)


def active_counts(maneuvers, t):
    """Per satellite, how many maneuvers are active at t."""
    counts = {}
    for m in maneuvers:
        if m.start_s <= t < m.end_s:
            counts[m.sat] = counts.get(m.sat, 0) + 1
    return counts


def seeded_maneuvers(seed, count=60):
    """Start-sorted maneuvers on a few satellites, on and between grid points.

    Half the offsets are not dyadic, so their sums round differently in
    another order.
    """
    rng = np.random.default_rng(seed)
    sats = [SatelliteId(0, p, i) for p in range(4) for i in range(5)][::3]
    owners = rng.integers(0, len(sats), count)
    starts = np.where(rng.random(count) < 0.5, rng.integers(0, 12, count) * 50.0, rng.uniform(0.0, 600.0, count))
    dh = np.where(rng.random(count) < 0.5, rng.choice([-7.0, -2.0, 2.0, 6.0], count), rng.uniform(-7.0, 7.0, count))
    dwells = np.where(rng.random(count) < 0.2, 0.0, rng.choice([25.0, 50.0, 100.0, 230.0], count))
    maneuvers = [
        ManeuverEvent(sats[k], start, dh_km, dwell)
        for k, start, dh_km, dwell in zip(owners.tolist(), starts.tolist(), dh.tolist(), dwells.tolist())
    ]
    return sorted(maneuvers, key=lambda m: m.start_s)


# (maneuvers, a check that the case reaches what it is named after)
SCAN_CASES = {
    "overlaps": (
        [
            ManeuverEvent(SAT, 0.0, 3.0, 300.0),
            ManeuverEvent(OTHER, 20.0, -1.5, 100.0),
            ManeuverEvent(SAT, 100.0, 1.25, 300.0),
            ManeuverEvent(SAT, 150.0, -0.5, 100.0),
        ],
        lambda ms, t: max(active_counts(ms, t).values(), default=0) == 3,
    ),
    "zero-sum": (
        [ManeuverEvent(SAT, 50.0, 2.0, 200.0), ManeuverEvent(SAT, 100.0, -2.0, 300.0)],
        lambda ms, t: active_counts(ms, t).get(SAT) == 2 and SAT not in offsets_at(ms, t),
    ),
    "clamp": (
        [
            ManeuverEvent(SAT, 0.0, 6.0, 400.0),
            ManeuverEvent(SAT, 100.0, 6.0, 200.0),
            ManeuverEvent(OTHER, 100.0, -7.0, 300.0),
            ManeuverEvent(OTHER, 150.0, -8.0, 100.0),
        ],
        lambda ms, t: sorted(offsets_at(ms, t).values()) == [-MAX_TOTAL_OFFSET_KM, MAX_TOTAL_OFFSET_KM],
    ),
    "zero-dwell": (
        [
            ManeuverEvent(SAT, 100.0, 5.0, 0.0),
            ManeuverEvent(SAT, 100.0, -3.0, 100.0),
            ManeuverEvent(OTHER, 130.0, 4.0, 0.0),
        ],
        lambda ms, t: offsets_at(ms, t) == {SAT: -3.0},
    ),
    "between-samples": (
        [ManeuverEvent(SAT, 105.0, 5.0, 30.0), ManeuverEvent(SAT, 120.0, 2.0, 60.0)],
        lambda ms, t: offsets_at(ms, t) == {SAT: 2.0},
    ),
    "on-samples": (
        [ManeuverEvent(SAT, 100.0, 5.0, 100.0), ManeuverEvent(SAT, 200.0, -4.0, 50.0)],
        lambda ms, t: offsets_at(ms, t) == {SAT: -4.0},
    ),
    # -inf + inf: a NaN end, never active, though searchsorted puts NaN after every time
    "nan-end": (
        [ManeuverEvent(SAT, -math.inf, 4.0, math.inf), ManeuverEvent(SAT, 100.0, 2.0, 100.0)],
        lambda ms, t: offsets_at(ms, t) == {SAT: 2.0},
    ),
}


class TestScanOffsets:
    @pytest.fixture(scope="class")
    def topo(self):
        return GridTopology(build_constellation([SMALL_SHELL]))

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_matches_per_step_reference(self, topo, case):
        maneuvers, reaches = SCAN_CASES[case]
        assert any(reaches(maneuvers, float(t)) for t in SCAN_TIMES)
        assert_scan_matches_reference(topo, SCAN_TIMES, maneuvers)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_step_reference_on_seeded_maneuvers(self, topo, seed):
        maneuvers = seeded_maneuvers(seed)
        clamped = [
            v for t in SCAN_TIMES for v in offsets_at(maneuvers, float(t)).values()
            if abs(v) == MAX_TOTAL_OFFSET_KM
        ]
        assert clamped
        assert_scan_matches_reference(topo, SCAN_TIMES, maneuvers)

    def test_repeated_times(self, topo):
        maneuvers = SCAN_CASES["on-samples"][0]
        times = [0.0, 100.0, 100.0, 199.9, 200.0, 200.0, 260.0]
        assert_scan_matches_reference(topo, times, maneuvers)

    def test_yields_fresh_arrays(self, topo):
        maneuvers = SCAN_CASES["overlaps"][0]
        grazing = [g for _, g in topo.scan(SCAN_TIMES, maneuvers)]
        for i, g in enumerate(grazing):
            assert not any(np.shares_memory(g, h) for h in grazing[:i])

    def test_rejects_unsorted_maneuvers(self, topo):
        maneuvers = [
            ManeuverEvent(SAT, 0.0, 1.0, 50.0),
            ManeuverEvent(SAT, 200.0, 1.0, 50.0),
            ManeuverEvent(OTHER, 100.0, 1.0, 50.0),
            ManeuverEvent(OTHER, 50.0, 1.0, 50.0),
        ]
        with pytest.raises(ValueError, match=r"sorted by start_s: maneuvers\[2\]"):
            topo.scan(SCAN_TIMES, maneuvers)

    @pytest.mark.parametrize(
        "times, bad",
        [([0.0, 10.0, 5.0, 20.0], 2), ([0.0, 10.0, 10.0, 20.0, 15.0], 4), ([0.0, float("nan"), 20.0], 1)],
    )
    def test_rejects_decreasing_times(self, topo, times, bad):
        with pytest.raises(ValueError, match=rf"must not decrease: times\[{bad}\]"):
            topo.scan(times)

    @pytest.mark.parametrize("times, bad", [([0.0, math.inf], 1), ([-math.inf, 0.0, 10.0], 0)])
    def test_rejects_infinite_times(self, topo, times, bad):
        with pytest.raises(ValueError, match=rf"times must be finite: times\[{bad}\]"):
            topo.scan(times)
        with pytest.raises(ValueError, match=rf"times must be finite: times\[{bad}\]"):
            next(topo._viability_scan(times, (), 80.0))

    @pytest.mark.parametrize("field, value, message", [
        ("dh_km", math.nan, "must be finite, got nan"),
        ("dh_km", math.inf, "must be finite, got inf"),
        ("dh_km", -math.inf, "must be finite, got -inf"),
        ("dwell_s", math.nan, "must not be NaN"),
        ("dh_km", True, "must be a number, got True"),
        ("dh_km", "1", "must be a number, got '1'"),
        ("dwell_s", True, "must be a number, got True"),
        ("dwell_s", "1", "must be a number, got '1'"),
        ("start_s", "5", "must be a number, got '5'"),
        ("start_s", True, "must be a number, got True"),
        ("dh_km", 10**400, "must be within the float range"),
        ("dwell_s", 10**400, "must be within the float range"),
        ("start_s", 10**400, "must be within the float range"),
    ], ids=["dh_km-nan", "dh_km-inf", "dh_km--inf", "dwell_s-nan", "dh_km-True", "dh_km-1", "dwell_s-True", "dwell_s-1",
            "start_s-5", "start_s-True", "dh_km-huge-int", "dwell_s-huge-int", "start_s-huge-int"])
    def test_rejects_non_finite_maneuver(self, topo, field, value, message):
        # faults.offsets_at would give a NaN offset where the scan clamps to +-10 km; a string
        # start would fail unnamed in the scan, and True would read as 1 s
        fields = {"start_s": 10.0, "dh_km": 1.0, "dwell_s": 50.0, field: value}
        maneuvers = [ManeuverEvent(SAT, 0.0, 1.0, 50.0), ManeuverEvent(OTHER, **fields)]
        with pytest.raises(ValueError, match=rf"maneuvers\[1\]\.{field} {message}"):
            topo.scan(SCAN_TIMES, maneuvers)
        with pytest.raises(ValueError, match=rf"maneuvers\[1\]\.{field} {message}"):
            next(topo._viability_scan(SCAN_TIMES, maneuvers, 80.0))

    @pytest.mark.parametrize("start_s", [100.0, 1e6])  # inside the window and after it
    def test_rejects_maneuver_off_the_topology(self, topo, start_s):
        maneuvers = [ManeuverEvent(SAT, 0.0, 1.0, 50.0), ManeuverEvent(SatelliteId(9, 9, 9), start_s, 1.0, 50.0)]
        with pytest.raises(ValueError, match=r"maneuvers\[1\]\.sat SatelliteId\(shell=9, plane=9, index=9\)"):
            topo.scan(SCAN_TIMES, maneuvers)
        with pytest.raises(ValueError, match=r"maneuvers\[1\]\.sat"):
            next(topo._viability_scan(SCAN_TIMES, maneuvers, 80.0))

    @pytest.mark.parametrize("t_s, match", [
        (math.nan, "t_s must be finite, got nan"),
        (math.inf, "t_s must be finite, got inf"),
        (-math.inf, "t_s must be finite, got -inf"),
        (True, "t_s must be a number, got True"),
        ("1", "t_s must be a number, got '1'"),
        (10**400, "t_s must be within the float range"),
    ], ids=["nan", "inf", "-inf", "True", "1", "huge-int"])
    def test_positions_reject_non_finite_time(self, topo, t_s, match):
        # every link would read NaN grazing, marked not viable; a bool would read as 1 s
        for call in (topo.positions, topo.grazing, topo.snapshot):
            with pytest.raises(ValueError, match=match):
                call(t_s)

    @pytest.mark.parametrize("offsets, match", [
        ({SatelliteId(9, 9, 9): 1.0}, r"offsets key SatelliteId\(shell=9, plane=9, index=9\) is not a satellite"),
        ({SAT: math.nan}, r"offsets\[SatelliteId\(shell=0, plane=1, index=2\)\] must be finite, got nan"),
        ({SAT: 1.0, OTHER: -math.inf}, r"offsets\[SatelliteId\(shell=0, plane=3, index=0\)\] must be finite"),
        ({SAT: True}, r"offsets\[SatelliteId\(shell=0, plane=1, index=2\)\] must be a number, got True"),
        ({SAT: "1"}, r"offsets\[SatelliteId\(shell=0, plane=1, index=2\)\] must be a number, got '1'"),
        ({SAT: None}, r"offsets\[SatelliteId\(shell=0, plane=1, index=2\)\] must be a number, got None"),
        ({SAT: 10**400}, r"offsets\[SatelliteId\(shell=0, plane=1, index=2\)\] must be within the float range"),
    ], ids=["off-the-topology", "nan", "minus-inf", "bool", "string", "none", "huge-int"])
    def test_positions_reject_bad_offsets(self, topo, offsets, match):
        for call in (topo.positions, topo.grazing):
            with pytest.raises(ValueError, match=match):
                call(0.0, offsets)

    def test_accepts_a_maneuver_that_never_ends(self, topo):
        assert_scan_matches_reference(topo, SCAN_TIMES, [ManeuverEvent(SAT, 100.0, 2.0, math.inf)])

    def test_no_links_yield_empty_arrays(self):
        topo = GridTopology(build_constellation([ShellSpec(550.0, 53.0, 2, 2)]))
        maneuvers = [ManeuverEvent(SatelliteId(0, 1, 1), 100.0, 2.0, 100.0)]
        steps = list(topo.scan(SCAN_TIMES, maneuvers))
        assert topo.n_edges == 0
        assert [t for t, _ in steps] == SCAN_TIMES.tolist()
        assert all(g.shape == (0,) for _, g in steps)

    def test_whole_edge_blocks_with_padded_rows(self):
        # 128 edges fill one block exactly; the 64 rows are padded to 128
        topo = GridTopology(build_constellation([ShellSpec(560.0, 97.6, 8, 8)]))
        assert (topo.n_edges, len(topo.sat_ids)) == (128, 64)
        assert_scan_matches_reference(topo, SCAN_TIMES, SCAN_CASES["overlaps"][0])

    def test_cached_trig_matches_propagate_arrays_on_row_subsets(self, sparse_constellation, rng):
        fleet = FleetArrays.of(sparse_constellation)
        n = len(fleet.sat_ids)
        for rows in (rng.integers(0, n, 37), np.sort(rng.choice(n, 120, replace=False)), np.arange(n)):
            columns = (fleet.a_km[rows], fleet.inclination_rad[rows], fleet.raan_rad[rows], fleet.phase_rad[rows])
            for t in (0.0, 1234.5, rng.uniform(0.0, 86400.0, len(rows))):
                got = np.stack(fleet._planes(t, rows), axis=-1)
                assert np.array_equal(got, propagate_arrays(*columns, t))
        offset = rng.uniform(-10.0, 10.0, n)
        want = propagate_arrays(fleet.a_km, fleet.inclination_rad, fleet.raan_rad, fleet.phase_rad, 777.0, offset)
        offsets = dict(zip(fleet.sat_ids, offset.tolist()))
        assert np.array_equal(GridTopology(sparse_constellation).positions(777.0, offsets), want)


class TestVisibilityWindows:
    def test_empty_constellation(self):
        gs = GroundStation("x", 45.0, 0.0)
        assert visibility_windows(gs, {}, 0.0, 600.0, 10.0) == []

    def test_polar_station_sees_polar_orbit_every_period(self):
        c = build_constellation([ShellSpec(550.0, 90.0, 1, 1)])
        gs = GroundStation("pole", 90.0, 0.0, min_elevation_deg=0.0)
        period = 5730.2
        windows = visibility_windows(gs, c, 0.0, 2 * period, 10.0)
        by_first = [w for w in windows if w.start_s < period]
        by_second = [w for w in windows if w.start_s >= period]
        assert len(by_first) >= 1
        assert len(by_second) >= 1

    def test_windows_disjoint_and_ordered(self, dense_constellation):
        gs = GroundStation("mid", 30.0, 0.0)
        windows = visibility_windows(gs, dense_constellation, 0.0, 3600.0, 10.0)
        assert windows
        per_sat = {}
        for w in windows:
            assert w.start_s < w.end_s
            assert w.max_elevation_deg >= gs.min_elevation_deg
            per_sat.setdefault(w.sat, []).append(w)
        for sat_windows in per_sat.values():
            sat_windows.sort(key=lambda w: w.start_s)
            for earlier, later in zip(sat_windows, sat_windows[1:]):
                assert earlier.end_s < later.start_s

    def test_edges_refined_to_threshold(self, dense_constellation):
        from leofault import elevation_angle, ground_station_eci, propagate

        gs = GroundStation("mid", 30.0, 0.0)
        windows = visibility_windows(gs, dense_constellation, 0.0, 1800.0, 10.0)
        interior = [w for w in windows if w.start_s > 0.0 and w.end_s < 1800.0]
        assert interior
        for w in interior[:10]:
            for edge in (w.start_s, w.end_s):
                pos = ground_station_eci(gs, edge)
                elev = elevation_angle(pos, propagate(dense_constellation[w.sat], edge))
                assert abs(elev - gs.min_elevation_deg) < 0.05

    @pytest.mark.parametrize(
        "gs",
        [
            GroundStation("berlin", 52.5, 13.4),
            GroundStation("sydney", -33.9, 151.2, min_elevation_deg=10.0),
            GroundStation("quito", -0.2, -78.5, min_elevation_deg=10.0),
        ],
        ids=lambda gs: gs.id,
    )
    @pytest.mark.parametrize(
        "shell,t0,t1,step",
        [("dense", 0.0, 1800.0, 10.0), ("sparse", 250.0, 3484.5, 7.0)],
        ids=["dense", "polar"],
    )
    def test_matches_scalar_bisection(self, request, gs, shell, t0, t1, step):
        constellation = request.getfixturevalue(f"{shell}_constellation")
        expected = reference_visibility_windows(gs, constellation, t0, t1, step)
        assert sum(t0 < w.start_s and w.end_s < t1 for w in expected) >= 20
        assert visibility_windows(gs, constellation, t0, t1, step) == expected

    def test_invalid_interval(self):
        gs = GroundStation("x", 0.0, 0.0)
        with pytest.raises(ValueError):
            visibility_windows(gs, {}, 10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            visibility_windows(gs, {}, 0.0, 10.0, 0.0)


class TestVisibilityRuns:
    """Run boundaries at the ends of the time grid and one-sample runs."""

    def test_run_spans_whole_window(self):
        c = {SatelliteId(0, 0, 0): zenith_pass(30.0)}
        windows = visibility_windows(EQUATOR_STATION, c, 0.0, 60.0, 10.0)
        assert [(w.start_s, w.end_s) for w in windows] == [(0.0, 60.0)]
        assert windows[0].max_elevation_deg == pytest.approx(
            elevation_at(EQUATOR_STATION, c[SatelliteId(0, 0, 0)], 30.0), abs=1e-9
        )

    def test_run_starts_at_t0(self):
        elements = zenith_pass(0.0)
        windows = visibility_windows(EQUATOR_STATION, {SatelliteId(0, 0, 0): elements}, 0.0, 600.0, 10.0)
        assert len(windows) == 1
        w = windows[0]
        assert w.start_s == 0.0
        assert 0.0 < w.end_s < 600.0 and w.end_s % 10.0 != 0.0
        assert elevation_at(EQUATOR_STATION, elements, w.end_s) == pytest.approx(25.0, abs=0.05)

    def test_run_ends_on_clipped_last_sample(self):
        times = time_grid(0.0, 156.0, 10.0)
        assert times[-1] == 156.0 and times[-2] == 150.0
        elements = zenith_pass(250.0)
        windows = visibility_windows(EQUATOR_STATION, {SatelliteId(0, 0, 0): elements}, 0.0, 156.0, 10.0)
        assert len(windows) == 1
        w = windows[0]
        assert w.end_s == 156.0
        assert 0.0 < w.start_s < 150.0
        assert elevation_at(EQUATOR_STATION, elements, w.start_s) == pytest.approx(25.0, abs=0.05)

    def test_edge_in_clipped_last_step(self):
        # the last step is 6 s wide, so its edge takes one halving fewer than a 10 s step
        c = {SatelliteId(0, 0, 0): zenith_pass(297.5)}
        windows = visibility_windows(EQUATOR_STATION, c, 0.0, 156.0, 10.0)
        assert len(windows) == 1
        assert 150.0 < windows[0].start_s < 156.0 and windows[0].end_s == 156.0
        assert windows == reference_visibility_windows(EQUATOR_STATION, c, 0.0, 156.0, 10.0)

    def test_single_sample_runs_of_several_satellites(self):
        # above 85 degrees for about 13 s around each zenith: one 10 s sample
        gs = GroundStation("eq", 0.0, 0.0, min_elevation_deg=85.0)
        zenith = {SatelliteId(0, 0, 0): 500.0, SatelliteId(0, 0, 1): 100.0, SatelliteId(0, 0, 2): 250.0}
        c = {sat: zenith_pass(t) for sat, t in zenith.items()}
        windows = visibility_windows(gs, c, 0.0, 600.0, 10.0)
        assert [w.sat for w in windows] == sorted(zenith, key=zenith.get)
        for w in windows:
            t = zenith[w.sat]
            assert t - 10.0 < w.start_s < t < w.end_s < t + 10.0
            assert w.max_elevation_deg == pytest.approx(elevation_at(gs, c[w.sat], t), abs=1e-9)


class TestVisibilitySkip:
    """Satellites are evaluated only when they could be visible."""

    BERLIN = GroundStation("berlin", 52.5, 13.4)

    def test_evaluates_few_satellite_samples(self, dense_constellation, monkeypatch):
        evaluated = []

        def counting(gs_pos, sat_pos):
            evaluated.append(len(sat_pos))
            return elevation_angle(gs_pos, sat_pos)

        monkeypatch.setattr(topology, "elevation_angle", counting)
        windows = visibility_windows(self.BERLIN, dense_constellation, 0.0, 1800.0, 10.0)
        assert windows == reference_visibility_windows(self.BERLIN, dense_constellation, 0.0, 1800.0, 10.0)
        # bisection steps included
        assert sum(evaluated) < 0.05 * len(time_grid(0.0, 1800.0, 10.0)) * len(dense_constellation)

    def test_underestimated_rate_caught(self, dense_constellation, monkeypatch):
        # the bound is tight to within a factor of two on a dense shell
        rate = topology._psi_rate
        monkeypatch.setattr(topology, "_psi_rate", lambda n_rad_s: rate(n_rad_s) / 4.0)
        got = visibility_windows(self.BERLIN, dense_constellation, 0.0, 1800.0, 10.0)
        assert got != reference_visibility_windows(self.BERLIN, dense_constellation, 0.0, 1800.0, 10.0)

    def test_zero_slack_caught(self, monkeypatch):
        # The minimum elevation equals the computed elevation at t = 0, and
        # the grid is 1e-13 s fine, so the computed elevation crosses it in
        # steps of a few ulps. Just below it the computed angle to the limit
        # is rounding noise; without slack a noise of 1e-16 rad skips about
        # 1e-13 s, past samples that are above it.
        c = {SatelliteId(0, 0, 0): zenith_pass(100.0)}
        e0 = elevation_at(EQUATOR_STATION, c[SatelliteId(0, 0, 0)], 0.0)
        gs = GroundStation("eq", 0.0, 0.0, min_elevation_deg=e0)
        expected = reference_visibility_windows(gs, c, -1e-11, 1e-11, 1e-13)
        assert expected and expected[0].start_s > -1e-11
        assert visibility_windows(gs, c, -1e-11, 1e-11, 1e-13) == expected
        monkeypatch.setattr(topology, "_PSI_SLACK_RAD", 0.0)
        assert visibility_windows(gs, c, -1e-11, 1e-11, 1e-13) != expected

    def test_rows_inside_the_sphere_stay_due(self, sparse_constellation):
        # r <= R has no visibility limit; such rows are evaluated at every step, without warnings
        c = {**sparse_constellation, SatelliteId(1, 0, 0): CircularElements(6000.0, 53.0, 10.0, 0.0)}
        c[SatelliteId(1, 0, 1)] = CircularElements(EARTH_RADIUS_KM, 0.0, 0.0, 180.0)
        gs = GroundStation("eq", 0.0, 0.0, min_elevation_deg=0.0)
        expected = reference_visibility_windows(gs, c, 0.0, 3600.0, 10.0)
        assert expected
        assert visibility_windows(gs, c, 0.0, 3600.0, 10.0) == expected

    def test_peak_memory_does_not_grow_with_duration(self, dense_constellation):
        short = traced_peak(visibility_windows, self.BERLIN, dense_constellation, 0.0, 1800.0, 10.0)
        long = traced_peak(visibility_windows, self.BERLIN, dense_constellation, 0.0, 3 * 3600.0, 10.0)
        assert long < short + 1_000_000


class TestHandoverSchedule:
    def test_single_window_no_handover(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 1)])
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        sat = next(iter(c))
        window = VisibilityWindow(gs.id, sat, 100.0, 400.0, 45.0)
        assert handover_schedule([window], gs, c) == []

    def test_two_abutting_windows_single_handover(self):
        elements = CircularElements(6921.0, 53.0, 0.0, 0.0)
        c = {
            SatelliteId(0, 0, 0): elements,
            SatelliteId(0, 0, 1): CircularElements(6921.0, 53.0, 0.0, 20.0),
        }
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        w1 = VisibilityWindow(gs.id, SatelliteId(0, 0, 0), 0.0, 100.0, 50.0)
        w2 = VisibilityWindow(gs.id, SatelliteId(0, 0, 1), 100.0, 200.0, 50.0)
        schedule = handover_schedule([w1, w2], gs, c, step_s=1.0)
        assert schedule == [(100.0, SatelliteId(0, 0, 0), SatelliteId(0, 0, 1))]

    def test_rejects_windows_of_another_station(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 6, 8)])
        berlin = GroundStation("berlin", 52.5, 13.4)
        windows = visibility_windows(berlin, c, 0.0, 3600.0, 10.0)
        assert windows
        with pytest.raises(ValueError, match=r"windows\[0\] is a window of station 'berlin', not of 'south'"):
            handover_schedule(windows, GroundStation("south", -30.0, 100.0), c)

    def test_rejects_windows_of_a_satellite_not_in_constellation(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 6, 8)])
        gs = GroundStation("berlin", 52.5, 13.4)
        windows = visibility_windows(gs, c, 0.0, 3600.0, 10.0)
        dropped = windows[len(windows) // 2].sat
        i = [w.sat for w in windows].index(dropped)  # its first window
        missing = {sat: elements for sat, elements in c.items() if sat != dropped}
        with pytest.raises(ValueError, match=rf"windows\[{i}\]\.sat {re.escape(str(dropped))} is not a"):
            handover_schedule(windows, gs, missing)

    def test_dense_shell_cadence_and_continuity(self, dense_constellation):
        gs = GroundStation("mid", 30.0, 0.0)
        windows = visibility_windows(gs, dense_constellation, 0.0, 3600.0, 10.0)
        schedule = handover_schedule(windows, gs, dense_constellation, step_s=1.0)
        assert len(schedule) > 5
        intervals = np.diff([t for t, _, _ in schedule])
        assert 60.0 <= float(np.mean(intervals)) <= 180.0
        # while coverage is continuous the attachment chain has no gaps
        for (t0, _, to_sat), (t1, from_sat, _) in zip(schedule, schedule[1:]):
            assert from_sat == to_sat

    def test_lowest_id_wins_a_tie(self):
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        twin = CircularElements(6921.0, 53.0, 0.0, 20.0)
        c = {
            SatelliteId(0, 0, 5): CircularElements(6921.0, 53.0, 0.0, 0.0),
            SatelliteId(0, 0, 3): twin,
            SatelliteId(0, 0, 2): twin,
        }
        windows = [
            VisibilityWindow(gs.id, SatelliteId(0, 0, 5), 0.0, 100.0, 50.0),
            VisibilityWindow(gs.id, SatelliteId(0, 0, 3), 100.0, 200.0, 50.0),
            VisibilityWindow(gs.id, SatelliteId(0, 0, 2), 100.0, 200.0, 50.0),
        ]
        expected = [(100.0, SatelliteId(0, 0, 5), SatelliteId(0, 0, 2))]
        assert handover_schedule(windows, gs, c) == expected
        assert handover_schedule(windows[::-1], gs, c) == expected

    @pytest.mark.parametrize("lat,lon", [(52.5, 13.4), (30.0, 0.0)])
    def test_matches_scalar_reference(self, dense_constellation, lat, lon):
        gs = GroundStation("gs", lat, lon)
        windows = visibility_windows(gs, dense_constellation, 0.0, 1800.0, 10.0)
        expected = reference_handover_schedule(windows, gs, dense_constellation)
        assert len(expected) > 10
        assert handover_schedule(windows, gs, dense_constellation) == expected
        assert handover_schedule(windows[::-1], gs, dense_constellation) == expected

    @pytest.mark.parametrize(
        "step_s, windowed",
        [pytest.param(s, True, id=str(s)) for s in (float("nan"), float("inf"), 1e-300, 0.0, -1.0)]
        # a step that is not positive and finite is rejected even with no windows to cover
        + [pytest.param(s, False, id=f"{s}-no-windows") for s in (float("nan"), float("inf"), 0.0, -1.0)],
    )
    def test_rejects_step_that_cannot_cover_windows(self, step_s, windowed):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 2)])
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        windows = [VisibilityWindow(gs.id, sat, 0.0, 200.0, 50.0) for sat in c] if windowed else []
        with pytest.raises(ValueError, match="step_s"):
            handover_schedule(windows, gs, c, step_s=step_s)

    @pytest.mark.parametrize(
        "start_s, end_s", [(100.0, 100.0), (100.0, 50.0), (float("nan"), 200.0), (0.0, float("nan"))]
    )
    def test_no_open_window_gives_no_handover(self, start_s, end_s):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 2)])
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        windows = [VisibilityWindow(gs.id, sat, start_s, end_s, 50.0) for sat in c]
        assert handover_schedule(windows, gs, c) == []

    def test_times_come_from_time_grid(self):
        # a summed clock drifts to 50.00000000000044 here; the grid gives 0.1 + 499 * 0.1
        c = {
            SatelliteId(0, 0, 0): CircularElements(6921.0, 53.0, 0.0, 0.0),
            SatelliteId(0, 0, 1): CircularElements(6921.0, 53.0, 0.0, 20.0),
        }
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        w1 = VisibilityWindow(gs.id, SatelliteId(0, 0, 0), 0.1, 50.0, 50.0)
        w2 = VisibilityWindow(gs.id, SatelliteId(0, 0, 1), 50.0, 100.0, 50.0)
        grid = time_grid(0.1, 100.0, 0.1).tolist()
        schedule = handover_schedule([w1, w2], gs, c, step_s=0.1)
        assert schedule == [(grid[499], SatelliteId(0, 0, 0), SatelliteId(0, 0, 1))]

    @pytest.mark.parametrize("cap", [1, 4, 5, 100])
    def test_handover_on_a_batch_boundary(self, monkeypatch, cap):
        # one pair per sample, so batches of cap samples; 100 opens a batch at every cap here
        c = {
            SatelliteId(0, 0, 0): CircularElements(6921.0, 53.0, 0.0, 0.0),
            SatelliteId(0, 0, 1): CircularElements(6921.0, 53.0, 0.0, 20.0),
        }
        gs = GroundStation("x", 0.0, 0.0, min_elevation_deg=0.0)
        windows = [
            VisibilityWindow(gs.id, SatelliteId(0, 0, 0), 0.0, 100.0, 50.0),
            VisibilityWindow(gs.id, SatelliteId(0, 0, 1), 100.0, 150.0, 50.0),
            # after a one-sample gap: an acquisition, not a handover
            VisibilityWindow(gs.id, SatelliteId(0, 0, 0), 151.0, 200.0, 50.0),
        ]
        monkeypatch.setattr(topology, "_PAIRS_PER_BATCH", cap)
        expected = [(100.0, SatelliteId(0, 0, 0), SatelliteId(0, 0, 1))]
        assert reference_handover_schedule(windows, gs, c) == expected
        assert handover_schedule(windows, gs, c) == expected

    @pytest.mark.parametrize("cap", [1, 7, 64])
    def test_small_batches_match_scalar_reference(self, dense_constellation, monkeypatch, cap):
        gs = GroundStation("gs", 52.5, 13.4)
        windows = visibility_windows(gs, dense_constellation, 0.0, 900.0, 10.0)
        expected = reference_handover_schedule(windows, gs, dense_constellation)
        monkeypatch.setattr(topology, "_PAIRS_PER_BATCH", cap)
        assert handover_schedule(windows, gs, dense_constellation) == expected

    def test_peak_memory_bounded_by_batch_cap(self, dense_constellation):
        gs = GroundStation("berlin", 52.5, 13.4)
        short = visibility_windows(gs, dense_constellation, 0.0, 1800.0, 10.0)
        long = visibility_windows(gs, dense_constellation, 0.0, 3 * 3600.0, 10.0)
        # at 1 s, the 3 h schedule scores over 20 batches' worth of (sample, window) pairs
        assert sum(w.end_s - w.start_s for w in long) > 20 * topology._PAIRS_PER_BATCH
        short_peak = traced_peak(handover_schedule, short, gs, dense_constellation)
        assert traced_peak(handover_schedule, long, gs, dense_constellation) < short_peak + 1_000_000

    def test_deterministic(self, dense_constellation):
        gs = GroundStation("mid", 30.0, 0.0)
        windows = visibility_windows(gs, dense_constellation, 0.0, 1200.0, 10.0)
        s1 = handover_schedule(windows, gs, dense_constellation)
        s2 = handover_schedule(list(reversed(windows)), gs, dense_constellation)
        assert s1 == s2


def test_only_the_edge_kernel_computes_grazing():
    """GridTopology._edge_grazing is the one link kernel: it propagates each sample's two
    endpoint rows and is the only code in topology.py that names _grazing_planes, so no
    second kernel or endpoint gather of its own can come back."""
    tree = ast.parse(Path(topology.__file__).read_text(encoding="utf-8"))

    def names_kernel(node):
        return any(
            isinstance(n, ast.Name) and n.id == "_grazing_planes"
            or isinstance(n, ast.Attribute) and n.attr == "_grazing_planes"
            for n in ast.walk(node)
        )

    users = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            users += [f"{node.name}.{getattr(m, 'name', '?')}" for m in node.body if names_kernel(m)]
        elif names_kernel(node):
            users.append(getattr(node, "name", "<module>"))
    assert users == ["GridTopology._edge_grazing"]
