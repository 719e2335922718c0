import math
import re
import sys

import numpy as np
import pytest

from leofault import (
    CircularElements,
    GridTopology,
    GroundStation,
    SatelliteId,
    ShellSpec,
    VisibilityWindow,
    build_constellation,
    handover_schedule,
    min_isl_altitude_cdf,
    orbital_period,
    propagate,
    visibility_windows,
)
from leofault.constants import MAX_STEPS, MU_EARTH_M3_S2
from leofault.orbital import FleetArrays, time_grid


def kepler_period(a_km: float) -> float:
    # closed-form oracle, kept separate from the implementation under test
    return 2.0 * math.pi * math.sqrt((a_km * 1e3) ** 3 / MU_EARTH_M3_S2)


class TestOrbitalPeriod:
    def test_550_km(self):
        assert orbital_period(550.0) == pytest.approx(kepler_period(6921.0), abs=1e-9)
        assert orbital_period(550.0) == pytest.approx(5730.3, abs=0.5)

    def test_560_km(self):
        assert orbital_period(560.0) == pytest.approx(kepler_period(6931.0), abs=1e-9)
        assert orbital_period(560.0) == pytest.approx(5742.5, abs=0.5)

    def test_monotonic_in_altitude(self, rng):
        altitudes = rng.uniform(100.0, 1900.0, size=200)
        for alt in altitudes:
            assert orbital_period(alt) < orbital_period(alt + 100.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -550.0])
    def test_rejects_nonpositive_altitude(self, bad):
        with pytest.raises(ValueError):
            orbital_period(bad)


class TestShellSpec:
    def test_valid(self):
        spec = ShellSpec(550.0, 53.0, 72, 22)
        assert spec.total_sats == 1584

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(altitude_km=100.0),
            dict(altitude_km=2500.0),
            dict(inclination_deg=-1.0),
            dict(inclination_deg=181.0),
            dict(planes=0),
            dict(sats_per_plane=0),
            dict(raan_spread_deg=0.0),
            dict(raan_spread_deg=361.0),
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(altitude_km=550.0, inclination_deg=53.0, planes=72, sats_per_plane=22)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ShellSpec(**base)

    @pytest.mark.parametrize("attr", ["planes", "sats_per_plane", "phase_offset_f"])
    def test_bool_counts_rejected(self, attr):
        with pytest.raises(ValueError, match=f"^{attr} must be an integer, got True$"):
            ShellSpec(**{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 3, "sats_per_plane": 3, attr: True})

    def test_phase_offset_rejected_exactly_where_plane_phases_overflow(self):
        # the last of 3 planes has phase 2 * F * 360 / 9: finite up to F = max / 720
        largest = int(sys.float_info.max / 720.0)
        for f in (largest, -largest):
            build_constellation([ShellSpec(550.0, 53.0, 3, 3, phase_offset_f=f)])
        for f in (2 * largest, -2 * largest, 10**400):
            with pytest.raises(ValueError, match="^phase_offset_f must give finite plane phases over 3 planes"):
                ShellSpec(550.0, 53.0, 3, 3, phase_offset_f=f)
        build_constellation([ShellSpec(550.0, 53.0, 1, 3, phase_offset_f=10**400)])  # one plane has phase 0


class TestBuildConstellation:
    def test_dense_shell_layout(self, dense_constellation):
        assert len(dense_constellation) == 1584
        raans = sorted({e.raan_deg for e in dense_constellation.values()})
        assert len(raans) == 72
        spacings = np.diff(raans)
        assert np.allclose(spacings, 5.0)
        # shell altitude shows up as the orbit radius
        assert all(
            e.semi_major_axis_km == pytest.approx(6921.0) for e in dense_constellation.values()
        )

    def test_single_satellite(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 1)])
        (elements,) = c.values()
        assert elements.raan_deg == 0.0
        assert elements.phase_deg == 0.0

    def test_two_shell_count(self, ):
        shells = [
            ShellSpec(550.0, 53.0, 72, 22),
            ShellSpec(560.0, 97.6, 6, 58),
        ]
        c = build_constellation(shells)
        assert len(c) == 1584 + 348 == 1932
        assert len(set(c)) == 1932  # no duplicate ids

    def test_phase_rule_with_walker_offset(self):
        spec = ShellSpec(550.0, 53.0, 4, 5, phase_offset_f=2)
        c = build_constellation([spec])
        for (shell, p, s), elements in c.items():
            expected = (s * 360.0 / 5 + p * 2 * 360.0 / 20) % 360.0
            assert elements.phase_deg == pytest.approx(expected, abs=1e-12)

    def test_counts_match_spec_sum(self):
        shells = [ShellSpec(550.0, 53.0, 3, 4), ShellSpec(700.0, 80.0, 5, 6)]
        c = build_constellation(shells)
        assert len(c) == 3 * 4 + 5 * 6


ELEMENTS = CircularElements(6921.0, 53.0, 0.0, 0.0)
GS = GroundStation("gs", 0.0, 0.0)
FLEET_TAKERS = {
    "GridTopology": GridTopology,
    "visibility_windows": lambda c: visibility_windows(GS, c, 0.0, 60.0, 10.0),
    "handover_schedule": lambda c: handover_schedule([], GS, c),
    "min_isl_altitude_cdf": lambda c: min_isl_altitude_cdf(c, 0.0, 60.0, 10.0),
}
BAD_ID = "must be keyed by a SatelliteId of integers in [0, 2**63)"


class TestFleetArrays:
    @pytest.mark.parametrize("take", FLEET_TAKERS.values(), ids=FLEET_TAKERS)
    @pytest.mark.parametrize(
        "entries, key, message",
        [
            ([((0, 0, 0), ELEMENTS)], (0, 0, 0), BAD_ID),  # a plain tuple
            ([(SatelliteId(0, 0, 0), ELEMENTS), ((0, 0, 1), ELEMENTS)], (0, 0, 1), BAD_ID),
            ([(SatelliteId(0, 1.0, 0), ELEMENTS)], SatelliteId(0, 1.0, 0), BAD_ID),
            ([(SatelliteId("a", 0, 0), ELEMENTS)], SatelliteId("a", 0, 0), BAD_ID),
            ([(SatelliteId(0, -1, 0), ELEMENTS)], SatelliteId(0, -1, 0), BAD_ID),
            ([(SatelliteId(True, 0, 0), ELEMENTS)], SatelliteId(True, 0, 0), BAD_ID),
            ([(SatelliteId(0, 0, 2**63), ELEMENTS)], SatelliteId(0, 0, 2**63), BAD_ID),
            ([(SatelliteId(0, 0, 0), 5)], SatelliteId(0, 0, 0), "must be CircularElements, got 5"),
        ],
        ids=["tuple", "mixed", "float-plane", "str-shell", "negative", "bool", "int64-overflow", "not-elements"],
    )
    def test_bad_entries_named(self, take, entries, key, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'constellation[{key!r}] {message}')}$"):
            take(dict(entries))

    def test_read_only_mapping_of_the_dict_rows(self):
        shells = [ShellSpec(550.0, 53.0, 3, 4, phase_offset_f=1), ShellSpec(700.0, 80.0, 1, 2)]
        c = build_constellation(shells)
        fleet = FleetArrays.of(c)
        assert FleetArrays.of(fleet) is fleet
        assert len(fleet) == len(c) and list(fleet) == list(c) and dict(fleet.items()) == c
        assert SatelliteId(1, 0, 1) in fleet and (1, 0, 1) in fleet and SatelliteId(1, 0, 2) not in fleet
        assert fleet[SatelliteId(0, 2, 3)] == c[SatelliteId(0, 2, 3)]
        with pytest.raises(KeyError):
            fleet[SatelliteId(2, 0, 0)]
        with pytest.raises(TypeError):
            fleet[SatelliteId(0, 0, 0)] = ELEMENTS


class TestPropagate:
    def test_radius_at_epoch(self):
        e = CircularElements(6921.0, 53.0, 10.0, 20.0)
        assert np.linalg.norm(propagate(e, 0.0)) == pytest.approx(6921.0, abs=1e-9)

    def test_radius_with_offset(self):
        e = CircularElements(6921.0, 53.0, 0.0, 0.0)
        assert np.linalg.norm(propagate(e, 0.0, 3.0)) == pytest.approx(6924.0, abs=1e-6)

    def test_periodicity(self):
        e = CircularElements(6921.0, 53.0, 40.0, 10.0)
        period = kepler_period(6921.0)
        p0 = propagate(e, 123.0)
        p1 = propagate(e, 123.0 + period)
        assert np.linalg.norm(p1 - p0) < 1e-6

    def test_periodicity_with_offset(self):
        e = CircularElements(6921.0, 53.0, 40.0, 10.0)
        offset = 2.5
        period = kepler_period(6921.0 + offset)
        p0 = propagate(e, 50.0, offset)
        p1 = propagate(e, 50.0 + period, offset)
        assert np.linalg.norm(p1 - p0) < 1e-6

    def test_radius_preserved_under_random_sampling(self, rng):
        for _ in range(100):
            a = rng.uniform(6500.0, 8300.0)
            e = CircularElements(
                a,
                rng.uniform(0.0, 180.0),
                rng.uniform(0.0, 360.0),
                rng.uniform(0.0, 360.0),
            )
            t = rng.uniform(0.0, 1e5)
            offset = rng.uniform(-10.0, 10.0)
            radius = np.linalg.norm(propagate(e, t, offset))
            assert abs(radius - (a + offset)) < 1e-6

    def test_inclination_preserved(self, rng):
        for _ in range(50):
            inclination = rng.uniform(1.0, 179.0)
            e = CircularElements(6921.0, inclination, rng.uniform(0.0, 360.0), 0.0)
            p0 = propagate(e, 0.0)
            p1 = propagate(e, 60.0)
            normal = np.cross(p0, p1)
            normal /= np.linalg.norm(normal)
            angle = math.acos(np.clip(normal[2], -1.0, 1.0))
            assert abs(angle - math.radians(inclination)) < 1e-9

    def test_elements_normalize_angles(self):
        e = CircularElements(6921.0, 53.0, 370.0, -10.0)
        assert e.raan_deg == pytest.approx(10.0)
        assert e.phase_deg == pytest.approx(350.0)


# every library entry point that samples a window through time_grid, as (t0_s, t1_s, step_s) -> result
GRID_ENTRY_POINTS = {
    "time_grid": time_grid,
    "visibility_windows": lambda t0, t1, step: visibility_windows(GroundStation("x", 0.0, 0.0), {}, t0, t1, step),
    "min_isl_altitude_cdf": lambda t0, t1, step: min_isl_altitude_cdf({}, t0, t1, step),
}


class TestTimeGrid:
    def test_accepts_max_steps(self):
        times = time_grid(0.0, float(MAX_STEPS), 1.0)
        assert len(times) == MAX_STEPS + 1 and times[-1] == MAX_STEPS

    @pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "t1_s, step_s",
        [
            (1800.0, 1e-300),
            (1800.0, float("nan")),
            (1800.0, float("inf")),
            (1800.0, 0.0),
            (1800.0, -1.0),
            (MAX_STEPS + 1.0, 1.0),
        ],
    )
    def test_rejects_step(self, entry, t1_s, step_s):
        with pytest.raises(ValueError, match="step_s"):
            GRID_ENTRY_POINTS[entry](0.0, t1_s, step_s)
