import math

import numpy as np
import pytest

from leofault import (
    GroundStation,
    elevation_angle,
    grazing_altitude,
    ground_station_eci,
    is_isl_viable,
    propagation_delay,
    slant_range_km,
)
from leofault.constants import EARTH_RADIUS_KM, SIDEREAL_DAY_S

R = EARTH_RADIUS_KM


def sat_pair_at_angle(altitude_km: float, theta_deg: float):
    r = R + altitude_km
    t = math.radians(theta_deg)
    return np.array([r, 0.0, 0.0]), np.array([r * math.cos(t), r * math.sin(t), 0.0])


class TestGrazingAltitude:
    def test_degenerate_segment(self):
        p = np.array([R + 550.0, 0.0, 0.0])
        assert grazing_altitude(p, p) == pytest.approx(550.0, abs=1e-9)

    def test_60_degree_separation(self):
        p1, p2 = sat_pair_at_angle(550.0, 60.0)
        # closed-form oracle: (R+h) cos(theta/2) - R
        assert grazing_altitude(p1, p2) == pytest.approx(-377.238, abs=1e-3)
        assert grazing_altitude(p1, p2) == pytest.approx(-377.2, abs=0.1)

    def test_20_degree_separation(self):
        p1, p2 = sat_pair_at_angle(550.0, 20.0)
        assert grazing_altitude(p1, p2) == pytest.approx(444.854, abs=1e-3)
        assert grazing_altitude(p1, p2) == pytest.approx(444.9, abs=0.1)

    def test_exact_symmetry(self, rng):
        for _ in range(1000):
            p1 = rng.uniform(-8000.0, 8000.0, 3)
            p2 = rng.uniform(-8000.0, 8000.0, 3)
            p1 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p1)
            p2 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p2)
            assert grazing_altitude(p1, p2) == grazing_altitude(p2, p1)

    def test_bounded_by_endpoint_altitudes(self, rng):
        for _ in range(200):
            p1 = rng.normal(size=3)
            p2 = rng.normal(size=3)
            p1 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p1)
            p2 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p2)
            g = grazing_altitude(p1, p2)
            assert g <= min(np.linalg.norm(p1), np.linalg.norm(p2)) - R + 1e-9

    def test_brute_force_equivalence(self, rng):
        # independent oracle: minimum altitude over 10001 sampled segment points
        ts = np.linspace(0.0, 1.0, 10001)[:, None]
        for _ in range(1000):
            p1 = rng.normal(size=3)
            p2 = rng.normal(size=3)
            p1 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p1)
            p2 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p2)
            points = p1 + ts * (p2 - p1)
            brute = np.min(np.linalg.norm(points, axis=1)) - R
            assert abs(grazing_altitude(p1, p2) - brute) < 0.5

    def test_batched_matches_scalar(self, rng):
        p1 = rng.uniform(6500.0, 8000.0, size=(40, 3))
        p2 = rng.uniform(6500.0, 8000.0, size=(40, 3))
        batched = grazing_altitude(p1, p2)
        for i in range(40):
            assert batched[i] == grazing_altitude(p1[i], p2[i])


def reference_grazing(p1, p2, earth_radius_km=R):
    """The row-wise np.sum formulation the component-plane kernel replaced."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p1, p2 = np.broadcast_arrays(p1, p2)
    swap = np.zeros(p1.shape[:-1], dtype=bool)
    undecided = np.ones_like(swap)
    for axis in range(3):
        a, b = p1[..., axis], p2[..., axis]
        swap = swap | (undecided & (b < a))
        undecided = undecided & (a == b)
    if np.any(swap):
        p1, p2 = (
            np.where(swap[..., None], p2, p1),
            np.where(swap[..., None], p1, p2),
        )
    d = p2 - p1
    denom = np.sum(d * d, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(denom > 0.0, -np.sum(p1 * d, axis=-1) / np.where(denom > 0.0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = p1 + t[..., None] * d
    return np.sqrt(np.sum(closest * closest, axis=-1)) - earth_radius_km


class TestGrazingMatchesReference:
    """grazing_altitude is bit-for-bit equal to the row-wise formulation."""

    @staticmethod
    def shell_points(rng, n):
        p = rng.normal(size=(n, 3))
        return p * (rng.uniform(6500.0, 8300.0, size=(n, 1)) / np.linalg.norm(p, axis=1, keepdims=True))

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 1000, 8816])
    def test_random_batches(self, rng, n):
        p1, p2 = self.shell_points(rng, n), self.shell_points(rng, n)
        assert np.array_equal(grazing_altitude(p1, p2), reference_grazing(p1, p2))
        assert np.array_equal(grazing_altitude(p2, p1), reference_grazing(p2, p1))
        assert np.array_equal(grazing_altitude(p1, p2), grazing_altitude(p2, p1))

    def test_component_plane_views(self, rng):
        # the (E, 3) transpose of a (3, E) array has contiguous component planes
        p1, p2 = self.shell_points(rng, 500), self.shell_points(rng, 500)
        v1, v2 = np.ascontiguousarray(p1.T).T, np.ascontiguousarray(p2.T).T
        assert np.array_equal(grazing_altitude(v1, v2), reference_grazing(p1, p2))

    def test_broadcast_and_other_radius(self, rng):
        p1 = self.shell_points(rng, 1)[0]
        p2 = self.shell_points(rng, 64).reshape(8, 8, 3)
        assert np.array_equal(grazing_altitude(p1, p2, 6378.137), reference_grazing(p1, p2, 6378.137))

    def test_equal_x_and_equal_y_ties(self, rng):
        p1 = self.shell_points(rng, 300)
        p2 = self.shell_points(rng, 300)
        p2[:100, 0] = p1[:100, 0]
        p2[100:200, :2] = p1[100:200, :2]
        p2[200:, 1] = p1[200:, 1]
        for a, b in ((p1, p2), (p2, p1)):
            assert np.array_equal(grazing_altitude(a, b), reference_grazing(a, b))
        assert np.array_equal(grazing_altitude(p1, p2), grazing_altitude(p2, p1))

    def test_degenerate_segments(self, rng):
        p = self.shell_points(rng, 200)
        assert np.array_equal(grazing_altitude(p, p), reference_grazing(p, p))
        assert np.allclose(grazing_altitude(p, p), np.linalg.norm(p, axis=1) - R, rtol=0.0, atol=1e-9)
        mixed = p.copy()
        mixed[::2] = self.shell_points(rng, 100)
        assert np.array_equal(grazing_altitude(p, mixed), reference_grazing(p, mixed))

    def test_scalar_inputs(self, rng):
        for p1, p2 in zip(self.shell_points(rng, 50), self.shell_points(rng, 50)):
            g = grazing_altitude(p1, p2)
            assert type(g) is float
            assert g == float(reference_grazing(p1, p2))


class TestViability:
    def test_examples(self):
        assert is_isl_viable(444.9, 80.0) is True
        assert is_isl_viable(-377.2, 80.0) is False
        assert is_isl_viable(80.0, 80.0) is True  # boundary inclusive

    def test_threshold_monotonicity(self, rng):
        for _ in range(200):
            g = rng.uniform(-500.0, 600.0)
            low, high = sorted(rng.uniform(0.0, 200.0, 2))
            if not is_isl_viable(g, low):
                assert not is_isl_viable(g, high)


class TestGroundStationEci:
    def test_pole_is_rotation_invariant(self):
        gs = GroundStation("pole", 90.0, 0.0)
        for t in (0.0, 1234.5, 86164.0):
            assert np.allclose(ground_station_eci(gs, t), [0.0, 0.0, R], atol=1e-9)

    def test_equator_at_epoch(self):
        gs = GroundStation("eq", 0.0, 0.0)
        assert np.allclose(ground_station_eci(gs, 0.0), [R, 0.0, 0.0], atol=1e-9)

    def test_quarter_sidereal_rotation(self):
        gs = GroundStation("eq", 0.0, 0.0)
        pos = ground_station_eci(gs, SIDEREAL_DAY_S / 4.0)
        assert np.allclose(pos, [0.0, R, 0.0], atol=1e-6)

    def test_radius_is_earth_radius(self, rng):
        for _ in range(100):
            gs = GroundStation("x", float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))
            pos = ground_station_eci(gs, float(rng.uniform(0, 1e6)))
            assert abs(np.linalg.norm(pos) - R) < 1e-9

    def test_time_array_equals_scalar_calls(self, rng):
        for lat, lon in ((52.5, 13.4), (-89.0, 179.0), (0.0, 0.0), (90.0, -180.0)):
            gs = GroundStation("x", lat, lon)
            times = rng.uniform(-1e4, 2e5, 5000)
            expected = np.array([ground_station_eci(gs, float(t)) for t in times])
            assert np.array_equal(ground_station_eci(gs, times), expected)
            grid = times.reshape(50, 100)
            assert np.array_equal(ground_station_eci(gs, grid), expected.reshape(50, 100, 3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(latitude_deg=91.0),
            dict(longitude_deg=181.0),
            dict(min_elevation_deg=-1.0),
            dict(min_elevation_deg=90.0),
            dict(id=5),
            dict(id=["a"]),
        ],
    )
    def test_station_validation(self, kwargs):
        base = dict(id="x", latitude_deg=0.0, longitude_deg=0.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GroundStation(**base)


class TestElevation:
    def test_zenith(self):
        gs = np.array([R, 0.0, 0.0])
        sat = gs * (R + 550.0) / R
        assert elevation_angle(gs, sat) == pytest.approx(90.0)

    def test_horizon(self):
        gs = np.array([R, 0.0, 0.0])
        sat = gs + np.array([0.0, 900.0, 0.0])  # perpendicular to local up
        assert elevation_angle(gs, sat) == pytest.approx(0.0, abs=1e-9)

    def test_coincident_points_rejected(self):
        gs = np.array([R, 0.0, 0.0])
        with pytest.raises(ValueError):
            elevation_angle(gs, gs)

    def test_bounds(self, rng):
        gs = np.array([R, 0.0, 0.0])
        for _ in range(300):
            sat = rng.normal(size=3)
            sat *= rng.uniform(6500.0, 9000.0) / np.linalg.norm(sat)
            assert -90.0 <= elevation_angle(gs, sat) <= 90.0

    def test_per_row_stations_equal_scalar_calls(self, rng):
        stations = rng.normal(size=(4000, 3))
        stations *= R / np.linalg.norm(stations, axis=1)[:, None]
        sats = rng.normal(size=(4000, 3)) * 7000.0
        expected = np.array([elevation_angle(g, p) for g, p in zip(stations, sats)])
        assert np.array_equal(elevation_angle(stations, sats), expected)
        # one station against a batch, and a batch of stations against one satellite
        assert np.array_equal(
            elevation_angle(stations[0], sats), [elevation_angle(stations[0], p) for p in sats]
        )
        assert np.array_equal(
            elevation_angle(stations, sats[0]), [elevation_angle(g, sats[0]) for g in stations]
        )

    def test_per_row_norm_equals_linalg_norm(self, rng):
        # reference: the station's up vector from np.linalg.norm
        stations = rng.normal(size=(4000, 3)) * R
        sats = rng.normal(size=(4000, 3)) * 7000.0
        for g, p in zip(stations, sats):
            d = p - g
            sin_e = np.clip(np.sum(d * (g / np.linalg.norm(g))) / np.sqrt(np.sum(d * d)), -1.0, 1.0)
            assert elevation_angle(g, p) == float(np.degrees(np.arcsin(sin_e)))

    def test_slant_range_at_25_degrees(self):
        # place the satellite at exactly 25 deg elevation by bisecting the
        # central angle, then compare the measured distance with the
        # closed-form oracle value
        gs = np.array([R, 0.0, 0.0])
        r = R + 550.0

        def elevation_of(psi_deg):
            sat = np.array(
                [r * math.cos(math.radians(psi_deg)), r * math.sin(math.radians(psi_deg)), 0.0]
            )
            return elevation_angle(gs, sat)

        lo, hi = 0.0, 30.0  # elevation decreases with central angle
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if elevation_of(mid) > 25.0:
                lo = mid
            else:
                hi = mid
        psi = 0.5 * (lo + hi)
        sat = np.array([r * math.cos(math.radians(psi)), r * math.sin(math.radians(psi)), 0.0])
        assert np.linalg.norm(sat - gs) == pytest.approx(1123.277, abs=1.0)
        assert slant_range_km(550.0, 25.0) == pytest.approx(1123.277, abs=1e-3)

    def test_slant_range_at_zenith_is_altitude(self):
        assert slant_range_km(550.0, 90.0) == pytest.approx(550.0, abs=1e-9)


class TestPropagationDelay:
    def test_zero(self):
        assert propagation_delay(0.0) == 0.0

    def test_550_km(self):
        assert propagation_delay(550.0) == pytest.approx(1.8346e-3, abs=1e-6)

    def test_3_km(self):
        assert propagation_delay(3.0) == pytest.approx(10.0069e-6, abs=1e-9)
