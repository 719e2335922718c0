import numpy as np
import pytest

from leofault import (
    CircularElements,
    DoseProfile,
    FaultModelConfig,
    ManeuverEvent,
    RandomStreams,
    SatelliteId,
    default_dose_profile,
    dose_rate,
    expected_seu_count,
    propagate,
    rain_events,
    rain_multiplier,
    read_precipitation_csv,
    sample_handover_spikes,
    sample_maneuvers,
    sample_seu_events,
    tid_survival,
)
from leofault.constants import SPEED_OF_LIGHT_KM_S
from leofault.faults import offsets_at

FLEET4 = [SatelliteId(0, 0, i) for i in range(4)]


def small_fleet(n):
    return [SatelliteId(0, 0, i) for i in range(n)]


class TestExpectedSeuCount:
    def test_gen1_low_rate(self):
        assert expected_seu_count(1e-4, 60, 4408, 1) == pytest.approx(26.448)

    def test_gen1_high_rate(self):
        assert expected_seu_count(1e-3, 60, 4408, 1) == pytest.approx(264.48)

    def test_zero_devices(self):
        assert expected_seu_count(0.5, 0, 100, 10) == 0.0


class TestSampleSeuEvents:
    def test_zero_rate(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=0.0)
        assert sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(1)) == []

    def test_zero_length_interval(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=1.0)
        assert sample_seu_events(cfg, FLEET4, 100.0, 100.0, RandomStreams(1)) == []

    def test_deterministic(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=0.05)
        a = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(99))
        b = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(99))
        assert a == b
        c = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(100))
        assert a != c

    def test_event_shape(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=0.05, seu_downtime_s=30.0)
        events = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(5))
        assert events
        for e in events:
            assert e.kind == "device_reboot"
            assert e.params == {"downtime_s": 30.0}
            assert 0.0 <= e.t_s < 86400.0
            assert 0 <= e.target.device < 60
            assert e.target.sat in FLEET4
        assert [e.t_s for e in events] == sorted(e.t_s for e in events)

    def test_permanent_probability_one(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=0.05, seu_permanent_prob=1.0)
        events = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, RandomStreams(5))
        assert events
        assert all(e.kind == "device_permanent_failure" for e in events)
        assert all(e.params == {} for e in events)

    def test_unaffected_by_other_models(self):
        cfg = FaultModelConfig(seu_rate_per_device_day=0.05)
        streams = RandomStreams(7)
        baseline = sample_seu_events(cfg, FLEET4, 0.0, 86400.0, streams)
        sample_maneuvers(FaultModelConfig(maneuver_rate_per_sat_year=1000.0), FLEET4, 0.0, 1e6, streams)
        sample_handover_spikes(cfg, ["gs"], 0.0, 3600.0, streams)
        assert sample_seu_events(cfg, FLEET4, 0.0, 86400.0, streams) == baseline

    def test_poisson_mean_and_variance(self):
        # lambda = 2.5e-3 * 60 * 40 sats * 1 day = 6 events
        cfg = FaultModelConfig(seu_rate_per_device_day=2.5e-3)
        fleet = small_fleet(40)
        lam = expected_seu_count(2.5e-3, 60, 40, 1)
        n_seeds = 1000
        counts = np.array([
            len(sample_seu_events(cfg, fleet, 0.0, 86400.0, RandomStreams(seed)))
            for seed in range(n_seeds)
        ])
        assert abs(counts.mean() - lam) < 3.0 * np.sqrt(lam / n_seeds)
        var_tolerance = 3.0 * np.sqrt((lam + 2.0 * lam**2) / n_seeds)
        assert abs(counts.var(ddof=1) - lam) < var_tolerance


class TestDoseModel:
    def test_peak_rate(self):
        assert dose_rate(default_dose_profile(), 73.0, 5.0) == pytest.approx(8.0)

    def test_equatorial_rate(self):
        assert dose_rate(default_dose_profile(), 0.0, 5.0) == pytest.approx(0.0)

    def test_mirror_exact(self):
        profile = default_dose_profile()
        for inclination in np.linspace(0.0, 90.0, 91):
            assert dose_rate(profile, float(inclination), 5.0) == dose_rate(
                profile, 180.0 - float(inclination), 5.0
            )

    def test_mirror_example(self):
        profile = default_dose_profile()
        assert dose_rate(profile, 107.0, 5.0) == dose_rate(profile, 73.0, 5.0)

    @pytest.mark.parametrize("bad", [-0.1, 180.5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            dose_rate(default_dose_profile(), bad, 5.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DoseProfile(anchors=((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            DoseProfile(anchors=((0.0, 0.0), (95.0, 1.0)))
        with pytest.raises(ValueError):
            DoseProfile(anchors=())
        with pytest.raises(ValueError, match="dose"):
            DoseProfile(anchors=((0.0, float("nan")), (90.0, 2.0)))


class TestTidSurvival:
    def test_peak_inclination_survives_five_years(self):
        report = tid_survival(default_dose_profile(), 73.0, 50.0, 5.0)
        assert report.dose_krad == pytest.approx(40.0)
        assert report.survives is True
        assert report.lifetime_years == pytest.approx(6.25)

    def test_equatorial_unbounded(self):
        report = tid_survival(default_dose_profile(), 0.0, 50.0, 5.0)
        assert report.survives is True
        assert report.lifetime_years == float("inf")

    def test_tight_limit_fails(self):
        report = tid_survival(default_dose_profile(), 73.0, 30.0, 5.0)
        assert report.survives is False

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            tid_survival(default_dose_profile(), 73.0, 0.0, 5.0)


class TestRainMultiplier:
    def test_dry(self):
        assert rain_multiplier(0.0) == 1.0

    def test_light_rain(self):
        assert rain_multiplier(1.5) == 1.0
        assert rain_multiplier(2.0) == 1.0

    def test_moderate_rain(self):
        assert rain_multiplier(4.0) == pytest.approx(120.0 / 215.0, abs=1e-12)
        assert rain_multiplier(4.0) == pytest.approx(0.5581, abs=1e-4)
        assert rain_multiplier(9.0) == pytest.approx(120.0 / 215.0, abs=1e-12)

    def test_linear_midpoint(self):
        assert rain_multiplier(3.0) == pytest.approx(0.7791, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rain_multiplier(-0.1)

    def test_continuous_nonincreasing_with_range(self):
        grid = np.linspace(0.0, 8.0, 1601)
        values = [rain_multiplier(float(x)) for x in grid]
        floor = 120.0 / 215.0
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12
            assert abs(later - earlier) < 0.005  # continuity at grid resolution
        assert all(floor <= v <= 1.0 for v in values)


class TestHandoverSpikes:
    def test_count_bounds_default_hour(self):
        cfg = FaultModelConfig()
        for seed in range(10):
            events = sample_handover_spikes(cfg, ["gs0"], 0.0, 3600.0, RandomStreams(seed))
            assert 30 <= len(events) <= 60

    def test_loss_rates_in_band(self):
        cfg = FaultModelConfig()
        events = sample_handover_spikes(cfg, ["a", "b"], 0.0, 3600.0, RandomStreams(3))
        assert events
        for e in events:
            assert 0.01 <= e.params["loss_rate"] <= 0.02
            assert e.params["duration_s"] == 1.0
            assert e.kind == "handover_spike"

    def test_zero_length_interval(self):
        assert sample_handover_spikes(FaultModelConfig(), ["gs"], 5.0, 5.0, RandomStreams(1)) == []

    def test_deterministic_per_station(self):
        cfg = FaultModelConfig()
        one = sample_handover_spikes(cfg, ["a", "b"], 0.0, 3600.0, RandomStreams(11))
        two = sample_handover_spikes(cfg, ["b", "a"], 0.0, 3600.0, RandomStreams(11))
        assert one == two  # station order does not matter

    def test_geometric_mode(self):
        cfg = FaultModelConfig()
        schedules = {"gs0": [100.0, 500.0, 4000.0]}
        events = sample_handover_spikes(
            cfg, ["gs0"], 0.0, 3600.0, RandomStreams(5), mode="geometric", schedules=schedules
        )
        assert [e.t_s for e in events] == [100.0, 500.0]
        assert all(0.01 <= e.params["loss_rate"] <= 0.02 for e in events)

    def test_geometric_requires_schedules(self):
        with pytest.raises(ValueError):
            sample_handover_spikes(
                FaultModelConfig(), ["gs0"], 0.0, 3600.0, RandomStreams(5), mode="geometric"
            )


class TestManeuvers:
    def test_mean_count_against_poisson(self):
        cfg = FaultModelConfig(maneuver_rate_per_sat_year=12.0)
        fleet = small_fleet(1000)
        year = 365.25 * 86400.0
        counts = [
            len(sample_maneuvers(cfg, fleet, 0.0, year, RandomStreams(seed)))
            for seed in range(100)
        ]
        assert abs(np.mean(counts) - 12000.0) < 3.0 * np.sqrt(12000.0)

    def test_gen2_budget(self):
        # 70 maneuvers per year over five years averages 350 per satellite
        cfg = FaultModelConfig(maneuver_rate_per_sat_year=70.0)
        fleet = small_fleet(50)
        five_years = 5 * 365.25 * 86400.0
        events = sample_maneuvers(cfg, fleet, 0.0, five_years, RandomStreams(17))
        per_sat = len(events) / len(fleet)
        assert abs(per_sat - 350.0) < 3.0 * np.sqrt(350.0 * len(fleet)) / len(fleet)

    def test_magnitudes_in_band(self):
        cfg = FaultModelConfig(maneuver_rate_per_sat_year=200.0)
        events = sample_maneuvers(cfg, FLEET4, 0.0, 365.25 * 86400.0, RandomStreams(2))
        assert events
        assert all(1.0 <= abs(e.dh_km) <= 3.0 for e in events)
        signs = {e.dh_km > 0 for e in events}
        assert signs == {True, False}

    def test_zero_rate(self):
        cfg = FaultModelConfig(maneuver_rate_per_sat_year=0.0)
        assert sample_maneuvers(cfg, FLEET4, 0.0, 1e7, RandomStreams(1)) == []

    def test_deterministic(self):
        cfg = FaultModelConfig(maneuver_rate_per_sat_year=50.0)
        a = sample_maneuvers(cfg, FLEET4, 0.0, 1e7, RandomStreams(4))
        b = sample_maneuvers(cfg, FLEET4, 0.0, 1e7, RandomStreams(4))
        assert a == b


class TestActiveAltitudeOffset:
    SAT = SatelliteId(0, 0, 0)

    def test_no_events(self):
        assert offsets_at([], 100.0).get(self.SAT, 0.0) == 0.0

    def test_inside_dwell(self):
        events = [ManeuverEvent(self.SAT, 100.0, 3.0, 86400.0)]
        assert offsets_at(events, 5000.0).get(self.SAT, 0.0) == 3.0

    def test_after_dwell(self):
        events = [ManeuverEvent(self.SAT, 100.0, 3.0, 1000.0)]
        assert offsets_at(events, 1100.0).get(self.SAT, 0.0) == 0.0

    def test_other_satellite_unaffected(self):
        events = [ManeuverEvent(self.SAT, 100.0, 3.0, 1000.0)]
        assert offsets_at(events, 500.0).get(SatelliteId(0, 0, 1), 0.0) == 0.0

    def test_overlapping_events_sum_and_clamp(self):
        events = [ManeuverEvent(self.SAT, float(k), 3.0, 1e6) for k in range(5)]
        assert offsets_at(events, 10.0).get(self.SAT, 0.0) == 10.0  # clamped from 15
        events = [ManeuverEvent(self.SAT, 0.0, 2.0, 1e6), ManeuverEvent(self.SAT, 1.0, 3.0, 1e6)]
        assert offsets_at(events, 10.0).get(self.SAT, 0.0) == 5.0

    def test_offsets_at_matches_scalar(self):
        events = sorted(
            [
                ManeuverEvent(self.SAT, 0.0, 2.0, 1000.0),
                ManeuverEvent(SatelliteId(0, 0, 1), 10.0, -1.5, 1000.0),
                ManeuverEvent(SatelliteId(0, 0, 2), 2000.0, 1.0, 1000.0),
            ],
            key=lambda e: e.start_s,
        )
        snapshot = offsets_at(events, 500.0)
        assert snapshot == {
            self.SAT: 2.0,
            SatelliteId(0, 0, 1): -1.5,
        }


class TestManeuverLatencyBound:
    def test_delay_change_bounded_by_radial_displacement(self, rng):
        # moving both endpoints radially by at most 3 km changes the
        # segment length by at most 6 km, i.e. 20.02 us one way
        bound_s = 2.0 * 3.0 / SPEED_OF_LIGHT_KM_S
        assert bound_s <= 20.02e-6
        for _ in range(300):
            e1 = CircularElements(
                6921.0, float(rng.uniform(0, 180)), float(rng.uniform(0, 360)), float(rng.uniform(0, 360))
            )
            e2 = CircularElements(
                6921.0, float(rng.uniform(0, 180)), float(rng.uniform(0, 360)), float(rng.uniform(0, 360))
            )
            d1 = float(rng.choice([-3.0, 3.0]))
            d2 = float(rng.choice([-3.0, 3.0]))
            base = np.linalg.norm(propagate(e2, 0.0) - propagate(e1, 0.0))
            moved = np.linalg.norm(propagate(e2, 0.0, d2) - propagate(e1, 0.0, d1))
            delay_change = abs(moved - base) / SPEED_OF_LIGHT_KM_S
            assert delay_change <= 20.02e-6


class TestRainEvents:
    def test_series_transitions(self):
        cfg = FaultModelConfig()
        series = [(0.0, 0.0), (100.0, 4.0), (200.0, 0.0)]
        events = rain_events(cfg, ["gs0"], series, 0.0, 600.0)
        assert [(e.t_s, e.params["throughput_multiplier"]) for e in events] == [
            (100.0, pytest.approx(120.0 / 215.0)),
            (200.0, 1.0),
        ]
        assert events[0].params["latency_factor"] == 2.0
        assert events[1].params["latency_factor"] == 1.0

    def test_degraded_before_window_reported_at_start(self):
        cfg = FaultModelConfig()
        series = [(0.0, 6.0)]
        events = rain_events(cfg, ["gs0"], series, 100.0, 600.0)
        assert len(events) == 1
        assert events[0].t_s == 100.0

    def test_no_rain_no_events(self):
        assert rain_events(FaultModelConfig(), ["gs0"], [(0.0, 1.0)], 0.0, 600.0) == []

    def test_all_stations_receive_events(self):
        events = rain_events(FaultModelConfig(), ["a", "b"], [(10.0, 5.0)], 0.0, 600.0)
        assert {e.target.gs_id for e in events} == {"a", "b"}


class TestPrecipitationCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("t_s,mm_per_h\n0,0\n600,4.5\n1200,0\n")
        assert read_precipitation_csv(path) == [(0.0, 0.0), (600.0, 4.5), (1200.0, 0.0)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("time,rain\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_precipitation_csv(path)

    def test_non_increasing_times(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("t_s,mm_per_h\n0,0\n0,1\n")
        with pytest.raises(ValueError, match="increasing"):
            read_precipitation_csv(path)

    def test_negative_rate(self, tmp_path):
        path = tmp_path / "rain.csv"
        path.write_text("t_s,mm_per_h\n0,-1\n")
        with pytest.raises(ValueError, match="negative"):
            read_precipitation_csv(path)

    @pytest.mark.parametrize(
        "row", ["600,nan", "600,inf", "nan,1", "-inf,1", "600,heavy", "ten,1", "6_00,1", "600,4_5"]
    )
    def test_non_finite_or_non_numeric_cell(self, tmp_path, row):
        # a NaN t_s would also pass the strictly-increasing check; float() reads "6_00" as 600.0
        path = tmp_path / "rain.csv"
        path.write_text(f"t_s,mm_per_h\n0,0\n{row}\n1200,0\n")
        with pytest.raises(ValueError, match="line 3: t_s and mm_per_h must be finite numbers"):
            read_precipitation_csv(path)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = FaultModelConfig()
        assert cfg.rain_moderate_multiplier == pytest.approx(120.0 / 215.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(seu_rate_per_device_day=-1.0),
            dict(handover_min_s=200.0),  # above handover_max_s
            dict(rain_moderate_multiplier=0.0),
            dict(rain_moderate_multiplier=1.5),
            dict(seu_permanent_prob=1.5),
            dict(maneuver_dh_min_km=5.0),  # above dh_max
            dict(tid_limit_krad=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FaultModelConfig(**kwargs)

    def test_streams_seed_range(self):
        RandomStreams(0)
        RandomStreams(2**64 - 1)
        with pytest.raises(ValueError):
            RandomStreams(-1)
        with pytest.raises(ValueError):
            RandomStreams(2**64)
