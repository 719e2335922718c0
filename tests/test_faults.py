import hashlib
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leofault import (
    CircularElements,
    DeviceTarget,
    DoseProfile,
    FaultEvent,
    FaultModelConfig,
    GroundLinkTarget,
    ManeuverEvent,
    RandomStreams,
    SatelliteId,
    build_fleet,
    config_from_dict,
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
from leofault.faults import _CHUNK, _rain_changes, _rain_trace, _seed_states, _seu_trace, offsets_at
from test_golden import (
    ALL_KINDS_CONFIG,
    ALL_KINDS_TLE_RECORDS,
    DENSE_CONFIG,
    GEN1_CONFIG,
    GROUND_DIGESTS,
    OVERLAP_CONFIG,
    catalog_text,
)

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

    @pytest.mark.parametrize(
        "schedules, message",
        [
            ({"a": [5.0, float("nan")], "b": []}, r"^schedules\['a'\]\[1\] is NaN$"),
            ({"a": [5.0], "zz": [1.0]}, r"^schedules has station 'zz', which is not in gs_ids$"),
        ],
        ids=["nan-time", "unknown-station"],
    )
    def test_geometric_bad_schedule_named(self, schedules, message):
        with pytest.raises(ValueError, match=message):
            sample_handover_spikes(
                FaultModelConfig(), ["a", "b"], 0.0, 100.0, RandomStreams(5), mode="geometric", schedules=schedules
            )

    def test_geometric_requires_schedules(self):
        with pytest.raises(ValueError):
            sample_handover_spikes(
                FaultModelConfig(), ["gs0"], 0.0, 3600.0, RandomStreams(5), mode="geometric"
            )

    def test_renewal_rejects_schedules(self):
        # renewal draws its own spike times, so a schedule would be silently ignored
        with pytest.raises(ValueError, match="^schedules is read only in geometric mode; renewal mode"):
            sample_handover_spikes(
                FaultModelConfig(), ["gs0"], 0.0, 3600.0, RandomStreams(5), schedules={"gs0": [100.0]}
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

    @pytest.mark.parametrize(
        "series, bad",
        [
            # build-then-sort emitted a recovery at t = 100 before any degradation
            ([(500.0, 5.0), (100.0, 0.0), (300.0, 5.0)], 1),
            # and nothing at all here, over one day
            ([(90000.0, 5.0), (100.0, 5.0)], 1),
            ([(0.0, 9.0), (50.0, 0.0), (0.0, 9.0), (10.0, 0.0), (50.0, 9.0)], 2),
            ([(0.0, 5.0), (float("nan"), 0.0)], 1),
            ([(float("nan"), 5.0)], 0),
        ],
        ids=["recovery-first", "nothing-emitted", "ties-and-repeats", "nan-after", "nan-first"],
    )
    def test_decreasing_or_nan_time_rejected(self, series, bad):
        with pytest.raises(ValueError, match=rf"must not decrease: series\[{bad}\]"):
            rain_events(FaultModelConfig(), ["a", "a"], series, 0.0, 86400.0)


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
        "row",
        ["600,nan", "600,inf", "nan,1", "-inf,1", "600,heavy", "ten,1", "6_00,1", "600,4_5",
         "\u0666\u0660\u0660,1", "600,\uff14"],
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
            dict(handover_min_s=0.0, handover_max_s=0.0),
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

    @pytest.mark.parametrize("seed", [1.5, 5.0, np.float64(5.0)], ids=["1.5", "5.0", "float64"])
    def test_streams_seed_must_be_an_integer(self, seed):
        # a float inside the range passes the range rule, but no substream can take it
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            RandomStreams(seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1), np.int8(0)])
    def test_streams_take_numpy_integer_seeds(self, seed):
        streams = RandomStreams(seed)
        assert streams.stream("a").random() == RandomStreams(int(seed)).stream("a").random()


def reference_stream(seed, label):
    """The substream as numpy derives it: SeedSequence over the seed and the digest's 64-bit words."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def first_draws(rng):
    return rng.random(), int(rng.integers(60)), rng.exponential()


def assert_substreams_match_reference(seed, labels):
    bulk = list(RandomStreams(seed).substreams(labels))
    assert len(bulk) == len(labels)
    for label, rng in zip(labels, bulk):
        reference = reference_stream(seed, label)
        assert rng.bit_generator.state == reference.bit_generator.state, label
        assert first_draws(rng) == first_draws(reference), label


# 64-bit entropy words: zero, below 2**32 (one SeedSequence word) and any
words64 = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(0, 2**64 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(1, 12).flatmap(
        lambda k: st.lists(st.lists(words64, min_size=k, max_size=k), min_size=1, max_size=4)
    ),
)
def test_bulk_pool_matches_seed_sequence(seed, rows):
    # a zero high half shortens a row's entropy, so that row is mixed again alone
    states = _seed_states(seed, np.array(rows, "<u8").view("<u4"))
    for words, state in zip(rows, states):
        expected = np.random.SeedSequence([seed, *words]).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist(), words


def golden_labels(config):
    fleet = build_fleet(config)
    labels = [f"{model}/{sat.label()}" for model in ("seu", "maneuver") for sat in fleet]
    return labels + [f"handover/{gs.id}" for gs in config.ground_stations]


@pytest.mark.parametrize("name", ["gen1", "overlap", "all-kinds", "dense"])
def test_golden_substreams_match_seed_sequence(name, tmp_path):
    config = {"gen1": GEN1_CONFIG, "overlap": OVERLAP_CONFIG, "dense": DENSE_CONFIG}.get(name)
    if config is None:
        tle_path = tmp_path / "catalog.tle"
        tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
        config = {**ALL_KINDS_CONFIG, "tle_files": [str(tle_path)]}
    parsed = config_from_dict(config)
    assert_substreams_match_reference(parsed.seed, golden_labels(parsed))


def test_ground_path_substreams_match_seed_sequence():
    assert_substreams_match_reference(1, [f"handover/{gs_id}" for gs_id in GROUND_DIGESTS])


@pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1])
def test_substreams_chunk_edges(n):
    labels = [f"edge/{i}" for i in range(n)]
    assert_substreams_match_reference(2**32, labels)
    read = []
    first = next(RandomStreams(2**32).substreams(read.append(x) or x for x in labels), None)
    assert (first is None) == (n == 0)
    assert len(read) == min(n, _CHUNK)  # labels are read one chunk at a time


def test_stream_is_the_one_label_substream():
    streams = RandomStreams(5)
    assert first_draws(streams.stream("seu/0/0/0")) == first_draws(reference_stream(5, "seu/0/0/0"))


def reference_seu_events(config, fleet, t0_s, t1_s, streams):
    """sample_seu_events before it sorted rows: every event built, then sorted by sort_key."""
    events = []
    sat_rate_per_s = config.seu_rate_per_device_day * config.devices_per_satellite / 86400.0
    if sat_rate_per_s <= 0.0 or t1_s <= t0_s:
        return events
    rngs = streams.substreams(f"seu/{sat.label()}" for sat in fleet)
    for sat, rng in zip(fleet, rngs):
        t = t0_s
        while (t := t + rng.exponential(1.0 / sat_rate_per_s)) < t1_s:
            device = int(rng.integers(config.devices_per_satellite))
            permanent = rng.random() < config.seu_permanent_prob
            target = DeviceTarget(sat, device)
            if permanent:
                events.append(FaultEvent(t, "device_permanent_failure", target, {}))
            else:
                events.append(FaultEvent(t, "device_reboot", target, {"downtime_s": config.seu_downtime_s}))
    events.sort(key=lambda e: e.sort_key)
    return events


def reference_handover_spikes(config, gs_ids, t0_s, t1_s, streams, mode="renewal", schedules=None):
    """sample_handover_spikes before it sorted rows; a loss is drawn right after its renewal gap."""
    events = []
    rngs = streams.substreams(f"handover/{gs_id}" for gs_id in gs_ids)
    for gs_id, rng in zip(gs_ids, rngs):
        def spike_times():
            if mode == "geometric":
                yield from (float(t) for t in schedules.get(gs_id, ()) if t0_s <= t < t1_s)
                return
            t = t0_s
            while (t := t + rng.uniform(config.handover_min_s, config.handover_max_s)) < t1_s:
                yield t

        for t in spike_times():
            loss = rng.uniform(config.handover_loss_min, config.handover_loss_max)
            params = {"loss_rate": loss, "duration_s": config.handover_spike_s}
            events.append(FaultEvent(t, "handover_spike", GroundLinkTarget(gs_id), params))
    events.sort(key=lambda e: e.sort_key)
    return events


def reference_rain_events(config, gs_ids, series, t0_s, t1_s):
    """rain_events before it sorted rows."""
    changes, current = [], 1.0
    for t, mm in series:
        if t >= t1_s:
            break
        multiplier = rain_multiplier(mm, config)
        if multiplier == current:
            continue
        current = multiplier
        at = max(t, t0_s)
        if changes and changes[-1][0] == at:
            changes[-1] = (at, multiplier)
        else:
            changes.append((at, multiplier))
    if changes and changes[0][0] == t0_s and changes[0][1] == 1.0:
        changes.pop(0)
    events = [
        FaultEvent(t, "gs_link_degraded", GroundLinkTarget(gs_id), {
            "throughput_multiplier": multiplier,
            "latency_factor": config.rain_latency_factor if multiplier < 1.0 else 1.0,
        })
        for t, multiplier in changes
        for gs_id in gs_ids
    ]
    events.sort(key=lambda e: e.sort_key)
    return events


def exact(events):
    """Events with every float as its bits: -0.0 and 0.0 differ on the wire."""
    return [
        (e.t_s.hex(), e.kind, e.target, sorted((k, v.hex()) for k, v in e.params.items()))
        for e in events
    ]


class TiedDraws:
    """A Generator stand-in whose draws cycle through fixed values.

    Arrival gaps (exponential, and uniform over the handover gap range)
    include 0.0 and repeat in every stream, so arrivals tie within a stream
    and across streams. Devices, kinds and losses are shifted by the label,
    so tied arrivals of two streams differ in them.
    """

    def __init__(self, label, gap_range):
        self.shift = sum(label.encode())
        self.gap_range = gap_range
        self.calls = Counter()

    def _next(self, name, values, shift=0):
        self.calls[name] += 1
        assert self.calls[name] < 100_000, "the stub's gaps never advance"
        return values[(self.calls[name] + shift) % len(values)]

    def exponential(self, scale):
        return self._next("gap", (0.0, 300.0, 0.0, 0.0, 450.0))

    def uniform(self, low, high):
        if (low, high) == self.gap_range:  # a zero low end gives zero gaps
            return low + (high - low) * self._next("gap", (0.0, 1.0, 0.0, 0.5, 0.25))
        return low + (high - low) * self._next("loss", (0.0, 1.0, 0.5, 0.25, 0.75), self.shift)

    def integers(self, high):
        return self._next("device", (0, 1, 0, 2, 1), self.shift) % high

    def random(self):
        return self._next("kind", (0.25, 0.75, 0.25, 0.5, 0.25), self.shift)


def tied_substreams(config):
    """RandomStreams.substreams handing out TiedDraws, for config's handover gaps."""
    gap_range = (config.handover_min_s, config.handover_max_s)
    return lambda self, labels: (TiedDraws(label, gap_range) for label in labels)


@st.composite
def fault_configs(draw):
    ordered = lambda values: st.lists(st.sampled_from(values), min_size=2, max_size=2).map(sorted)
    handover_min, handover_max = draw(ordered([0.0, 20.0, 60.0, 120.0]).filter(lambda p: p[1] > 0.0))
    loss_min, loss_max = draw(ordered([0.0, 0.01, 0.5]))
    return FaultModelConfig(
        seu_rate_per_device_day=draw(st.sampled_from([0.0, 0.5, 4.0, 20.0])),
        devices_per_satellite=draw(st.integers(0, 60)),
        seu_downtime_s=draw(st.sampled_from([0.0, 30.0])),
        seu_permanent_prob=draw(st.sampled_from([0.0, 0.3, 1.0])),
        handover_min_s=handover_min,
        handover_max_s=handover_max,
        handover_loss_min=loss_min,
        handover_loss_max=loss_max,
        rain_latency_factor=draw(st.sampled_from([1.0, 2.0])),
    )


intervals = st.tuples(st.sampled_from([0.0, 100.0]), st.sampled_from([0.0, 600.0, 3600.0])).map(
    lambda p: (p[0], p[0] + p[1])
)
station_ids = st.lists(st.sampled_from(["a", "b", "c", "gs10"]), max_size=4)
# unsorted, duplicated, out-of-window and signed-zero handover instants
schedule_times = st.lists(
    st.sampled_from([-0.0, 0.0, 5.0, 5.0, 99.5, 100.0, 3599.0, 3600.0, 4000.0]) | st.floats(-10.0, 4000.0),
    max_size=12,
)
REFERENCE_ORDER = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@REFERENCE_ORDER
@given(fault_configs(), st.integers(0, 5), intervals, st.integers(0, 2**64 - 1), st.booleans())
def test_seu_events_match_build_then_sort(config, n_sats, interval, seed, tied):
    fleet = [SatelliteId(0, p, i) for p in (0, 1) for i in range(n_sats)][:n_sats]
    with pytest.MonkeyPatch.context() as mp:
        if tied:
            mp.setattr(RandomStreams, "substreams", tied_substreams(config))
        got = sample_seu_events(config, fleet, *interval, RandomStreams(seed))
        want = reference_seu_events(config, fleet, *interval, RandomStreams(seed))
    assert exact(got) == exact(want)


@REFERENCE_ORDER
@given(
    fault_configs(),
    station_ids,
    intervals,
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.none() | st.dictionaries(st.sampled_from(["a", "b", "gs10"]), schedule_times),
)
def test_handover_spikes_match_build_then_sort(config, gs_ids, interval, seed, tied, schedules):
    mode = "renewal" if schedules is None else "geometric"
    unknown = [gs_id for gs_id in schedules or () if gs_id not in gs_ids]
    if unknown:  # a schedule for a station not sampled is an error, not ignored
        with pytest.raises(ValueError, match=f"schedules has station {unknown[0]!r}, which is not in gs_ids"):
            sample_handover_spikes(config, gs_ids, *interval, RandomStreams(seed), mode, schedules)
        return
    with pytest.MonkeyPatch.context() as mp:
        if tied:
            mp.setattr(RandomStreams, "substreams", tied_substreams(config))
        got = sample_handover_spikes(config, gs_ids, *interval, RandomStreams(seed), mode, schedules)
        want = reference_handover_spikes(config, gs_ids, *interval, RandomStreams(seed), mode, schedules)
    assert exact(got) == exact(want)


@REFERENCE_ORDER
@given(
    fault_configs(),
    station_ids,
    intervals,
    # sorted by t, ties kept in drawn order: rain_events takes any series whose t never decreases
    st.lists(st.tuples(st.sampled_from([0.0, 50.0, 100.0, 600.0, 5000.0]), st.sampled_from([0.0, 1.0, 3.0, 9.0])),
             max_size=8).map(lambda rows: sorted(rows, key=lambda row: row[0])),
)
@example(
    FaultModelConfig(), ["a", "a"], (0.0, 600.0), [(0.0, 9.0), (0.0, 9.0), (10.0, 0.0), (50.0, 0.0), (50.0, 9.0)]
)
def test_rain_events_match_build_then_sort(config, gs_ids, interval, series):
    got = rain_events(config, gs_ids, series, *interval)
    assert exact(got) == exact(reference_rain_events(config, gs_ids, series, *interval))


def test_seu_trace_holds_rows_not_events():
    # about 2e4 events: 0.4 upsets per device-day * 50 devices * 1,000 satellites * 1 day
    config = FaultModelConfig(seu_rate_per_device_day=0.4, devices_per_satellite=50, seu_permanent_prob=0.01)
    fleet = small_fleet(1000)
    list(_seu_trace(config, fleet[:1], 0.0, 86400.0, RandomStreams(3)))  # imports numpy.random outside the trace
    tracemalloc.start()
    try:
        count = sum(1 for _ in _seu_trace(config, fleet, 0.0, 86400.0, RandomStreams(3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.9e4 < count < 2.1e4
    assert peak / count <= 160  # a sorted list of built events held 621 B per event


def test_rain_trace_holds_changes_not_rows():
    # 5,000 stations and 20 changes: 1e5 events
    config = FaultModelConfig()
    gs_ids = [f"gs{k}" for k in range(5000)]
    series = [(60.0 * k, 5.0 * (k % 2)) for k in range(1, 21)]
    tracemalloc.start()
    try:
        count = sum(1 for _ in _rain_trace(config, gs_ids, _rain_changes(config, series, 0.0, 86400.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 20 * 5000
    assert peak / count <= 16  # a sorted list of (change, station) rows held 160 B per event
