import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leofault import (
    CircularElements,
    ConfigError,
    FaultEvent,
    FaultModelConfig,
    IslTarget,
    ManeuverEvent,
    RandomStreams,
    SatelliteId,
    SatelliteTarget,
    ShellSpec,
    TleRecord,
    build_constellation,
    build_fleet,
    config_from_dict,
    config_to_dict,
    format_summary,
    load_config,
    merge_traces,
    read_precipitation_csv,
    read_trace,
    run_simulation,
    sample_maneuvers,
    serialize_tle,
    topology,
    write_trace,
)
from leofault.cli import main
from leofault.geometry import is_isl_viable
from leofault.orbital import time_grid
from leofault.simulation import (
    MAX_EVENTS,
    MAX_SATELLITES,
    MAX_STEPS,
    _check_expected_events,
)
from leofault.faults import _maneuver_trace, _rain_changes, _rain_trace, _seu_trace, _spike_trace
from leofault.topology import INTRA_PLANE, GridTopology, _isl_transition_trace
import leofault.trace as trace_module
from leofault.trace import KIND_TARGET_TYPE, _event_from_row
from test_faults import (
    exact,
    fault_configs,
    intervals,
    reference_handover_spikes,
    reference_rain_events,
    reference_seu_events,
    schedule_times,
    station_ids,
    tied_substreams,
)
from test_golden import ALL_KINDS_CONFIG, ALL_KINDS_PRECIPITATION, ALL_KINDS_TLE_RECORDS, ALL_KINDS_TRACE_SHA256, catalog_text

SPARSE = {
    "altitude_km": 560.0,
    "inclination_deg": 97.6,
    "planes": 6,
    "sats_per_plane": 58,
}

SMALL = {
    "altitude_km": 550.0,
    "inclination_deg": 53.0,
    "planes": 10,
    "sats_per_plane": 10,
}


def minimal_config(**overrides) -> dict:
    obj = {"shells": [dict(SMALL)], "duration_s": 600.0, "step_s": 60.0, "seed": 7}
    obj.update(overrides)
    return obj


def reference_isl_transition_trace(topo, times, maneuvers, threshold_km, samples):
    """The full scan _isl_transition_trace ran before it skipped links that
    cannot cross the threshold: every edge evaluated at every step."""
    if topo.n_edges == 0:
        return
    previous = None
    for t, grazing in topo.scan(times, maneuvers):
        viable = is_isl_viable(grazing, threshold_km)
        samples["total"] += len(viable)
        samples["infeasible"] += int(np.sum(~viable))
        if previous is not None:
            step = []
            for idx in np.nonzero(viable != previous)[0]:
                kind = "isl_up" if viable[idx] else "isl_down"
                target = IslTarget(*topo.edge_ids[idx])
                step.append(FaultEvent(t, kind, target, {"grazing_km": float(grazing[idx])}))
            step.sort(key=lambda e: e.sort_key)  # all at t, so by (kind, target)
            yield from step
        previous = viable


def assert_skip_scan_matches_reference(topo, times, maneuvers, threshold_km):
    """Transitions, their grazing_km bits and the sample counts equal the full scan's."""
    got, want = Counter(), Counter()
    events = list(map(_event_from_row, _isl_transition_trace(topo, times, maneuvers, threshold_km, got)))
    expected = list(reference_isl_transition_trace(topo, times, maneuvers, threshold_km, want))
    assert [(e.t_s, e.kind, e.target) for e in events] == [(e.t_s, e.kind, e.target) for e in expected]
    assert [e.params["grazing_km"].hex() for e in events] == [
        e.params["grazing_km"].hex() for e in expected
    ]
    assert (got["total"], got["infeasible"]) == (want["total"], want["infeasible"])
    assert got["evaluated"] <= got["total"]


class TestConfigParsing:
    def test_defaults_materialized(self):
        config = config_from_dict(minimal_config())
        materialized = config_to_dict(config)
        assert materialized["isl_threshold_km"] == 80.0
        assert materialized["earth_radius_km"] == 6371.0
        assert materialized["faults"]["devices_per_satellite"] == 60

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'durationn_s'"):
            config_from_dict(minimal_config(durationn_s=5))

    def test_unknown_shell_key(self):
        bad = minimal_config()
        bad["shells"][0]["altitud_km"] = 1.0
        with pytest.raises(ConfigError, match="'altitud_km'"):
            config_from_dict(bad)

    def test_unknown_faults_key(self):
        with pytest.raises(ConfigError, match="'seu_rate'"):
            config_from_dict(minimal_config(faults={"seu_rate": 1.0}))

    def test_unknown_station_key(self):
        with pytest.raises(ConfigError, match="'lat'"):
            config_from_dict(
                minimal_config(ground_stations=[{"id": "a", "lat": 1.0, "longitude_deg": 2.0}])
            )

    def test_removed_tid_key_is_unknown(self):
        # TID lifetime is the dose subcommand's; simulate never read these keys
        with pytest.raises(ConfigError, match="^unknown key 'tid_limit_krad' in faults$"):
            config_from_dict(minimal_config(faults={"tid_limit_krad": 50}))

    def test_invalid_duration_names_field(self):
        with pytest.raises(ConfigError, match="duration_s"):
            config_from_dict(minimal_config(duration_s=-1.0))

    def test_invalid_shell_value(self):
        bad = minimal_config()
        bad["shells"][0]["altitude_km"] = 5000.0
        with pytest.raises(ConfigError, match="altitude_km"):
            config_from_dict(bad)

    def test_requires_satellite_source(self):
        with pytest.raises(ConfigError, match="shells"):
            config_from_dict({"duration_s": 10.0, "step_s": 1.0})

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(minimal_config(seed="42"))

    def test_counts_must_be_integers(self):
        bad = minimal_config()
        bad["shells"][0]["planes"] = 10.0
        with pytest.raises(ConfigError, match="planes"):
            config_from_dict(bad)
        with pytest.raises(ConfigError, match="devices_per_satellite"):
            config_from_dict(minimal_config(faults={"devices_per_satellite": 60.5}))

    def test_devices_per_satellite_bounded_by_the_draw(self):
        # rng.integers(n) draws for n up to 2**63; a tiny rate kept 10**32 devices under the upset bound
        FaultModelConfig(devices_per_satellite=2**63)
        with pytest.raises(ValueError, match=r"devices_per_satellite must be in \[0, 9223372036854775808\]"):
            FaultModelConfig(devices_per_satellite=2**63 + 1)
        faults = {"seu_rate_per_device_day": 1e-30, "devices_per_satellite": 10**32}
        with pytest.raises(ConfigError, match=r"^faults\.devices_per_satellite must be in"):
            config_from_dict(minimal_config(faults=faults))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("duration_s", float("nan")),
            ("duration_s", json.loads("1e999")),
            ("step_s", float("-inf")),
            ("seed", True),
            ("shells[0].planes", True),
            ("faults.maneuver_rate_per_sat_year", float("nan")),
            ("ground_stations[0].latitude_deg", float("nan")),
            ("duration_s", 10**400),
            ("faults.seu_downtime_s", -(10**400)),
            ("duration_s", "3600"),
            ("step_s", None),
            ("faults.rain_light_mm_h", "2"),
            ("shells[0].altitude_km", "550"),
            ("ground_stations[0].latitude_deg", "1"),
        ],
    )
    def test_bool_and_non_finite_rejected_by_path(self, path, value):
        obj = minimal_config(
            faults={},
            ground_stations=[{"id": "a", "latitude_deg": 0.0, "longitude_deg": 0.0}],
        )
        *parents, leaf = path.replace("[", ".").replace("]", "").split(".")
        holder = obj
        for key in parents:
            holder = holder[int(key)] if isinstance(holder, list) else holder[key]
        holder[int(leaf) if isinstance(holder, list) else leaf] = value
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(obj)
        assert str(excinfo.value).startswith(path + " ")

    def test_huge_phase_offset_names_the_shell_and_field(self):
        # an integer F within the float range whose plane phases are not
        bad = minimal_config()
        bad["shells"][0]["phase_offset_f"] = 10**308
        with pytest.raises(ConfigError, match=r"^shells\[0\]\.phase_offset_f must give finite plane phases"):
            config_from_dict(bad)

    def test_wrong_typed_leaf_message(self):
        bad = minimal_config()
        bad["shells"][0]["altitude_km"] = "550"
        with pytest.raises(ConfigError, match=r'^shells\[0\]\.altitude_km must be a number, got "550"$'):
            config_from_dict(bad)

    def test_step_count_cap(self):
        # fails at validation, before a 10^15-sample time grid is allocated
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(minimal_config(duration_s=1e12, step_s=1e-3))
        assert "duration_s" in str(excinfo.value) and "step_s" in str(excinfo.value)
        config = config_from_dict(minimal_config(duration_s=float(MAX_STEPS), step_s=1.0))
        assert config.duration_s == MAX_STEPS
        with pytest.raises(ConfigError, match="duration_s / step_s"):
            config_from_dict(minimal_config(duration_s=MAX_STEPS + 1.0, step_s=1.0))
        assert config_from_dict(minimal_config(duration_s=86400.0, step_s=0.1))

    @pytest.mark.parametrize("gs_id", [5, ["a"], None])
    def test_non_string_station_id_rejected(self, gs_id):
        # a trace names stations by id, and read_trace accepts only strings
        station = {"id": gs_id, "latitude_deg": 52.5, "longitude_deg": 13.4}
        with pytest.raises(ConfigError, match=r"ground_stations\[0\]\.id must be a string"):
            config_from_dict(minimal_config(ground_stations=[station]))

    def test_duplicate_station_ids_rejected(self):
        station = {"id": "berlin", "latitude_deg": 52.5, "longitude_deg": 13.4}
        with pytest.raises(ConfigError, match=r"ground_stations\[1\]: duplicate id 'berlin'"):
            config_from_dict(minimal_config(ground_stations=[station, dict(station)]))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"precipitation_csv": 5}, "precipitation_csv must be a path string"),
            ({"shells": [dict(SMALL, raan_spread_deg=None)]}, r"shells\[0\]"),
            ({"shells": [dict(SMALL, raan_spread_deg="360")]}, r"shells\[0\]"),
        ],
        ids=["precipitation-csv", "raan-spread-null", "raan-spread-string"],
    )
    def test_wrong_type_rejected(self, overrides, match):
        # each of these used to pass config_from_dict
        with pytest.raises(ConfigError, match=match):
            config_from_dict(minimal_config(**overrides))

    @pytest.mark.parametrize(
        "faults, match",
        [
            ({"handover_min_s": 0, "handover_max_s": 0}, r"faults[.]handover_max_s must be > 0"),
            ({"handover_min_s": 0, "handover_max_s": 1e-300}, "mean handover gap"),
        ],
    )
    def test_handover_gap_that_never_ends_rejected(self, faults, match):
        # zero or tiny gaps never carry a station's spike arrivals past duration_s
        with pytest.raises(ConfigError, match=match):
            config_from_dict(minimal_config(faults=faults))
        gap = 600.0 / MAX_STEPS  # minimal_config's duration_s over the spike cap
        assert config_from_dict(minimal_config(faults={"handover_min_s": 2 * gap, "handover_max_s": 2 * gap}))
        with pytest.raises(ConfigError, match="mean handover gap"):  # twice the cap
            config_from_dict(minimal_config(faults={"handover_min_s": 0.0, "handover_max_s": gap}))

    def test_precipitation_keys_are_exclusive(self):
        with pytest.raises(ConfigError, match="precipitation_mm_h and precipitation_csv"):
            config_from_dict(minimal_config(precipitation_mm_h=1.0, precipitation_csv="rain.csv"))

    def test_fleet_size_cap(self):
        # fails at validation, before build_fleet allocates 10^16 satellites
        huge = dict(SMALL, planes=10**8, sats_per_plane=10**8)
        with pytest.raises(ConfigError, match=f"^shells must declare at most {MAX_SATELLITES}"):
            config_from_dict(minimal_config(shells=[huge]))
        at_cap = dict(SMALL, planes=100, sats_per_plane=MAX_SATELLITES // 200)
        assert config_from_dict(minimal_config(shells=[at_cap, at_cap]))
        with pytest.raises(ConfigError, match="shells"):
            config_from_dict(minimal_config(shells=[at_cap, at_cap, dict(SMALL, planes=1, sats_per_plane=1)]))

    def test_readme_config_block_matches_schema(self):
        # the documented schema is the one config_to_dict materializes
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
        documented = json.loads(re.sub(r"\s*//.*", "", block))

        def key_tree(value):
            if isinstance(value, dict):
                return {key: key_tree(item) for key, item in value.items()}
            if isinstance(value, list):
                return [key_tree(item) for item in value]
            return None

        assert key_tree(documented) == key_tree(config_to_dict(config_from_dict(documented)))

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()))
        config = load_config(path)
        assert config.seed == 7

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_load_config_deeply_nested_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_load_config_over_long_integer(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1%s}' % ("0" * 5000))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ('"duration_s":', '"duration_s":60.0,"duration_s":', "simulation config"),
            ('"altitude_km":', '"altitude_km":550.0,"altitude_km":', "shells[0]"),
            ('"seu_rate_per_device_day":', '"seu_rate_per_device_day":0.0,"seu_rate_per_device_day":', "faults"),
            ('"id":"b"', '"id":"b","id":"c"', "ground_stations[1]"),
        ],
        ids=["top-level", "shells[0]", "faults", "ground_stations[1]"],
    )
    def test_load_config_rejects_duplicate_keys(self, tmp_path, old, new, where):
        # json keeps a repeated key's last value: this config used to run with the second one
        path = tmp_path / "config.json"
        stations = [{"id": gs_id, "latitude_deg": 0.0, "longitude_deg": 0.0} for gs_id in "ab"]
        config = minimal_config(faults={"seu_rate_per_device_day": 0.001}, ground_stations=stations)
        text = json.dumps(config, separators=(",", ":"))
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        key = old.split('"')[1]
        with pytest.raises(ConfigError, match=f"^duplicate key '{key}' in {re.escape(where)}$"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestBuildFleet:
    def test_tle_pseudo_shell(self, tmp_path):
        rec = TleRecord(
            catalog_number=44713, epoch_year=2023, epoch_day=15.5, inclination_deg=53.05,
            raan_deg=100.0, eccentricity=0.0001, arg_perigee_deg=90.0, mean_anomaly_deg=270.0,
            mean_motion_rev_per_day=15.06,
        )
        tle_path = tmp_path / "snapshot.tle"
        tle_path.write_text("\n".join(serialize_tle(rec)) + "\n")
        config = config_from_dict(minimal_config(tle_files=[str(tle_path)]))
        constellation = build_fleet(config)
        assert len(constellation) == 100 + 1
        pseudo = constellation[SatelliteId(1, 0, 0)]
        assert pseudo.inclination_deg == pytest.approx(53.05)
        # catalog satellites carry no +GRID links
        topo = GridTopology(constellation)
        assert topo.n_edges == 2 * 10 * 10

    def test_setup_leaves_numpy_random_unimported(self, tmp_path):
        # set-up is import, load_config, build_fleet and GridTopology (setup_s
        # in benchmarks/); numpy.random belongs to the samplers, which run later
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()))
        code = (
            "import sys\n"
            "import leofault\n"
            f"config = leofault.load_config({str(path)!r})\n"
            "leofault.GridTopology(leofault.build_fleet(config), config.earth_radius_km)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_setup_leaves_numpy_ma_unimported(self, tmp_path):
        # GridTopology groups shells by their id columns; np.unique would import numpy.ma
        # (about 20 ms and 0.5-1 MB of set-up)
        tle_path, path = tmp_path / "catalog.tle", tmp_path / "config.json"
        tle_path.write_text(catalog_text(3), encoding="utf-8")
        path.write_text(json.dumps(minimal_config(tle_files=[str(tle_path)])))
        code = (
            "import sys\n"
            "import leofault\n"
            f"config = leofault.load_config({str(path)!r})\n"
            "leofault.GridTopology(leofault.build_fleet(config), config.earth_radius_km)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


class TestRunSimulation:
    def test_rate_zero_trace_contains_only_isl_events(self, tmp_path):
        config = config_from_dict(
            {
                "shells": [dict(SPARSE)],
                "duration_s": 600.0,
                "step_s": 60.0,
                "seed": 3,
                "faults": {"seu_rate_per_device_day": 0.0, "maneuver_rate_per_sat_year": 0.0},
            }
        )
        trace_path = tmp_path / "trace.jsonl"
        summary = run_simulation(config, trace_path)
        events = read_trace(trace_path)
        assert events
        assert {e.kind for e in events} <= {"isl_down", "isl_up"}
        assert summary["sampled_seu_count"] == 0
        downs = [e for e in events if e.kind == "isl_down"]
        assert downs  # polar cross-plane links lose viability within minutes
        for e in downs:
            assert e.target.a != e.target.b
            assert e.target.a.shell == e.target.b.shell == 0
            assert e.params["grazing_km"] < 80.0

    def test_deterministic_run(self, tmp_path):
        config = config_from_dict(
            minimal_config(
                ground_stations=[{"id": "gs0", "latitude_deg": 30.0, "longitude_deg": 0.0}],
                duration_s=3600.0,
                faults={"seu_rate_per_device_day": 0.01},
            )
        )
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_simulation(config, p1)
        run_simulation(config, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_trace(self, tmp_path):
        base = minimal_config(duration_s=86400.0, faults={"seu_rate_per_device_day": 0.001})
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_simulation(config_from_dict(base), p1)
        base["seed"] = 8
        run_simulation(config_from_dict(base), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_sampled_seu_near_expected(self, tmp_path):
        # 100 satellites x 60 devices for one day at 1e-3/device/day: lambda = 6
        config = config_from_dict(
            minimal_config(
                duration_s=86400.0,
                step_s=21600.0,
                faults={"seu_rate_per_device_day": 1e-3},
                seed=12,
            )
        )
        summary = run_simulation(config, tmp_path / "t.jsonl")
        lam = summary["expected_seu_count"]
        assert lam == pytest.approx(6.0)
        assert abs(summary["sampled_seu_count"] - lam) <= 3.0 * lam**0.5

    def test_maneuver_events_emitted_in_pairs(self, tmp_path):
        config = config_from_dict(
            minimal_config(
                duration_s=86400.0,
                step_s=21600.0,
                faults={"maneuver_rate_per_sat_year": 400.0, "maneuver_dwell_s": 1000.0},
            )
        )
        run_simulation(config, tmp_path / "t.jsonl")
        events = read_trace(tmp_path / "t.jsonl")
        starts = [e for e in events if e.kind == "maneuver_start"]
        ends = [e for e in events if e.kind == "maneuver_end"]
        assert starts
        # every dwell that finishes inside the window has a matching end
        finished = [e for e in starts if e.t_s + 1000.0 < 86400.0]
        assert len(ends) == len(finished)
        for e in starts:
            assert 1.0 <= abs(e.params["dh_km"]) <= 3.0

    def test_handover_spikes_per_station(self, tmp_path):
        config = config_from_dict(
            minimal_config(
                duration_s=3600.0,
                ground_stations=[
                    {"id": "gs0", "latitude_deg": 30.0, "longitude_deg": 0.0},
                    {"id": "gs1", "latitude_deg": -30.0, "longitude_deg": 100.0},
                ],
            )
        )
        run_simulation(config, tmp_path / "t.jsonl")
        events = read_trace(tmp_path / "t.jsonl")
        for gs_id in ("gs0", "gs1"):
            spikes = [e for e in events if e.kind == "handover_spike" and e.target.gs_id == gs_id]
            assert 30 <= len(spikes) <= 60

    def test_constant_precipitation_emits_degradation(self, tmp_path):
        config = config_from_dict(
            minimal_config(
                precipitation_mm_h=5.0,
                ground_stations=[{"id": "gs0", "latitude_deg": 0.0, "longitude_deg": 0.0}],
            )
        )
        run_simulation(config, tmp_path / "t.jsonl")
        events = read_trace(tmp_path / "t.jsonl")
        degraded = [e for e in events if e.kind == "gs_link_degraded"]
        assert len(degraded) == 1
        assert degraded[0].params["throughput_multiplier"] == pytest.approx(120.0 / 215.0, abs=1e-6)

    def test_precipitation_csv(self, tmp_path):
        rain_path = tmp_path / "rain.csv"
        rain_path.write_text("t_s,mm_per_h\n0,0\n120,6\n300,0\n")
        config = config_from_dict(
            minimal_config(
                precipitation_csv=str(rain_path),
                ground_stations=[{"id": "gs0", "latitude_deg": 0.0, "longitude_deg": 0.0}],
            )
        )
        run_simulation(config, tmp_path / "t.jsonl")
        events = [e for e in read_trace(tmp_path / "t.jsonl") if e.kind == "gs_link_degraded"]
        assert [e.t_s for e in events] == [120.0, 300.0]

    def test_infeasible_fraction_counts_every_link_step_sample(self, tmp_path):
        config = config_from_dict(
            {**minimal_config(shells=[dict(SPARSE)]), "faults": {"maneuver_rate_per_sat_year": 0.0}}
        )
        summary = run_simulation(config, tmp_path / "t.jsonl")
        topo = GridTopology(build_fleet(config), config.earth_radius_km)
        times = time_grid(0.0, config.duration_s, config.step_s)
        below = sum(int(np.sum(~is_isl_viable(g, config.isl_threshold_km))) for _, g in topo.scan(times))
        assert below > 0
        assert summary["infeasible_link_sample_fraction"] == below / (len(times) * topo.n_edges)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"faults": {"seu_rate_per_device_day": 1e12}}, "faults.seu_rate_per_device_day"),
            ({"faults": {"maneuver_rate_per_sat_year": 1e12}}, "faults.maneuver_rate_per_sat_year"),
            (
                {"ground_stations": [{"id": f"gs{k}", "latitude_deg": 0.0, "longitude_deg": 0.0} for k in range(3)],
                 "faults": {"handover_min_s": 1200.0 / MAX_STEPS, "handover_max_s": 1200.0 / MAX_STEPS}},
                "ground_stations",
            ),
            (
                {"ground_stations": [{"id": f"gs{k}", "latitude_deg": 0.0, "longitude_deg": 0.0} for k in range(1000)],
                 "precipitation_csv": "rain.csv"},
                "precipitation_csv",
            ),
        ],
        ids=["seu", "maneuvers", "spikes-across-stations", "rain"],
    )
    def test_expected_events_capped_before_sampling(self, tmp_path, monkeypatch, overrides, field):
        # the SEU row drew about 4e11 arrivals and ran past any timeout; each
        # station's spikes here are within the per-station cap, their sum is not;
        # rain.csv's 1,001 changes, each at all 1,000 stations, give 1,001,000 events
        rows = "".join(f"{k / 2},{5 - 5 * (k % 2)}\n" for k in range(1001))
        (tmp_path / "rain.csv").write_text("t_s,mm_per_h\n" + rows)
        monkeypatch.chdir(tmp_path)
        config = config_from_dict(minimal_config(**overrides))
        with pytest.raises(ConfigError, match=f"^{re.escape(field)} gives .* at most {MAX_EVENTS}"):
            run_simulation(config, tmp_path / "t.jsonl")
        assert not (tmp_path / "t.jsonl").exists()

    def test_expected_events_count_tle_satellites(self, tmp_path):
        rec = TleRecord(
            catalog_number=44713, epoch_year=2023, epoch_day=15.5, inclination_deg=53.05,
            raan_deg=100.0, eccentricity=0.0001, arg_perigee_deg=90.0, mean_anomaly_deg=270.0,
            mean_motion_rev_per_day=15.06,
        )
        tle_path = tmp_path / "one.tle"
        tle_path.write_text("\n".join(serialize_tle(rec)) + "\n")
        # 100 shell satellites sit exactly at the cap; the TLE satellite tips it over
        rate = MAX_EVENTS / (60 * 100 * 600.0 / 86400.0)
        config = config_from_dict(minimal_config(faults={"seu_rate_per_device_day": rate}))
        assert _check_expected_events(config, 100, 0) == pytest.approx(MAX_EVENTS)
        config = config_from_dict(minimal_config(tle_files=[str(tle_path)], faults={"seu_rate_per_device_day": rate}))
        with pytest.raises(ConfigError, match="over 101 satellites"):
            run_simulation(config, tmp_path / "t.jsonl")

    def test_summary_structure(self, tmp_path):
        config = config_from_dict(minimal_config())
        summary = run_simulation(config, tmp_path / "t.jsonl")
        assert summary["n_satellites"] == 100
        assert summary["n_isl_links"] == 200
        assert 0.0 <= summary["infeasible_link_sample_fraction"] <= 1.0
        assert summary["config"]["seed"] == 7
        assert sum(summary["event_counts"].values()) == summary["n_events"]


def scan_steps(topo, times, maneuvers, threshold_km):
    """_viability_scan's blocks expanded into steps: (t, edges, grazing_km, flipped, infeasible)
    at each time, its evaluated edges in ascending order."""
    for t, at, edges, grazing, _, flipped, infeasible in topo._viability_scan(times, maneuvers, threshold_km):
        order = np.lexsort((edges, at))
        at, edges, grazing, flipped = (c[order] for c in (at, edges, grazing, flipped))
        bounds = np.searchsorted(at, np.arange(len(t) + 1)).tolist()
        for t_i, lo, hi, n_i in zip(t.tolist(), bounds, bounds[1:], infeasible.tolist()):
            yield t_i, edges[lo:hi], grazing[lo:hi], flipped[lo:hi], n_i


# polar planes at 2000 km counter-rotate across the seam, so some edges
# approach the threshold at the highest rate a +GRID edge reaches
SKIP_TOPOLOGY = GridTopology(build_constellation([ShellSpec(2000.0, 90.0, 3, 8)]))
SKIP_TIMES = time_grid(0.0, 3 * 3600.0, 60.0)


class TestSkipScan:
    def test_fixed_case_matches_full_scan(self):
        for threshold_km in (0.0, 80.0, 1000.0):
            assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES, (), threshold_km)

    def test_underestimated_rate_caught(self, monkeypatch):
        # _link_rate is already the half-speed bound L/2; half of it, L/4,
        # is not a bound, and the counter-rotating seam catches it
        rate = topology._link_rate
        monkeypatch.setattr(topology, "_link_rate", lambda *args: rate(*args) / 2.0)
        with pytest.raises(AssertionError):
            assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES, (), 80.0)

    def test_zero_slack_caught(self, monkeypatch):
        # a same-plane edge never moves, but its computed grazing altitude
        # changes in the last bits; at a threshold equal to its highest value
        # it flips, and without slack it is never evaluated again
        grazing = np.array([g for _, g in SKIP_TOPOLOGY.scan(SKIP_TIMES)])
        intra = [i for i, kind in enumerate(SKIP_TOPOLOGY.edge_kinds) if kind == INTRA_PLANE]
        edge = next(i for i in intra if grazing[0, i] < grazing[:, i].max())
        threshold_km = float(grazing[:, edge].max())
        assert threshold_km >= 0.0
        assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES, (), threshold_km)
        monkeypatch.setattr(topology, "_SLACK_KM", 0.0)
        with pytest.raises(AssertionError):
            assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES, (), threshold_km)

    def test_two_shells_order_flips_by_kind_then_edge_ids(self):
        # at t = 1200 s both kinds flip, in both shells and on wrap-around edges, whose
        # (a, b) ids order differs from their index order: the flips follow the ids
        topo = GridTopology(build_constellation([ShellSpec(2000.0, 90.0, 3, 8), ShellSpec(1200.0, 53.0, 5, 4)]))
        times = time_grid(0.0, 3 * 3600.0, 300.0)
        events = map(_event_from_row, _isl_transition_trace(topo, times, (), 80.0, Counter()))
        step = [e for e in events if e.t_s == 1200.0]
        assert {e.kind for e in step} == {"isl_down", "isl_up"}
        assert {e.target.a.shell for e in step} == {0, 1}
        assert any(e.target.b.plane - e.target.a.plane > 1 or e.target.b.index - e.target.a.index > 1 for e in step)
        index = {ids: i for i, ids in enumerate(topo.edge_ids)}
        assert step != sorted(step, key=lambda e: (e.kind, index[e.target.a, e.target.b]))
        assert_skip_scan_matches_reference(topo, times, (), 80.0)

    def test_rows_of_a_step_share_one_time(self):
        # the writer makes a number's text once while rows pass the same float object
        topo = GridTopology(build_constellation([ShellSpec(2000.0, 90.0, 3, 8), ShellSpec(1200.0, 53.0, 5, 4)]))
        rows = list(_isl_transition_trace(topo, time_grid(0.0, 3 * 3600.0, 300.0), (), 80.0, Counter()))
        objects = {}
        for row in rows:
            objects.setdefault(row[0], set()).add(id(row[0]))
        assert len(objects) < len(rows)
        assert all(len(ids) == 1 for ids in objects.values())

    def test_linkless_shell_between_grids_offsets_rows(self):
        # the 2x2 shell's four rows carry no edges, so the last shell's edge rows start
        # four rows past the first shell's: flips still follow IslTarget order
        shells = [ShellSpec(2000.0, 90.0, 3, 8), ShellSpec(1500.0, 70.0, 2, 2), ShellSpec(1200.0, 53.0, 5, 4)]
        topo = GridTopology(build_constellation(shells))
        times = time_grid(0.0, 3 * 3600.0, 300.0)
        events = list(map(_event_from_row, _isl_transition_trace(topo, times, (), 80.0, Counter())))
        assert {e.target.a.shell for e in events} == {0, 2}
        assert events == sorted(events, key=lambda e: e.sort_key)
        assert_skip_scan_matches_reference(topo, times, (), 80.0)

    def test_maneuver_flips_sharing_an_a_row_follow_b_row(self):
        # raising satellite (0, 0, 0) lifts its edges over a threshold 1 km above the intra-plane
        # grazing at once: its wrap-around edge to (0, 0, 4) flips with its cross-plane edges, and
        # IslTarget puts it first although its edge index falls between theirs
        topo = GridTopology(build_constellation([ShellSpec(2000.0, 53.0, 3, 5)]))
        times = time_grid(0.0, 2 * 3600.0, 60.0)
        _, grazing = next(topo.scan([0.0]))
        starts = np.arange(120.0, 7000.0, 660.0).tolist()
        maneuvers = [ManeuverEvent(topo.sat_ids[0], start, 10.0, 600.0) for start in starts]
        threshold_km = float(grazing[0]) + 1.0
        events = list(map(_event_from_row, _isl_transition_trace(topo, times, maneuvers, threshold_km, Counter())))
        step = [e.target.b for e in events if e.t_s == 1440.0 and e.target.a == topo.sat_ids[0]]
        assert step == [SatelliteId(0, 0, 4), SatelliteId(0, 1, 0), SatelliteId(0, 2, 0)]
        assert_skip_scan_matches_reference(topo, times, maneuvers, threshold_km)

    def test_dense_shell_evaluates_few_edges(self, tmp_path):
        dense = {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22}
        config = config_from_dict(
            {"shells": [dense], "duration_s": 3600.0, "step_s": 10.0, "faults": {"maneuver_rate_per_sat_year": 0.0}}
        )
        topo = GridTopology(build_fleet(config), config.earth_radius_km)
        times = time_grid(0.0, config.duration_s, config.step_s)
        counts = np.zeros(topo.n_edges, dtype=int)
        for _, edges, _, _, _ in scan_steps(topo, times, (), config.isl_threshold_km):
            counts[edges] += 1
        intra = np.array([kind == INTRA_PLANE for kind in topo.edge_kinds])
        assert np.all(counts[intra] == 1)
        summary = run_simulation(config, tmp_path / "t.jsonl")
        assert summary["isl_link_samples"] == len(times) * topo.n_edges
        assert summary["isl_edge_evaluations"] == counts.sum()
        assert summary["isl_edge_evaluations"] < 0.01 * summary["isl_link_samples"]

    def test_summary_prints_evaluations_outside_the_kind_list(self, tmp_path):
        summary = run_simulation(config_from_dict(minimal_config()), tmp_path / "t.jsonl")
        head = format_summary(summary).split("config (defaults materialized)")[0].splitlines()
        assert f"isl edge evaluations: {summary['isl_edge_evaluations']} of {summary['isl_link_samples']}" in head
        # indented lines list event counts by kind, and only those
        kinds = [f"  {kind}: {n}" for kind, n in summary["event_counts"].items()]
        assert [line for line in head if line.startswith("  ")] == kinds

    def test_no_links_no_evaluations(self, tmp_path):
        shell = {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 2, "sats_per_plane": 5}
        summary = run_simulation(config_from_dict(minimal_config(shells=[shell])), tmp_path / "t.jsonl")
        assert (summary["isl_edge_evaluations"], summary["isl_link_samples"]) == (0, 0)

    def test_no_links_no_blocks(self, tmp_path):
        shell = {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 2, "sats_per_plane": 5}
        summary = run_simulation(config_from_dict(minimal_config(shells=[shell])), tmp_path / "t.jsonl")
        assert summary["isl_scan_blocks"] == 0
        assert "isl scan blocks: 0" in format_summary(summary).splitlines()

    def test_summary_reports_blocks(self, tmp_path):
        config = minimal_config(duration_s=3600.0, step_s=10.0, faults={"maneuver_rate_per_sat_year": 0.0})
        summary = run_simulation(config_from_dict(config), tmp_path / "t.jsonl")
        # 361 steps and no maneuver to start a block early
        assert summary["isl_scan_blocks"] == -(-361 // topology._BLOCK_STEPS)
        head = format_summary(summary).split("config (defaults materialized)")[0].splitlines()
        assert f"isl scan blocks: {summary['isl_scan_blocks']}" in head


SAT = SKIP_TOPOLOGY.sat_ids[0]
# an intra-plane edge of SAT: its grazing altitude is constant until a maneuver moves SAT
SAT_EDGE = next(
    i
    for i, (ids, kind) in enumerate(zip(SKIP_TOPOLOGY.edge_ids, SKIP_TOPOLOGY.edge_kinds))
    if kind == INTRA_PLANE and SAT in ids
)


@pytest.fixture(params=[1, 2, 16])
def block_steps(request, monkeypatch):
    monkeypatch.setattr(topology, "_BLOCK_STEPS", request.param)
    return request.param


class TestScanBlocks:
    """The blocked skip scan against the full scan where its blocks begin and end."""

    @pytest.mark.parametrize("inside", [0, 1])
    @pytest.mark.parametrize("edge", ["start", "end"])
    def test_maneuver_on_block_edge(self, block_steps, edge, inside):
        # blocks of 1, 2 or 16 steps begin at step 32, and step 33 is inside one
        # unless the maneuver begins a block there
        k = 32 + inside
        t_k = float(SKIP_TIMES[k])
        if edge == "start":
            maneuvers = [ManeuverEvent(SAT, t_k, 9.5, 1e6)]
        else:
            maneuvers = [ManeuverEvent(SAT, -60.0, 9.5, t_k + 60.0)]
        grazing = np.array([g[SAT_EDGE] for _, g in SKIP_TOPOLOGY.scan(SKIP_TIMES, maneuvers)])
        assert grazing[k - 1] != grazing[k]
        threshold_km = float(grazing[k - 1] + grazing[k]) / 2.0
        # SAT_EDGE flips at step k
        expected = reference_isl_transition_trace(SKIP_TOPOLOGY, SKIP_TIMES, maneuvers, threshold_km, Counter())
        target = IslTarget(*SKIP_TOPOLOGY.edge_ids[SAT_EDGE])
        assert any(e.t_s == t_k and e.target == target for e in expected)
        assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES, maneuvers, threshold_km)

    def test_repeated_times(self, block_steps):
        # runs of equal times cross block edges, and a maneuver starts on one
        times = np.repeat(SKIP_TIMES[:60], [1, 2, 3] * 20)
        maneuvers = [ManeuverEvent(SAT, float(SKIP_TIMES[11]), -6.0, 900.0)]
        # at SAT_EDGE's own grazing altitude it is due at every step until SAT moves
        _, grazing = next(SKIP_TOPOLOGY.scan(times))
        for threshold_km in (0.0, 80.0, 1000.0, float(grazing[SAT_EDGE])):
            assert_skip_scan_matches_reference(SKIP_TOPOLOGY, times, maneuvers, threshold_km)
            # each edge evaluated once per step, in ascending order
            for _, edges, *_ in scan_steps(SKIP_TOPOLOGY, times, maneuvers, threshold_km):
                assert np.all(np.diff(edges) > 0)

    def test_one_step_grid(self, block_steps):
        for maneuvers in ([], [ManeuverEvent(SAT, -60.0, 9.5, 600.0)]):
            for threshold_km in (0.0, 80.0, 1000.0):
                assert_skip_scan_matches_reference(SKIP_TOPOLOGY, SKIP_TIMES[:1], maneuvers, threshold_km)

    def test_edge_due_again_at_last_step(self, block_steps):
        # steps 1 to 14 are a second apart and step 15 an hour on, so edges
        # evaluated at step 0 that come due within the hour are due again
        # only at step 15, the last of the first block of 16
        times = np.append(np.arange(15.0), 3600.0 + np.arange(0.0, 1800.0, 60.0))
        evaluated = [set(edges.tolist()) for _, edges, *_ in scan_steps(SKIP_TOPOLOGY, times, (), 80.0)]
        assert evaluated[15] & (evaluated[0] - set().union(*evaluated[1:15]))
        assert_skip_scan_matches_reference(SKIP_TOPOLOGY, times, (), 80.0)


def reference_maneuver_trace(maneuvers, duration_s):
    """_maneuver_trace before it sorted rows: every event built, then sorted by sort_key."""
    events = []
    for m in maneuvers:
        target = SatelliteTarget(m.sat)
        events.append(FaultEvent(m.start_s, "maneuver_start", target, {"dh_km": m.dh_km, "dwell_s": m.dwell_s}))
        if m.end_s < duration_s:
            events.append(FaultEvent(m.end_s, "maneuver_end", target, {"dh_km": m.dh_km}))
    events.sort(key=lambda e: e.sort_key)
    return events


# starts, offsets (signed zeros too) and dwells from small sets, so starts and ends tie
maneuver_lists = st.lists(
    st.builds(
        ManeuverEvent,
        st.sampled_from([SatelliteId(0, 0, 1), SatelliteId(0, 1, 0), SatelliteId(1, 0, 0)]),
        st.sampled_from([0.0, 10.0, 50.0]),
        st.sampled_from([-0.0, 0.0, -1.5, 1.5, 2.0]),
        st.sampled_from([0.0, 40.0, 90.0]),
    ),
    max_size=10,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(maneuver_lists, st.sampled_from([10.0, 50.0, 100.0]))
def test_maneuver_trace_matches_build_then_sort(maneuvers, duration_s):
    got = list(map(_event_from_row, _maneuver_trace(maneuvers, duration_s)))
    assert exact(got) == exact(reference_maneuver_trace(maneuvers, duration_s))


def assert_rows_in_sort_key_order(rows):
    """Rows non-decreasing as tuples, which heapq.merge compares, and in their events' sort_key."""
    keys = [_event_from_row(row).sort_key for row in rows]
    assert all(a <= b for a, b in zip(keys, keys[1:]))
    assert all(a <= b for a, b in zip(rows, rows[1:]))


# precipitation CSVs: times in any order (read back sorted and unique), rates across both thresholds
rain_csvs = st.dictionaries(
    st.sampled_from([0.0, 50.0, 100.0, 600.0]) | st.floats(-100.0, 4000.0),
    st.sampled_from([0.0, 1.0, 3.0, 9.0]) | st.floats(0.0, 10.0),
    max_size=8,
).map(lambda rates: "t_s,mm_per_h\n" + "".join(f"{t!r},{mm!r}\n" for t, mm in sorted(rates.items())))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(fault_configs(), st.integers(0, 5), intervals, station_ids, maneuver_lists, rain_csvs, st.booleans(), st.data())
def test_every_source_yields_rows_in_sort_key_order(config, n_sats, interval, gs_ids, maneuvers, csv_text, tied, data):
    # permanent failures tie with reboots, maneuver ends with starts, and rain changes with each other
    fleet = [SatelliteId(0, p, i) for p in (0, 1) for i in range(n_sats)][:n_sats]
    schedules = data.draw(st.none() | st.fixed_dictionaries({gs_id: schedule_times for gs_id in gs_ids}))
    with tempfile.TemporaryDirectory() as tmp:
        rain_path = Path(tmp) / "rain.csv"
        rain_path.write_text(csv_text)
        series = read_precipitation_csv(rain_path)
    with pytest.MonkeyPatch.context() as mp:
        if tied:
            mp.setattr(RandomStreams, "substreams", tied_substreams(config))
        assert_rows_in_sort_key_order(list(_seu_trace(config, fleet, *interval, RandomStreams(1))))
        assert_rows_in_sort_key_order(list(_spike_trace(config, gs_ids, *interval, RandomStreams(1), schedules)))
    assert_rows_in_sort_key_order(list(_rain_trace(config, gs_ids, _rain_changes(config, series, *interval))))
    assert_rows_in_sort_key_order(list(_maneuver_trace(maneuvers, data.draw(st.sampled_from([10.0, 50.0, 100.0])))))
    # the same maneuvers, raising one of the 3x8 shell's satellites past its neighbors' links for minutes
    topo_maneuvers = sorted(
        (ManeuverEvent(SKIP_TOPOLOGY.sat_ids[m.sat.plane], m.start_s * 60.0, 9.5, m.dwell_s * 60.0)
         for m in maneuvers if m.dh_km > 0.0),
        key=lambda m: m.start_s,
    )
    threshold_km = data.draw(st.sampled_from([80.0, 1000.0, 1500.0]))
    flips = _isl_transition_trace(SKIP_TOPOLOGY, SKIP_TIMES[:60], topo_maneuvers, threshold_km, Counter())
    assert_rows_in_sort_key_order(list(flips))


def test_simulate_builds_and_checks_no_event(tmp_path, monkeypatch):
    # sources yield rows, and each is written through its kind's renderer, which checks its numbers
    tle_path, rain_path = tmp_path / "catalog.tle", tmp_path / "rain.csv"
    tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
    rain_path.write_text(ALL_KINDS_PRECIPITATION, encoding="utf-8")
    config = config_from_dict({**ALL_KINDS_CONFIG, "tle_files": [str(tle_path)], "precipitation_csv": str(rain_path)})
    calls = Counter()
    for name in ("_check_event", "_check_param_keys", "_check_numbers"):
        check = getattr(trace_module, name)
        monkeypatch.setattr(trace_module, name, lambda *args, name=name, check=check: calls.update([name]) or check(*args))
    post_init = FaultEvent.__post_init__
    monkeypatch.setattr(FaultEvent, "__post_init__", lambda self: calls.update(["FaultEvent"]) or post_init(self))
    summary = run_simulation(config, tmp_path / "trace.jsonl")
    assert calls == Counter({"_check_numbers": summary["n_events"]})
    assert sorted(summary["event_counts"]) == sorted(KIND_TARGET_TYPE)
    assert hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest() == ALL_KINDS_TRACE_SHA256


def test_fleet_builds_no_element(tmp_path, monkeypatch):
    # the fleet stays arrays from the config to the kernels: no CircularElements on the way
    tle_path, rain_path, config_path = tmp_path / "catalog.tle", tmp_path / "rain.csv", tmp_path / "config.json"
    tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
    rain_path.write_text(ALL_KINDS_PRECIPITATION, encoding="utf-8")
    document = {**ALL_KINDS_CONFIG, "tle_files": [str(tle_path)], "precipitation_csv": str(rain_path)}
    config_path.write_text(json.dumps(document), encoding="utf-8")

    def fail(self):
        raise AssertionError(f"built {self}")

    monkeypatch.setattr(CircularElements, "__post_init__", fail)
    config = load_config(config_path)
    fleet = build_fleet(config)
    assert GridTopology(fleet, config.earth_radius_km).n_edges == 2 * 4 * 43
    run_simulation(config, tmp_path / "trace.jsonl")
    assert hashlib.sha256((tmp_path / "trace.jsonl").read_bytes()).hexdigest() == ALL_KINDS_TRACE_SHA256
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["isl-cdf", "--config", str(config_path), "--out", str(tmp_path / "cdf.csv")]) == 0
    with pytest.raises(AssertionError, match="^built "):
        fleet[SatelliteId(0, 0, 0)]  # an element is built only when one is looked up


def test_nan_grazing_names_the_param_and_keeps_the_trace(tmp_path, monkeypatch):
    # edges viable at their first evaluation flip down on a NaN grazing altitude at their next
    kernel, calls = GridTopology._edge_grazing, []

    def nan_after_first_call(self, *args):
        calls.append(args)
        grazing = kernel(self, *args)
        return grazing if len(calls) == 1 else np.full_like(grazing, np.nan)

    monkeypatch.setattr(GridTopology, "_edge_grazing", nan_after_first_call)
    out = tmp_path / "trace.jsonl"
    out.write_text("an earlier trace\n")
    with pytest.raises(ValueError, match="isl_down param grazing_km must be a finite number, got nan"):
        run_simulation(config_from_dict(minimal_config(duration_s=3600.0)), out)
    assert out.read_text() == "an earlier trace\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


@pytest.mark.parametrize(
    "field, message",
    [
        ("seu_downtime_s", "device_reboot param downtime_s must be a finite number, got inf"),
        ("handover_spike_s", "handover_spike param duration_s must be a finite number, got inf"),
        ("rain_latency_factor", "gs_link_degraded param latency_factor must be a finite number, got inf"),
        ("maneuver_dwell_s", "maneuver_start param dwell_s must be a finite number, got inf"),
    ],
)
def test_infinite_constant_names_the_param_where_its_row_is_written(tmp_path, field, message):
    # JSON cannot hold inf, but a programmatic config can; the renderer rejects the first row that
    # carries it, inside the write, so the earlier trace stays and no temporary file is left
    config = config_from_dict(
        minimal_config(
            duration_s=3600.0,
            ground_stations=[{"id": "gs", "latitude_deg": 10.0, "longitude_deg": 0.0}],
            precipitation_mm_h=10.0,
            faults={"seu_rate_per_device_day": 1.0, "maneuver_rate_per_sat_year": 1e4},
        )
    )
    config = dataclasses.replace(config, faults=dataclasses.replace(config.faults, **{field: math.inf}))
    out = tmp_path / "trace.jsonl"
    out.write_text("an earlier trace\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_simulation(config, out)
    assert out.read_text() == "an earlier trace\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


@pytest.mark.parametrize("tied", [False, True])
def test_run_matches_build_then_sort(tmp_path, tied):
    """The whole trace equals the merge of every source built, then sorted by sort_key;
    with tied draws, arrivals, maneuvers and handovers share times."""
    rain_path = tmp_path / "rain.csv"
    rain_path.write_text("t_s,mm_per_h\n0,9\n120,3\n300,0\n")
    stations = [{"id": gs_id, "latitude_deg": 10.0, "longitude_deg": 0.0} for gs_id in ("b", "a", "gs10")]
    faults = {
        "seu_rate_per_device_day": 0.5,
        "seu_permanent_prob": 0.3,
        "maneuver_rate_per_sat_year": 5000.0,
        "maneuver_dwell_s": 120.0,
        "handover_min_s": 0.0,
    }
    config = config_from_dict(minimal_config(
        shells=[dict(SPARSE)], ground_stations=stations, faults=faults, precipitation_csv=str(rain_path)
    ))
    with pytest.MonkeyPatch.context() as mp:
        if tied:
            mp.setattr(RandomStreams, "substreams", tied_substreams(config.faults))
        summary = run_simulation(config, tmp_path / "got.jsonl")
        topo = GridTopology(build_fleet(config), config.earth_radius_km)
        streams, duration = RandomStreams(config.seed), config.duration_s
        gs_ids = [gs.id for gs in config.ground_stations]
        maneuvers = sample_maneuvers(config.faults, topo.sat_ids, 0.0, duration, streams)
        times = time_grid(0.0, duration, config.step_s)
        sources = [
            reference_seu_events(config.faults, topo.sat_ids, 0.0, duration, streams),
            reference_maneuver_trace(maneuvers, duration),
            reference_handover_spikes(config.faults, gs_ids, 0.0, duration, streams),
            reference_rain_events(config.faults, gs_ids, read_precipitation_csv(rain_path), 0.0, duration),
            list(reference_isl_transition_trace(topo, times, maneuvers, config.isl_threshold_km, Counter())),
        ]
    write_trace(tmp_path / "want.jsonl", merge_traces(sources))
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert all(summary["event_counts"][kind] for kind in KIND_TARGET_TYPE)
