"""The public names of the leofault package, pinned.

A change that adds or drops a name must edit PUBLIC_NAMES, so that the
API surface moves only on purpose and the change log can say why.
"""

import types

import leofault

PUBLIC_NAMES = [
    "CdfTable", "CircularElements", "ConfigError", "Constellation", "DEFAULT_ISL_THRESHOLD_KM",
    "DeviceTarget", "DoseProfile", "EARTH_RADIUS_KM", "EccentricityWarning", "FaultEvent",
    "FaultModelConfig", "GridTopology", "GroundLinkTarget", "GroundStation", "IslLink", "IslTarget",
    "MU_EARTH_M3_S2", "ManeuverEvent", "RandomStreams", "SECONDS_PER_DAY", "SECONDS_PER_YEAR",
    "SIDEREAL_DAY_S", "SPEED_OF_LIGHT_KM_S", "SatelliteId", "SatelliteTarget", "ShellSpec",
    "SimulationConfig", "TidReport", "TleChecksumError", "TleFormatError", "TleRecord",
    "TraceParseError", "VisibilityWindow", "build_constellation", "build_fleet", "checksum",
    "config_from_dict", "config_to_dict", "default_dose_profile", "dose_rate", "elevation_angle",
    "expected_seu_count", "format_summary", "grazing_altitude", "ground_station_eci",
    "handover_schedule", "is_isl_viable", "iter_trace", "load_config", "merge_traces",
    "min_isl_altitude_cdf", "offsets_at", "orbital_period", "parse_event", "parse_tle",
    "parse_tle_text", "propagate", "propagation_delay", "rain_events", "rain_multiplier",
    "read_cdf_csv", "read_precipitation_csv", "read_tle_file", "read_trace", "run_simulation",
    "sample_handover_spikes", "sample_maneuvers", "sample_seu_events", "serialize_event",
    "serialize_tle", "slant_range_km", "tid_survival", "tle_to_elements", "visibility_windows",
    "write_cdf_csv", "write_trace",
]


def test_public_names_are_pinned():
    # submodules become attributes as they are imported, so they are not names of the API
    names = [
        name for name, value in vars(leofault).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES
