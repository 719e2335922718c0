"""Deterministic LEO constellation simulator with edge-compute fault injection.

The package propagates Walker-style satellite shells on circular orbits,
classifies inter-satellite-link viability by grazing altitude, and
generates seeded stochastic fault traces: radiation-induced device
reboots, ionizing-dose end of life, rain fade, handover loss spikes, and
conjunction-avoidance maneuvers.
"""

from .constants import (
    EARTH_RADIUS_KM,
    MU_EARTH_M3_S2,
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_KM_S,
)
from .orbital import (
    CircularElements,
    Constellation,
    SatelliteId,
    ShellSpec,
    build_constellation,
    orbital_period,
    propagate,
)
from .geometry import (
    DEFAULT_ISL_THRESHOLD_KM,
    GroundStation,
    elevation_angle,
    grazing_altitude,
    ground_station_eci,
    is_isl_viable,
    propagation_delay,
    slant_range_km,
)
from .tle import (
    EccentricityWarning,
    TleChecksumError,
    TleFormatError,
    TleRecord,
    checksum,
    parse_tle,
    parse_tle_text,
    read_tle_file,
    serialize_tle,
    tle_to_elements,
)
from .topology import (
    GridTopology,
    IslLink,
    VisibilityWindow,
    handover_schedule,
    visibility_windows,
)
from .faults import (
    DoseProfile,
    FaultModelConfig,
    ManeuverEvent,
    RandomStreams,
    TidReport,
    default_dose_profile,
    dose_rate,
    expected_seu_count,
    offsets_at,
    rain_events,
    rain_multiplier,
    read_precipitation_csv,
    sample_handover_spikes,
    sample_maneuvers,
    sample_seu_events,
    tid_survival,
)
from .trace import (
    DeviceTarget,
    FaultEvent,
    GroundLinkTarget,
    IslTarget,
    SatelliteTarget,
    TraceParseError,
    iter_trace,
    merge_traces,
    parse_event,
    read_trace,
    serialize_event,
    write_trace,
)
from .stats import (
    CdfTable,
    min_isl_altitude_cdf,
    read_cdf_csv,
    write_cdf_csv,
)
from .simulation import (
    ConfigError,
    SimulationConfig,
    build_fleet,
    config_from_dict,
    config_to_dict,
    format_summary,
    load_config,
    run_simulation,
)

__version__ = "0.1.0"
