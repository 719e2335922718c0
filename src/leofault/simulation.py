"""Simulation configuration and the end-to-end trace generator.

A simulation is described by a single JSON document (see README for the
schema). Configuration parsing is strict: unknown keys anywhere in the
document are rejected so typos cannot silently fall back to defaults.

run_simulation builds the constellation and heap-merges each fault
model's rows over [0, duration] into one schema-versioned trace streamed
to disk, a line per row and no event built; a kind has one source, so
(t, kind) decides between sources. faults holds the SEU, maneuver,
handover and rain sources, topology the ISL transitions, scanned a block
of steps at a time as the write pulls them through the merge. Ids are
checked where they enter (the config, and the sources that take fleet
and station ids), numbers where rows are written: trace's renderer checks
each row's time and params. Kinds are counted as written; the summary
materializes every default.
"""

from __future__ import annotations

import heapq
import json
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from .constants import EARTH_RADIUS_KM, MAX_STEPS, SECONDS_PER_DAY, SECONDS_PER_YEAR, _check_range, _unique_keys
from .faults import (
    FaultModelConfig,
    RandomStreams,
    _maneuver_trace,
    _rain_changes,
    _rain_trace,
    _seu_trace,
    _spike_trace,
    expected_seu_count,
    read_precipitation_csv,
    sample_maneuvers,
)
from .geometry import GroundStation
from .orbital import FleetArrays, ShellSpec, _fleet, time_grid
from .tle import _read_elements
from .topology import GridTopology, _isl_transition_trace
from .trace import _write_rows

# over twice Starlink's ~42k filing; bounds the fleet build_fleet allocates
MAX_SATELLITES = 100_000
# bounds the arrivals each sampler is expected to draw, and so its time and memory
MAX_EVENTS = 1_000_000


class ConfigError(ValueError):
    """Invalid simulation configuration; the message names the field."""


@dataclass(frozen=True)
class SimulationConfig:
    shells: Tuple[ShellSpec, ...] = ()
    tle_files: Tuple[str, ...] = ()
    ground_stations: Tuple[GroundStation, ...] = ()
    faults: FaultModelConfig = field(default_factory=FaultModelConfig)
    duration_s: float = 3600.0
    step_s: float = 10.0
    seed: int = 0
    isl_threshold_km: float = 80.0
    earth_radius_km: float = EARTH_RADIUS_KM
    precipitation_mm_h: Optional[float] = None
    precipitation_csv: Optional[str] = None

    def __post_init__(self) -> None:
        _check_range("duration_s", self.duration_s, 0.0, ends="(]", error=ConfigError)
        _check_range("step_s", self.step_s, 0.0, ends="(]", error=ConfigError)
        if not self.duration_s / self.step_s <= MAX_STEPS:
            raise ConfigError(
                f"duration_s / step_s must be at most {MAX_STEPS} steps, "
                f"got {self.duration_s} / {self.step_s}"
            )
        # a station draws about duration_s / mean gap spikes; a tiny positive gap never ends
        gap = (self.faults.handover_min_s + self.faults.handover_max_s) / 2.0
        if not self.duration_s / gap <= MAX_STEPS:
            raise ConfigError(
                f"duration_s / mean handover gap must be at most {MAX_STEPS} spikes per station, "
                f"got {self.duration_s} / {gap}"
            )
        _check_range("seed", self.seed, 0, 2**64, "[)", ConfigError)
        if not self.shells and not self.tle_files:
            raise ConfigError("at least one of shells/tle_files must be non-empty")
        if not (n_sats := sum(shell.total_sats for shell in self.shells)) <= MAX_SATELLITES:
            raise ConfigError(f"shells must declare at most {MAX_SATELLITES} satellites, got {n_sats}")
        if not all(isinstance(p, str) for p in self.tle_files):
            raise ConfigError("tle_files must be an array of paths")
        _check_range("isl_threshold_km", self.isl_threshold_km, 0.0, error=ConfigError)
        _check_range("earth_radius_km", self.earth_radius_km, 0.0, ends="()", error=ConfigError)
        if self.precipitation_csv is not None and not isinstance(self.precipitation_csv, str):
            raise ConfigError(f"precipitation_csv must be a path string, got {self.precipitation_csv!r}")
        if self.precipitation_mm_h is not None:
            _check_range("precipitation_mm_h", self.precipitation_mm_h, 0.0, error=ConfigError)
        if self.precipitation_mm_h is not None and self.precipitation_csv is not None:
            raise ConfigError("precipitation_mm_h and precipitation_csv are exclusive; set at most one")
        # stations with one id would share the handover/<id> substream
        ids = [gs.id for gs in self.ground_stations]
        for i, gs_id in enumerate(ids):
            if gs_id in ids[:i]:
                raise ConfigError(f"ground_stations[{i}]: duplicate id {gs_id!r}")


_type_hints = cache(get_type_hints)


class _RepeatedKeys(dict):
    """A config object that repeats a key, kept so that _decode can say where it is."""

    error: str  # _unique_keys' message


def _config_object(pairs: list) -> dict:
    """load_config's object_pairs_hook: the key rule, deferred to _decode, which knows the path."""
    try:
        return _unique_keys(pairs)
    except ValueError as exc:
        obj = _RepeatedKeys(pairs)
        obj.error = str(exc)
        return obj


def _decode(tp, value, path: str):
    """Build a value of annotation tp from parsed JSON, naming path on error.

    Objects become dataclasses (unknown and repeated keys rejected), arrays become
    Tuple[X, ...] and null an Optional's None. Number fields reject bools
    (bool is an int), other types and values beyond the float range (json
    parses NaN, Infinity and 1e999 as floats, and a NaN duration_s never
    ends a sampler). str leaves pass through: their dataclass checks them.
    A dataclass's own error that starts with one of its fields is put after
    the object's path with a dot (faults.handover_max_s must be > 0), as a
    leaf's error names its path; any other is put after the path and a colon.
    """
    where = path or "simulation config"
    if isinstance(value, _RepeatedKeys):
        raise ConfigError(f"{value.error} in {where}")
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {json.dumps(value, default=repr)}")
        hints = _type_hints(tp)
        unknown = sorted(set(value) - set(hints))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
        kwargs = {
            key: _decode(hints[key], item, f"{path}.{key}" if path else key)
            for key, item in value.items()
        }
        try:
            return tp(**kwargs)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            message = str(exc)
            if path and message.partition(" ")[0] in hints:  # it names a field: by its dotted path, as a leaf's error does
                raise ConfigError(f"{path}.{message}") from None
            raise ConfigError(f"{where}: {message}") from None
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be an array, got {json.dumps(value, default=repr)}")
        return tuple(_decode(get_args(tp)[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _decode(get_args(tp)[0], value, path)
    if tp is int or tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else int):
            kind = "a number" if tp is float else "an integer"
            raise ConfigError(f"{path} must be {kind}, got {json.dumps(value, default=repr)}")
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path} must be a finite number, got {value}")
    return value


def config_from_dict(obj: dict) -> SimulationConfig:
    """Build a SimulationConfig from a parsed JSON document (strict keys)."""
    return _decode(SimulationConfig, obj, "")


def load_config(path) -> SimulationConfig:
    """Load and validate a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        obj = json.loads(text, object_pairs_hook=_config_object)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(obj)


def config_to_dict(config: SimulationConfig) -> dict:
    """Materialize every field (defaults included) as a JSON-friendly dict."""
    return json.loads(json.dumps(asdict(config)))


@contextmanager
def _naming_file(field_name: str, path: str) -> Iterator[None]:
    """Re-raise a file's read or parse error as a ConfigError naming its config field and path."""
    try:
        yield
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and TleFormatError are ValueErrors
        raise ConfigError(f"{field_name} ({path}): {exc}") from None


def build_fleet(config: SimulationConfig) -> FleetArrays:
    """The fleet of declarative shells plus TLE snapshot files, as one read-only struct of arrays.

    Each TLE file becomes its own pseudo-shell (one plane, one slot per
    record) after the declared shells; TLE satellites participate in the
    fault models and visibility but carry no +GRID links, since plane
    structure cannot be reliably reconstructed from a catalog snapshot.
    A file that cannot be read or parsed raises ConfigError naming it.
    """
    catalogs = []
    for file_index, path in enumerate(config.tle_files):
        with _naming_file(f"tle_files[{file_index}]", path):
            catalogs.append(_read_elements(path))
    return _fleet(config.shells, config.earth_radius_km, catalogs)


def _check_expected_events(config: SimulationConfig, n_sats: int, n_rain_changes: int) -> float:
    """Expected SEU count; ConfigError names the field of a sampler expected to draw more than
    MAX_EVENTS arrivals from n_sats satellites, or of rain's n_rain_changes changes at each station."""
    faults, duration = config.faults, config.duration_s
    days = duration / SECONDS_PER_DAY
    seu = expected_seu_count(faults.seu_rate_per_device_day, faults.devices_per_satellite, n_sats, days)
    maneuvers = faults.maneuver_rate_per_sat_year * n_sats * duration / SECONDS_PER_YEAR
    stations = len(config.ground_stations)
    spikes = stations * duration / ((faults.handover_min_s + faults.handover_max_s) / 2.0)
    for name, count in (
        ("faults.seu_rate_per_device_day", seu),
        ("faults.maneuver_rate_per_sat_year", maneuvers),
        ("ground_stations", spikes),
        ("precipitation_csv" if config.precipitation_csv else "precipitation_mm_h", stations * n_rain_changes),
    ):
        if not count <= MAX_EVENTS:
            raise ConfigError(
                f"{name} gives {count:.3g} expected events over {n_sats} satellites, "
                f"{stations} ground stations and {duration} s; at most {MAX_EVENTS} are allowed"
            )
    return seu


def run_simulation(config: SimulationConfig, trace_path) -> dict:
    """Run every fault model and write the merged trace; returns the summary."""
    topo = GridTopology(build_fleet(config), config.earth_radius_km)
    fleet = topo.sat_ids  # TLE satellites included
    duration = config.duration_s
    series = [] if config.precipitation_mm_h is None else [(0.0, config.precipitation_mm_h)]
    if config.precipitation_csv is not None:  # set at most one of the two
        with _naming_file("precipitation_csv", config.precipitation_csv):
            series = read_precipitation_csv(config.precipitation_csv)
    rain_changes = _rain_changes(config.faults, series, 0.0, duration)
    expected_seu = _check_expected_events(config, len(fleet), len(rain_changes))
    streams = RandomStreams(config.seed)

    seu = _seu_trace(config.faults, fleet, 0.0, duration, streams)
    maneuvers = sample_maneuvers(config.faults, fleet, 0.0, duration, streams)
    gs_ids = [gs.id for gs in config.ground_stations]
    spikes = _spike_trace(config.faults, gs_ids, 0.0, duration, streams)
    rain = _rain_trace(config.faults, gs_ids, rain_changes)

    samples: Counter = Counter()  # filled as the write pulls the ISL scan through the merge
    times = time_grid(0.0, duration, config.step_s)
    isl = _isl_transition_trace(topo, times, maneuvers, config.isl_threshold_km, samples)
    counts = _write_rows(trace_path, heapq.merge(seu, _maneuver_trace(maneuvers, duration), spikes, rain, isl))
    return {
        "config": config_to_dict(config),
        "trace_path": str(trace_path),
        "n_satellites": len(fleet),
        "n_isl_links": topo.n_edges,
        "n_events": sum(counts.values()),
        "event_counts": dict(sorted(counts.items())),
        "expected_seu_count": expected_seu,
        "sampled_seu_count": counts.get("device_reboot", 0)
        + counts.get("device_permanent_failure", 0),
        "infeasible_link_sample_fraction": samples["infeasible"] / max(samples["total"], 1),
        "isl_link_samples": samples["total"],
        "isl_edge_evaluations": samples["evaluated"],
        "isl_scan_blocks": samples["blocks"],
    }


def format_summary(summary: dict) -> str:
    """Human-readable report of a simulation run."""
    lines = [
        f"trace written to {summary['trace_path']}",
        f"satellites: {summary['n_satellites']}  isl links: {summary['n_isl_links']}",
        f"events: {summary['n_events']}",
    ]
    for kind, count in summary["event_counts"].items():
        lines.append(f"  {kind}: {count}")
    lines.append(
        "seu events: expected "
        f"{summary['expected_seu_count']:.3f}, sampled {summary['sampled_seu_count']}"
    )
    lines.append(
        f"infeasible link samples: {summary['infeasible_link_sample_fraction']:.4f}"
    )
    # no leading spaces: those lines list event counts by kind
    lines.append(
        f"isl edge evaluations: {summary['isl_edge_evaluations']} of {summary['isl_link_samples']}"
    )
    lines.append(f"isl scan blocks: {summary['isl_scan_blocks']}")
    lines.append("config (defaults materialized):")
    lines.append(json.dumps(summary["config"], indent=2, sort_keys=True))
    return "\n".join(lines)
