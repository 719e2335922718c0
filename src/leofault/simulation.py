"""Simulation configuration and the end-to-end trace generator.

A simulation is described by a single JSON document (see README for the
schema). Configuration parsing is strict: unknown keys anywhere in the
document are rejected so typos cannot silently fall back to defaults.

run_simulation builds the constellation, samples every enabled fault
model over [0, duration], and streams one merged, schema-versioned trace
to disk: ISL viability transitions are scanned step by step as the write
pulls them through the merge, and event kinds are counted as written. The
returned summary materializes every default for auditability.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from .constants import EARTH_RADIUS_KM, MAX_STEPS, SECONDS_PER_DAY, SECONDS_PER_YEAR, _check_range
from .faults import (
    FaultModelConfig,
    ManeuverEvent,
    RandomStreams,
    expected_seu_count,
    rain_events,
    read_precipitation_csv,
    sample_handover_spikes,
    sample_maneuvers,
    sample_seu_events,
)
from .geometry import GroundStation, is_isl_viable
from .orbital import Constellation, SatelliteId, ShellSpec, build_constellation, time_grid
from .tle import read_tle_file, tle_to_elements
from .topology import GridTopology
from .trace import FaultEvent, IslTarget, SatelliteTarget, merge_traces, write_trace

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


def _decode(tp, value, path: str):
    """Build a value of annotation tp from parsed JSON, naming path on error.

    Objects become dataclasses (unknown keys rejected), arrays become
    Tuple[X, ...] and null an Optional's None. Number fields reject bools
    (bool is an int), other types and values beyond the float range (json
    parses NaN, Infinity and 1e999 as floats, and a NaN duration_s never
    ends a sampler). str leaves pass through: their dataclass checks them.
    """
    if is_dataclass(tp):
        where = path or "simulation config"
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
            raise ConfigError(f"{where}: {exc}") from None
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(obj)


def config_to_dict(config: SimulationConfig) -> dict:
    """Materialize every field (defaults included) as a JSON-friendly dict."""
    return json.loads(json.dumps(asdict(config)))


def build_fleet(config: SimulationConfig) -> Constellation:
    """Constellation from declarative shells plus TLE snapshot files.

    Each TLE file becomes its own pseudo-shell (one plane, one slot per
    record) after the declared shells; TLE satellites participate in the
    fault models and visibility but carry no +GRID links, since plane
    structure cannot be reliably reconstructed from a catalog snapshot.
    """
    constellation = build_constellation(config.shells, config.earth_radius_km)
    for file_index, path in enumerate(config.tle_files):
        records = read_tle_file(path)
        shell_index = len(config.shells) + file_index
        for rec_index, rec in enumerate(records):
            sat = SatelliteId(shell_index, 0, rec_index)
            constellation[sat] = tle_to_elements(rec)
    return constellation


def _maneuver_trace(maneuvers: Sequence[ManeuverEvent], duration_s: float) -> List[FaultEvent]:
    events: List[FaultEvent] = []
    for m in maneuvers:
        target = SatelliteTarget(m.sat)
        start_params = {"dh_km": m.dh_km, "dwell_s": m.dwell_s}
        events.append(FaultEvent(m.start_s, "maneuver_start", target, start_params))
        if m.end_s < duration_s:
            events.append(FaultEvent(m.end_s, "maneuver_end", target, {"dh_km": m.dh_km}))
    events.sort(key=lambda e: e.sort_key)
    return events


def _isl_transition_trace(
    topo: GridTopology,
    times: Sequence[float],
    maneuvers: Sequence[ManeuverEvent],
    threshold_km: float,
    samples: Counter,
) -> Iterator[FaultEvent]:
    """ISL viability transitions at the given times in sort_key order, one
    step at a time; sets "total" to the (link, step) sample count and
    counts the "infeasible" ones and those actually "evaluated"."""
    samples["total"] = len(times) * topo.n_edges
    if topo.n_edges == 0:
        return
    for t, edges, grazing, flipped, infeasible in topo._viability_scan(times, maneuvers, threshold_km):
        samples["infeasible"] += infeasible
        samples["evaluated"] += len(edges)
        step = [
            FaultEvent(
                t,
                "isl_up" if is_isl_viable(g, threshold_km) else "isl_down",
                IslTarget(*topo.edge_ids[idx]),
                {"grazing_km": g},
            )
            for idx, g in zip(edges[flipped].tolist(), grazing[flipped].tolist())
        ]
        step.sort(key=lambda e: e.sort_key)  # all at t, so by (kind, target)
        yield from step


def _check_expected_events(config: SimulationConfig, n_sats: int) -> float:
    """Expected SEU count; ConfigError names the field of a sampler expected
    to draw more than MAX_EVENTS arrivals from n_sats satellites."""
    faults, duration = config.faults, config.duration_s
    days = duration / SECONDS_PER_DAY
    seu = expected_seu_count(faults.seu_rate_per_device_day, faults.devices_per_satellite, n_sats, days)
    maneuvers = faults.maneuver_rate_per_sat_year * n_sats * duration / SECONDS_PER_YEAR
    spikes = len(config.ground_stations) * duration / ((faults.handover_min_s + faults.handover_max_s) / 2.0)
    for name, count in (
        ("faults.seu_rate_per_device_day", seu),
        ("faults.maneuver_rate_per_sat_year", maneuvers),
        ("ground_stations", spikes),
    ):
        if not count <= MAX_EVENTS:
            raise ConfigError(
                f"{name} gives {count:.3g} expected events over {n_sats} satellites "
                f"and {duration} s; at most {MAX_EVENTS} are allowed"
            )
    return seu


def run_simulation(config: SimulationConfig, trace_path) -> dict:
    """Run every fault model and write the merged trace; returns the summary."""
    topo = GridTopology(build_fleet(config), config.earth_radius_km)
    fleet = topo.sat_ids  # TLE satellites included
    expected_seu = _check_expected_events(config, len(fleet))
    streams = RandomStreams(config.seed)
    duration = config.duration_s

    seu = sample_seu_events(config.faults, fleet, 0.0, duration, streams)
    maneuvers = sample_maneuvers(config.faults, fleet, 0.0, duration, streams)
    gs_ids = [gs.id for gs in config.ground_stations]
    spikes = sample_handover_spikes(config.faults, gs_ids, 0.0, duration, streams)

    series: List[Tuple[float, float]] = []
    if config.precipitation_csv is not None:
        series = read_precipitation_csv(config.precipitation_csv)
    elif config.precipitation_mm_h is not None:
        series = [(0.0, config.precipitation_mm_h)]
    rain = rain_events(config.faults, gs_ids, series, 0.0, duration)

    samples: Counter = Counter()  # filled as write_trace pulls the ISL scan through the merge
    times = time_grid(0.0, duration, config.step_s)
    isl = _isl_transition_trace(topo, times, maneuvers, config.isl_threshold_km, samples)
    events = merge_traces([seu, _maneuver_trace(maneuvers, duration), spikes, rain, isl])
    counts = write_trace(trace_path, events)
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
    lines.append("config (defaults materialized):")
    lines.append(json.dumps(summary["config"], indent=2, sort_keys=True))
    return "\n".join(lines)
