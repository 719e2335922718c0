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
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, SECONDS_PER_DAY
from .faults import (
    DoseProfile,
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


# a little over 24 h at 0.1 s; bounds the time grid a scan allocates
MAX_STEPS = 1_000_000


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
        if self.duration_s <= 0.0:
            raise ConfigError(f"duration_s must be > 0, got {self.duration_s}")
        if self.step_s <= 0.0:
            raise ConfigError(f"step_s must be > 0, got {self.step_s}")
        if self.duration_s / self.step_s > MAX_STEPS:
            raise ConfigError(
                f"duration_s / step_s must be at most {MAX_STEPS} steps, "
                f"got {self.duration_s} / {self.step_s}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not self.shells and not self.tle_files:
            raise ConfigError("at least one of shells/tle_files must be non-empty")
        if self.isl_threshold_km < 0.0:
            raise ConfigError(f"isl_threshold_km must be >= 0, got {self.isl_threshold_km}")
        if self.earth_radius_km <= 0.0:
            raise ConfigError(f"earth_radius_km must be > 0, got {self.earth_radius_km}")
        if self.precipitation_csv is not None and not isinstance(self.precipitation_csv, str):
            raise ConfigError(f"precipitation_csv must be a path string, got {self.precipitation_csv!r}")
        if self.precipitation_mm_h is not None and self.precipitation_mm_h < 0.0:
            raise ConfigError(
                f"precipitation_mm_h must be >= 0, got {self.precipitation_mm_h}"
            )
        # stations with one id would share the handover/<id> substream
        ids = [gs.id for gs in self.ground_stations]
        for i, gs_id in enumerate(ids):
            if gs_id in ids[:i]:
                raise ConfigError(f"ground_stations[{i}]: duplicate id {gs_id!r}")


def _reject_bool_and_non_finite(value, path: str) -> None:
    """Raise naming the path of any bool or non-finite number in a document.

    json parses NaN, Infinity and 1e999 as floats, and bool is an int, so
    range checks let them through (a NaN duration_s never ends a sampler).
    An integer beyond the float range overflows the first float operation.
    """
    if isinstance(value, bool):
        raise ConfigError(f"{path} must not be a boolean, got {json.dumps(value)}")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_bool_and_non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _reject_bool_and_non_finite(item, f"{path}[{index}]")


def _reject_unknown(obj: dict, allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")


def _build_dataclass(cls, obj: dict, context: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {type(obj).__name__}")
    names = [f.name for f in dataclass_fields(cls)]
    _reject_unknown(obj, names, context)
    try:
        return cls(**obj)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def config_from_dict(obj: dict) -> SimulationConfig:
    """Build a SimulationConfig from a parsed JSON document (strict keys)."""
    if not isinstance(obj, dict):
        raise ConfigError("configuration document must be a JSON object")
    _reject_bool_and_non_finite(obj, "")
    kwargs = dict(obj)
    if "shells" in kwargs:
        if not isinstance(kwargs["shells"], list):
            raise ConfigError("shells must be an array")
        kwargs["shells"] = tuple(
            _build_dataclass(ShellSpec, shell, f"shells[{i}]")
            for i, shell in enumerate(kwargs["shells"])
        )
    if "tle_files" in kwargs:
        if not isinstance(kwargs["tle_files"], list) or not all(
            isinstance(p, str) for p in kwargs["tle_files"]
        ):
            raise ConfigError("tle_files must be an array of paths")
        kwargs["tle_files"] = tuple(kwargs["tle_files"])
    if "ground_stations" in kwargs:
        if not isinstance(kwargs["ground_stations"], list):
            raise ConfigError("ground_stations must be an array")
        kwargs["ground_stations"] = tuple(
            _build_dataclass(GroundStation, gs, f"ground_stations[{i}]")
            for i, gs in enumerate(kwargs["ground_stations"])
        )
    if "faults" in kwargs:
        faults_obj = kwargs["faults"]
        if not isinstance(faults_obj, dict):
            raise ConfigError("faults must be an object")
        faults_obj = dict(faults_obj)
        if "dose_profile" in faults_obj:
            profile_obj = faults_obj["dose_profile"]
            if not isinstance(profile_obj, dict):
                raise ConfigError("faults.dose_profile must be an object")
            _reject_unknown(profile_obj, ["anchors", "shielding_label"], "faults.dose_profile")
            anchors = profile_obj.get("anchors")
            if not isinstance(anchors, list) or not all(
                isinstance(a, list) and len(a) == 2 for a in anchors
            ):
                raise ConfigError("faults.dose_profile.anchors must be an array of [inclination, dose] pairs")
            for i, anchor in enumerate(anchors):
                for j, value in enumerate(anchor):
                    if type(value) is not float and type(value) is not int:
                        raise ConfigError(
                            f"faults.dose_profile.anchors[{i}][{j}] must be a number, got {value!r}"
                        )
            try:
                faults_obj["dose_profile"] = DoseProfile(
                    anchors=tuple((float(i), float(d)) for i, d in anchors),
                    shielding_label=profile_obj.get("shielding_label", "1mm aluminum"),
                )
            except ValueError as exc:
                raise ConfigError(f"faults.dose_profile: {exc}") from None
        kwargs["faults"] = _build_dataclass(FaultModelConfig, faults_obj, "faults")
    if "seed" in kwargs and not isinstance(kwargs["seed"], int):
        raise ConfigError(f"seed must be an integer, got {kwargs['seed']!r}")
    return _build_dataclass(SimulationConfig, kwargs, "simulation config")


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
    out = asdict(config)
    out["shells"] = [asdict(s) for s in config.shells]
    out["tle_files"] = list(config.tle_files)
    out["ground_stations"] = [asdict(g) for g in config.ground_stations]
    out["faults"] = asdict(config.faults)
    out["faults"]["dose_profile"] = {
        "anchors": [list(a) for a in config.faults.dose_profile.anchors],
        "shielding_label": config.faults.dose_profile.shielding_label,
    }
    return out


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
    topo: GridTopology, maneuvers: Sequence[ManeuverEvent], config: SimulationConfig, samples: Counter
) -> Iterator[FaultEvent]:
    """ISL viability transitions on the step grid in sort_key order, one step
    at a time; counts (link, step) samples as "total" and "infeasible"."""
    if topo.n_edges == 0:
        return
    previous: Optional[np.ndarray] = None
    for t, grazing in topo.scan(time_grid(0.0, config.duration_s, config.step_s), maneuvers):
        viable = is_isl_viable(grazing, config.isl_threshold_km)
        samples["total"] += len(viable)
        samples["infeasible"] += int(np.sum(~viable))
        if previous is not None:
            step: List[FaultEvent] = []
            for idx in np.nonzero(viable != previous)[0]:
                kind = "isl_up" if viable[idx] else "isl_down"
                target = IslTarget(*topo.edge_ids[idx])
                step.append(FaultEvent(t, kind, target, {"grazing_km": float(grazing[idx])}))
            step.sort(key=lambda e: e.sort_key)  # all at t, so by (kind, target)
            yield from step
        previous = viable


def run_simulation(config: SimulationConfig, trace_path) -> dict:
    """Run every fault model and write the merged trace; returns the summary."""
    topo = GridTopology(build_fleet(config), config.earth_radius_km)
    fleet = topo.sat_ids
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
    isl = _isl_transition_trace(topo, maneuvers, config, samples)
    events = merge_traces([seu, _maneuver_trace(maneuvers, duration), spikes, rain, isl])
    counts = write_trace(trace_path, events)

    expected_seu = expected_seu_count(
        config.faults.seu_rate_per_device_day,
        config.faults.devices_per_satellite,
        len(fleet),
        duration / SECONDS_PER_DAY,
    )
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
    lines.append("config (defaults materialized):")
    lines.append(json.dumps(summary["config"], indent=2, sort_keys=True))
    return "\n".join(lines)
