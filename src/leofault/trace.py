"""Canonical fault events, deterministic merging, and JSON-lines traces.

A trace file starts with the header line {"schema": "leofault/1"} followed
by one event object per line with keys t, kind, target, params. Numbers
are canonicalized to at most 9 significant digits on serialization; an
event whose numbers are already canonical round-trips exactly.

Event kinds and their required params keys:

    device_reboot            downtime_s
    device_permanent_failure (none)
    gs_link_degraded         throughput_multiplier, latency_factor
    handover_spike           loss_rate, duration_s
    maneuver_start           dh_km, dwell_s
    maneuver_end             dh_km
    isl_down                 grazing_km
    isl_up                   grazing_km

Targets: device events target a (satellite, device index) pair, maneuvers
target a satellite, isl events an unordered satellite pair, and ground
link events a ground-station id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Union

from .orbital import SatelliteId

SCHEMA = "leofault/1"


class TraceParseError(ValueError):
    """Malformed trace content; byte_offset locates the problem."""

    def __init__(self, message: str, byte_offset: int = 0):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class DeviceTarget:
    sat: SatelliteId
    device: int


@dataclass(frozen=True)
class SatelliteTarget:
    sat: SatelliteId


@dataclass(frozen=True)
class IslTarget:
    a: SatelliteId
    b: SatelliteId

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("isl endpoints must differ")
        if self.b < self.a:  # undirected edge, stored in canonical order
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class GroundLinkTarget:
    gs_id: str


Target = Union[DeviceTarget, SatelliteTarget, IslTarget, GroundLinkTarget]

KIND_TARGET_TYPE: Dict[str, type] = {
    "device_reboot": DeviceTarget,
    "device_permanent_failure": DeviceTarget,
    "gs_link_degraded": GroundLinkTarget,
    "handover_spike": GroundLinkTarget,
    "maneuver_start": SatelliteTarget,
    "maneuver_end": SatelliteTarget,
    "isl_down": IslTarget,
    "isl_up": IslTarget,
}

KIND_PARAM_KEYS: Dict[str, frozenset] = {
    "device_reboot": frozenset({"downtime_s"}),
    "device_permanent_failure": frozenset(),
    "gs_link_degraded": frozenset({"throughput_multiplier", "latency_factor"}),
    "handover_spike": frozenset({"loss_rate", "duration_s"}),
    "maneuver_start": frozenset({"dh_km", "dwell_s"}),
    "maneuver_end": frozenset({"dh_km"}),
    "isl_down": frozenset({"grazing_km"}),
    "isl_up": frozenset({"grazing_km"}),
}


def canonical_number(x: float) -> float:
    """Nearest float with a decimal representation of <= 9 significant digits."""
    return float(f"{float(x):.9g}")


def _target_sort_key(target: Target) -> tuple:
    if isinstance(target, DeviceTarget):
        return ("device", tuple(target.sat), target.device)
    if isinstance(target, SatelliteTarget):
        return ("satellite", tuple(target.sat))
    if isinstance(target, IslTarget):
        return ("isl", tuple(target.a), tuple(target.b))
    return ("ground_link", target.gs_id)


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault occurrence."""

    t_s: float
    kind: str
    target: Target
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_s < math.inf:
            raise ValueError(f"t_s must be finite and >= 0, got {self.t_s}")
        expected_type = KIND_TARGET_TYPE.get(self.kind)
        if expected_type is None:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not isinstance(self.target, expected_type):
            raise ValueError(
                f"{self.kind} events target a {expected_type.__name__}, "
                f"got {type(self.target).__name__}"
            )
        expected_keys = KIND_PARAM_KEYS[self.kind]
        if set(self.params) != expected_keys:
            raise ValueError(
                f"{self.kind} params must be exactly {sorted(expected_keys)}, "
                f"got {sorted(self.params)}"
            )
        for key, value in self.params.items():
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} param {key} must be finite, got {value}")

    @property
    def sort_key(self) -> tuple:
        return (
            self.t_s,
            self.kind,
            _target_sort_key(self.target),
            tuple(sorted(self.params.items())),
        )

    def canonical(self) -> "FaultEvent":
        """Copy with all numbers rounded to the 9-significant-digit wire form."""
        return replace(
            self,
            t_s=canonical_number(self.t_s),
            params={k: canonical_number(v) for k, v in self.params.items()},
        )


def merge_traces(traces: Sequence[Sequence[FaultEvent]]) -> List[FaultEvent]:
    """Merge time-sorted event lists into one deterministic ordering.

    Ties in time are broken by (kind, target), then params, so the result
    does not depend on the order of the input lists.
    """
    for idx, trace in enumerate(traces):
        for prev, cur in zip(trace, trace[1:]):
            if cur.t_s < prev.t_s:
                raise ValueError(f"input trace {idx} is not time-sorted at t={cur.t_s}")
    merged = [event for trace in traces for event in trace]
    merged.sort(key=lambda e: e.sort_key)
    return merged


def _target_to_obj(target: Target) -> dict:
    if isinstance(target, DeviceTarget):
        return {"type": "device", "sat": list(target.sat), "device": target.device}
    if isinstance(target, SatelliteTarget):
        return {"type": "satellite", "sat": list(target.sat)}
    if isinstance(target, IslTarget):
        return {"type": "isl", "a": list(target.a), "b": list(target.b)}
    return {"type": "ground_link", "gs": target.gs_id}


def _sat_from_obj(obj, offset: int) -> SatelliteId:
    if type(obj) is list and len(obj) == 3:
        shell, plane, index = obj
        if (
            type(shell) is int and type(plane) is int and type(index) is int
            and shell >= 0 and plane >= 0 and index >= 0
        ):
            return SatelliteId(shell, plane, index)
    raise TraceParseError(
        f"satellite id must be a list of 3 non-negative integers, got {obj!r}", offset
    )


def _target_from_obj(obj, offset: int) -> Target:
    if not isinstance(obj, dict):
        raise TraceParseError(f"target must be an object, got {obj!r}", offset)
    kind = obj.get("type")
    try:
        if kind == "device":
            if type(obj.get("device")) is not int or obj["device"] < 0:
                raise TraceParseError("device index must be a non-negative integer", offset)
            return DeviceTarget(_sat_from_obj(obj.get("sat"), offset), obj["device"])
        if kind == "satellite":
            return SatelliteTarget(_sat_from_obj(obj.get("sat"), offset))
        if kind == "isl":
            return IslTarget(_sat_from_obj(obj.get("a"), offset), _sat_from_obj(obj.get("b"), offset))
        if kind == "ground_link":
            gs = obj.get("gs")
            if not isinstance(gs, str):
                raise TraceParseError("ground link target needs a string gs id", offset)
            return GroundLinkTarget(gs)
    except ValueError as exc:
        if isinstance(exc, TraceParseError):
            raise
        raise TraceParseError(str(exc), offset) from None
    raise TraceParseError(f"unknown target type {kind!r}", offset)


def serialize_event(event: FaultEvent) -> str:
    """One-line JSON rendering of an event (canonical numbers, sorted keys)."""
    canon = event.canonical()
    obj = {
        "t": canon.t_s,
        "kind": canon.kind,
        "target": _target_to_obj(canon.target),
        "params": {k: canon.params[k] for k in sorted(canon.params)},
    }
    return json.dumps(obj, separators=(",", ":"))


def parse_event(line: str, byte_offset: int = 0) -> FaultEvent:
    """Inverse of serialize_event; byte_offset is added to error locations."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"invalid JSON: {exc.msg}", byte_offset + exc.pos) from None
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise TraceParseError(f"invalid JSON: {exc}", byte_offset) from None
    if not isinstance(obj, dict):
        raise TraceParseError("event line must be a JSON object", byte_offset)
    missing = {"t", "kind", "target", "params"} - set(obj)
    if missing:
        raise TraceParseError(f"event missing keys {sorted(missing)}", byte_offset)
    if not isinstance(obj["t"], (int, float)) or isinstance(obj["t"], bool):
        raise TraceParseError(f"event time must be a number, got {obj['t']!r}", byte_offset)
    if not isinstance(obj["params"], dict):
        raise TraceParseError("params must be an object", byte_offset)
    target = _target_from_obj(obj["target"], byte_offset)
    params = {}
    try:
        for key, value in obj["params"].items():
            if type(value) is not float and type(value) is not int:
                raise TraceParseError(f"param {key} must be a number, got {value!r}", byte_offset)
            params[key] = float(value)  # an integer beyond the float range overflows
        return FaultEvent(t_s=float(obj["t"]), kind=obj["kind"], target=target, params=params)
    except TraceParseError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise TraceParseError(str(exc), byte_offset) from None


def write_trace(path, events: Iterable[FaultEvent]) -> None:
    """Write a schema-versioned JSON-lines trace (UTF-8, newline-terminated)."""
    lines = [json.dumps({"schema": SCHEMA}, separators=(",", ":"))]
    lines.extend(serialize_event(e) for e in events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trace(path) -> List[FaultEvent]:
    """Read a trace file, validating the schema header and every event line."""
    data = Path(path).read_text(encoding="utf-8")
    events: List[FaultEvent] = []
    offset = 0
    saw_header = False
    for line in data.splitlines():
        if line.strip():
            if not saw_header:
                try:
                    header = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceParseError(f"invalid header: {exc.msg}", offset + exc.pos) from None
                except (ValueError, RecursionError) as exc:
                    raise TraceParseError(f"invalid header: {exc}", offset) from None
                if not isinstance(header, dict) or header.get("schema") != SCHEMA:
                    raise TraceParseError(f"expected schema header {SCHEMA!r}", offset)
                saw_header = True
            else:
                events.append(parse_event(line, byte_offset=offset))
        offset += len(line.encode("utf-8")) + 1
    if not saw_header:
        raise TraceParseError("empty trace: missing schema header", 0)
    return events
