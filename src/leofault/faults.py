"""Stochastic and deterministic fault models for a LEO edge constellation.

Models covered:

* radiation-induced device reboots: a homogeneous Poisson process per
  device, realized per satellite by superposition (one exponential clock
  at devices * rate with the affected device drawn uniformly);
* total-ionizing-dose end of life: mission dose as a piecewise-linear
  function of orbital inclination, mirrored about 90 degrees;
* rain fade: a throughput multiplier that is 1.0 for light rain and
  ramps linearly down to a configured floor at the moderate-rain rate;
* handover loss spikes: a renewal process per ground station with
  uniform inter-arrival times, or spike times taken from a geometric
  handover schedule;
* conjunction-avoidance maneuvers: per-satellite Poisson events applying
  a signed altitude offset for a fixed dwell.

Every sampler draws from its own named substream derived from the master
seed (label = model name + target id), so results are byte-identical for
a given (seed, config, fleet, interval) and adding one model never
perturbs another model's draws.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constants import SECONDS_PER_DAY, SECONDS_PER_YEAR
from .orbital import SatelliteId
from .trace import DeviceTarget, FaultEvent, GroundLinkTarget

MAX_TOTAL_OFFSET_KM = 10.0


@dataclass(frozen=True)
class DoseProfile:
    """Mission ionizing dose (krad) versus orbital inclination.

    Anchors are (inclination_deg, mission_dose_krad) pairs with strictly
    increasing inclinations in [0, 90]; inclinations above 90 evaluate as
    their mirror 180 - i.
    """

    anchors: Tuple[Tuple[float, float], ...]
    shielding_label: str = "1mm aluminum"

    def __post_init__(self) -> None:
        if not isinstance(self.shielding_label, str):
            raise ValueError(f"shielding_label must be a string, got {self.shielding_label!r}")
        if not self.anchors:
            raise ValueError("dose profile needs at least one anchor")
        previous = -1.0
        for inclination, dose in self.anchors:
            if not 0.0 <= inclination <= 90.0:
                raise ValueError(f"anchor inclination {inclination} outside [0, 90]")
            if inclination <= previous:
                raise ValueError("anchor inclinations must be strictly increasing")
            if not dose >= 0.0:
                raise ValueError(f"anchor dose must be >= 0, got {dose}")
            previous = inclination


def default_dose_profile() -> DoseProfile:
    """Dose anchors for a 550 km circular orbit behind 1 mm of aluminum.

    Near-zero dose at equatorial inclination, a 40 krad mission peak at
    73 degrees, easing to 35 krad at 90 degrees. Intermediate values are
    linear interpolation, not measurements; supply a profile exported
    from a radiation-environment tool when fidelity matters.
    """
    return DoseProfile(anchors=((0.0, 0.0), (73.0, 40.0), (90.0, 35.0)))


@dataclass(frozen=True)
class FaultModelConfig:
    """All stochastic-model rates, thresholds, and profiles."""

    seu_rate_per_device_day: float = 1e-4
    devices_per_satellite: int = 60
    seu_downtime_s: float = 30.0
    seu_permanent_prob: float = 0.0
    tid_limit_krad: float = 50.0
    dose_profile: DoseProfile = dataclass_field(default_factory=default_dose_profile)
    mission_years: float = 5.0
    rain_light_mm_h: float = 2.0
    rain_moderate_mm_h: float = 4.0
    rain_moderate_multiplier: float = 120.0 / 215.0
    rain_latency_factor: float = 2.0
    handover_min_s: float = 60.0
    handover_max_s: float = 120.0
    handover_loss_min: float = 0.01
    handover_loss_max: float = 0.02
    handover_spike_s: float = 1.0
    maneuver_rate_per_sat_year: float = 12.0
    maneuver_dh_min_km: float = 1.0
    maneuver_dh_max_km: float = 3.0
    maneuver_dwell_s: float = 86400.0

    def __post_init__(self) -> None:
        if not isinstance(self.devices_per_satellite, int):
            raise ValueError(
                f"devices_per_satellite must be an integer, got {self.devices_per_satellite!r}"
            )
        nonnegative = (
            "seu_rate_per_device_day",
            "devices_per_satellite",
            "seu_downtime_s",
            "rain_light_mm_h",
            "handover_min_s",
            "handover_loss_min",
            "handover_spike_s",
            "maneuver_rate_per_sat_year",
            "maneuver_dh_min_km",
            "maneuver_dwell_s",
        )
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tid_limit_krad <= 0.0:
            raise ValueError(f"tid_limit_krad must be > 0, got {self.tid_limit_krad}")
        if self.mission_years <= 0.0:
            raise ValueError(f"mission_years must be > 0, got {self.mission_years}")
        for low, high in (
            ("rain_light_mm_h", "rain_moderate_mm_h"),
            ("handover_min_s", "handover_max_s"),
            ("handover_loss_min", "handover_loss_max"),
            ("maneuver_dh_min_km", "maneuver_dh_max_km"),
        ):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must be <= {high}")
        if not 0.0 < self.rain_moderate_multiplier <= 1.0:
            raise ValueError(
                f"rain_moderate_multiplier must be in (0, 1], got {self.rain_moderate_multiplier}"
            )
        if self.rain_latency_factor < 1.0:
            raise ValueError(f"rain_latency_factor must be >= 1, got {self.rain_latency_factor}")
        for name in ("seu_permanent_prob", "handover_loss_min", "handover_loss_max"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True)
class RandomStreams:
    """Named, independent random substreams derived from one master seed.

    stream(label) hashes the label with SHA-256 and feeds the digest plus
    the master seed into a SeedSequence, so every (seed, label) pair maps
    to a stable, documented generator state.
    """

    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def stream(self, label: str) -> np.random.Generator:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.default_rng(np.random.SeedSequence([self.seed, *words]))


def expected_seu_count(
    rate_per_device_day: float, devices: int, satellites: int, days: float
) -> float:
    """Expected upset count: rate * devices * satellites * days."""
    return rate_per_device_day * devices * satellites * days


def sample_seu_events(
    config: FaultModelConfig,
    fleet: Sequence[SatelliteId],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
) -> List[FaultEvent]:
    """Draw radiation-induced reboot events for every device of the fleet.

    Each satellite gets the substream "seu/<sat>". Arrivals follow one
    exponential clock at devices * rate; the affected device index is
    uniform, which by Poisson superposition is equivalent to independent
    per-device processes. Events tagged permanent (probability
    seu_permanent_prob) use the device_permanent_failure kind.
    """
    events: List[FaultEvent] = []
    sat_rate_per_s = (
        config.seu_rate_per_device_day * config.devices_per_satellite / SECONDS_PER_DAY
    )
    if sat_rate_per_s <= 0.0 or t1_s <= t0_s:
        return events
    scale = 1.0 / sat_rate_per_s
    for sat in fleet:
        rng = streams.stream(f"seu/{sat.label()}")
        t = t0_s
        while True:
            t += rng.exponential(scale)
            if t >= t1_s:
                break
            device = int(rng.integers(config.devices_per_satellite))
            permanent = rng.random() < config.seu_permanent_prob
            target = DeviceTarget(sat, device)
            if permanent:
                events.append(FaultEvent(t, "device_permanent_failure", target, {}))
            else:
                events.append(
                    FaultEvent(t, "device_reboot", target, {"downtime_s": config.seu_downtime_s})
                )
    events.sort(key=lambda e: e.sort_key)
    return events


def dose_rate(profile: DoseProfile, inclination_deg: float, mission_years: float) -> float:
    """Annual dose in krad/year at an inclination, from the mission profile."""
    if not 0.0 <= inclination_deg <= 180.0:
        raise ValueError(f"inclination_deg must be in [0, 180], got {inclination_deg}")
    if mission_years <= 0.0:
        raise ValueError(f"mission_years must be > 0, got {mission_years}")
    folded = 180.0 - inclination_deg if inclination_deg > 90.0 else inclination_deg
    xs = [a[0] for a in profile.anchors]
    ys = [a[1] for a in profile.anchors]
    mission_dose = float(np.interp(folded, xs, ys))
    return mission_dose / mission_years


@dataclass(frozen=True)
class TidReport:
    survives: bool
    dose_krad: float
    lifetime_years: float


def tid_survival(
    profile: DoseProfile,
    inclination_deg: float,
    limit_krad: float,
    mission_years: float,
) -> TidReport:
    """Whether hardware stays under its ionizing-dose limit for the mission."""
    if limit_krad <= 0.0:
        raise ValueError(f"limit_krad must be > 0, got {limit_krad}")
    rate = dose_rate(profile, inclination_deg, mission_years)
    dose = rate * mission_years
    lifetime = limit_krad / rate if rate > 0.0 else float("inf")
    return TidReport(survives=dose < limit_krad, dose_krad=dose, lifetime_years=lifetime)


def rain_multiplier(precip_mm_h: float, config: Optional[FaultModelConfig] = None) -> float:
    """Downlink throughput multiplier under a given precipitation rate.

    1.0 up to the light-rain threshold, the configured floor at or above
    the moderate-rain threshold, linear in between.
    """
    if precip_mm_h < 0.0:
        raise ValueError(f"precip_mm_h must be >= 0, got {precip_mm_h}")
    cfg = config if config is not None else FaultModelConfig()
    if precip_mm_h <= cfg.rain_light_mm_h:
        return 1.0
    if precip_mm_h >= cfg.rain_moderate_mm_h:
        return cfg.rain_moderate_multiplier
    span = cfg.rain_moderate_mm_h - cfg.rain_light_mm_h
    frac = (precip_mm_h - cfg.rain_light_mm_h) / span
    return 1.0 + frac * (cfg.rain_moderate_multiplier - 1.0)


def _renewal_times(
    rng: np.random.Generator, config: FaultModelConfig, t0_s: float, t1_s: float
) -> Iterator[float]:
    t = t0_s
    while True:
        t += rng.uniform(config.handover_min_s, config.handover_max_s)
        if t >= t1_s:
            return
        yield t


def sample_handover_spikes(
    config: FaultModelConfig,
    gs_ids: Sequence[str],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
    mode: str = "renewal",
    schedules: Optional[Dict[str, Sequence[float]]] = None,
) -> List[FaultEvent]:
    """Short packet-loss spikes caused by satellite handovers.

    In "renewal" mode each station's spikes arrive with inter-arrival
    times uniform in [handover_min_s, handover_max_s]. In "geometric"
    mode the spike times are the handover instants supplied per station
    in `schedules` (from topology.handover_schedule); loss rates are
    still drawn from the station's stream.
    """
    if mode not in ("renewal", "geometric"):
        raise ValueError(f"mode must be 'renewal' or 'geometric', got {mode!r}")
    if mode == "geometric" and schedules is None:
        raise ValueError("geometric mode requires a schedules mapping")
    events: List[FaultEvent] = []
    for gs_id in gs_ids:
        rng = streams.stream(f"handover/{gs_id}")
        if mode == "renewal":
            spike_times = _renewal_times(rng, config, t0_s, t1_s)
        else:
            spike_times = (float(t) for t in schedules.get(gs_id, ()) if t0_s <= t < t1_s)
        # lazy times: a renewal gap is drawn only after the previous spike's loss
        for t in spike_times:
            loss = rng.uniform(config.handover_loss_min, config.handover_loss_max)
            events.append(
                FaultEvent(
                    t,
                    "handover_spike",
                    GroundLinkTarget(gs_id),
                    {"loss_rate": loss, "duration_s": config.handover_spike_s},
                )
            )
    events.sort(key=lambda e: e.sort_key)
    return events


@dataclass(frozen=True)
class ManeuverEvent:
    """One collision-avoidance maneuver: a signed altitude offset for a dwell."""

    sat: SatelliteId
    start_s: float
    dh_km: float
    dwell_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.dwell_s


def sample_maneuvers(
    config: FaultModelConfig,
    fleet: Sequence[SatelliteId],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
) -> List[ManeuverEvent]:
    """Per-satellite Poisson maneuvers (substream "maneuver/<sat>").

    Offset magnitude is uniform in [dh_min, dh_max] km with an evenly
    random sign; the offset holds for maneuver_dwell_s, then the
    satellite returns to its nominal radius instantaneously.
    """
    events: List[ManeuverEvent] = []
    rate_per_s = config.maneuver_rate_per_sat_year / SECONDS_PER_YEAR
    if rate_per_s <= 0.0 or t1_s <= t0_s:
        return events
    scale = 1.0 / rate_per_s
    for sat in fleet:
        rng = streams.stream(f"maneuver/{sat.label()}")
        t = t0_s
        while True:
            t += rng.exponential(scale)
            if t >= t1_s:
                break
            magnitude = rng.uniform(config.maneuver_dh_min_km, config.maneuver_dh_max_km)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            events.append(
                ManeuverEvent(sat, t, sign * magnitude, config.maneuver_dwell_s)
            )
    events.sort(key=lambda e: (e.start_s, tuple(e.sat)))
    return events


def offsets_at(events: Sequence[ManeuverEvent], t_s: float) -> Dict[SatelliteId, float]:
    """Net offsets at t_s of the satellites with an active maneuver.

    Offsets of maneuvers (sorted by start) whose [start, start+dwell)
    interval contains t_s are summed per satellite, clamped to +-10 km.
    """
    totals: Dict[SatelliteId, float] = {}
    for event in events:
        if event.start_s > t_s:
            break
        if event.start_s <= t_s < event.end_s:
            totals[event.sat] = totals.get(event.sat, 0.0) + event.dh_km
    return {
        sat: float(np.clip(v, -MAX_TOTAL_OFFSET_KM, MAX_TOTAL_OFFSET_KM))
        for sat, v in totals.items()
        if v != 0.0
    }


def read_precipitation_csv(path) -> List[Tuple[float, float]]:
    """Read a precipitation time series: header t_s,mm_per_h, increasing t_s.

    Values hold until the next row (step-function semantics).
    """
    rows: List[Tuple[float, float]] = []
    with open(Path(path), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t_s", "mm_per_h"]:
            raise ValueError(f"precipitation CSV must start with header 't_s,mm_per_h', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ValueError(f"precipitation CSV line {line_no}: expected 2 columns, got {len(row)}")
            try:
                if "_" in row[0] + row[1]:  # float() reads digit separators
                    raise ValueError(row)
                t, mm = float(row[0]), float(row[1])
                if not (math.isfinite(t) and math.isfinite(mm)):
                    raise ValueError(row)
            except ValueError:
                raise ValueError(
                    f"precipitation CSV line {line_no}: t_s and mm_per_h must be finite numbers, got {row}"
                ) from None
            if mm < 0.0:
                raise ValueError(f"precipitation CSV line {line_no}: negative rate {mm}")
            if rows and t <= rows[-1][0]:
                raise ValueError(f"precipitation CSV line {line_no}: t_s must be strictly increasing")
            rows.append((t, mm))
    return rows


def rain_events(
    config: FaultModelConfig,
    gs_ids: Sequence[str],
    series: Sequence[Tuple[float, float]],
    t0_s: float,
    t1_s: float,
) -> List[FaultEvent]:
    """Ground-link degradation events from a precipitation step series.

    An event is emitted whenever the throughput multiplier changes,
    including a recovery event (multiplier 1.0) when rain eases. Links
    are assumed clear before the first sample; a series already degraded
    at t0 emits its state once at t0. Deterministic; no random draws are
    involved.
    """
    changes: List[Tuple[float, float]] = []
    current = 1.0
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
    events: List[FaultEvent] = []
    for t, multiplier in changes:
        latency = config.rain_latency_factor if multiplier < 1.0 else 1.0
        for gs_id in gs_ids:
            events.append(
                FaultEvent(
                    t,
                    "gs_link_degraded",
                    GroundLinkTarget(gs_id),
                    {"throughput_multiplier": multiplier, "latency_factor": latency},
                )
            )
    events.sort(key=lambda e: e.sort_key)
    return events
