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
perturbs another model's draws. A sampler derives all of its substreams
in one pass over its labels (RandomStreams.substreams).

The event samplers draw rows, (t, kind, *target fields, *params in key
order), whose tuple order is sort_key order, and sort them: simulate
writes the private sources' rows as lines, and the public samplers build
each FaultEvent from its row. The sources check the ids a caller passes
in (fleet and station ids, schedules) where they enter, and only draw
numbers: trace's renderer checks every row's time and params as it
writes the row, and FaultEvent as it builds one. Every trace source but
topology's ISL transitions lives here, maneuver rows included.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constants import SECONDS_PER_DAY, SECONDS_PER_YEAR, _check_range, _first_out_of_order, _read_pairs
from .orbital import SatelliteId
from .trace import FaultEvent, GroundLinkTarget, _check_sat, _event_from_row

MAX_TOTAL_OFFSET_KM = 10.0

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), as Python
# ints: the products wrap in uint32 arrays, where numpy scalars would warn.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# labels hashed and mixed per pass; bounds the state rows held at once
_CHUNK = 1024


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
            _check_range("anchor inclination", inclination, 0.0, 90.0)
            if not inclination > previous:
                raise ValueError("anchor inclinations must be strictly increasing")
            _check_range("anchor dose", dose, 0.0)
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
    """All stochastic-model rates and thresholds."""

    seu_rate_per_device_day: float = 1e-4
    devices_per_satellite: int = 60
    seu_downtime_s: float = 30.0
    seu_permanent_prob: float = 0.0
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
        for name in (
            "seu_rate_per_device_day",
            "seu_downtime_s",
            "rain_light_mm_h",
            "rain_moderate_mm_h",
            "handover_min_s",
            "handover_spike_s",
            "maneuver_rate_per_sat_year",
            "maneuver_dh_min_km",
            "maneuver_dh_max_km",
            "maneuver_dwell_s",
        ):
            _check_range(name, getattr(self, name), 0.0)
        _check_range("devices_per_satellite", self.devices_per_satellite, 0, 2**63)  # rng.integers' largest n
        # zero gaps never advance a station's spike arrivals
        _check_range("handover_max_s", self.handover_max_s, 0.0, ends="(]")
        _check_range("rain_moderate_multiplier", self.rain_moderate_multiplier, 0.0, 1.0, "(]")
        _check_range("rain_latency_factor", self.rain_latency_factor, 1.0)
        for name in ("seu_permanent_prob", "handover_loss_min", "handover_loss_max"):
            _check_range(name, getattr(self, name), 0.0, 1.0)
        for low, high in (
            ("rain_light_mm_h", "rain_moderate_mm_h"),
            ("handover_min_s", "handover_max_s"),
            ("handover_loss_min", "handover_loss_max"),
            ("maneuver_dh_min_km", "maneuver_dh_max_km"),
        ):
            if not getattr(self, low) <= getattr(self, high):
                raise ValueError(f"{low} must be <= {high}")


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 constants of n chained hash steps: init, init*mult, ... mod 2**32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step, elementwise: a step xors one constant and
    multiplies by the next."""
    mixed = values ^ xor
    mixed *= mul
    mixed ^= mixed >> 16
    return mixed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_MULT_L
    mixed -= y * _MIX_MULT_R
    mixed ^= mixed >> 16
    return mixed


def _pool_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of an
    (n, L) uint32 entropy array, as (n, 4) uint64.

    This is numpy's algorithm, with its default pool of four words, over
    whole columns. Its hash constant advances once per hash step whatever
    the data, so every row shares each step's constants, and steps that
    read no pool word they write run as one array operation.
    """
    n, length = entropy.shape
    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(length - 4, 0))
    pool = np.zeros((n, 4), np.uint32)
    pool[:, : min(length, 4)] = entropy[:, :4]
    pool = _hashmix(pool, a[0:4], a[1:5])
    step = 4
    for src in range(4):
        # pool[src] is read, never written, while it mixes into the other three
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[:, src : src + 1], a[step : step + 3], a[step + 1 : step + 4])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        step += 3
    for word in range(4, length):
        # each word past the pool is hashed once for every pool word
        hashed = _hashmix(entropy[:, word : word + 1], a[step : step + 4], a[step + 1 : step + 5])
        pool = _mix(pool, hashed)
        step += 4
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hashmix(np.tile(pool, 2), b[:-1], b[1:])
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(seed: int, halves: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, *words]).generate_state(4, np.uint64) for each row of words.

    halves is (n, 2k) uint32: the low and high halves of k 64-bit words per
    row. SeedSequence drops a zero high half, which shortens the entropy; the
    rare rows with one are mixed again, one by one, at their own length.
    """
    seed = operator.index(seed)  # numpy ints pass and floats raise, as in SeedSequence
    # SeedSequence splits an int into little-endian 32-bit words, [0] for 0
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(halves), len(seed_words) + halves.shape[1]), np.uint32)
    entropy[:, : len(seed_words)] = seed_words
    entropy[:, len(seed_words) :] = halves
    states = _pool_states(entropy)
    # found in numpy: a per-row Python scan's objects fragmented the heap,
    # and catalog-io's peak RSS rose by 3 MB
    for row in np.flatnonzero((halves[:, 1::2] == 0).any(axis=1)).tolist():
        kept = [word for i, word in enumerate(halves[row].tolist()) if word or i % 2 == 0]
        states[row] = _pool_states(np.array([seed_words + kept], np.uint32))[0]
    return states


@lru_cache(maxsize=None)
def _state_seed_type() -> type:
    """An ISeedSequence that hands PCG64 a precomputed state row.

    Made on first use: defining it imports numpy.random, which importing
    leofault does not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("a StateSeed holds only PCG64's four uint64 words")
            return self.state

    return StateSeed


@dataclass(frozen=True)
class RandomStreams:
    """Named, independent random substreams derived from one master seed.

    The substream for a label is the generator
    default_rng(SeedSequence([seed, *words])), where words are the four
    little-endian 64-bit words of the label's SHA-256 digest, so every
    (seed, label) pair maps to a stable, documented generator state.
    substreams derives many at once: it hashes a chunk of labels and runs
    SeedSequence's mixing over the whole chunk in numpy, then seeds each
    PCG64 from its precomputed row. tests/test_faults.py pins that mixing
    against np.random.SeedSequence.
    """

    seed: int

    def __post_init__(self) -> None:
        _check_range("seed", self.seed, 0, 2**64, "[)")
        try:
            operator.index(self.seed)  # a float seed passes the range but no substream takes it
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None

    def substreams(self, labels: Iterable[str]) -> Iterator[np.random.Generator]:
        """The substream of each label, in order.

        Labels are read lazily, _CHUNK at a time, and each generator is made
        only when it is reached. Every generator is independent.
        """
        from numpy.random import PCG64, Generator

        state_seed = _state_seed_type()
        labels = iter(labels)
        while chunk := list(islice(labels, _CHUNK)):
            digests = b"".join(hashlib.sha256(label.encode("utf-8")).digest() for label in chunk)
            for state in _seed_states(self.seed, np.frombuffer(digests, "<u4").reshape(-1, 8)):
                yield Generator(PCG64(state_seed(state)))

    def stream(self, label: str) -> np.random.Generator:
        return next(self.substreams((label,)))


def expected_seu_count(
    rate_per_device_day: float, devices: int, satellites: int, days: float
) -> float:
    """Expected upset count: rate * devices * satellites * days."""
    return rate_per_device_day * devices * satellites * days


def _arrivals(gap: Callable[[], float], t0_s: float, t1_s: float) -> Iterator[float]:
    """Arrivals in [t0_s, t1_s) spaced by gap() draws, each drawn lazily after
    the previous arrival's own draws."""
    t = t0_s
    while True:
        t += gap()
        if t >= t1_s:
            return
        yield t


def _seu_trace(
    config: FaultModelConfig,
    fleet: Sequence[SatelliteId],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
) -> List[tuple]:
    """sample_seu_events' rows, (t, kind, sat, device, *params), sorted, about 123 bytes
    each; fleet ids are checked as each satellite is drawn."""
    sat_rate_per_s = (
        config.seu_rate_per_device_day * config.devices_per_satellite / SECONDS_PER_DAY
    )
    if sat_rate_per_s <= 0.0 or t1_s <= t0_s:
        return []
    scale = 1.0 / sat_rate_per_s
    rows: List[tuple] = []
    rngs = streams.substreams(f"seu/{sat.label()}" for sat in fleet)
    for sat, rng in zip(fleet, rngs):
        _check_sat(sat, "sat")
        for t in _arrivals(partial(rng.exponential, scale), t0_s, t1_s):
            device = int(rng.integers(config.devices_per_satellite))
            permanent = rng.random() < config.seu_permanent_prob
            rows.append((t, "device_permanent_failure", sat, device) if permanent
                        else (t, "device_reboot", sat, device, config.seu_downtime_s))
    rows.sort()
    return rows


def sample_seu_events(
    config: FaultModelConfig,
    fleet: Sequence[SatelliteId],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
) -> List[FaultEvent]:
    """Draw radiation-induced reboot events for every device of the fleet,
    sorted by sort_key.

    Each satellite gets the substream "seu/<sat>". Arrivals follow one
    exponential clock at devices * rate; the affected device index is
    uniform, which by Poisson superposition is equivalent to independent
    per-device processes. Events tagged permanent (probability
    seu_permanent_prob) use the device_permanent_failure kind.
    """
    return list(map(_event_from_row, _seu_trace(config, fleet, t0_s, t1_s, streams)))


def _mission_dose(profile: DoseProfile, inclination_deg: float, mission_years: float) -> float:
    """Mission dose in krad at an inclination: dose_rate and tid_survival derive from this one value."""
    _check_range("inclination_deg", inclination_deg, 0.0, 180.0)
    _check_range("mission_years", mission_years, 0.0, ends="(]")
    folded = 180.0 - inclination_deg if inclination_deg > 90.0 else inclination_deg
    xs = [a[0] for a in profile.anchors]
    ys = [a[1] for a in profile.anchors]
    return float(np.interp(folded, xs, ys))


def dose_rate(profile: DoseProfile, inclination_deg: float, mission_years: float) -> float:
    """Annual dose in krad/year at an inclination, from the mission profile."""
    return _mission_dose(profile, inclination_deg, mission_years) / mission_years


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
    _check_range("limit_krad", limit_krad, 0.0, ends="(]")
    dose = _mission_dose(profile, inclination_deg, mission_years)
    lifetime = limit_krad / dose * mission_years if dose > 0.0 else math.inf
    return TidReport(survives=dose < limit_krad, dose_krad=dose, lifetime_years=lifetime)


def rain_multiplier(precip_mm_h: float, config: Optional[FaultModelConfig] = None) -> float:
    """Downlink throughput multiplier under a given precipitation rate.

    1.0 up to the light-rain threshold, the configured floor at or above
    the moderate-rain threshold, linear in between.
    """
    _check_range("precip_mm_h", precip_mm_h, 0.0)
    cfg = config if config is not None else FaultModelConfig()
    if precip_mm_h <= cfg.rain_light_mm_h:
        return 1.0
    if precip_mm_h >= cfg.rain_moderate_mm_h:
        return cfg.rain_moderate_multiplier
    span = cfg.rain_moderate_mm_h - cfg.rain_light_mm_h
    frac = (precip_mm_h - cfg.rain_light_mm_h) / span
    return 1.0 + frac * (cfg.rain_moderate_multiplier - 1.0)


def _spike_trace(
    config: FaultModelConfig,
    gs_ids: Sequence[str],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
    schedules: Optional[Dict[str, Sequence[float]]] = None,
) -> List[tuple]:
    """sample_handover_spikes' rows, (t, kind, gs_id, *params), sorted; renewal spike
    times unless schedules is given. Station ids and schedules are checked first
    (ValueError names a station not in gs_ids or a NaN time)."""
    ids = [GroundLinkTarget(gs_id).gs_id for gs_id in gs_ids]  # a target checks its id
    for gs_id, times in (schedules or {}).items():
        if gs_id not in ids:
            raise ValueError(f"schedules has station {gs_id!r}, which is not in gs_ids")
        if (nan := next((i for i, t in enumerate(times) if t != t), None)) is not None:  # t != t: NaN
            raise ValueError(f"schedules[{gs_id!r}][{nan}] is NaN")
    rows: List[tuple] = []
    rngs = streams.substreams(f"handover/{gs_id}" for gs_id in gs_ids)
    for gs_id, rng in zip(gs_ids, rngs):
        if schedules is None:
            gap = partial(rng.uniform, config.handover_min_s, config.handover_max_s)
            spike_times = _arrivals(gap, t0_s, t1_s)
        else:
            spike_times = (float(t) for t in schedules.get(gs_id, ()) if t0_s <= t < t1_s)
        for t in spike_times:
            loss = rng.uniform(config.handover_loss_min, config.handover_loss_max)
            rows.append((t, "handover_spike", gs_id, config.handover_spike_s, loss))
    rows.sort()
    return rows


def sample_handover_spikes(
    config: FaultModelConfig,
    gs_ids: Sequence[str],
    t0_s: float,
    t1_s: float,
    streams: RandomStreams,
    mode: str = "renewal",
    schedules: Optional[Dict[str, Sequence[float]]] = None,
) -> List[FaultEvent]:
    """Short packet-loss spikes caused by satellite handovers, sorted by
    sort_key.

    In "renewal" mode each station's spikes arrive with inter-arrival
    times uniform in [handover_min_s, handover_max_s], and schedules must
    be None. In "geometric" mode the spike times are the handover instants
    supplied per station in `schedules` (from topology.handover_schedule),
    in any order; loss rates are still drawn from the station's stream, in
    schedule order.
    """
    if mode not in ("renewal", "geometric"):
        raise ValueError(f"mode must be 'renewal' or 'geometric', got {mode!r}")
    if mode == "geometric" and schedules is None:
        raise ValueError("geometric mode requires a schedules mapping")
    if mode == "renewal" and schedules is not None:
        raise ValueError("schedules is read only in geometric mode; renewal mode draws its own spike times")
    return list(map(_event_from_row, _spike_trace(config, gs_ids, t0_s, t1_s, streams, schedules)))


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
    rngs = streams.substreams(f"maneuver/{sat.label()}" for sat in fleet)
    for sat, rng in zip(fleet, rngs):
        for t in _arrivals(partial(rng.exponential, scale), t0_s, t1_s):
            magnitude = rng.uniform(config.maneuver_dh_min_km, config.maneuver_dh_max_km)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            events.append(
                ManeuverEvent(sat, t, sign * magnitude, config.maneuver_dwell_s)
            )
    events.sort(key=lambda e: (e.start_s, tuple(e.sat)))
    return events


def _maneuver_trace(maneuvers: Sequence[ManeuverEvent], duration_s: float) -> List[tuple]:
    """Maneuver start and end rows, (t, kind, sat, *params), sorted."""
    rows: List[tuple] = [(m.start_s, "maneuver_start", m.sat, m.dh_km, m.dwell_s) for m in maneuvers]
    rows += [(m.end_s, "maneuver_end", m.sat, m.dh_km) for m in maneuvers if m.end_s < duration_s]
    rows.sort()
    return rows


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
    """Read a precipitation time series under the table rule: header t_s,mm_per_h, finite
    numbers, mm_per_h not negative, t_s strictly increasing. Values hold until the next row
    (step-function semantics)."""
    table, line_of = _read_pairs(path, ("t_s", "mm_per_h"), "precipitation CSV")
    rows = list(map(tuple, table.tolist()))
    for i, (t, mm) in enumerate(rows):
        if not (math.isfinite(t) and math.isfinite(mm)):
            raise ValueError(
                f"precipitation CSV line {line_of(i)}: t_s and mm_per_h must be finite numbers, got {t}, {mm}"
            )
        if mm < 0.0:
            raise ValueError(f"precipitation CSV line {line_of(i)}: negative rate {mm}")
        if i and t <= rows[i - 1][0]:
            raise ValueError(f"precipitation CSV line {line_of(i)}: t_s must be strictly increasing")
    return rows


def _rain_changes(
    config: FaultModelConfig, series: Sequence[Tuple[float, float]], t0_s: float, t1_s: float
) -> List[Tuple[float, float]]:
    """rain_events' (t, multiplier) changes in [t0_s, t1_s): any before t0_s moves to t0_s and ties collapse
    into the last, so t strictly increases. ValueError names the first row whose t_s falls or is NaN."""
    if (bad := _first_out_of_order(np.array([t for t, _ in series], dtype=float))) is not None:
        raise ValueError(f"precipitation series t_s must not decrease: series[{bad}] has t_s {series[bad][0]}")
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
    return changes


def _rain_trace(
    config: FaultModelConfig, gs_ids: Sequence[str], changes: Sequence[Tuple[float, float]]
) -> Iterator[tuple]:
    """rain_events' rows, (t, kind, gs_id, *params), in sort_key order: change by change, stations
    in id order. Station ids are checked before the first row."""
    ids = sorted(GroundLinkTarget(gs_id).gs_id for gs_id in gs_ids)  # a target checks its id
    for t, multiplier in changes:
        latency = config.rain_latency_factor if multiplier < 1.0 else 1.0
        for gs_id in ids:
            yield (t, "gs_link_degraded", gs_id, latency, multiplier)


def rain_events(
    config: FaultModelConfig,
    gs_ids: Sequence[str],
    series: Sequence[Tuple[float, float]],
    t0_s: float,
    t1_s: float,
) -> List[FaultEvent]:
    """Ground-link degradation events from a precipitation step series,
    sorted by sort_key.

    series holds (t_s, mm_per_h) rows; ValueError names the first whose t_s decreases or is NaN.
    An event is emitted whenever the throughput multiplier changes,
    including a recovery event (multiplier 1.0) when rain eases. Links
    are assumed clear before the first sample; a series already degraded
    at t0 emits its state once at t0. Deterministic; no random draws are
    involved.
    """
    return list(map(_event_from_row, _rain_trace(config, gs_ids, _rain_changes(config, series, t0_s, t1_s))))
