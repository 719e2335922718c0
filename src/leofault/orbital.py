"""Walker-style constellation shells and circular Keplerian propagation.

Satellites move on circular orbits around a spherical Earth. A shell is a
set of P orbital planes with S satellites each; planes are spread in right
ascension and satellites are evenly phased within a plane, with an optional
Walker phasing factor F shifting the phase between adjacent planes.

A small radial offset can be applied during propagation (used for
collision-avoidance maneuvers); the offset orbit keeps the same plane but
has its mean motion recomputed for the offset radius.

A fleet is one struct of arrays, FleetArrays, laid out from the shells
(and TLE columns) with no per-satellite object: a read-only mapping that
builds an element only when one is looked up. build_constellation returns
the same rows as an editable dict; FleetArrays.of converts any mapping.

The position formula lives in one private kernel that returns x, y and z
as separate planes. propagate_arrays stacks its planes into (..., 3)
rows. FleetArrays computes the cosines and sines of every satellite's
fixed inclination and RAAN once per fleet rather than at every step; its
planes, for every row or a subset, equal propagate_arrays bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, MAX_STEPS, MU_EARTH_M3_S2, _check_range


@dataclass(frozen=True)
class ShellSpec:
    """Declarative parameters of one constellation shell."""

    altitude_km: float
    inclination_deg: float
    planes: int
    sats_per_plane: int
    raan_spread_deg: float = 360.0
    phase_offset_f: int = 0

    def __post_init__(self) -> None:
        _check_range("altitude_km", self.altitude_km, 100.0, 2000.0, "(]")
        _check_range("inclination_deg", self.inclination_deg, 0.0, 180.0)
        _check_range("raan_spread_deg", self.raan_spread_deg, 0.0, 360.0, "(]")
        for attr in ("planes", "sats_per_plane", "phase_offset_f"):
            if type(getattr(self, attr)) is bool or not isinstance(getattr(self, attr), int):
                raise ValueError(f"{attr} must be an integer, got {getattr(self, attr)!r}")
        _check_range("planes", self.planes, 1.0)
        _check_range("sats_per_plane", self.sats_per_plane, 1.0)
        try:  # build_constellation's plane phases are p * F * 360 / (P * S), largest at p = P - 1
            finite = math.isfinite((self.planes - 1) * self.phase_offset_f * 360.0)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"phase_offset_f must give finite plane phases over {self.planes} planes, got {self.phase_offset_f}")

    @property
    def total_sats(self) -> int:
        return self.planes * self.sats_per_plane


class SatelliteId(NamedTuple):
    """Position of one satellite within a constellation (shell, plane, slot)."""

    shell: int
    plane: int
    index: int

    def label(self) -> str:
        return f"s{self.shell}p{self.plane}i{self.index}"


@dataclass(frozen=True)
class CircularElements:
    """Orbital state of one satellite, sufficient for circular propagation.

    phase_deg is the argument of latitude at t = 0 (angle from the
    ascending node along the orbit). Angles are normalized to [0, 360).
    """

    semi_major_axis_km: float
    inclination_deg: float
    raan_deg: float
    phase_deg: float

    def __post_init__(self) -> None:
        _check_range("semi_major_axis_km", self.semi_major_axis_km, 0.0, ends="(]")
        for attr in ("inclination_deg", "raan_deg", "phase_deg"):
            _check_range(attr, getattr(self, attr), -math.inf, ends="()")
        object.__setattr__(self, "raan_deg", self.raan_deg % 360.0)
        object.__setattr__(self, "phase_deg", self.phase_deg % 360.0)


Constellation = Mapping[SatelliteId, CircularElements]


def orbital_period(altitude_km: float) -> float:
    """Circular-orbit period in seconds for an altitude above the mean sphere.

    T = 2*pi*sqrt(a^3/mu) with a = EARTH_RADIUS_KM + altitude.
    """
    _check_range("altitude_km", altitude_km, 0.0, ends="(]")
    a_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return 2.0 * math.pi * math.sqrt(a_m**3 / MU_EARTH_M3_S2)


def build_constellation(
    shells: Sequence[ShellSpec], earth_radius_km: float = EARTH_RADIUS_KM
) -> Dict[SatelliteId, CircularElements]:
    """Every satellite of the given shells at epoch 0, as an editable dict in id order.

    Plane p of a shell gets raan = p * raan_spread / P. Satellite s of
    plane p gets phase = s * 360/S + p * F * 360/(P*S), normalized.
    """
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    return dict(_fleet(shells, earth_radius_km).items())


def _fleet(
    shells: Sequence[ShellSpec], earth_radius_km: float, catalogs: Sequence[Tuple[np.ndarray, ...]] = ()
) -> "FleetArrays":
    """The shells' satellites, then each catalog's (a_km, inclination, RAAN, phase) columns as a shell
    of one plane. Per-plane terms are Python floats, as p * F can exceed int64; per-slot terms are
    numpy's, the same IEEE operations in the same order."""
    ids, columns = [np.empty((3, 0), dtype=np.int64)], [(np.empty(0),) * 4]
    for shell_index, spec in enumerate(shells):
        p_count, s_count = spec.planes, spec.sats_per_plane
        raan = [p * spec.raan_spread_deg / p_count for p in range(p_count)]
        plane_phase = np.array([p * spec.phase_offset_f * 360.0 / (p_count * s_count) for p in range(p_count)])
        phase = (np.arange(s_count) * 360.0 / s_count + plane_phase[:, None]).ravel()
        ids.append(np.stack([np.full(phase.size, shell_index), *np.indices((p_count, s_count)).reshape(2, -1)]))
        a_km, inclination = earth_radius_km + spec.altitude_km, spec.inclination_deg
        columns.append((np.full(phase.size, a_km, dtype=float), np.full(phase.size, inclination, dtype=float),
                        np.repeat(raan, s_count), phase))
    for shell_index, catalog in enumerate(catalogs, len(shells)):
        n = catalog[0].size
        ids.append(np.stack([np.full(n, shell_index), np.zeros(n, dtype=np.int64), np.arange(n)]))
        columns.append(catalog)
    a_km, inclination, raan, phase = (np.concatenate(c) for c in zip(*columns))
    return FleetArrays(np.concatenate(ids, axis=1), a_km, inclination, raan % 360.0, phase % 360.0)


def _mean_motion(r_km: np.ndarray) -> np.ndarray:
    """Angular rate of circular orbits of radii r_km, rad/s."""
    return np.sqrt(MU_EARTH_M3_S2 / (r_km * 1e3) ** 3)


def _position_planes(
    r_km: np.ndarray,
    n_rad_s: np.ndarray,
    phase_rad: np.ndarray,
    t_s: np.ndarray | float,
    cos_i: np.ndarray,
    sin_i: np.ndarray,
    cos_o: np.ndarray,
    sin_o: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y, z of circular orbits at t_s: the one position formula.

    The argument of latitude advances from phase_rad at n_rad_s; i is the
    inclination and o the RAAN.
    """
    u = phase_rad + n_rad_s * t_s
    cos_u, sin_u = np.cos(u), np.sin(u)
    x = r_km * (cos_u * cos_o - sin_u * cos_i * sin_o)
    y = r_km * (cos_u * sin_o + sin_u * cos_i * cos_o)
    z = r_km * (sin_u * sin_i)
    return x, y, z


def propagate_arrays(
    a_km: np.ndarray,
    inclination_rad: np.ndarray,
    raan_rad: np.ndarray,
    phase_rad: np.ndarray,
    t_s: np.ndarray | float,
    offset_km: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Vectorized circular propagation; returns positions with shape (..., 3).

    The radius is a + offset and the argument of latitude advances at the
    mean motion of the offset radius. t_s may be one time or one per row.
    """
    r_km = np.asarray(a_km, dtype=float) + np.asarray(offset_km, dtype=float)
    planes = _position_planes(
        r_km,
        _mean_motion(r_km),
        phase_rad,
        t_s,
        np.cos(inclination_rad),
        np.sin(inclination_rad),
        np.cos(raan_rad),
        np.sin(raan_rad),
    )
    return np.stack(planes, axis=-1)


class FleetArrays(Mapping[SatelliteId, CircularElements]):
    """A constellation as one struct of arrays, satellites in id order: the shell, plane and index
    columns of ids, CircularElements' fields in degrees, and their angles in radians, derived once.
    As a read-only mapping it builds an element only when one is looked up."""

    def __init__(self, ids: np.ndarray, a_km: np.ndarray, *degrees: np.ndarray) -> None:
        self.shell, self.plane, self.index = ids
        self.a_km, self.inclination_deg, self.raan_deg, self.phase_deg = a_km, *degrees
        self.inclination_rad, self.raan_rad, self.phase_rad = map(np.radians, degrees)

    @cached_property
    def sat_ids(self) -> List[SatelliteId]:
        return list(map(SatelliteId, self.shell.tolist(), self.plane.tolist(), self.index.tolist()))

    @cached_property
    def _row_of(self) -> Dict[SatelliteId, int]:
        return dict(zip(self.sat_ids, range(len(self))))

    def __len__(self) -> int:
        return self.a_km.size

    def __iter__(self) -> Iterator[SatelliteId]:
        return iter(self.sat_ids)

    def __contains__(self, sat) -> bool:
        return sat in self._row_of

    def __getitem__(self, sat: SatelliteId) -> CircularElements:
        row, columns = self._row_of[sat], (self.a_km, self.inclination_deg, self.raan_deg, self.phase_deg)
        return CircularElements(*(float(c[row]) for c in columns))

    @cached_property
    def _trig(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """cos i, sin i, cos RAAN, sin RAAN: fixed per satellite, so computed once."""
        return (
            np.cos(self.inclination_rad),
            np.sin(self.inclination_rad),
            np.cos(self.raan_rad),
            np.sin(self.raan_rad),
        )

    @classmethod
    def of(cls, constellation: Constellation) -> "FleetArrays":
        """constellation itself if it is a fleet, else its entries in id order.

        ValueError names the first entry whose key is not a SatelliteId of
        integers in [0, 2**63) or whose value is not CircularElements.
        """
        if isinstance(constellation, FleetArrays):
            return constellation
        for sat, element in constellation.items():
            if not (isinstance(sat, SatelliteId) and all(type(f) is int and 0 <= f < 2**63 for f in sat)):
                raise ValueError(f"constellation[{sat!r}] must be keyed by a SatelliteId of integers in [0, 2**63)")
            if not isinstance(element, CircularElements):
                raise ValueError(f"constellation[{sat!r}] must be CircularElements, got {element!r}")
        sat_ids = sorted(constellation)
        fields = ("semi_major_axis_km", "inclination_deg", "raan_deg", "phase_deg")
        columns = (np.array([getattr(constellation[s], f) for s in sat_ids], dtype=float) for f in fields)
        return cls(np.array(sat_ids, dtype=np.int64).reshape(-1, 3).T, *columns)

    def _planes(
        self,
        t_s: np.ndarray | float,
        rows: np.ndarray | slice = slice(None),
        r_km: Optional[np.ndarray] = None,
        n_rad_s: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x, y, z planes of the given rows at t_s, km.

        r_km and n_rad_s are those rows' radii and mean motions; they
        default to the unoffset orbits. t_s may be one time or one per row.
        """
        if r_km is None:
            r_km = self.a_km[rows]
            n_rad_s = _mean_motion(r_km)
        cos_i, sin_i, cos_o, sin_o = (c[rows] for c in self._trig)
        return _position_planes(r_km, n_rad_s, self.phase_rad[rows], t_s, cos_i, sin_i, cos_o, sin_o)


def time_grid(t0_s: float, t1_s: float, step_s: float) -> np.ndarray:
    """Sample times t0, t0+step, ... below t1 + step/2, the last one clipped to t1.

    ValueError names step_s if it is not positive and finite or needs over MAX_STEPS steps.
    """
    if not t1_s > t0_s:
        raise ValueError("t1_s must be greater than t0_s")
    _check_range("step_s", step_s, 0.0, ends="()")
    if not (t1_s - t0_s) / step_s <= MAX_STEPS:
        raise ValueError(f"step_s {step_s} needs over {MAX_STEPS} steps to cover {t1_s - t0_s} s")
    times = np.arange(t0_s, t1_s + step_s / 2.0, step_s)
    times[-1] = min(float(times[-1]), t1_s)
    return times


def propagate(
    elements: CircularElements, t_s: float, altitude_offset_km: float = 0.0
) -> np.ndarray:
    """ECI position (x, y, z) of a satellite at simulation time t_s, in kilometers."""
    return propagate_arrays(
        elements.semi_major_axis_km,
        math.radians(elements.inclination_deg),
        math.radians(elements.raan_deg),
        math.radians(elements.phase_deg),
        t_s,
        altitude_offset_km,
    )
