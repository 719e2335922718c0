"""Walker-style constellation shells and circular Keplerian propagation.

Satellites move on circular orbits around a spherical Earth. A shell is a
set of P orbital planes with S satellites each; planes are spread in right
ascension and satellites are evenly phased within a plane, with an optional
Walker phasing factor F shifting the phase between adjacent planes.

A small radial offset can be applied during propagation (used for
collision-avoidance maneuvers); the offset orbit keeps the same plane but
has its mean motion recomputed for the offset radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .constants import EARTH_RADIUS_KM, MU_EARTH_M3_S2


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
        if not 100.0 < self.altitude_km <= 2000.0:
            raise ValueError(
                f"altitude_km must be in (100, 2000], got {self.altitude_km}"
            )
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(
                f"inclination_deg must be in [0, 180], got {self.inclination_deg}"
            )
        if not 0.0 < self.raan_spread_deg <= 360.0:
            raise ValueError(
                f"raan_spread_deg must be in (0, 360], got {self.raan_spread_deg}"
            )
        for attr in ("planes", "sats_per_plane", "phase_offset_f"):
            if not isinstance(getattr(self, attr), int):
                raise ValueError(f"{attr} must be an integer, got {getattr(self, attr)!r}")
        if self.planes < 1:
            raise ValueError(f"planes must be >= 1, got {self.planes}")
        if self.sats_per_plane < 1:
            raise ValueError(
                f"sats_per_plane must be >= 1, got {self.sats_per_plane}"
            )

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
        if self.semi_major_axis_km <= 0.0:
            raise ValueError(
                f"semi_major_axis_km must be positive, got {self.semi_major_axis_km}"
            )
        object.__setattr__(self, "raan_deg", self.raan_deg % 360.0)
        object.__setattr__(self, "phase_deg", self.phase_deg % 360.0)


# An ECI position is a length-3 numpy array (x, y, z) in kilometers.
EciPosition = np.ndarray

Constellation = Dict[SatelliteId, CircularElements]


def orbital_period(altitude_km: float, earth_radius_km: float = EARTH_RADIUS_KM) -> float:
    """Circular-orbit period in seconds for an altitude above the mean sphere.

    T = 2*pi*sqrt(a^3/mu) with a = earth_radius + altitude.
    """
    if altitude_km <= 0.0:
        raise ValueError(f"altitude_km must be positive, got {altitude_km}")
    a_m = (earth_radius_km + altitude_km) * 1e3
    return 2.0 * math.pi * math.sqrt(a_m**3 / MU_EARTH_M3_S2)


def mean_motion_rad_s(semi_major_axis_km: float) -> float:
    """Angular rate of a circular orbit of the given radius, rad/s."""
    return math.sqrt(MU_EARTH_M3_S2 / (semi_major_axis_km * 1e3) ** 3)


def build_constellation(
    shells: Sequence[ShellSpec], earth_radius_km: float = EARTH_RADIUS_KM
) -> Constellation:
    """Instantiate every satellite of the given shells at epoch 0.

    Plane p of a shell gets raan = p * raan_spread / P. Satellite s of
    plane p gets phase = s * 360/S + p * F * 360/(P*S), normalized.
    """
    constellation: Constellation = {}
    for shell_index, spec in enumerate(shells):
        a_km = earth_radius_km + spec.altitude_km
        p_count, s_count = spec.planes, spec.sats_per_plane
        for p in range(p_count):
            raan = p * spec.raan_spread_deg / p_count
            plane_phase = p * spec.phase_offset_f * 360.0 / (p_count * s_count)
            for s in range(s_count):
                sat = SatelliteId(shell_index, p, s)
                constellation[sat] = CircularElements(
                    semi_major_axis_km=a_km,
                    inclination_deg=spec.inclination_deg,
                    raan_deg=raan,
                    phase_deg=s * 360.0 / s_count + plane_phase,
                )
    return constellation


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
    n = np.sqrt(MU_EARTH_M3_S2 / (r_km * 1e3) ** 3)
    u = phase_rad + n * t_s
    cos_u, sin_u = np.cos(u), np.sin(u)
    cos_i, sin_i = np.cos(inclination_rad), np.sin(inclination_rad)
    cos_o, sin_o = np.cos(raan_rad), np.sin(raan_rad)
    x = r_km * (cos_u * cos_o - sin_u * cos_i * sin_o)
    y = r_km * (cos_u * sin_o + sin_u * cos_i * cos_o)
    z = r_km * (sin_u * sin_i)
    return np.stack([x, y, z], axis=-1)


@dataclass(frozen=True)
class FleetArrays:
    """A constellation as one struct of arrays, satellites in id order."""

    sat_ids: List[SatelliteId]
    a_km: np.ndarray
    inclination_rad: np.ndarray
    raan_rad: np.ndarray
    phase_rad: np.ndarray

    @classmethod
    def from_constellation(cls, constellation: Constellation) -> "FleetArrays":
        sat_ids = sorted(constellation)
        elements = [constellation[s] for s in sat_ids]
        return cls(
            sat_ids=sat_ids,
            a_km=np.array([e.semi_major_axis_km for e in elements]),
            inclination_rad=np.radians([e.inclination_deg for e in elements]),
            raan_rad=np.radians([e.raan_deg for e in elements]),
            phase_rad=np.radians([e.phase_deg for e in elements]),
        )

    def propagate(self, t_s: float, offset_km: np.ndarray | float = 0.0) -> np.ndarray:
        """Positions of every satellite at t_s, shape (N, 3), km."""
        return propagate_arrays(
            self.a_km, self.inclination_rad, self.raan_rad, self.phase_rad, t_s, offset_km
        )


def time_grid(t0_s: float, t1_s: float, step_s: float) -> np.ndarray:
    """Sample times t0, t0+step, ... below t1 + step/2, the last one clipped to t1."""
    if not t1_s > t0_s:
        raise ValueError("t1_s must be greater than t0_s")
    if not step_s > 0.0:
        raise ValueError("step_s must be positive")
    times = np.arange(t0_s, t1_s + step_s / 2.0, step_s)
    times[-1] = min(float(times[-1]), t1_s)
    return times


def propagate(
    elements: CircularElements, t_s: float, altitude_offset_km: float = 0.0
) -> EciPosition:
    """ECI position of a satellite at simulation time t_s, in kilometers."""
    return propagate_arrays(
        elements.semi_major_axis_km,
        math.radians(elements.inclination_deg),
        math.radians(elements.raan_deg),
        math.radians(elements.phase_deg),
        t_s,
        altitude_offset_km,
    )
