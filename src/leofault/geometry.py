"""Line-of-sight geometry for satellite links and ground stations.

The central quantity is the grazing altitude of an inter-satellite link:
the minimum height above the spherical Earth of the straight segment
between two satellites. Laser links that dip into the dense atmosphere
are refracted, so a link is considered viable only while its grazing
altitude stays above a configurable threshold (default 80 km, roughly
the top of the mesosphere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS_KM, SIDEREAL_DAY_S, SPEED_OF_LIGHT_KM_S, _check_range

DEFAULT_ISL_THRESHOLD_KM = 80.0


@dataclass(frozen=True)
class GroundStation:
    """A ground terminal or gateway antenna."""

    id: str
    latitude_deg: float
    longitude_deg: float
    min_elevation_deg: float = 25.0

    def __post_init__(self) -> None:
        # trace targets name a station by this id, and read_trace wants a string
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        _check_range("latitude_deg", self.latitude_deg, -90.0, 90.0)
        _check_range("longitude_deg", self.longitude_deg, -180.0, 180.0)
        _check_range("min_elevation_deg", self.min_elevation_deg, 0.0, 90.0, "[)")


def grazing_altitude(p1, p2, earth_radius_km: float = EARTH_RADIUS_KM):
    """Minimum altitude of the segment p1-p2 above the spherical Earth.

    Accepts single positions of shape (3,) or batches of shape (..., 3);
    returns a float or an array accordingly. Negative values mean the
    segment passes through the Earth. For a degenerate segment (p1 == p2)
    this is the altitude of the point itself.

    The closest point of the segment to the Earth center is found by
    clamping the unconstrained minimizer t* = -p1.(p2-p1)/|p2-p1|^2 to
    [0, 1]. Endpoints are ordered canonically first, so the result is
    exactly symmetric in its arguments.
    """
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    altitude = _grazing_planes(
        (p1[..., 0], p1[..., 1], p1[..., 2]), (p2[..., 0], p2[..., 1], p2[..., 2]), earth_radius_km
    )
    if altitude.ndim == 0:
        return float(altitude)
    return altitude


def _grazing_planes(p1: tuple, p2: tuple, earth_radius_km: float) -> np.ndarray:
    """grazing_altitude on endpoints given as (x, y, z) tuples of component planes."""
    (x1, y1, z1), (x2, y2, z2) = p1, p2
    del p1, p2  # so the dels below free the planes when the caller keeps no reference
    # lexicographic (x, y, z) order: swap where p2 < p1
    swap = (x2 < x1) | ((x2 == x1) & ((y2 < y1) | ((y2 == y1) & (z2 < z1))))
    if np.any(swap):
        x1, x2 = np.where(swap, x2, x1), np.where(swap, x1, x2)
        y1, y2 = np.where(swap, y2, y1), np.where(swap, y1, y2)
        z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    dx, dy, dz = x2 - x1, y2 - y1, z2 - z1
    # drop per-edge temporaries once dead: a link-state scan's peak RSS is set here
    del x2, y2, z2
    denom = dx * dx + dy * dy + dz * dz
    positive = denom > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(positive, -(x1 * dx + y1 * dy + z1 * dz) / np.where(positive, denom, 1.0), 0.0)
    del denom, positive
    t = np.clip(t, 0.0, 1.0)
    cx, cy, cz = x1 + t * dx, y1 + t * dy, z1 + t * dz
    del x1, y1, z1, dx, dy, dz, t
    return np.sqrt(cx * cx + cy * cy + cz * cz) - earth_radius_km


def is_isl_viable(grazing_km, threshold_km: float = DEFAULT_ISL_THRESHOLD_KM):
    """A link is viable while its grazing altitude is at or above the threshold."""
    result = np.asarray(grazing_km) >= threshold_km
    if result.ndim == 0:
        return bool(result)
    return result


def ground_station_eci(
    gs: GroundStation, t_s, earth_radius_km: float = EARTH_RADIUS_KM
) -> np.ndarray:
    """ECI position of a ground station at time t_s, shape (3,).

    The Earth rotates 360 degrees per sidereal day; longitude 0 is aligned
    with the inertial x-axis at t = 0. An array of times gives one
    position per time, shape (..., 3), equal to the one-time results.
    """
    _check_range("earth_radius_km", earth_radius_km, 0.0, ends="()")
    lat = math.radians(gs.latitude_deg)
    lon = math.radians(gs.longitude_deg) + 2.0 * math.pi * t_s / SIDEREAL_DAY_S
    cos_lat = math.cos(lat)
    return earth_radius_km * np.stack(
        [cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.full_like(lon, math.sin(lat))], axis=-1
    )


def elevation_angle(gs_pos, sat_pos):
    """Elevation of a satellite above the station's local horizontal, degrees.

    gs_pos and sat_pos are (3,) or batches (..., 3) that broadcast
    against each other. Raises ValueError for coincident points. The
    last bits follow the host: np.arcsin takes numpy's SIMD dispatch
    (AVX-512 differs from libm's asin), and the station-norm matmul takes
    OpenBLAS's kernel, so windows near the threshold may differ by host.
    """
    gs_pos = np.asarray(gs_pos, dtype=float)
    sat_pos = np.asarray(sat_pos, dtype=float)
    d = sat_pos - gs_pos
    d_norm = np.sqrt(np.sum(d * d, axis=-1))
    if np.any(d_norm == 0.0):
        raise ValueError("satellite position coincides with the ground station")
    # a dot product per station row: equal to np.linalg.norm of each row
    up = gs_pos / np.sqrt(gs_pos[..., None, :] @ gs_pos[..., :, None])[..., 0]
    sin_e = np.clip(np.sum(d * up, axis=-1) / d_norm, -1.0, 1.0)
    elev = np.degrees(np.arcsin(sin_e))
    if elev.ndim == 0:
        return float(elev)
    return elev


def slant_range_km(altitude_km: float, elevation_deg: float) -> float:
    """Station-to-satellite distance for a given elevation angle.

    Law-of-cosines solution on the mean sphere, clamped at 0 against
    rounding: R * (sqrt(((R+h)/R)^2 - cos^2 e) - sin e). A point below the
    surface is above no station's horizon, so altitude_km must be >= 0.
    """
    _check_range("altitude_km", altitude_km, 0.0)
    _check_range("elevation_deg", elevation_deg, -90.0, 90.0)
    e = math.radians(elevation_deg)
    ratio = (EARTH_RADIUS_KM + altitude_km) / EARTH_RADIUS_KM
    return max(EARTH_RADIUS_KM * (math.sqrt(ratio**2 - math.cos(e) ** 2) - math.sin(e)), 0.0)


def propagation_delay(distance_km: float) -> float:
    """Free-space propagation delay in seconds."""
    return distance_km / SPEED_OF_LIGHT_KM_S
