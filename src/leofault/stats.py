"""Aggregations over simulations: grazing-altitude CDFs.

The central product is the cumulative distribution of minimum ISL
altitudes over a simulation window, either one sample per link (the
minimum over the window) or one sample per link per timestep. CDFs are
written as CSV with header value_km,proportion, one row per distinct
sample value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, is_plain_number_text
from .orbital import Constellation, time_grid
from .topology import GridTopology
from .trace import canonical_number


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF: (value, proportion of samples <= value) pairs."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if (rejected := _first_rejected(self.points)) is not None:
            raise ValueError(rejected[1])

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "CdfTable":
        """Empirical CDF of the samples.

        Values are canonicalized to 9 significant digits (the precision
        of the CSV output format) so that float noise does not split one
        physical value into many table rows.
        """
        values = np.asarray(samples, dtype=float)
        n = len(values)
        if n == 0:
            return cls(points=())
        distinct, counts = np.unique(values, return_counts=True)
        canonical = np.array([canonical_number(v) for v in distinct.tolist()])
        merged, inverse = np.unique(canonical, return_inverse=True)
        merged_counts = np.zeros(len(merged), dtype=np.int64)
        np.add.at(merged_counts, inverse, counts)
        cumulative = np.cumsum(merged_counts) / n
        cumulative[-1] = 1.0
        return cls(points=tuple(zip(merged.tolist(), cumulative.tolist())))

    def proportion_below(self, threshold: float) -> float:
        """Proportion of samples strictly below the threshold."""
        result = 0.0
        for value, proportion in self.points:
            if value < threshold:
                result = proportion
            else:
                break
        return result


def _first_rejected(points: Sequence[Tuple[float, float]]) -> Optional[Tuple[int, str]]:
    """Index of the first point a CdfTable may not hold and why, or None."""
    previous_value = -np.inf
    previous_prop = 0.0
    # negated comparisons also reject NaN; only the last value can be +inf
    for i, (value, proportion) in enumerate(points):
        if not value > previous_value:
            return i, f"CDF values must be finite and strictly increasing, got {value}"
        if not proportion >= previous_prop:
            return i, f"CDF proportions must be non-decreasing, got {proportion}"
        previous_value, previous_prop = value, proportion
    if points and not math.isfinite(points[-1][0]):
        return len(points) - 1, f"CDF values must be finite, got {points[-1][0]}"
    if points and not abs(points[-1][1] - 1.0) <= 1e-12:
        return len(points) - 1, f"final CDF proportion must be 1.0, got {points[-1][1]}"
    return None


def min_isl_altitude_cdf(
    constellation: Constellation,
    t0_s: float,
    t1_s: float,
    step_s: float,
    per_link_min: bool = True,
    earth_radius_km: float = EARTH_RADIUS_KM,
) -> CdfTable:
    """CDF of ISL grazing altitudes over a simulation window.

    With per_link_min, each link contributes a single sample: its minimum
    grazing altitude over the window. Otherwise every (link, timestep)
    pair contributes one sample. The window is sampled at t0, t0+step,
    ..., including t1 when it falls on the grid.
    """
    times = time_grid(t0_s, t1_s, step_s)
    topo = GridTopology(constellation, earth_radius_km)
    if topo.n_edges == 0:
        return CdfTable(points=())
    if per_link_min:
        samples = np.full(topo.n_edges, np.inf)
        for _, grazing in topo.scan(times):
            np.minimum(samples, grazing, out=samples)
    else:
        samples = np.concatenate([grazing for _, grazing in topo.scan(times)])
    return CdfTable.from_samples(samples)


def write_cdf_csv(cdf: CdfTable, path) -> None:
    """Write a CDF as CSV with header value_km,proportion."""
    lines = ["value_km,proportion"]
    lines.extend(f"{value:.9g},{proportion:.9g}" for value, proportion in cdf.points)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cdf_csv(path) -> CdfTable:
    """Read a CDF written by write_cdf_csv; a malformed row names its line."""
    data = Path(path).read_text(encoding="utf-8")
    text = data.split("\n")  # read_text maps \r\n to \n; splitlines() also splits on \x0c
    if text[0].strip() != "value_km,proportion":
        raise ValueError("CDF CSV must start with header 'value_km,proportion'")
    if not is_plain_number_text(data[len(text[0]):]):  # one check of the whole body, not per cell
        raise ValueError("CDF CSV values must be ASCII and must not contain '_'")
    points: List[Tuple[float, float]] = []
    for line in text[1:]:
        if not line.strip():
            continue
        try:
            value, proportion = line.split(",")
            points.append((float(value), float(proportion)))
        except ValueError:  # the first row equal to this one is this one
            line_no = text.index(line, 1) + 1
            raise ValueError(f"CDF CSV line {line_no}: expected two numbers, got {line!r}") from None
    try:
        return CdfTable(points=tuple(points))
    except ValueError:  # rows are the non-blank lines after the header
        row, reason = _first_rejected(points)
        line_no = [n for n, line in enumerate(text[1:], start=2) if line.strip()][row]
        raise ValueError(f"CDF CSV line {line_no}: {reason}") from None
