"""Aggregations over simulations: grazing-altitude CDFs.

The central product is the cumulative distribution of minimum ISL
altitudes over a simulation window, either one sample per link (the
minimum over the window) or one sample per link per timestep. CDFs are
written as CSV with header value_km,proportion, one row per distinct
sample value.

Both modes evaluate the links by Walker symmetry class
(GridTopology._symmetry_classes): a shell's intra-plane links, and with
phase offset F = 0 its cross-plane links of one in-plane index, have
the same grazing altitude at a step up to rounding. Each step evaluates
one representative per class with the scan's kernel, a block of steps
per call. Its value v stands for every member only if no rounding
boundary of canonical_number (a midpoint between 9-significant-digit
decimals) lies within eps of v. eps bounds how far a member's computed
value may lie from v: 2**-39 of the largest orbit radius (1.3e-8 km at
7,000 km) for the kernel's rounding, plus 2**-45 of it per radian of
the largest argument of latitude, which rounds more as |t| grows (eps is
2e-4 km at t = 1e9 s, where every class falls back). Where a boundary
is that near, the class's members are evaluated one by one. So every
canonical value and its count equal those of a per-link scan
(GridTopology.scan), and the CSV bytes with them; per-link minima take
each class's minimum under the same rule. A link that fails the class
membership check is a class of one.

Memory: per-step sampling folds (value, count) pairs, a block of steps
at a time, into a running table of distinct values and their counts, so
it holds the distinct values and one block, never every sample. Walker
shells repeat their values (2,860 distinct among 573,408 samples for
72x22 over 30 min at 10 s), but on an asymmetric fleet nearly every
sample may be distinct, and the table then still grows with the samples.
Per-link minima hold one value per link whatever the window.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .constants import EARTH_RADIUS_KM, _read_pairs
from .orbital import Constellation, time_grid
from .topology import GridTopology, _class_minima, _class_samples
from .trace import _atomic_text, canonical_number

# samples per-step min_isl_altitude_cdf collects before folding them into its
# table, or the table's size if larger
_FOLD_SAMPLES = 2**15
# rows write_cdf_csv formats per write
_CSV_ROWS = 65536
# the float nearest each power of ten from 1e-3 to 1e12, and at index k the
# 9-significant-digit quantum of values in [_DECADES[k - 1], _DECADES[k])
_DECADES = np.array([float(f"1e{k}") for k in range(-3, 13)])
_QUANTA = np.array([float(f"1e{k}") for k in range(-12, 5)])


@dataclass(frozen=True)
class CdfTable:
    """Empirical CDF: (value, proportion of samples <= value) pairs."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if (rejected := _first_rejected(self.points)) is not None:
            raise ValueError(rejected[1])

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "CdfTable":
        """Empirical CDF of the samples; see from_counts."""
        samples = np.asarray(samples, dtype=float)
        empty = np.zeros(0), np.zeros(0, dtype=np.int64)
        return cls.from_counts(*_fold(*empty, samples, np.ones(samples.size, dtype=np.int64)))

    @classmethod
    def from_counts(cls, values: np.ndarray, counts: np.ndarray) -> "CdfTable":
        """Empirical CDF of counts[i] samples equal to values[i], for sorted distinct values.

        Values are canonicalized to 9 significant digits (the precision
        of the CSV output format) so that float noise does not split one
        physical value into many table rows, and -0.0 counts as 0.0.
        """
        n = int(counts.sum())
        if n == 0:
            return cls(points=())
        # rounding is monotone, so equal canonical values stay adjacent
        canonical = np.array([canonical_number(v) for v in values.tolist()]) + 0.0
        starts = _run_starts(canonical)
        cumulative = np.cumsum(np.add.reduceat(counts, starts)) / n
        cumulative[-1] = 1.0
        return cls(points=tuple(zip(canonical[starts].tolist(), cumulative.tolist())))

    def proportion_below(self, threshold: float) -> float:
        """Proportion of samples strictly below the threshold (0.0 for NaN)."""
        below = bisect_left(self.points, threshold, key=itemgetter(0))
        return self.points[below - 1][1] if below else 0.0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    if not values.size:
        return np.zeros(0, dtype=np.intp)
    return np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))


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
        return CdfTable.from_samples(_class_minima(topo, times, _near_rounding_boundary))
    values, counts = np.zeros(0), np.zeros(0, dtype=np.int64)
    pending: List[Tuple[np.ndarray, np.ndarray]] = []
    n_pending = 0
    for grazing, _, weight in _class_samples(topo, times, _near_rounding_boundary):
        pending.append((grazing, weight))
        n_pending += grazing.size
        # tied to the table size, so each fold's insert is paid for by as many entries
        if n_pending >= max(_FOLD_SAMPLES, values.size):
            values, counts = _fold(values, counts, *(np.concatenate(c) for c in zip(*pending)))
            pending, n_pending = [], 0
    if pending:
        values, counts = _fold(values, counts, *(np.concatenate(c) for c in zip(*pending)))
    return CdfTable.from_counts(values, counts)


def _near_rounding_boundary(v: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Where a rounding boundary of canonical_number may lie within eps of v, with only + - * /,
    floor and comparisons: True unless eps + |v| * 2**-40 around |v| stays inside one decade of
    [1e-3, 1e12) and off that decade's midpoints between 9-significant-digit decimals."""
    a = np.abs(v)
    w = eps + a * 2.0**-40  # the margin covers the rounding of a / q below
    k = np.searchsorted(_DECADES, a - w, side="right")
    q = _QUANTA.take(k)
    x = a / q
    off = np.abs(x - np.floor(x) - 0.5) * q
    with np.errstate(over="ignore"):  # near the float range; such values are flagged anyway
        inside = (k == np.searchsorted(_DECADES, a + w, side="right")) & (k > 0) & (k < _DECADES.size)
    return ~(inside & (off > w))


def _fold(
    values: np.ndarray, counts: np.ndarray, block: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Add weights[i] samples equal to block[i] to the table of sorted distinct values and their counts."""
    order = np.argsort(block, kind="stable")
    block, weights = block.take(order), weights.take(order)
    starts = _run_starts(block)
    new_values, new_counts = block.take(starts), np.add.reduceat(weights, starts)
    at = np.searchsorted(values, new_values)
    known = at < values.size
    known[known] = values[at[known]] == new_values[known]
    counts[at[known]] += new_counts[known]
    fresh = ~known
    return np.insert(values, at[fresh], new_values[fresh]), np.insert(counts, at[fresh], new_counts[fresh])


def write_cdf_csv(cdf: CdfTable, path) -> None:
    """Write a CDF as CSV with header value_km,proportion.

    Rows stream out in slices; the CSV replaces path only once every row
    is written, so a failed write leaves an existing file untouched.
    """
    points = cdf.points
    with _atomic_text(path) as fh:
        fh.write("value_km,proportion\n")
        for i in range(0, len(points), _CSV_ROWS):
            fh.write("".join(f"{value:.9g},{proportion:.9g}\n" for value, proportion in points[i:i + _CSV_ROWS]))


def read_cdf_csv(path) -> CdfTable:
    """Read a CDF written by write_cdf_csv, under the table rule; a rejected row names its line."""
    points, line_of = _read_pairs(path, ("value_km", "proportion"), "CDF CSV")
    try:
        return CdfTable(points=tuple(points))
    except ValueError:
        row, reason = _first_rejected(points)
        raise ValueError(f"CDF CSV line {line_of(row)}: {reason}") from None
