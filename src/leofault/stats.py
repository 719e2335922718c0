"""Aggregations over simulations: grazing-altitude CDFs.

The central product is the cumulative distribution of minimum ISL
altitudes over a simulation window, either one sample per link (the
minimum over the window) or one sample per link per timestep. A CDF is
a CdfTable of two float64 arrays, its distinct sample values rounded to
9 significant digits and their cumulative proportions, written as CSV
with header value_km,proportion, one row per value. The rounding
(_canonical) takes a whole array at once and equals canonical_number bit
for bit; the writer formats and the reader parses whole columns.

Both modes evaluate the links by Walker symmetry class
(GridTopology._symmetry_classes): a shell's intra-plane links, and with
phase offset F = 0 its cross-plane links of one in-plane index, have
the same grazing altitude at a step up to rounding. Each step evaluates
one representative per class with the scan's kernel, a block of steps
per call. Its value v stands for every member only if every value
within eps of v rounds as v does (_near_rounding_boundary), eps being
topology._class_eps, the bound on how far a member's computed value may
lie from v. Where that fails, the members are evaluated one by one. So
every canonical value and its count equal those of a per-link scan
(GridTopology.scan), and the CSV bytes with them; per-link minima take
each class's minimum under the same rule. A link that fails the class
membership check is a class of one.

Memory: per-step sampling rounds each block of samples and folds its
(value, count) pairs, a block of steps at a time, into a running table
of distinct values and their counts, so it holds the distinct values
and one block, never every sample. Walker shells repeat their values
(1,987 distinct among 573,408 samples for 72x22 over 30 min at 10 s),
but on an asymmetric fleet nearly every sample may be distinct, and the
table then still grows with the samples. Per-link minima hold one value
per link whatever the window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
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
# values _canonical rounds per slice, so that its dozen temporaries stay small
_ROUND_VALUES = 65536
# the float nearest each power of ten from 1e-14 to 1e31: a value in [_DECADES[k - 1], _DECADES[k])
# has the 9-significant-digit quantum 10**(k - 23), whose exponent lies in [-22, 22]
_DECADES = np.array([float(f"1e{k}") for k in range(-14, 32)])
# the powers of ten that are exact doubles, 10**0 to 10**22
_TENS = np.array([float(10**k) for k in range(23)])


@dataclass(frozen=True, eq=False)
class CdfTable:
    """Empirical CDF as two read-only float64 arrays of one length: values, finite and strictly
    increasing, and proportions, the share of samples <= each value, non-decreasing up to 1.0.

    The constructor copies both columns and raises ValueError naming the first row that breaks
    those rules. points is a derived view for callers that want Python pairs.
    """

    values: np.ndarray
    proportions: np.ndarray

    def __post_init__(self) -> None:
        for name in ("values", "proportions"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.values.ndim != 1 or self.values.shape != self.proportions.shape:
            raise ValueError(
                "CDF values and proportions must be 1-D arrays of one length, "
                f"got shapes {self.values.shape} and {self.proportions.shape}"
            )
        if (rejected := _first_rejected(self.values, self.proportions)) is not None:
            raise ValueError(rejected[1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CdfTable)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.proportions, other.proportions)
        )

    @property
    def points(self) -> Tuple[Tuple[float, float], ...]:
        """The (value, proportion) pairs as Python floats, built from the arrays on each read."""
        return tuple(zip(self.values.tolist(), self.proportions.tolist()))

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
            return cls(np.zeros(0), np.zeros(0))
        # rounding is monotone, so equal canonical values stay adjacent
        canonical = _canonical(values)
        starts = _run_starts(canonical)
        cumulative = np.cumsum(np.add.reduceat(counts, starts)) / n
        cumulative[-1] = 1.0
        return cls(canonical.take(starts), cumulative)

    def proportion_below(self, threshold: float) -> float:
        """Proportion of samples strictly below the threshold (0.0 for NaN); ValueError names a
        threshold that is a bool or no real number."""
        if type(threshold) is bool or not isinstance(threshold, numbers.Real):
            raise ValueError(f"threshold must be a number, got {threshold!r}")
        if threshold != threshold:  # NaN, which no value is below
            return 0.0
        below = int(np.searchsorted(self.values, threshold))
        return float(self.proportions[below - 1]) if below else 0.0


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array."""
    if not values.size:
        return np.zeros(0, dtype=np.intp)
    return np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))


def _first_rejected(values: np.ndarray, proportions: np.ndarray) -> Optional[Tuple[int, str]]:
    """Index of the first row a CdfTable may not hold and why, or None."""
    # negated comparisons also reject NaN; only the last value can be +inf
    bad_value = ~(values > np.concatenate(([-np.inf], values[:-1])))
    bad = bad_value | ~(proportions >= np.concatenate(([0.0], proportions[:-1])))
    if (hits := np.flatnonzero(bad)).size:
        i = int(hits[0])
        if bad_value[i]:
            return i, f"CDF values must be finite and strictly increasing, got {float(values[i])}"
        return i, f"CDF proportions must be non-decreasing, got {float(proportions[i])}"
    if values.size and not math.isfinite(values[-1]):
        return values.size - 1, f"CDF values must be finite, got {float(values[-1])}"
    if values.size and not abs(proportions[-1] - 1.0) <= 1e-12:
        return values.size - 1, f"final CDF proportion must be 1.0, got {float(proportions[-1])}"
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
        return CdfTable.from_samples(())
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
    """Where a value within eps of v may round otherwise than v: where v - w and v + w round
    apart, w = eps + (|v| + eps) * 2**-40. Rounding is monotone, so where they round alike, all of
    [v - w, v + w] does, and it covers [v - eps, v + eps]: w exceeds eps by more than the rounding
    of w and of v +- w, each at most 2**-52 of |v| + w. An end that overflows or is NaN rounds
    apart from the other, so inf and NaN are flagged."""
    w = eps + (np.abs(v) + eps) * 2.0**-40
    with np.errstate(over="ignore", invalid="ignore"):
        return _canonical(v - w) != _canonical(v + w)


def _canonical(x: np.ndarray) -> np.ndarray:
    """canonical_number of every value of an array of any shape, bit for bit, with -0.0 as 0.0.

    |x| in decade k is m quanta 10**q, q = k - 23, with m one correctly rounded * or / by an exact
    power of ten, so within 2**-53 * 1e9 of the exact quotient: unless m lies within 1e-6 of a
    half-integer, r = rint(m) is the 9-digit decimal that %.9g prints. As |q| <= 22, r * 10**q
    (or r / 10**-q) is one correctly rounded operation on two exact doubles (Clinger's fast path;
    W. D. Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990), the float that
    float() reads from that text. A value outside the table (zero, subnormal, |q| > 22, inf or
    NaN), near such a midpoint, or whose r falls outside [1e8, 1e9) goes through canonical_number.
    """
    flat = np.ravel(x)
    out, fast = np.empty(flat.size), np.empty(flat.size, dtype=bool)
    for i in range(0, flat.size, _ROUND_VALUES):
        part = flat[i:i + _ROUND_VALUES]
        a = np.abs(part)
        k = np.searchsorted(_DECADES, a, side="right")
        q = k - 23
        below, scale = q < 0, _TENS.take(np.abs(q), mode="clip")  # 10**|q|, 10**22 outside the table
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.where(below, a * scale, a / scale)
            r = np.rint(m)
            fast[i:i + part.size] = (
                (k > 0) & (k < _DECADES.size) & (np.abs(m - np.floor(m) - 0.5) > 1e-6) & (r >= 1e8) & (r < 1e9)
            )
            out[i:i + part.size] = np.copysign(np.where(below, r / scale, r * scale), part)
    slow = np.flatnonzero(~fast)
    out[slow] = [canonical_number(v) for v in flat.take(slow).tolist()]
    out += 0.0
    return out.reshape(np.shape(x))


def _fold(
    values: np.ndarray, counts: np.ndarray, block: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Add weights[i] samples equal to block[i], canonicalized, to the table of sorted distinct
    canonical values and their counts."""
    block = _canonical(block)
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
    """Write a CDF as CSV with header value_km,proportion, each number as %.9g.

    Rows stream out in slices; the CSV replaces path only once every row
    is written, so a failed write leaves an existing file untouched.
    """
    with _atomic_text(path) as fh:
        fh.write("value_km,proportion\n")
        for i in range(0, cdf.values.size, _CSV_ROWS):
            rows = np.stack((cdf.values[i:i + _CSV_ROWS], cdf.proportions[i:i + _CSV_ROWS]), axis=1)
            fh.write("%.9g,%.9g\n" * len(rows) % tuple(rows.ravel().tolist()))


def read_cdf_csv(path) -> CdfTable:
    """Read a CDF written by write_cdf_csv, under the table rule; a rejected row names its line."""
    rows, line_of = _read_pairs(path, ("value_km", "proportion"), "CDF CSV")
    try:
        return CdfTable(*rows.T)
    except ValueError:
        row, reason = _first_rejected(*rows.T)
        raise ValueError(f"CDF CSV line {line_of(row)}: {reason}") from None
