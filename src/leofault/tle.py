"""Two-line element set parsing, serialization, and circular conversion.

The parser is strict about the fixed-column layout: 69-character lines,
matching catalog numbers, and valid checksums. Drag-related fields
(first/second mean-motion derivatives and B*) use an implied-decimal
exponent encoding that is not unique, so they are carried verbatim as raw
column text; records serialized by this module reproduce canonical input
lines byte for byte.

Mean elements are reduced to a circular orbit: eccentricity is discarded
and the phase is the sum of argument of perigee and mean anomaly. The
approximation error grows with eccentricity, so records with e > 0.02
raise an EccentricityWarning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar

from .constants import MU_EARTH_M3_S2, SECONDS_PER_DAY, _check_range, is_plain_number_text
from .orbital import CircularElements

LINE_LENGTH = 69
ECCENTRICITY_WARN_LIMIT = 0.02

T = TypeVar("T")


class TleFormatError(ValueError):
    """A line violates the fixed-column TLE layout."""


class TleChecksumError(TleFormatError):
    """A line's checksum column does not match its content."""


class EccentricityWarning(UserWarning):
    """Circular approximation applied to a noticeably eccentric orbit."""


# byte -> its checksum weight: an ASCII digit its value, "-" one, any other byte zero
_CHECKSUM_WEIGHTS = bytes(b - 48 if 48 <= b <= 57 else int(b == 45) for b in range(256))


def checksum(line: str) -> int:
    """Checksum digit of a 68-character TLE line body.

    Sum of all ASCII digits plus one per '-' character, modulo 10.
    The checksum column itself (column 69) is excluded from the input.
    """
    if len(line) != LINE_LENGTH - 1:
        raise TleFormatError(
            f"checksum input must be {LINE_LENGTH - 1} characters, got {len(line)}"
        )
    # in UTF-8 an ASCII digit or "-" is one byte and every other character's bytes are >= 0x80
    return sum(line.encode("utf-8", "surrogatepass").translate(_CHECKSUM_WEIGHTS)) % 10


@dataclass(frozen=True)
class TleRecord:
    """Mean orbital elements of one catalogued object.

    epoch_year is a full calendar year (two-digit years 57-99 map to
    1957-1999 and 00-56 to 2000-2056). The *_raw fields carry the drag
    columns verbatim; they do not participate in the circular conversion.
    """

    catalog_number: int
    epoch_year: int
    epoch_day: float
    inclination_deg: float
    raan_deg: float
    eccentricity: float
    arg_perigee_deg: float
    mean_anomaly_deg: float
    mean_motion_rev_per_day: float
    name: Optional[str] = None
    classification: str = "U"
    intl_designator: str = ""
    ndot_raw: str = " .00000000"
    nddot_raw: str = " 00000-0"
    bstar_raw: str = " 00000-0"
    ephemeris_type: str = "0"
    element_number: int = 999
    rev_number: int = 0

    def __post_init__(self) -> None:
        _check_range("catalog_number", self.catalog_number, 0, 99999)
        _check_range("epoch_year", self.epoch_year, 1957, 2056)  # the years two digits stand for
        # what the 11-column field holds; a tinier rate overflows the semi-major axis
        _check_range("mean_motion_rev_per_day", self.mean_motion_rev_per_day, 1e-8, 100.0, "[)")
        _check_range("eccentricity", self.eccentricity, 0.0, 1.0, "[)")
        for attr in ("inclination_deg", "raan_deg", "arg_perigee_deg", "mean_anomaly_deg"):
            _check_range(attr, getattr(self, attr), 0.0, 360.0, "[)")
        _check_range("epoch_day", self.epoch_day, 0.0, 367.0, "[)")
        for attr, width in (("ndot_raw", 10), ("nddot_raw", 8), ("bstar_raw", 8)):
            raw = getattr(self, attr)
            if len(raw) != width:
                raise ValueError(f"{attr} must be {width} characters, got {raw!r}")
        if len(self.classification) != 1:
            raise ValueError(f"classification must be one character, got {self.classification!r}")
        if len(self.ephemeris_type) != 1:
            raise ValueError(f"ephemeris_type must be one character, got {self.ephemeris_type!r}")
        if not len(self.intl_designator) <= 8:
            raise ValueError(f"intl_designator longer than 8 characters: {self.intl_designator!r}")
        _check_range("element_number", self.element_number, 0, 9999)
        _check_range("rev_number", self.rev_number, 0, 99999)


def _full_year(two_digit: int) -> int:
    return 1900 + two_digit if two_digit >= 57 else 2000 + two_digit


def _field(
    line_no: int, line: str, start: int, end: int, conv: Callable[[str], T], what: str
) -> T:
    raw = line[start:end]
    try:
        if not is_plain_number_text(raw):
            raise ValueError(raw)
        value = conv(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(raw)
    except (ValueError, TypeError):
        raise TleFormatError(
            f"line {line_no}, columns {start + 1}-{end}: invalid {what} field {raw!r}"
        ) from None
    return value


def _int_or_zero(raw: str) -> int:
    stripped = raw.strip()
    return int(stripped) if stripped else 0


def _check_line(line_no: int, line: str) -> None:
    if len(line) != LINE_LENGTH:
        raise TleFormatError(
            f"line {line_no}: length must be {LINE_LENGTH} characters, got {len(line)}"
        )
    if line[0] != str(line_no):
        raise TleFormatError(f"line {line_no}, column 1: expected '{line_no}', got {line[0]!r}")
    if not line.isascii():  # the drag columns are numbers carried verbatim
        raise TleFormatError(f"line {line_no}: element lines must be ASCII")
    expected = checksum(line[:68])
    if line[68] != str(expected):
        raise TleChecksumError(
            f"line {line_no}: checksum mismatch, computed {expected}, found {line[68]!r}"
        )


def parse_tle(line1: str, line2: str, name: Optional[str] = None) -> TleRecord:
    """Decode a validated element-set pair into a TleRecord."""
    _check_line(1, line1)
    _check_line(2, line2)
    if line1[2:7] != line2[2:7]:
        raise TleFormatError(
            f"line 2, columns 3-7: catalog number {line2[2:7]!r} does not match line 1 {line1[2:7]!r}"
        )

    epoch_yy = _field(1, line1, 18, 20, lambda s: int(s), "epoch year")
    return TleRecord(
        catalog_number=_field(1, line1, 2, 7, lambda s: int(s), "catalog number"),
        classification=line1[7],
        intl_designator=line1[9:17].rstrip(),
        epoch_year=_full_year(epoch_yy),
        epoch_day=_field(1, line1, 20, 32, float, "epoch day"),
        ndot_raw=line1[33:43],
        nddot_raw=line1[44:52],
        bstar_raw=line1[53:61],
        ephemeris_type=line1[62],
        element_number=_field(1, line1, 64, 68, _int_or_zero, "element number"),
        inclination_deg=_field(2, line2, 8, 16, float, "inclination"),
        raan_deg=_field(2, line2, 17, 25, float, "right ascension"),
        eccentricity=_field(2, line2, 26, 33, lambda s: int(s) / 1e7, "eccentricity"),
        arg_perigee_deg=_field(2, line2, 34, 42, float, "argument of perigee"),
        mean_anomaly_deg=_field(2, line2, 43, 51, float, "mean anomaly"),
        mean_motion_rev_per_day=_field(2, line2, 52, 63, float, "mean motion"),
        rev_number=_field(2, line2, 63, 68, _int_or_zero, "revolution number"),
        name=name,
    )


def serialize_tle(rec: TleRecord) -> Tuple[str, str]:
    """Render a record as canonical 69-character lines (checksums included)."""
    body1 = (
        f"1 {rec.catalog_number:5d}{rec.classification} {rec.intl_designator:<8s} "
        f"{rec.epoch_year % 100:02d}{rec.epoch_day:012.8f} {rec.ndot_raw} "
        f"{rec.nddot_raw} {rec.bstar_raw} {rec.ephemeris_type} {rec.element_number:4d}"
    )
    body2 = (
        f"2 {rec.catalog_number:5d} {rec.inclination_deg:8.4f} {rec.raan_deg:8.4f} "
        f"{round(rec.eccentricity * 1e7):07d} {rec.arg_perigee_deg:8.4f} "
        f"{rec.mean_anomaly_deg:8.4f} {rec.mean_motion_rev_per_day:11.8f}{rec.rev_number:5d}"
    )
    return body1 + str(checksum(body1)), body2 + str(checksum(body2))


def tle_to_elements(rec: TleRecord) -> CircularElements:
    """Circular-orbit approximation of a mean element set.

    The semi-major axis follows from the mean motion (T = 86400/n,
    a = (mu*(T/2pi)^2)^(1/3)); the phase is arg_perigee + mean_anomaly.
    """
    if rec.eccentricity > ECCENTRICITY_WARN_LIMIT:
        warnings.warn(
            f"catalog {rec.catalog_number}: eccentricity {rec.eccentricity:.4f} exceeds "
            f"{ECCENTRICITY_WARN_LIMIT}; circular approximation will be coarse",
            EccentricityWarning,
            stacklevel=2,
        )
    period_s = SECONDS_PER_DAY / rec.mean_motion_rev_per_day
    a_m = (MU_EARTH_M3_S2 * (period_s / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)
    return CircularElements(
        semi_major_axis_km=a_m / 1e3,
        inclination_deg=rec.inclination_deg,
        raan_deg=rec.raan_deg,
        phase_deg=(rec.arg_perigee_deg + rec.mean_anomaly_deg) % 360.0,
    )


def parse_tle_text(text: str) -> List[TleRecord]:
    """Parse a 2-line or 3-line (named) element-set listing; only "\\n" ends a line."""
    records: List[TleRecord] = []
    pending_name: Optional[str] = None
    lines = [ln.removesuffix("\r") for ln in text.removesuffix("\n").split("\n")]
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("1 "):
            if i + 1 >= len(lines):
                raise TleFormatError(f"input line {i + 1}: element line 1 without a line 2")
            try:
                records.append(parse_tle(line, lines[i + 1], name=pending_name))
            except ValueError as exc:  # TleRecord's range checks raise plain ValueError
                error = type(exc) if isinstance(exc, TleFormatError) else TleFormatError
                raise error(f"record starting at input line {i + 1}: {exc}") from None
            pending_name = None
            i += 2
        else:
            if pending_name is not None:
                raise TleFormatError(
                    f"input line {i + 1}: expected element line 1 after name {pending_name!r}"
                )
            pending_name = line.strip() or None
            i += 1
    if pending_name is not None:
        raise TleFormatError(f"trailing name {pending_name!r} without an element set")
    return records


def read_tle_file(path) -> List[TleRecord]:
    """Parse every record of a TLE text file."""
    return parse_tle_text(Path(path).read_text(encoding="utf-8"))
