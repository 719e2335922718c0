"""Two-line element set parsing, serialization, and circular conversion.

The parser is strict about the fixed-column layout: 69-character lines,
matching catalog numbers, and valid checksums. Drag-related fields
(first/second mean-motion derivatives and B*) use an implied-decimal
exponent encoding that is not unique, so they are carried verbatim as raw
column text; records serialized by this module reproduce canonical input
lines byte for byte.

Every number field is read one way: _FIELDS gives each its line,
columns, conversion (int(), float(), int() with a blank field as zero,
or int() over an implied decimal point), name and range, and TleRecord,
parse_tle and the columnar reader all go through it.

A listing is read in columns. One pass over its lines applies the
grammar (names, blank lines, CRLF, a missing line 2, a trailing name).
Then every element-line pair is validated at once on a (records, 2, 69)
byte array: lengths, line numbers, printable ASCII, checksums, the
catalog-number match and no "_" in a number field. numpy's casts from
bytes to int64 and float64 call int() and float() on each field's text,
so they apply parse_tle's conversions to every pair at once; the ranges
come last. Only a pair these checks reject goes through parse_tle, which
owns every TLE error message; if a cast raises, every pair does, and the
first error in file order wins. A simulation's fleet takes its circular
elements from the columns as arrays and builds no TleRecord and no
CircularElements.

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
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .constants import MU_EARTH_M3_S2, SECONDS_PER_DAY, _check_range, is_plain_number_text
from .orbital import CircularElements

LINE_LENGTH = 69
ECCENTRICITY_WARN_LIMIT = 0.02


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


def _full_year(two_digit):
    """The year two digits stand for, 57-99 in 1957-1999 and 00-56 in 2000-2056; of an int or an array."""
    return two_digit + 1900 + 100 * (two_digit < 57)


class _Field(NamedTuple):
    """A number field of the element lines; the record holds then(cast(text)) or cast(text)."""

    line: int  # 1 or 2
    start: int
    end: int
    cast: type  # int or float
    what: str  # its name in a format error
    low: float  # the range TleRecord checks, with _check_range's ends
    high: float
    ends: str
    blank_is_zero: bool = False  # an all-blank field reads as 0
    then: Optional[Callable] = None  # maps the cast number, or an array of them, to the record's value


# TleRecord's number fields in line and column order, which is the order of their checks
_FIELDS = {
    "catalog_number": _Field(1, 2, 7, int, "catalog number", 0, 99999, "[]"),
    "epoch_year": _Field(1, 18, 20, int, "epoch year", 1957, 2056, "[]", then=_full_year),
    "epoch_day": _Field(1, 20, 32, float, "epoch day", 0.0, 367.0, "[)"),
    "element_number": _Field(1, 64, 68, int, "element number", 0, 9999, "[]", blank_is_zero=True),
    "inclination_deg": _Field(2, 8, 16, float, "inclination", 0.0, 360.0, "[)"),
    "raan_deg": _Field(2, 17, 25, float, "right ascension", 0.0, 360.0, "[)"),
    # an implied leading decimal point
    "eccentricity": _Field(2, 26, 33, int, "eccentricity", 0.0, 1.0, "[)", then=lambda digits: digits / 1e7),
    "arg_perigee_deg": _Field(2, 34, 42, float, "argument of perigee", 0.0, 360.0, "[)"),
    "mean_anomaly_deg": _Field(2, 43, 51, float, "mean anomaly", 0.0, 360.0, "[)"),
    # what the 11-column field holds; a tinier rate overflows the semi-major axis
    "mean_motion_rev_per_day": _Field(2, 52, 63, float, "mean motion", 1e-8, 100.0, "[)"),
    "rev_number": _Field(2, 63, 68, int, "revolution number", 0, 99999, "[]", blank_is_zero=True),
}


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
        for attr, field in _FIELDS.items():
            value = getattr(self, attr)
            # an int field by its annotation, which "from __future__ import annotations" keeps as text
            if self.__dataclass_fields__[attr].type == "int" and (type(value) is bool or not isinstance(value, int)):
                raise ValueError(f"{attr} must be an integer, got {value!r}")
            _check_range(attr, value, field.low, field.high, field.ends)
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


def _read_field(lines: Tuple[str, str], field: _Field):
    raw = lines[field.line - 1][field.start : field.end]
    try:
        if not is_plain_number_text(raw):
            raise ValueError(raw)
        value = field.cast("0" if field.blank_is_zero and not raw.strip() else raw)
        if not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        raise TleFormatError(
            f"line {field.line}, columns {field.start + 1}-{field.end}: invalid {field.what} field {raw!r}"
        ) from None
    return value if field.then is None else field.then(value)


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


def _text_fields(line1: str) -> dict:
    """The columns of a line 1 that a record carries as text."""
    return {
        "classification": line1[7],
        "intl_designator": line1[9:17].rstrip(),
        "ndot_raw": line1[33:43],
        "nddot_raw": line1[44:52],
        "bstar_raw": line1[53:61],
        "ephemeris_type": line1[62],
    }


def parse_tle(line1: str, line2: str, name: Optional[str] = None) -> TleRecord:
    """Decode a validated element-set pair into a TleRecord."""
    _check_line(1, line1)
    _check_line(2, line2)
    if line1[2:7] != line2[2:7]:
        raise TleFormatError(
            f"line 2, columns 3-7: catalog number {line2[2:7]!r} does not match line 1 {line1[2:7]!r}"
        )
    values = {attr: _read_field((line1, line2), field) for attr, field in _FIELDS.items()}
    return TleRecord(**values, **_text_fields(line1), name=name)


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


def _warn_eccentric(catalog_number: int, eccentricity: float, stacklevel: int) -> None:
    warnings.warn(
        f"catalog {catalog_number}: eccentricity {eccentricity:.4f} exceeds "
        f"{ECCENTRICITY_WARN_LIMIT}; circular approximation will be coarse",
        EccentricityWarning,
        stacklevel=stacklevel,
    )


def _semi_major_axis_km(mean_motion_rev_per_day: float) -> float:
    period_s = SECONDS_PER_DAY / mean_motion_rev_per_day
    return (MU_EARTH_M3_S2 * (period_s / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0) / 1e3


def tle_to_elements(rec: TleRecord) -> CircularElements:
    """Circular-orbit approximation of a mean element set.

    The semi-major axis follows from the mean motion (T = 86400/n,
    a = (mu*(T/2pi)^2)^(1/3)); the phase is arg_perigee + mean_anomaly.
    """
    if rec.eccentricity > ECCENTRICITY_WARN_LIMIT:
        _warn_eccentric(rec.catalog_number, rec.eccentricity, stacklevel=3)
    phase_deg = (rec.arg_perigee_deg + rec.mean_anomaly_deg) % 360.0
    return CircularElements(_semi_major_axis_km(rec.mean_motion_rev_per_day), rec.inclination_deg, rec.raan_deg, phase_deg)


_WEIGHTS = np.frombuffer(_CHECKSUM_WEIGHTS, dtype=np.uint8)
# the first bytes of a line str.strip() may shorten: ASCII whitespace and every non-ASCII lead byte
_STRIPPABLE = np.array([b >= 128 or chr(b).isspace() for b in range(256)])


def _within(values: np.ndarray, low, high, ends: str) -> np.ndarray:
    """The range rule of _check_range, on an array; NaN is never within."""
    above = values >= low if ends[0] == "[" else values > low
    return above & (values <= high if ends[1] == "]" else values < high)


def _columns(rows: np.ndarray, valid: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Which (records, 2, 69) byte rows, of those valid marks, parse_tle accepts, and each
    row's number fields as parse_tle reads them, which mean nothing for a row it rejects.

    Only rows of printable ASCII are cast: numpy's bytes type drops the
    trailing NULs that float() rejects, and str.strip() blanks a field of
    tabs that a cast rejects. If a cast raises, no row is accepted.
    """
    valid = valid & (rows.min(axis=(1, 2)) >= 32) & (rows.max(axis=(1, 2)) <= 126)
    for line in (0, 1):
        lines = rows[:, line]
        valid &= lines[:, 0] == ord("1") + line
        valid &= _WEIGHTS[lines[:, : LINE_LENGTH - 1]].sum(axis=1) % 10 == lines[:, LINE_LENGTH - 1] - 48
    valid &= (rows[:, 0, 2:7] == rows[:, 1, 2:7]).all(axis=1)
    for field in _FIELDS.values():  # is_plain_number_text
        valid &= (rows[:, field.line - 1, field.start : field.end] != ord("_")).all(axis=1)
    read = np.flatnonzero(valid)
    columns = {}
    try:
        for attr, field in _FIELDS.items():
            text = np.ascontiguousarray(rows[read, field.line - 1, field.start : field.end])
            if field.blank_is_zero:
                text[(text == ord(" ")).all(axis=1), -1] = ord("0")
            values = text.view(f"S{field.end - field.start}")[:, 0].astype(np.float64 if field.cast is float else np.int64)
            column = np.zeros(len(rows), dtype=values.dtype)
            column[read] = values
            columns[attr] = column if field.then is None else field.then(column)
    except (ValueError, OverflowError):  # parse_tle rejects that text too: the listing raises unread
        return np.zeros_like(valid), {}
    for attr, field in _FIELDS.items():
        valid &= _within(columns[attr], field.low, field.high, field.ends)
    return valid, columns


class _Catalog(NamedTuple):
    """A listing's records in file order, as columns."""

    data: bytes  # the listing, UTF-8
    line1_at: np.ndarray  # the offset of each record's line 1 in data
    columns: Dict[str, np.ndarray]  # number field -> each record's value
    parsed: Dict[int, TleRecord]  # record -> parse_tle's record of a pair the bulk checks reject
    names: List[Optional[str]]  # each record's name, or None for all if names were not asked for


def _line_text(data: bytes, starts: np.ndarray, ends: np.ndarray, line: int) -> str:
    return data[starts[line] : ends[line]].decode("utf-8", "surrogatepass")


def _grammar(data: bytes) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[TleFormatError]]:
    """Every line's start and end in data, each record's first line and its name's line (-1 for
    none) up to the first error of the grammar, and that error.

    The grammar is parse_tle_text's: "\\r" ending a line is dropped, a
    line 1 starts "1 " and takes the next line as its line 2, and a name
    is any other line that is not blank; a record must follow it.
    """
    buffer = np.frombuffer(data, dtype=np.uint8)
    body = len(data) - data.endswith(b"\n")  # a final "\n" ends the last line, not an empty one
    breaks = np.flatnonzero(buffer[:body] == 10)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [body]))
    crlf = ends > starts
    crlf[crlf] = buffer[ends[crlf] - 1] == 13
    ends -= crlf
    n_lines = len(starts)

    wide = ends - starts >= 2
    element = np.zeros(n_lines, dtype=bool)
    element[wide] = (buffer[starts[wide]] == 49) & (buffer[starts[wide] + 1] == 32)
    # a line 1 right after a record's line 1 is its line 2: in a run of them, every other one starts a record
    index = np.arange(n_lines)
    run_begins = element.copy()
    run_begins[1:] &= ~element[:-1]
    record = element & ((index - np.maximum.accumulate(np.where(run_begins, index, 0))) % 2 == 0)
    name = ~record
    name[1:] &= ~record[:-1]
    maybe_blank = ends == starts
    maybe_blank[~maybe_blank] = _STRIPPABLE[buffer[starts[~maybe_blank]]]
    for line in np.flatnonzero(name & maybe_blank).tolist():
        name[line] = bool(_line_text(data, starts, ends, line).strip())

    items = np.flatnonzero(record | name)  # records and names in file order
    item_is_name = name[items]
    after_name = np.zeros(len(items), dtype=bool)
    after_name[1:] = item_is_name[:-1]
    twice = np.flatnonzero(item_is_name & after_name)
    error, error_line = None, n_lines
    if twice.size:
        error_line = int(items[twice[0]])
        pending = _line_text(data, starts, ends, int(items[twice[0] - 1])).strip()
        error = TleFormatError(f"input line {error_line + 1}: expected element line 1 after name {pending!r}")
    elif record[-1]:
        error_line = n_lines - 1
        error = TleFormatError(f"input line {n_lines}: element line 1 without a line 2")
    elif items.size and item_is_name[-1]:
        pending = _line_text(data, starts, ends, int(items[-1])).strip()
        error = TleFormatError(f"trailing name {pending!r} without an element set")
    kept = np.flatnonzero(~item_is_name & (items < error_line))
    name_lines = np.where(after_name[kept], items[kept - 1], -1)
    return starts, ends, items[kept], name_lines, error


def _rows_at(data: bytes, line1_at: np.ndarray, line2_at: np.ndarray) -> np.ndarray:
    """The (records, 2, 69) bytes of data from each pair of offsets, clipped to its end."""
    buffer = np.frombuffer(data, dtype=np.uint8)
    if len(buffer) < LINE_LENGTH:  # no line fits
        return np.zeros((len(line1_at), 2, LINE_LENGTH), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buffer, LINE_LENGTH)
    return windows[np.minimum(np.stack((line1_at, line2_at), axis=1), len(windows) - 1)]


def _read_catalog(data: bytes, named: bool) -> _Catalog:
    """The records of a UTF-8 listing that only "\\n" breaks into lines, or its first error."""
    starts, ends, first_lines, name_lines, error = _grammar(data)
    names = [_line_text(data, starts, ends, line).strip() if named and line >= 0 else None for line in name_lines.tolist()]
    line1_at, line2_at = starts[first_lines], starts[first_lines + 1]
    whole = (ends[first_lines] - line1_at == LINE_LENGTH) & (ends[first_lines + 1] - line2_at == LINE_LENGTH)
    valid, columns = _columns(_rows_at(data, line1_at, line2_at), whole)
    parsed = {}
    for i in np.flatnonzero(~valid).tolist():
        line = int(first_lines[i])
        line1, line2 = (_line_text(data, starts, ends, k) for k in (line, line + 1))
        try:
            record = parse_tle(line1, line2, name=names[i])
        except ValueError as exc:  # TleRecord's range checks raise plain ValueError
            kind = type(exc) if isinstance(exc, TleFormatError) else TleFormatError
            raise kind(f"record starting at input line {line + 1}: {exc}") from None
        parsed[i] = record
        for field, values in columns.items():
            values[i] = getattr(record, field)
    if error is not None:
        raise error
    return _Catalog(data, line1_at, columns, parsed, names)


def _rows(columns: Sequence[np.ndarray], chunk: int = 1024) -> Iterator[tuple]:
    """The columns' rows as tuples of Python numbers, converted a chunk at a time."""
    for low in range(0, len(columns[0]), chunk):
        yield from zip(*(column[low : low + chunk].tolist() for column in columns))


def _read_elements(path) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """tle_to_elements of every record of a TLE file as a_km, inclination, RAAN and phase
    columns, with its warnings; a_km is tle_to_elements' scalar formula, record by record."""
    columns = _read_catalog(Path(path).read_text(encoding="utf-8").encode("utf-8"), named=False).columns
    eccentric = columns["eccentricity"] > ECCENTRICITY_WARN_LIMIT
    for number, eccentricity in _rows([columns["catalog_number"][eccentric], columns["eccentricity"][eccentric]]):
        _warn_eccentric(number, eccentricity, stacklevel=3)
    a_km = np.array([_semi_major_axis_km(n) for n in columns["mean_motion_rev_per_day"].tolist()], dtype=float)
    phase = (columns["arg_perigee_deg"] + columns["mean_anomaly_deg"]) % 360.0
    return a_km, columns["inclination_deg"], columns["raan_deg"], phase


def parse_tle_text(text: str) -> List[TleRecord]:
    """Parse a 2-line or 3-line (named) element-set listing; only "\\n" ends a line."""
    catalog = _read_catalog(text.encode("utf-8", "surrogatepass"), named=True)
    fields = {field: values.tolist() for field, values in catalog.columns.items()}
    records = []
    for i, (at, name) in enumerate(zip(catalog.line1_at.tolist(), catalog.names)):
        record = catalog.parsed.get(i)
        if record is None:
            line1 = catalog.data[at : at + LINE_LENGTH].decode("ascii")
            record = TleRecord(**{field: values[i] for field, values in fields.items()}, **_text_fields(line1), name=name)
        records.append(record)
    return records


def read_tle_file(path) -> List[TleRecord]:
    """Parse every record of a TLE text file."""
    return parse_tle_text(Path(path).read_text(encoding="utf-8"))
