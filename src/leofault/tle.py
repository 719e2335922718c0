"""Two-line element set parsing, serialization, and circular conversion.

The parser is strict about the fixed-column layout: 69-character lines,
matching catalog numbers, and valid checksums. Drag-related fields
(first/second mean-motion derivatives and B*) use an implied-decimal
exponent encoding that is not unique, so they are carried verbatim as raw
column text; records serialized by this module reproduce canonical input
lines byte for byte.

A listing is read in columns. One pass over its lines applies the
grammar (names, blank lines, CRLF, a missing line 2, a trailing name).
Then every element-line pair in the canonical layout, the one
serialize_tle writes, is validated at once on a (records, 2, 69) byte
array: lengths, line numbers, ASCII, checksums, the catalog-number
match, each column's allowed bytes and every TleRecord range. A number
field's digits, read as an integer and divided by its power of ten, equal
float() of its text bit for bit: both operands are exact doubles, so the
quotient is the correctly rounded decimal. Any other pair goes through
parse_tle, which parses a valid non-canonical record or raises; parse_tle
owns every TLE error message, and the first error in file order wins.
A simulation's fleet takes its circular elements from the columns and
builds no TleRecord.

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
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

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


# number field -> (low, high, ends) of its range rule, in the order TleRecord checks them
_RANGES = {
    "catalog_number": (0, 99999, "[]"),
    "epoch_year": (1957, 2056, "[]"),  # the years two digits stand for
    # what the 11-column field holds; a tinier rate overflows the semi-major axis
    "mean_motion_rev_per_day": (1e-8, 100.0, "[)"),
    "eccentricity": (0.0, 1.0, "[)"),
    "inclination_deg": (0.0, 360.0, "[)"),
    "raan_deg": (0.0, 360.0, "[)"),
    "arg_perigee_deg": (0.0, 360.0, "[)"),
    "mean_anomaly_deg": (0.0, 360.0, "[)"),
    "epoch_day": (0.0, 367.0, "[)"),
    "element_number": (0, 9999, "[]"),
    "rev_number": (0, 99999, "[]"),
}
_INT_FIELDS = frozenset(("catalog_number", "epoch_year", "element_number", "rev_number"))


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
        for attr, (low, high, ends) in _RANGES.items():
            value = getattr(self, attr)
            if attr in _INT_FIELDS and (type(value) is bool or not isinstance(value, int)):
                raise ValueError(f"{attr} must be an integer, got {value!r}")
            _check_range(attr, value, low, high, ends)
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

    epoch_yy = _field(1, line1, 18, 20, lambda s: int(s), "epoch year")
    return TleRecord(
        catalog_number=_field(1, line1, 2, 7, lambda s: int(s), "catalog number"),
        **_text_fields(line1),
        epoch_year=_full_year(epoch_yy),
        epoch_day=_field(1, line1, 20, 32, float, "epoch day"),
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


def _warn_eccentric(catalog_number: int, eccentricity: float, stacklevel: int) -> None:
    warnings.warn(
        f"catalog {catalog_number}: eccentricity {eccentricity:.4f} exceeds "
        f"{ECCENTRICITY_WARN_LIMIT}; circular approximation will be coarse",
        EccentricityWarning,
        stacklevel=stacklevel,
    )


# the fields _circular takes, in its order
_CIRCULAR_FIELDS = ("mean_motion_rev_per_day", "inclination_deg", "raan_deg", "arg_perigee_deg", "mean_anomaly_deg")


def _circular(
    mean_motion_rev_per_day: float,
    inclination_deg: float,
    raan_deg: float,
    arg_perigee_deg: float,
    mean_anomaly_deg: float,
) -> CircularElements:
    period_s = SECONDS_PER_DAY / mean_motion_rev_per_day
    a_m = (MU_EARTH_M3_S2 * (period_s / (2.0 * math.pi)) ** 2) ** (1.0 / 3.0)
    return CircularElements(
        semi_major_axis_km=a_m / 1e3,
        inclination_deg=inclination_deg,
        raan_deg=raan_deg,
        phase_deg=(arg_perigee_deg + mean_anomaly_deg) % 360.0,
    )


def tle_to_elements(rec: TleRecord) -> CircularElements:
    """Circular-orbit approximation of a mean element set.

    The semi-major axis follows from the mean motion (T = 86400/n,
    a = (mu*(T/2pi)^2)^(1/3)); the phase is arg_perigee + mean_anomaly.
    """
    if rec.eccentricity > ECCENTRICITY_WARN_LIMIT:
        _warn_eccentric(rec.catalog_number, rec.eccentricity, stacklevel=3)
    return _circular(*(getattr(rec, field) for field in _CIRCULAR_FIELDS))


# The canonical layout, one code per column: "n" a digit, "p" a digit or a
# blank before the field's first digit (int() and float() skip it), "c"
# the checksum digit, "x" any ASCII byte (a column parse_tle skips or
# carries verbatim, or line 2's catalog number, which must equal line 1's)
# and any other character itself.
_LAYOUT = (
    # line number, catalog, classification and designator, epoch, drag terms and ephemeris type, element number
    "1 ppppn" + "x" * 11 + "nnnnn.nnnnnnnn" + "x" * 32 + "pppp" + "c",
    # line number, catalog, inclination, RAAN, eccentricity, perigee, anomaly, mean motion, revolutions
    "2" + "x" * 7 + "ppn.nnnnx" + "ppn.nnnnx" + "nnnnnnnx" + "ppn.nnnnx" + "ppn.nnnnx" + "pn.nnnnnnnn" + "ppppp" + "c",
)
_CODE_BYTES = {"n": b"0123456789", "c": b"0123456789", "p": b" 0123456789", "x": bytes(range(128))}


def _allowed_bytes() -> np.ndarray:
    """(line, column, byte) -> whether the canonical layout allows the byte there."""
    codes = sorted(set("".join(_LAYOUT)))
    allowed = np.zeros((len(codes), 256), dtype=bool)
    for row, code in enumerate(codes):
        allowed[row, list(_CODE_BYTES.get(code, code.encode()))] = True
    return allowed[[[codes.index(code) for code in line] for line in _LAYOUT]]


_ALLOWED = _allowed_bytes()
# the column pairs inside a padded field, where a blank may not follow a digit
_PADDED_LINE, _PADDED_COLUMN = np.array(
    [(line, column) for line, codes in enumerate(_LAYOUT) for column in range(LINE_LENGTH - 1) if codes[column : column + 2] == "pp"]
).T
_WEIGHTS = np.frombuffer(_CHECKSUM_WEIGHTS, dtype=np.uint8)
_DIGIT_VALUES = np.frombuffer(bytes(b - 48 if 48 <= b <= 57 else 0 for b in range(256)), dtype=np.uint8)
# the first bytes of a line str.strip() may shorten: ASCII whitespace and every non-ASCII lead byte
_STRIPPABLE = np.array([b >= 128 or chr(b).isspace() for b in range(256)])


# number field -> (line, its digit columns, power of ten it is divided by or None for an int);
# the fields span parse_tle's columns
_NUMBER_FIELDS = {
    name: (line, [c for c in range(start, end) if _LAYOUT[line][c] in "np"], decimals)
    for name, line, start, end, decimals in (
        ("catalog_number", 0, 2, 7, None),
        ("epoch_year", 0, 18, 20, None),  # two digits until _full_year's rule is applied
        ("epoch_day", 0, 20, 32, 8),
        ("element_number", 0, 64, 68, None),
        ("inclination_deg", 1, 8, 16, 4),
        ("raan_deg", 1, 17, 25, 4),
        ("eccentricity", 1, 26, 33, 7),  # an implied leading decimal point
        ("arg_perigee_deg", 1, 34, 42, 4),
        ("mean_anomaly_deg", 1, 43, 51, 4),
        ("mean_motion_rev_per_day", 1, 52, 63, 8),
        ("rev_number", 1, 63, 68, None),
    )
}


def _within(values: np.ndarray, low, high, ends: str) -> np.ndarray:
    """The range rule of _check_range, on an array without NaN."""
    above = values >= low if ends[0] == "[" else values > low
    return above & (values <= high if ends[1] == "]" else values < high)


def _canonical_columns(rows: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Which (records, 2, 69) byte rows are valid records in the canonical layout, and each
    row's number fields, which mean nothing for a row that is not valid."""
    valid = np.ones(len(rows), dtype=bool)
    for line in (0, 1):
        lines = rows[:, line]
        valid &= _ALLOWED[line, np.arange(LINE_LENGTH), lines].all(axis=1)
        valid &= _WEIGHTS[lines[:, : LINE_LENGTH - 1]].sum(axis=1) % 10 == lines[:, LINE_LENGTH - 1] - 48
    digit = rows[:, _PADDED_LINE, _PADDED_COLUMN] != 32
    valid &= ~(digit & (rows[:, _PADDED_LINE, _PADDED_COLUMN + 1] == 32)).any(axis=1)
    valid &= (rows[:, 0, 2:7] == rows[:, 1, 2:7]).all(axis=1)
    columns = {}
    for name, (line, digit_columns, decimals) in _NUMBER_FIELDS.items():
        value = np.zeros(len(rows), dtype=np.int64)
        for column in digit_columns:
            value = value * 10 + _DIGIT_VALUES[rows[:, line, column]]
        columns[name] = value if decimals is None else value / float(10**decimals)
    yy = columns["epoch_year"]
    yy += np.where(yy >= 57, 1900, 2000)  # _full_year
    for name, (low, high, ends) in _RANGES.items():
        valid &= _within(columns[name], low, high, ends)
    return valid, columns


class _Catalog(NamedTuple):
    """A listing's records in file order, as columns."""

    data: bytes  # the listing, UTF-8
    line1_at: np.ndarray  # the offset of each record's line 1 in data
    columns: Dict[str, np.ndarray]  # number field -> each record's value
    parsed: Dict[int, TleRecord]  # record -> parse_tle's record of a pair not in the canonical layout
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
    valid, columns = _canonical_columns(_rows_at(data, line1_at, line2_at))
    valid &= (ends[first_lines] - line1_at == LINE_LENGTH) & (ends[first_lines + 1] - line2_at == LINE_LENGTH)
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


def _read_elements(path) -> List[CircularElements]:
    """tle_to_elements of every record of a TLE file, with its warnings, from the columns."""
    columns = _read_catalog(Path(path).read_text(encoding="utf-8").encode("utf-8"), named=False).columns
    eccentric = columns["eccentricity"] > ECCENTRICITY_WARN_LIMIT
    for number, eccentricity in _rows([columns["catalog_number"][eccentric], columns["eccentricity"][eccentric]]):
        _warn_eccentric(number, eccentricity, stacklevel=3)
    return [_circular(*row) for row in _rows([columns[field] for field in _CIRCULAR_FIELDS])]


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
