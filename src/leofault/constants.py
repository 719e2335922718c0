"""Physical constants and limits shared across the simulator, and five input rules.

The key rule (_unique_keys) rejects a JSON object that repeats a key;
the number-text rule (is_plain_number_text) says which text is a number;
the range rule (_check_range) checks a number against its interval, with
NaN never in range, and names the field and the interval when it fails;
the order rule (_first_out_of_order) finds a series' first NaN or drop;
the table rule (_read_pairs) reads a CSV of two named number columns,
lines ending at \n, \r\n or \r: header cells stripped, no quoting, blank
lines skipped, and the first line that is not two numbers in number text
(blank lines included) named.

All distances are kilometers and all times are seconds unless a name says
otherwise. The Earth is a sphere. Constellation, ISL and ground geometry
take its radius as earth_radius_km (a simulation passes its config's),
default EARTH_RADIUS_KM, and reject one not in (0, inf); the model
lookups (orbital_period, slant_range_km) use the mean sphere.
"""

import math
from pathlib import Path
from typing import Callable

import numpy as np

EARTH_RADIUS_KM = 6371.0
MU_EARTH_M3_S2 = 3.986004418e14
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0905
SECONDS_PER_DAY = 86400.0
SECONDS_PER_YEAR = 365.25 * 86400.0

# a little over 24 h at 0.1 s; bounds the time grid a scan or schedule steps through
MAX_STEPS = 1_000_000


def _unique_keys(pairs: list) -> dict:
    """The key rule, as json's object_pairs_hook: ValueError names the first repeated key of an
    object, whose last value json would otherwise keep."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def is_plain_number_text(text: str) -> bool:
    """The rule every reader of numbers in text (flags, TLE, CSV) applies.

    Only ASCII, since int() and float() also read other scripts' digits,
    and no '_', which they read as a digit separator.
    """
    return text.isascii() and "_" not in text


def _check_range(name: str, value, low, high=math.inf, ends: str = "[]", error: type = ValueError) -> None:
    """The range rule: raise error naming name unless value lies between low and high.

    ends holds the brackets: "(" leaves low out, ")" leaves high out, and an
    included infinite bound leaves that side unbounded. The test asks whether
    value is inside, so NaN, for which every comparison is false, never is.
    Float bounds keep the check cheap; the message drops their ".0".
    A bool, which Python compares as an int, is never a number here, nor is
    a value that does not compare with the bounds, such as a str or None.
    """
    if type(value) is bool:
        raise error(f"{name} must be a number, got {value}")
    try:
        if (value > low or value == low and ends[0] == "[") and (value < high or value == high and ends[1] == "]"):
            return
    except TypeError:
        raise error(f"{name} must be a number, got {value!r}") from None
    low_text, high_text = (str(bound).removesuffix(".0") for bound in (low, high))
    if high == math.inf and ends[1] == "]" and low != -math.inf:
        bound = f"{'>=' if ends[0] == '[' else '>'} {low_text}"
    else:
        bound = f"in {ends[0]}{low_text}, {high_text}{ends[1]}"
    raise error(f"{name} must be {bound}, got {value}")


def _first_out_of_order(values: np.ndarray) -> int | None:
    """Index of the first value that is NaN or below its predecessor."""
    bad = np.isnan(values)
    bad[1:] |= values[1:] < values[:-1]
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


# every byte but the comma and the newline, which _read_pairs' structural pass keeps
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _read_pairs(path, header: tuple, what: str) -> tuple[np.ndarray, Callable[[int], int]]:
    """The table rule: the rows of the UTF-8 CSV at path under the two names of header, as an (n, 2)
    array of each cell as float() reads it, and a map from a row to its line. ValueError names what
    and the first bad line."""
    text = Path(path).read_text(encoding="utf-8")
    head, _, body = text.partition("\n")  # read_text maps \r\n and \r to \n; splitlines() also splits on \x0c
    if [cell.strip() for cell in head.split(",")] != list(header):
        raise ValueError(f"{what} must start with header '{','.join(header)}', got {head!r}")
    plain = is_plain_number_text(body)  # one check of the whole body, per line if it fails
    line_of = lambda row: [n for n, line in enumerate(text.split("\n")[1:], start=2) if line.strip()][row]
    # one structural pass: if the body's commas and newlines alternate from a comma to a comma, every
    # line holds one comma and none is blank, so its cells are a split away; the loop below then
    # runs only to name a bad line
    flat = body.removesuffix("\n")
    separators = flat.encode().translate(None, _NOT_SEPARATORS)
    if plain and separators == b",\n" * (len(separators) // 2) + b",":
        cells = flat.replace("\n", ",").split(",")
        try:
            return np.fromiter(map(float, cells), float, len(cells)).reshape(-1, 2), line_of
        except ValueError:
            pass
    lines = text.split("\n")
    rows: list[tuple[float, float]] = []
    for line in lines[1:]:
        try:
            if not plain and not is_plain_number_text(line):
                raise ValueError(line)
            if not line.strip():
                continue
            a, b = line.split(",")
            rows.append((float(a), float(b)))
        except ValueError:  # the first line equal to this one is this one
            at = f"{what} line {lines.index(line, 1) + 1}: {' and '.join(header)}"
            raise ValueError(f"{at} must be finite numbers in ASCII, without '_', got {line!r}") from None
    return np.array(rows, dtype=float).reshape(-1, 2), line_of
