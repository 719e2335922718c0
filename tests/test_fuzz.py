"""Property-based fuzzing of the text and document input boundaries.

Every input to parse_event, config_from_dict and parse_tle_text must
either raise the module's error type or return a valid object; an
accepted TLE record must also convert to finite circular elements. The
columnar TLE reader must agree with the record-by-record reference on
every listing: the same records, elements and warnings, or the same
error, on restyled but valid fields, names, blank lines, CRLF and
listings with two faults. Most
inputs are a valid document with one or two parts replaced by arbitrary
JSON (or a TLE with one column span overwritten), so a type or range
hole in one field is not hidden by an error elsewhere. Runs are
derandomized: a failure reproduces on every run.

Both number-table CSV readers, precipitation series and CDFs, take the
same arbitrary bodies (number-like cells, quotes, blank and whitespace
lines, CR and CRLF, NUL, form feeds, non-ASCII digits and spaces) under
their header or a near miss: each returns the body's rows or raises
ValueError naming the header or a line, never another type. The table
rule's one-pass reader must return its per-line loop's rows and lines,
or raise its message, on bodies of number rows with odd lines among
them; and the CDF's vectorized 9-digit rounding must equal
canonical_number bit for bit on the value mixes isl-cdf meets and on
midpoints, powers of ten, subnormals and values beyond its fast path.

The link-state scan is fuzzed the same way against its per-step
reference: random maneuver sets on a small shell, starting and ending on
and between grid points, must give bit-identical offsets and grazing
altitudes. The scan simulate uses, which evaluates a link only when it
could cross the threshold, must give the full scan's transitions,
grazing bits and infeasible count on random shells, maneuver sets,
thresholds (some equal to a sampled grazing altitude) and windows.
The running table of distinct values that per-step isl-cdf folds into
must give from_samples' table of every sample on random shells, step
counts, fold sizes and sample weights, with signed zeros planted among
them. isl-cdf, which evaluates one link per Walker symmetry class, must
give the table of every link's scan values, and of their per-link
minima, on random shells, some with one satellite's RAAN nudged off its
plane's, up to t0 = 1e9 s. Its two premises are fuzzed too: each class
member's scan value lies within a hundredth of the class bound of its
representative's, and the rounding pre-screen flags every value within
the bound of a 9-digit rounding boundary (midpoints, powers of ten,
negatives, signed zeros and values below the bound).

Ground geometry is fuzzed against its scalar references: visibility
windows, which skip satellites that cannot be visible, and handover
schedules, scored in batches of samples, must equal them bit for bit on
random shells, stations, minimum elevations and grids, with the batch cap
cut to a few pairs so that batch boundaries fall everywhere.

merge_traces is checked the same way against its concatenate-and-sort
reference on random key-sorted sources with many ties.
"""

import copy
import json
import math
import re
import warnings
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leofault import (
    CdfTable,
    CircularElements,
    ConfigError,
    DeviceTarget,
    EccentricityWarning,
    FaultEvent,
    GridTopology,
    GroundLinkTarget,
    GroundStation,
    IslTarget,
    ManeuverEvent,
    SatelliteId,
    SatelliteTarget,
    ShellSpec,
    SimulationConfig,
    TleFormatError,
    TraceParseError,
    build_constellation,
    build_fleet,
    checksum,
    config_from_dict,
    config_to_dict,
    handover_schedule,
    merge_traces,
    min_isl_altitude_cdf,
    parse_event,
    parse_tle_text,
    read_cdf_csv,
    read_precipitation_csv,
    serialize_event,
    serialize_tle,
    tle_to_elements,
    visibility_windows,
)
from leofault import stats, topology
from leofault.constants import EARTH_RADIUS_KM, _read_pairs, is_plain_number_text
from leofault.tle import _read_elements
from leofault.orbital import FleetArrays, time_grid
from leofault.trace import KIND_PARAM_KEYS, canonical_number
from test_simulation import assert_skip_scan_matches_reference
from test_tle import outcome, random_record, reference_parse_tle_text
from test_topology import (
    SMALL_SHELL,
    assert_scan_matches_reference,
    reference_handover_schedule,
    reference_visibility_windows,
)
from test_trace import (
    SATS,
    any_events,
    assert_template_path_agrees,
    general_read_outcome,
    pooled_event,
    read_outcome,
    reference_merge,
    reference_sort_key,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=1000)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """The key path of every value inside a JSON document, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


@st.composite
def mutated(draw, base):
    """A deep copy of base with one to two locations replaced, deleted or extended."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        locations = list(paths(doc))
        if not locations:
            break
        *parents, key = draw(st.sampled_from(locations))
        container = doc
        for step in parents:
            container = container[step]
        action = draw(st.sampled_from(["replace", "replace", "delete", "extra"]))
        if action == "replace":
            container[key] = draw(json_values)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.text(max_size=6))] = draw(json_values)
        else:
            container.append(draw(json_values))
    return doc


def assert_finite(value):
    """No NaN or infinity anywhere in a nested value."""
    if isinstance(value, dict):
        for item in value.values():
            assert_finite(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            assert_finite(item)
    elif isinstance(value, float):
        assert math.isfinite(value), value


# ---------------------------------------------------------------- trace

SAT = SatelliteId(0, 3, 7)
BASE_EVENTS = [
    json.loads(serialize_event(event))
    for event in (
        FaultEvent(12.5, "device_reboot", DeviceTarget(SAT, 4), {"downtime_s": 30.0}),
        FaultEvent(60.0, "maneuver_start", SatelliteTarget(SAT), {"dh_km": 1.5, "dwell_s": 300.0}),
        FaultEvent(90.0, "isl_down", IslTarget(SAT, SatelliteId(0, 4, 7)), {"grazing_km": 79.0}),
        FaultEvent(100.0, "handover_spike", GroundLinkTarget("berlin"), {"loss_rate": 0.01, "duration_s": 1.0}),
    )
]
event_lines = st.one_of(
    st.sampled_from(BASE_EVENTS).flatmap(mutated).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=80),
)


@FUZZ
@given(event_lines)
def test_parse_event_rejects_or_round_trips(line):
    try:
        event = parse_event(line)
    except TraceParseError:
        return
    assert isinstance(event, FaultEvent)
    assert_finite([event.t_s, event.params])
    # the writer rounds to canonical numbers
    assert parse_event(serialize_event(event)) == event.canonical()


def examples(values):
    """An @example for each value, in order."""

    def decorate(test):
        for value in reversed(values):
            test = example(value)(test)
        return test

    return decorate


DEVICE_LINE, _, _, SPIKE_LINE = (json.dumps(doc, separators=(",", ":")) for doc in BASE_EVENTS)
NUMBER_TOKENS = ["-0", "0", "1e+16", "5e-324", "1e999", "NaN", "Infinity"]
# writer lines edited toward what only the general path reads, or rejects
EDITED_LINES = [
    *(DEVICE_LINE.replace('"t":12.5', f'"t":{token}') for token in NUMBER_TOKENS),
    *(DEVICE_LINE.replace('"downtime_s":30.0', f'"downtime_s":{token}') for token in NUMBER_TOKENS),
    DEVICE_LINE.replace('"kind":', '"kind": '),
    DEVICE_LINE + "\r",
    DEVICE_LINE.replace('{"t":12.5,"kind":"device_reboot"', '{"kind":"device_reboot","t":12.5'),
    SPIKE_LINE.replace('{"duration_s":1.0,"loss_rate":0.01}', '{"loss_rate":0.01,"duration_s":1.0}'),
    DEVICE_LINE.replace('"device":4', '"device":4,"device":5'),
    DEVICE_LINE.replace('"t":12.5', '"t":12.5,"t":13.5'),
    SPIKE_LINE.replace('"berlin"', '"ber\\u006cin"'),
    SPIKE_LINE.replace('"berlin"', '"b\\"x"'),
    SPIKE_LINE.replace('"berlin"', '"\\u00e9"'),
    SPIKE_LINE.replace('"berlin"', '"Zürich-北京"'),
    DEVICE_LINE.replace("[0,3,7]", f"[{2**64},3,{2**70}]"),
    DEVICE_LINE.replace('"device":4', f'"device":{2**64}'),
    DEVICE_LINE.replace("[0,3,7]", "[0,01,2]"),
]


@FUZZ
@given(st.one_of(event_lines, any_events().map(serialize_event)))
@examples(EDITED_LINES)
def test_template_path_matches_general_path(tmp_path_factory, line):
    texts = [line]
    try:  # the same document with the writer's separators, so mutated documents reach the templates too
        texts.append(json.dumps(json.loads(line), separators=(",", ":")))
    except (ValueError, RecursionError):
        pass
    path = tmp_path_factory.getbasetemp() / "template-path.jsonl"
    for text in texts:
        assert_template_path_agrees(text)
        path.write_bytes(f'{{"schema":"leofault/1"}}\n{text}\n'.encode("utf-8", "surrogatepass"))
        assert read_outcome(path) == general_read_outcome(path)


# ---------------------------------------------------------------- config

BASE_CONFIG = config_to_dict(
    config_from_dict(
        {
            "shells": [{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 3, "sats_per_plane": 3}],
            "tle_files": ["catalog.tle"],
            "ground_stations": [{"id": "berlin", "latitude_deg": 52.5, "longitude_deg": 13.4}],
            "duration_s": 600.0,
            "step_s": 10.0,
            "seed": 7,
            "precipitation_mm_h": 3.0,
        }
    )
)


# the precipitation keys are exclusive, so BASE_CONFIG holds null for one of them
OPTIONAL_KEYS = {"precipitation_mm_h": float, "precipitation_csv": str}


def assert_shaped_like(value, base, key=None):
    """value has base's keys and leaf types; a float field may hold an int."""
    if key in OPTIONAL_KEYS:
        if value is None:
            return
        base = OPTIONAL_KEYS[key]()  # a leaf of the key's type
    if isinstance(base, dict):
        assert isinstance(value, dict) and value.keys() == base.keys(), (key, value)
        for k in base:
            assert_shaped_like(value[k], base[k], k)
    elif isinstance(base, list):
        assert isinstance(value, list), (key, value)
        for item in value:
            assert_shaped_like(item, base[0], key)
    elif type(base) is float:
        assert type(value) in (int, float) and math.isfinite(value), (key, value)
    else:
        assert type(value) is type(base), (key, value)


@FUZZ
@given(st.one_of(mutated(BASE_CONFIG), json_values))
def test_config_from_dict_rejects_or_round_trips(document):
    try:
        config = config_from_dict(document)
    except ConfigError:
        return
    materialized = config_to_dict(config)
    assert_shaped_like(materialized, BASE_CONFIG)
    assert config_from_dict(json.loads(json.dumps(materialized, allow_nan=False))) == config


# ---------------------------------------------------------------- TLE

ISS_L1 = "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992"
ISS_L2 = "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298"
# (line index, start, end) of every numeric column
TLE_FIELDS = [
    (0, 2, 7), (0, 18, 20), (0, 20, 32), (0, 64, 68),
    (1, 8, 16), (1, 17, 25), (1, 26, 33), (1, 34, 42), (1, 43, 51), (1, 52, 63), (1, 63, 68),
]
field_text = st.one_of(
    st.sampled_from(
        ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1", "0", "400.0", "1e-300", "1_5",
         "7\x00", "12.5\x00\x00", "\t\t"]
    ),
    st.text(alphabet=" 0123456789.+-eEnaifINAF_x\t\x00", max_size=12),
)


@st.composite
def tle_texts(draw):
    """The ISS record with one span overwritten; checksums mostly recomputed."""
    lines = [ISS_L1, ISS_L2]
    if draw(st.booleans()):
        line_no, start, end = draw(st.sampled_from(TLE_FIELDS))
    else:
        line_no = draw(st.integers(0, 1))
        start = draw(st.integers(0, 67))
        end = draw(st.integers(start, 68))
    patch = draw(field_text).rjust(end - start)[: end - start]
    body = lines[line_no][:start] + patch + lines[line_no][end:68]
    mark = str(checksum(body)) if draw(st.integers(0, 4)) else lines[line_no][68]
    lines[line_no] = body + mark
    name = draw(st.sampled_from(["", "ISS (ZARYA)\n"]))
    return name + "\n".join(lines) + "\n"


def with_mean_motion(column):
    """The ISS record with its 11-column mean motion replaced, checksum recomputed."""
    body = ISS_L2[:52] + column + ISS_L2[63:68]
    return f"{ISS_L1}\n{body}{checksum(body)}\n"


@FUZZ
@given(st.one_of(tle_texts(), st.text(max_size=160)))
# the derandomized strategies never reach a rate this small with a valid checksum
@example(with_mean_motion("     1e-300"))
def test_parse_tle_text_rejects_or_returns_finite_records(text):
    try:
        records = parse_tle_text(text)
    except TleFormatError:
        return
    for record in records:
        assert_finite(list(vars(record).values()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EccentricityWarning)
            assert_finite(list(vars(tle_to_elements(record)).values()))


def restyled(raw: str, style: int) -> str:
    """A number field's text in another layout of its width that int() or float() reads."""
    core = raw.strip()
    text = [
        "+" + core,  # a sign
        core.ljust(len(raw)),  # left-justified
        core.zfill(len(raw)),  # zero-padded
        core[:-1] if "." in core[:-1] else core,  # one decimal fewer: the point moves right
    ][style]
    return text.rjust(len(raw)) if len(text) <= len(raw) else raw


def faulted(prefix: list, lines: list, fault: str, draw) -> None:
    """Put one fault into a record's name and blank lines or its element lines."""
    line_no = draw(st.integers(0, len(lines) - 1))
    if fault == "checksum":
        lines[line_no] = lines[line_no][:-1] + str((int(lines[line_no][-1]) + 1) % 10)
    elif fault == "field":
        _, start, end = draw(st.sampled_from([f for f in TLE_FIELDS if f[0] == line_no]))
        body = lines[line_no][:start] + draw(field_text).rjust(end - start)[: end - start] + lines[line_no][end:68]
        lines[line_no] = body + str(checksum(body))
    elif fault == "two-byte":  # a line of 69 bytes but 68 characters; ".0" and "\u00e9" weigh nothing
        lines[0] = lines[0][:34] + "\u00e9" + lines[0][36:]
    elif fault == "no line 2":
        del lines[1:]
    else:
        prefix.append("EXTRA NAME")


@st.composite
def tle_catalogs(draw):
    """Listings of random records with restyled fields, names, blank lines and CRLF, some with faults."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for _ in range(draw(st.integers(0, 5))):
        record = random_record(rng)
        if draw(st.booleans()):  # short integers, which a left-justified field pads on the right
            small = st.integers(0, 99)
            record = replace(record, catalog_number=draw(small), element_number=draw(small), rev_number=draw(small))
        lines = list(serialize_tle(record))
        for _ in range(draw(st.integers(0, 2))):
            line_no, start, end = draw(st.sampled_from(TLE_FIELDS))
            field = restyled(lines[line_no][start:end], draw(st.integers(0, 3)))
            body = lines[line_no][:start] + field + lines[line_no][end:68]
            lines[line_no] = body + str(checksum(body))
        name = draw(st.sampled_from([None, "SAT", "  PADDED NAME ", "\u00e9TOILE", "\x1c"]))
        blank = draw(st.sampled_from([[], [""], ["  \t"]]))
        records.append((blank + ([name] if name else []), lines))
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        fault = draw(st.sampled_from(["checksum", "field", "two-byte", "no line 2", "two names"]))
        faulted(*records[draw(st.integers(0, len(records) - 1))], fault, draw)
    lines = [line for prefix, record in records for line in prefix + record]
    lines += draw(st.sampled_from([[], ["TRAILING NAME"], [" "]]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def reference_read_elements(path):
    return [tle_to_elements(record) for record in reference_parse_tle_text(Path(path).read_text(encoding="utf-8"))]


def element_rows(path):
    """_read_elements' columns as one (a_km, inclination, RAAN, phase) tuple per record."""
    return list(zip(*(column.tolist() for column in _read_elements(path))))


def reference_element_rows(path):
    return [astuple(e) for e in reference_read_elements(path)]


@FUZZ
@given(st.one_of(tle_texts(), tle_catalogs(), st.text(max_size=160)))
@example("SAT\r\n" + "\r\n".join((ISS_L1, ISS_L2)) + "\r\n")
def test_columns_match_the_record_by_record_reader(tmp_path_factory, text):
    assert outcome(parse_tle_text, text) == outcome(reference_parse_tle_text, text)
    path = tmp_path_factory.getbasetemp() / "columns.tle"
    path.write_text(text, encoding="utf-8")
    assert outcome(element_rows, path) == outcome(reference_element_rows, path)


# ---------------------------------------------------------------- number-table CSVs

TABLES = {
    "precipitation": (read_precipitation_csv, ("t_s", "mm_per_h"), "precipitation CSV"),
    "cdf": (read_cdf_csv, ("value_km", "proportion"), "CDF CSV"),
}
csv_cells = st.one_of(
    st.text(alphabet='0123456789.,-+e_"\r\x00\x0c \t\u0663\uff14', max_size=6),
    st.sampled_from(["0", "1", "0.5", "2", "-1", "nan", "inf", "-inf", "1e999", '"1"', ""]),
)
csv_lines = st.lists(csv_cells, max_size=3).map(",".join) | st.sampled_from(
    ["", " ", "\t", "\x0c", "\u00a0", "\u2028"]
)


@st.composite
def table_texts(draw):
    """(kind, text): a body of arbitrary lines under the kind's header or a near miss."""
    kind = draw(st.sampled_from(sorted(TABLES)))
    h0, h1 = TABLES[kind][1]
    header = draw(st.just(f"{h0},{h1}") | st.sampled_from(
        [f" {h0} ,\t{h1} ", f'"{h0}","{h1}"', f"{h0};{h1}", h0, f"{h0},{h1},", f"{h1},{h0}", ""]
    ))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return kind, end.join([header, *draw(st.lists(csv_lines, max_size=8))]) + draw(st.sampled_from(["", end]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(table_texts())
@example(("cdf", "value_km , proportion\r\n1,0.5\r\n\r\n2,1\r\n"))
@example(("precipitation", "t_s,mm_per_h\r0,0\r \r600,4.5\r1200,0"))
def test_table_readers_reject_or_read(tmp_path_factory, case):
    # ValueError naming the header or a line, never csv.Error or another type; else every
    # non-blank body line, read as two numbers, in order and under the reader's value rules
    kind, text = case
    reader, names, what = TABLES[kind]
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    header, *body = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header_ok = [cell.strip() for cell in header.split(",")] == list(names)
    try:
        rows = reader(path)
    except ValueError as exc:
        assert type(exc) is ValueError
        expected = rf"{what} line \d+:" if header_ok else f"{what} must start with header"
        assert re.match(expected, str(exc)), str(exc)
        return
    rows = list(rows.points if kind == "cdf" else rows)
    assert header_ok
    assert all(is_plain_number_text(line) for line in body)
    assert rows == [tuple(map(float, line.split(","))) for line in body if line.strip()]
    assert all(math.isfinite(v) for row in rows for v in row)
    if kind == "precipitation":
        assert all(mm >= 0.0 for _, mm in rows)
        assert all(a < b for (a, _), (b, _) in zip(rows, rows[1:]))


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_field_longer_than_the_csv_module_limit(tmp_path, kind):
    # the csv module stops at 131,072 characters a field with its own error type
    reader, header, _ = TABLES[kind]
    path = tmp_path / "table.csv"
    path.write_text(f"{','.join(header)}\n{'0' * 131_073},1\n", encoding="utf-8")
    rows = reader(path)
    assert list(rows.points if kind == "cdf" else rows) == [(0.0, 1.0)]
    path.write_text(f"{','.join(header)}\n{'x' * 131_073},1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: "):
        reader(path)


def reference_read_pairs(path, header, what):
    """The table rule as a loop over every line: the reference that _read_pairs' one structural
    pass and one float() per cell must equal."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if [cell.strip() for cell in lines[0].split(",")] != list(header):
        raise ValueError(f"{what} must start with header '{','.join(header)}', got {lines[0]!r}")
    rows, line_nos = [], []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip() and is_plain_number_text(line):
            continue
        try:
            if not is_plain_number_text(line):
                raise ValueError(line)
            a, b = line.split(",")
            rows.append((float(a), float(b)))
            line_nos.append(n)
        except ValueError:
            at = f"{what} line {n}: {' and '.join(header)}"
            raise ValueError(f"{at} must be finite numbers in ASCII, without '_', got {line!r}") from None
    return rows, line_nos


def pairs_outcome(read, path, header):
    """repr of the rows (so -0.0 and nan compare) and each row's line, or the ValueError message."""
    try:
        rows, line_of = read(path, header, "table")
    except ValueError as exc:
        return str(exc)
    if callable(line_of):
        rows, line_of = list(map(tuple, np.asarray(rows).tolist())), [line_of(i) for i in range(len(rows))]
    return repr(rows), line_of


number_cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0", "-0", " 1.5 ", "+.5", "1.", "1e999", "inf", "-inf", "nan", "1_0", "\u0663", "\uff14", "", "x"]),
)
odd_lines = st.one_of(
    st.sampled_from(["", " ", "\t", "\x0c", "\u00a0", "\u2028", "\x1c"]),  # blank, or blank to float() alone
    st.lists(number_cells, min_size=1, max_size=3).filter(lambda cells: len(cells) != 2).map(",".join),
)


@st.composite
def pair_tables(draw):
    """(header, text): rows of two number cells with up to two odd lines among them (a row of one
    cell and one of three hold two cells a row on average), under \n, \r\n or \r endings and
    with or without a final one."""
    lines = draw(st.lists(st.tuples(number_cells, number_cells).map(",".join), max_size=12))
    for odd in draw(st.lists(odd_lines, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ("a", "b"), end.join(["a,b", *lines]) + draw(st.sampled_from(["", end]))


@FUZZ
@given(pair_tables())
@example((("a", "b"), "a,b\n1,2\n\n3,4\n"))
@example((("a", "b"), "a,b\n1,2,3\n4\n"))
@example((("a", "b"), "a,b\n1,2\n3,4\n5"))
@example((("a", "b"), "a,b\n1,2\n"))
@example((("a", "b"), "a,b"))
def test_read_pairs_matches_the_line_loop(tmp_path_factory, case):
    header, text = case
    path = tmp_path_factory.getbasetemp() / "pairs.csv"
    path.write_bytes(text.encode("utf-8"))
    assert pairs_outcome(_read_pairs, path, header) == pairs_outcome(reference_read_pairs, path, header)


# ---------------------------------------------------------------- link-state scan

SCAN_TOPOLOGY = GridTopology(build_constellation([SMALL_SHELL]))
SCAN_STEP_S = 30.0
SCAN_TIMES = time_grid(0.0, 300.0, SCAN_STEP_S)
on_grid = st.integers(0, len(SCAN_TIMES) - 1).map(lambda k: k * SCAN_STEP_S)
maneuvers = st.lists(
    st.builds(
        ManeuverEvent,
        sat=st.sampled_from(SCAN_TOPOLOGY.sat_ids[:6]),
        start_s=on_grid | st.floats(-50.0, 350.0) | st.just(-math.inf),
        dh_km=st.sampled_from([-6.0, -2.0, 2.0, 6.0]) | st.floats(-12.0, 12.0),
        dwell_s=on_grid | st.floats(0.0, 200.0) | st.just(math.inf),
    ),
    max_size=12,
).map(lambda ms: sorted(ms, key=lambda m: m.start_s))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(maneuvers)
def test_scan_matches_per_step_reference(maneuvers):
    assert_scan_matches_reference(SCAN_TOPOLOGY, SCAN_TIMES, maneuvers)


skip_shells = st.lists(
    st.builds(
        ShellSpec,
        altitude_km=st.sampled_from([550.0, 2000.0]),
        inclination_deg=st.sampled_from([53.0, 90.0, 97.6, 140.0]),  # prograde, polar, retrograde
        planes=st.integers(3, 8),
        sats_per_plane=st.integers(3, 8),
        raan_spread_deg=st.sampled_from([180.0, 360.0]) | st.floats(0.0, 360.0, exclude_min=True),
        phase_offset_f=st.integers(0, 3),
    ),
    min_size=1,
    max_size=2,
)


def reference_build_constellation(shells, earth_radius_km=EARTH_RADIUS_KM):
    """build_constellation as a loop that builds one CircularElements per satellite."""
    constellation = {}
    for shell_index, spec in enumerate(shells):
        a_km = earth_radius_km + spec.altitude_km
        p_count, s_count = spec.planes, spec.sats_per_plane
        for p in range(p_count):
            raan = p * spec.raan_spread_deg / p_count
            plane_phase = p * spec.phase_offset_f * 360.0 / (p_count * s_count)
            for s in range(s_count):
                constellation[SatelliteId(shell_index, p, s)] = CircularElements(
                    a_km, spec.inclination_deg, raan, s * 360.0 / s_count + plane_phase
                )
    return constellation


def reference_build_fleet(config):
    """build_fleet element by element: the shells' loop, then each file's records through tle_to_elements."""
    constellation = reference_build_constellation(config.shells, config.earth_radius_km)
    for file_index, path in enumerate(config.tle_files):
        shell = len(config.shells) + file_index
        constellation.update((SatelliteId(shell, 0, i), e) for i, e in enumerate(reference_read_elements(path)))
    return constellation


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(skip_shells | st.just([]), st.lists(tle_catalogs(), max_size=2), st.data())
def test_array_fleet_equals_the_element_loop_bit_for_bit(tmp_path_factory, shells, catalogs, data):
    offsets = st.integers(0, 3) | st.sampled_from([-3, 10**300])
    shells = [replace(spec, phase_offset_f=data.draw(offsets)) for spec in shells]
    paths = []
    for i, text in enumerate(catalogs):
        paths.append(tmp_path_factory.getbasetemp() / f"fleet{i}.tle")
        paths[-1].write_text(text, encoding="utf-8")
    radius = data.draw(st.sampled_from([EARTH_RADIUS_KM, 6378.137]))
    if not (shells or paths):
        return
    config = SimulationConfig(shells=tuple(shells), tle_files=tuple(map(str, paths)), earth_radius_km=radius)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EccentricityWarning)
        try:
            reference = reference_build_fleet(config)
        except TleFormatError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                build_fleet(config)
            return
        fleet = build_fleet(config)
    expected = FleetArrays.of(reference)
    for name in ("a_km", "inclination_deg", "raan_deg", "phase_deg", "inclination_rad", "raan_rad", "phase_rad"):
        assert getattr(fleet, name).view(np.uint64).tolist() == getattr(expected, name).view(np.uint64).tolist(), name
    assert fleet.sat_ids == expected.sat_ids == sorted(reference)
    assert dict(fleet.items()) == reference
    if not paths:
        assert build_constellation(shells, radius) == reference


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(skip_shells, st.sampled_from([0.0, 1e9]), st.sampled_from([10.0, 60.0, 300.0]), st.data())
def test_skip_scan_matches_full_scan(shells, t0, step, data):
    topo = GridTopology(build_constellation(shells))
    times = t0 + time_grid(0.0, data.draw(st.integers(2, 60)) * step, step)
    on_grid = st.sampled_from(times.tolist())
    window = st.floats(float(times[0]) - step, float(times[-1]) + step)
    # a few satellites take most maneuvers, so that they overlap and sum past the clamp
    sats = st.sampled_from(topo.sat_ids[:3]) | st.sampled_from(topo.sat_ids)
    maneuvers = data.draw(
        st.lists(
            st.builds(
                ManeuverEvent,
                sat=sats,
                start_s=on_grid | window,
                dh_km=st.sampled_from([-6.0, -2.0, 2.0, 6.0, 9.5]) | st.floats(-12.0, 12.0),
                dwell_s=st.just(0.0) | st.sampled_from([step, 3 * step]) | st.floats(0.0, float(times[-1] - times[0])),
            ),
            max_size=10,
        ).map(lambda ms: sorted(ms, key=lambda m: m.start_s))
    )
    sampled = sorted({float(g) for _, grazing in topo.scan(times, maneuvers) for g in grazing if g >= 0.0})
    thresholds = st.floats(0.0, 2100.0)
    if sampled:
        thresholds |= st.sampled_from(sampled)
    assert_skip_scan_matches_reference(topo, times, maneuvers, data.draw(thresholds))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(skip_shells, st.sampled_from([10.0, 60.0, 300.0]), st.integers(1, 40), st.data())
def test_streamed_cdf_matches_from_samples(shells, step, n_steps, data):
    times = time_grid(0.0, n_steps * step, step)
    steps = [grazing for _, grazing in GridTopology(build_constellation(shells)).scan(times)]
    # signed zeros, which must count as 0.0 whichever fold they fall in
    for k, e, zero in data.draw(
        st.lists(st.tuples(st.integers(0, len(steps) - 1), st.integers(0, steps[0].size - 1),
                           st.sampled_from([0.0, -0.0])), max_size=6)
    ):
        steps[k][e] = zero
    fold = data.draw(st.sampled_from([1, 2, 5, 64, stats._FOLD_SAMPLES]))
    weight = data.draw(st.integers(1, 3))  # each entry stands for this many samples
    # folded as min_isl_altitude_cdf folds: steps pend until they reach the fold size or the table's
    values, counts = np.zeros(0), np.zeros(0, dtype=np.int64)
    pending = []
    for k, grazing in enumerate(steps):
        pending.append(grazing)
        if sum(map(len, pending)) >= max(fold, values.size) or k == len(steps) - 1:
            block = np.concatenate(pending)
            values, counts = stats._fold(values, counts, block, np.full(block.size, weight))
            pending = []
    streamed = CdfTable.from_counts(values, counts)
    expected = CdfTable.from_samples(np.concatenate(steps).repeat(weight))
    assert repr(streamed.points) == repr(expected.points)  # repr tells -0.0 from 0.0
    assert all(math.copysign(1.0, value) == 1.0 for value, _ in streamed.points if value == 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(skip_shells, st.sampled_from([0.0, 86400.0, 1e9]), st.sampled_from([10.0, 60.0, 300.0]),
       st.integers(1, 40), st.data())
def test_class_cdf_matches_per_link_scan(shells, t0, step, n_steps, data):
    constellation = build_constellation(shells)
    if data.draw(st.booleans()):
        # one RAAN off its plane's, so that the links at that satellite fail the class check
        sat = data.draw(st.sampled_from(sorted(constellation)))
        constellation[sat] = replace(constellation[sat], raan_deg=constellation[sat].raan_deg + 1e-6)
    t1 = t0 + n_steps * step
    steps = [grazing for _, grazing in GridTopology(constellation).scan(time_grid(t0, t1, step))]
    per_step = min_isl_altitude_cdf(constellation, t0, t1, step, per_link_min=False)
    assert repr(per_step.points) == repr(CdfTable.from_samples(np.concatenate(steps)).points)
    per_link = min_isl_altitude_cdf(constellation, t0, t1, step, per_link_min=True)
    assert repr(per_link.points) == repr(CdfTable.from_samples(np.min(steps, axis=0)).points)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(skip_shells, st.sampled_from([0.0, 86400.0, 1e6, 1e9]) | st.floats(0.0, 1e9),
       st.sampled_from([10.0, 60.0, 300.0]))
def test_class_members_lie_within_eps_of_their_representative(shells, t0, step):
    # the premise of isl-cdf's classes, with a hundredfold margin
    topo = GridTopology(build_constellation(shells))
    class_of, reps, _ = topo._symmetry_classes
    rep_of = reps.take(class_of)
    times = t0 + time_grid(0.0, 20 * step, step)
    for (_, grazing), eps in zip(topo.scan(times), topology._class_eps(topo._fleet, times).tolist()):
        assert np.abs(grazing - grazing.take(rep_of)).max() <= eps / 100


near_boundaries = st.one_of(
    # midpoints between 9-significant-digit decimals, (m + 0.5) * 10**(e + 1)
    st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(10**8, 10**9 - 1), st.integers(-14, 10)),
    st.builds(lambda k: float(f"1e{k}"), st.integers(-6, 14)),  # powers of ten
    st.just(0.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=2000)
@given(
    st.one_of(
        st.tuples(near_boundaries, st.integers(-3, 3), st.floats(-2.0, 2.0)),
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.just(0), st.just(0.0)),
    ),
    st.sampled_from([1e-8, 1.3e-8, 1e-6, 2e-4]),
    st.booleans(),
)
def test_prescreen_flags_every_value_near_a_rounding_boundary(case, eps, negative):
    # a few ulps and up to two eps off the base, then perhaps negated; 0.0 gives values below eps and -0.0
    v, ulps, in_eps = case
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, math.copysign(math.inf, ulps)))
    v = (v + in_eps * eps) * (-1.0 if negative else 1.0)
    flagged = bool(stats._near_rounding_boundary(np.array([v]), eps)[0])
    assert flagged or canonical_number(v - eps) == canonical_number(v + eps)


def rounding_mix(kind, rng, n):
    """n values of one of the mixes the vectorized rounding must get right."""
    if kind == "uniform":
        return rng.uniform(-100.0, 2000.0, n)
    if kind == "log-uniform":
        return np.exp(rng.uniform(-60.0, 60.0, n)) * rng.choice([-1.0, 1.0], n)
    if kind == "79-81 km":
        return rng.uniform(79.0, 81.0, n)
    if kind == "3 decimals":
        return rng.integers(-10**6, 10**7, n) / 1000.0
    if kind == "0.1 s grid":
        return rng.integers(0, 10**6, n) * 0.1
    if kind == "midpoints":  # (m + 0.5) * 10**(e + 1), and their neighbours
        mid = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**8, 10**9, n), rng.integers(-24, 25, n))]
        return np.nextafter(mid, rng.choice([-np.inf, np.inf], n)) if rng.random() < 0.5 else np.array(mid)
    if kind == "powers of ten":
        tens = np.array([float(f"1e{k}") for k in rng.integers(-30, 40, n)])
        return np.nextafter(tens, rng.choice([-np.inf, 0.0, np.inf], n))
    if kind == "subnormal":
        return rng.uniform(-1.0, 1.0, n) * 2.2250738585072014e-308
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)  # mostly |q| > 22


odd_values = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-14, 1e31, 9.999999995, 0.5e-3]),
    st.builds(lambda m, e: float(f"{m}5e{e}"), st.integers(10**8, 10**9 - 1), st.integers(-30, 30)),
)


@FUZZ
@given(
    st.sampled_from(["uniform", "log-uniform", "79-81 km", "3 decimals", "0.1 s grid", "midpoints",
                     "powers of ten", "subnormal", "wide"]),
    st.integers(0, 2**32 - 1),
    st.lists(odd_values, max_size=16),
    st.sampled_from([7, stats._ROUND_VALUES]),
)
def test_vectorized_rounding_equals_canonical_number(kind, seed, odd, slice_values):
    # bit for bit, with -0.0 read as 0.0 as the CDF table reads it, across slice boundaries
    x = np.concatenate([rounding_mix(kind, np.random.default_rng(seed), 64), odd])
    with mock.patch.object(stats, "_ROUND_VALUES", slice_values):
        rounded = stats._canonical(x)
    assert repr(rounded.tolist()) == repr([canonical_number(v) + 0.0 for v in x.tolist()])


# ---------------------------------------------------------------- ground geometry

ground_shells = st.lists(
    st.builds(
        ShellSpec,
        altitude_km=st.sampled_from([340.0, 550.0, 1200.0]) | st.floats(200.0, 2000.0),
        inclination_deg=st.sampled_from([0.0, 53.0, 90.0, 97.6, 140.0]),  # equatorial to retrograde
        planes=st.integers(1, 6),  # 1xN and 2xN shells have no links
        sats_per_plane=st.integers(1, 10),
        phase_offset_f=st.integers(0, 2),
    ),
    min_size=1,
    max_size=2,
)
stations = st.builds(
    GroundStation,
    id=st.just("gs"),
    latitude_deg=st.sampled_from([0.0, 52.5, -89.0]) | st.floats(-90.0, 90.0),
    longitude_deg=st.floats(-180.0, 180.0),
    min_elevation_deg=st.sampled_from([0.0, 25.0, 85.0]) | st.floats(0.0, 85.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ground_shells, stations, st.data())
def test_ground_geometry_matches_scalar_references(shells, gs, data):
    constellation = build_constellation(shells)
    step = data.draw(st.sampled_from([10.0, 30.0, 60.0]))
    t0 = data.draw(st.sampled_from([0.0, 250.0, 1e6]))
    # most spans end off the grid, so the last step is clipped
    t1 = t0 + data.draw(st.floats(2.0, 150.0)) * step
    windows = visibility_windows(gs, constellation, t0, t1, step)
    assert windows == reference_visibility_windows(gs, constellation, t0, t1, step)
    if not windows:
        return
    step_s = data.draw(st.sampled_from([1.0, 5.0, 7.5]))
    cap = data.draw(st.sampled_from([1, 2, 3, 5, topology._PAIRS_PER_BATCH]))
    with mock.patch.object(topology, "_PAIRS_PER_BATCH", cap):
        schedule = handover_schedule(windows, gs, constellation, step_s=step_s)
    assert schedule == reference_handover_schedule(windows, gs, constellation, step_s=step_s)


pooled_events = st.builds(
    pooled_event,
    kind=st.sampled_from(sorted(KIND_PARAM_KEYS)),
    t=st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 10.0),
    a=st.integers(0, len(SATS) - 1),
    b=st.integers(0, 2),
    value=st.sampled_from([0.0, -0.0, 1.5]),
)
sorted_sources = st.lists(
    st.lists(pooled_events, max_size=8).map(lambda s: sorted(s, key=reference_sort_key)),
    max_size=5,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(sorted_sources)
def test_merge_traces_matches_reference(sources):
    merged = list(merge_traces(sources))
    expected = reference_merge(sources)
    assert merged == expected
    assert [serialize_event(e) for e in merged] == [serialize_event(e) for e in expected]
