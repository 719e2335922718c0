"""Property-based fuzzing of the text and document input boundaries.

Every input to parse_event, config_from_dict and parse_tle_text must
either raise the module's error type or return a valid object; an
accepted TLE record must also convert to finite circular elements. Most
inputs are a valid document with one or two parts replaced by arbitrary
JSON (or a TLE with one column span overwritten), so a type or range
hole in one field is not hidden by an error elsewhere. Runs are
derandomized: a failure reproduces on every run.
"""

import copy
import json
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leofault import (
    ConfigError,
    DeviceTarget,
    EccentricityWarning,
    FaultEvent,
    GroundLinkTarget,
    IslTarget,
    SatelliteId,
    SatelliteTarget,
    TleFormatError,
    TraceParseError,
    checksum,
    config_from_dict,
    config_to_dict,
    parse_event,
    parse_tle_text,
    serialize_event,
    tle_to_elements,
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
            "precipitation_csv": "rain.csv",
        }
    )
)


OPTIONAL_KEYS = {"precipitation_mm_h", "precipitation_csv"}


def assert_shaped_like(value, base, key=None):
    """value has base's keys and leaf types; a float field may hold an int."""
    if value is None and key in OPTIONAL_KEYS:
        return
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
    st.sampled_from(["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1", "0", "400.0", "1e-300", "1_5"]),
    st.text(alphabet=" 0123456789.+-eEnaifINAF_x", max_size=12),
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
