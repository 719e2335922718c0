"""The range rule: every numeric field and model argument rejects NaN, naming it.

Fields are found through the dataclasses' type hints, so a float field
added later is covered without editing this file. A lint over the
package's source keeps __post_init__ checks in the NaN-proof form, and
one over its signatures keeps every earth_radius_km parameter checked.
Every number field also rejects a bool, which Python treats as an int.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path
from typing import Optional, get_type_hints

import pytest

import leofault
from leofault import (
    CircularElements,
    ConfigError,
    DoseProfile,
    FaultModelConfig,
    GridTopology,
    GroundStation,
    SatelliteId,
    ShellSpec,
    SimulationConfig,
    TleRecord,
    VisibilityWindow,
    build_constellation,
    default_dose_profile,
    dose_rate,
    grazing_altitude,
    ground_station_eci,
    handover_schedule,
    min_isl_altitude_cdf,
    orbital_period,
    rain_multiplier,
    slant_range_km,
    tid_survival,
    visibility_windows,
)
from leofault.constants import _check_range
from leofault.orbital import time_grid

NAN = math.nan
SHELL = ShellSpec(550.0, 53.0, 3, 3)
VALID = [
    SimulationConfig(shells=(SHELL,)),
    FaultModelConfig(),
    SHELL,
    GroundStation("berlin", 52.5, 13.4),
    CircularElements(6921.0, 53.0, 10.0, 20.0),
    TleRecord(
        catalog_number=25544,
        epoch_year=2024,
        epoch_day=1.5,
        inclination_deg=51.64,
        raan_deg=10.0,
        eccentricity=0.0001,
        arg_perigee_deg=30.0,
        mean_anomaly_deg=40.0,
        mean_motion_rev_per_day=15.5,
    ),
]
FLOAT_FIELDS = [
    (instance, f.name)
    for instance in VALID
    for f in dataclasses.fields(instance)
    if get_type_hints(type(instance))[f.name] in (float, Optional[float])
]


def test_every_float_field_is_found():
    assert len(FLOAT_FIELDS) == 38


@pytest.mark.parametrize(
    "instance, name", FLOAT_FIELDS, ids=[f"{type(i).__name__}.{n}" for i, n in FLOAT_FIELDS]
)
def test_nan_field_rejected_with_its_name(instance, name):
    error = ConfigError if isinstance(instance, SimulationConfig) else ValueError
    with pytest.raises(error, match=re.escape(name)):
        dataclasses.replace(instance, **{name: NAN})


NUMBER_FIELDS = FLOAT_FIELDS + [
    (instance, f.name)
    for instance in VALID
    for f in dataclasses.fields(instance)
    if get_type_hints(type(instance))[f.name] is int
]


@pytest.mark.parametrize(
    "instance, name", NUMBER_FIELDS, ids=[f"{type(i).__name__}.{n}" for i, n in NUMBER_FIELDS]
)
@pytest.mark.parametrize("value", [True, False])
def test_bool_field_rejected_with_its_name(instance, name, value):
    # bool is an int, and compares as 0 or 1 inside many ranges
    error = ConfigError if isinstance(instance, SimulationConfig) else ValueError
    with pytest.raises(error, match=f"^{name} must be (a number|an integer), got {value}$"):
        dataclasses.replace(instance, **{name: value})


NOT_NUMBERS = [(instance, name, "1") for instance, name in NUMBER_FIELDS] + [
    (instance, name, None)
    for instance, name in NUMBER_FIELDS
    if get_type_hints(type(instance))[name] is not Optional[float]
]


@pytest.mark.parametrize(
    "instance, name, value",
    NOT_NUMBERS,
    ids=[f"{type(i).__name__}.{n}-{v!r}" for i, n, v in NOT_NUMBERS],
)
def test_non_number_field_rejected_with_its_name(instance, name, value):
    # text and None do not compare with a number: the range rule names them, not a bare TypeError
    error = ConfigError if isinstance(instance, SimulationConfig) else ValueError
    with pytest.raises(error, match=f"^{name} must be (a number|an integer), got {re.escape(repr(value))}$"):
        dataclasses.replace(instance, **{name: value})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DoseProfile(((0.0, True),)), "anchor dose must be a number, got True"),
        (lambda: rain_multiplier(True), "precip_mm_h must be a number, got True"),
    ],
    ids=["dose-anchor", "precipitation"],
)
def test_bool_argument_rejected_with_its_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("anchors", [((0.0, NAN),), ((NAN, 1.0),), ((0.0, 0.0), (NAN, 1.0))])
def test_nan_dose_anchor_rejected(anchors):
    with pytest.raises(ValueError, match="anchor"):
        DoseProfile(anchors=anchors)


PROFILE = default_dose_profile()
ARGUMENTS = [
    (orbital_period, (NAN,), "altitude_km"),
    (dose_rate, (PROFILE, NAN, 5.0), "inclination_deg"),
    (dose_rate, (PROFILE, 73.0, NAN), "mission_years"),
    (tid_survival, (PROFILE, NAN, 50.0, 5.0), "inclination_deg"),
    (tid_survival, (PROFILE, 73.0, NAN, 5.0), "limit_krad"),
    (tid_survival, (PROFILE, 73.0, 50.0, NAN), "mission_years"),
    (rain_multiplier, (NAN,), "precip_mm_h"),
    (slant_range_km, (NAN, 30.0), "altitude_km"),
    (slant_range_km, (550.0, NAN), "elevation_deg"),
    (time_grid, (0.0, 10.0, NAN), "step_s"),
    (time_grid, (NAN, 10.0, 1.0), "t0_s"),
    (time_grid, (0.0, NAN, 1.0), "t1_s"),
]


@pytest.mark.parametrize("func, args, name", ARGUMENTS, ids=[f"{f.__name__}.{n}" for f, _, n in ARGUMENTS])
def test_nan_argument_rejected_with_its_name(func, args, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        func(*args)


@pytest.mark.parametrize("func, args, name", ARGUMENTS, ids=[f"{f.__name__}.{n}" for f, _, n in ARGUMENTS])
def test_text_argument_rejected_with_its_name(func, args, name):
    args = tuple("1" if isinstance(arg, float) and math.isnan(arg) else arg for arg in args)
    with pytest.raises(ValueError, match=f"^{name} must be a number, got '1'$"):
        func(*args)


@pytest.mark.parametrize("altitude_km", [-7000.0, -20000.0, -100.0])
def test_slant_range_below_the_earth_rejected(altitude_km):
    # below the Earth's centre: -7000 km used to raise a bare math domain
    # error, and -20000 km to return 9276.7 km; below the surface, -100 km
    # raised one at 0 and -10 deg and gave -205 km at 30 deg
    for elevation_deg in (0.0, 30.0, -10.0):
        with pytest.raises(ValueError, match="^altitude_km must be >= 0, "):
            slant_range_km(altitude_km, elevation_deg)


CONSTELLATION = build_constellation([SHELL])
BERLIN = VALID[3]
RADIUS_TAKERS = {
    build_constellation: lambda r: build_constellation([SHELL], r),
    GridTopology: lambda r: GridTopology(CONSTELLATION, r),
    grazing_altitude: lambda r: grazing_altitude([7000.0, 0.0, 0.0], [0.0, 7000.0, 0.0], r),
    ground_station_eci: lambda r: ground_station_eci(BERLIN, 0.0, r),
    visibility_windows: lambda r: visibility_windows(BERLIN, CONSTELLATION, 0.0, 60.0, 10.0, r),
    handover_schedule: lambda r: handover_schedule(
        [VisibilityWindow("berlin", SatelliteId(0, 0, 0), 0.0, 10.0, 30.0)], BERLIN, CONSTELLATION, 1.0, r
    ),
    min_isl_altitude_cdf: lambda r: min_isl_altitude_cdf(CONSTELLATION, 0.0, 60.0, 10.0, earth_radius_km=r),
    SimulationConfig: lambda r: SimulationConfig(shells=(SHELL,), earth_radius_km=r),
}


@pytest.mark.parametrize("radius", [NAN, 0.0, -1.0, math.inf])
@pytest.mark.parametrize("func", RADIUS_TAKERS, ids=[f.__name__ for f in RADIUS_TAKERS])
def test_bad_earth_radius_rejected(func, radius):
    error = ConfigError if func is SimulationConfig else ValueError
    with pytest.raises(error, match=f"^earth_radius_km must be in \\(0, inf\\), got {radius}$"):
        RADIUS_TAKERS[func](radius)


@pytest.mark.parametrize("radius", [NAN, 0.0, -1.0, math.inf])
def test_earth_radius_checked_where_it_enters(radius):
    # before the step is checked, and with no window to schedule
    with pytest.raises(ValueError, match="^earth_radius_km must be "):
        visibility_windows(BERLIN, CONSTELLATION, 0.0, 60.0, NAN, radius)
    with pytest.raises(ValueError, match="^earth_radius_km must be "):
        handover_schedule([], BERLIN, CONSTELLATION, 1.0, radius)


def test_model_lookups_take_no_radius():
    with pytest.raises(TypeError):
        orbital_period(550.0, earth_radius_km=6371.0)
    with pytest.raises(TypeError):
        slant_range_km(550.0, 30.0, earth_radius_km=6371.0)


def test_every_radius_parameter_is_checked():
    # a public callable of any leofault module that takes earth_radius_km
    # must be in RADIUS_TAKERS, so its check is tested above
    takers = set()
    for info in pkgutil.iter_modules(leofault.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"leofault.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            try:
                parameters = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # exception classes have no signature to read
                continue
            if "earth_radius_km" in parameters:
                takers.add(obj)
    assert takers == set(RADIUS_TAKERS)


@pytest.mark.parametrize("angle", ["inclination_deg", "raan_deg", "phase_deg"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_infinite_circular_angle_rejected(angle, value):
    # raan and phase are taken modulo 360, which turns +-inf into NaN
    with pytest.raises(ValueError, match=f"^{angle} must be in \\(-inf, inf\\), got {value}$"):
        dataclasses.replace(VALID[4], **{angle: value})


@pytest.mark.parametrize(
    "low, high, ends, inside, outside, message",
    [
        (0.0, math.inf, "[]", [0, 1e308, math.inf], [-1e-300, NAN], "x must be >= 0, got "),
        (0.0, math.inf, "(]", [5e-324, math.inf], [0.0, -0.0, NAN], "x must be > 0, got "),
        (0.0, math.inf, "()", [5e-324, 1e308], [0.0, math.inf, NAN], "x must be in (0, inf), got "),
        (1e-8, 360.0, "[)", [1e-8, 359.99], [360.0, 0.0, NAN], "x must be in [1e-08, 360), got "),
        (-90.0, 90.5, "[]", [-90.0, 90.5], [90.6, -math.inf, NAN], "x must be in [-90, 90.5], got "),
        (-math.inf, math.inf, "[]", [-math.inf, math.inf], [NAN], "x must be in [-inf, inf], got "),
        (0, 2**64, "[)", [0, 2**64 - 1], [2**64, -1], "x must be in [0, 18446744073709551616), got "),
    ],
)
def test_range_rule_ends_and_message(low, high, ends, inside, outside, message):
    for value in inside:
        _check_range("x", value, low, high, ends)
    for value in outside:
        with pytest.raises(ConfigError, match=f"^{re.escape(message + str(value))}$"):
            _check_range("x", value, low, high, ends, ConfigError)
    for value in (True, False):
        with pytest.raises(ConfigError, match=f"^x must be a number, got {value}$"):
            _check_range("x", value, low, high, ends, ConfigError)


ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _bare_ordering(test: ast.expr) -> bool:
    """An ordering comparison not under `not`: it is False for NaN, so NaN passes the check."""
    if isinstance(test, ast.Compare):
        return any(isinstance(op, ORDERING) for op in test.ops)
    if isinstance(test, ast.BoolOp):
        return any(_bare_ordering(value) for value in test.values)
    return False


def test_post_init_checks_reject_nan():
    package = Path(__file__).resolve().parent.parent / "src" / "leofault"
    found = []
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.If)
                    and _bare_ordering(node.test)
                    and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
                ):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.test)}")
    # write `if not value >= low:` or call constants._check_range instead
    assert found == []


def test_private_attributes_stay_in_their_module():
    # topology.py is the link-state engine and the one module that reaches into GridTopology
    # and FleetArrays; elsewhere only self's and cls's own private attributes are used, and
    # namedtuple's _make, which is public API despite its underscore
    package = Path(__file__).resolve().parent.parent / "src" / "leofault"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "topology.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and node.attr != "_make"
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_number_rules_stay_in_trace():
    # trace.py owns the rules for a row's time and params: its renderer checks every written row,
    # so no source applies them, and topology.py needs nothing from trace.py
    package = Path(__file__).resolve().parent.parent / "src" / "leofault"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if path.name != "trace.py" and name in ("_check_numbers", "_check_floats"):
                found.append(f"{path.name}:{node.lineno}: {name}")
            if path.name == "topology.py" and isinstance(node, ast.ImportFrom) and node.module == "trace":
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


TABLE_READERS = {("faults.py", "read_precipitation_csv"), ("stats.py", "read_cdf_csv")}


def test_one_table_grammar():
    # constants._read_pairs is the one reader of the number-table CSVs: no module imports csv,
    # and each table reader calls it and splits no text and opens no file of its own
    package = Path(__file__).resolve().parent.parent / "src" / "leofault"
    found, callers = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names) or (
                isinstance(node, ast.ImportFrom) and node.module == "csv"
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if not (isinstance(node, ast.FunctionDef) and (path.name, node.name) in TABLE_READERS):
                continue
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "_read_pairs":
                    callers.add((path.name, node.name))
                elif name in ("open", "read_text", "split", "splitlines", "strip"):
                    found.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert found == []
    assert callers == TABLE_READERS
