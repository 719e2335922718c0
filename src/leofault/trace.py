"""Canonical fault events, deterministic merging, and JSON-lines traces.

A trace file starts with the header line {"schema": "leofault/1"} followed
by one event object per line with keys t, kind, target, params. Numbers
are canonicalized to at most 9 significant digits on serialization; an
event whose numbers are already canonical round-trips exactly.

Targets order by their fields (KIND_TARGET_TYPE fixes a kind's target
type), so events order by (t, kind, target, params), and so do rows,
(t, kind, *target fields, *params in key order), as tuples; a kind's one
renderer, generated from its template, fills it from a row. Ids are checked where they
enter; this module owns the number rules, which an event applies to its
time and params when built, a renderer to every row it writes and the
reader to every line it reads, so the writer cannot emit what the reader
rejects. The reader tries the template first: a regular expression built
from it matches the writer's own lines, and a match proves the kind,
target type, param keys and ids, so a matched line's event is built
directly once its numbers pass and an edge's ends differ. Any other
line, and any that fails a check, goes through parse_event, which owns
every error message and offset; a JSON object that repeats a key is
rejected. iter_trace streams events in constant memory; read_trace holds
them all in a list.
"""

from __future__ import annotations

import errno
import functools
import heapq
import json
from math import inf, isfinite
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from .constants import _unique_keys
from .orbital import SatelliteId

SCHEMA = "leofault/1"


class TraceParseError(ValueError):
    """Malformed trace content; byte_offset locates the problem."""

    def __init__(self, message: str, byte_offset: int = 0):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def _check_sat(sat, name: str) -> None:
    # bool is an int, hence type() rather than isinstance()
    ints = isinstance(sat, tuple) and len(sat) == 3 and type(sat[0]) is type(sat[1]) is type(sat[2]) is int
    if not (ints and sat[0] >= 0 and sat[1] >= 0 and sat[2] >= 0):
        raise ValueError(f"{name} must be three non-negative integers, got {sat!r}")


@dataclass(frozen=True, order=True, slots=True)
class DeviceTarget:
    sat: SatelliteId
    device: int

    def __post_init__(self) -> None:
        _check_sat(self.sat, "sat")
        if type(self.device) is not int or not self.device >= 0:
            raise ValueError(f"device must be a non-negative integer, got {self.device!r}")


@dataclass(frozen=True, order=True, slots=True)
class SatelliteTarget:
    sat: SatelliteId

    def __post_init__(self) -> None:
        _check_sat(self.sat, "sat")


@dataclass(frozen=True, order=True, slots=True)
class IslTarget:
    a: SatelliteId
    b: SatelliteId

    def __post_init__(self) -> None:
        _check_sat(self.a, "a")
        _check_sat(self.b, "b")
        if self.a == self.b:
            raise ValueError("isl endpoints must differ")
        if self.b < self.a:  # undirected edge, stored in canonical order
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)


@dataclass(frozen=True, order=True, slots=True)
class GroundLinkTarget:
    gs_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.gs_id, str):
            raise ValueError(f"gs_id must be a string, got {self.gs_id!r}")


Target = Union[DeviceTarget, SatelliteTarget, IslTarget, GroundLinkTarget]

KIND_TARGET_TYPE: Dict[str, type] = {
    "device_reboot": DeviceTarget,
    "device_permanent_failure": DeviceTarget,
    "gs_link_degraded": GroundLinkTarget,
    "handover_spike": GroundLinkTarget,
    "maneuver_start": SatelliteTarget,
    "maneuver_end": SatelliteTarget,
    "isl_down": IslTarget,
    "isl_up": IslTarget,
}

KIND_PARAM_KEYS: Dict[str, frozenset] = {
    "device_reboot": frozenset({"downtime_s"}),
    "device_permanent_failure": frozenset(),
    "gs_link_degraded": frozenset({"throughput_multiplier", "latency_factor"}),
    "handover_spike": frozenset({"loss_rate", "duration_s"}),
    "maneuver_start": frozenset({"dh_km", "dwell_s"}),
    "maneuver_end": frozenset({"dh_km"}),
    "isl_down": frozenset({"grazing_km"}),
    "isl_up": frozenset({"grazing_km"}),
}


def canonical_number(x: float) -> float:
    """Nearest float with a decimal representation of <= 9 significant digits."""
    return float(f"{float(x):.9g}")


def _finite(value) -> bool:  # an int or float, not a bool, that converts to a finite float
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_numbers(kind: str, t_s, keys: Iterable[str], values: Iterable) -> None:
    """The number rules: ValueError names the time unless it is a finite number >= 0, or the
    first param value, in key order, that is not a finite number. Finite floats skip _finite."""
    if not (type(t_s) is float and 0.0 <= t_s < inf or _finite(t_s) and t_s >= 0.0):
        raise ValueError(f"t_s must be a finite number >= 0, got {t_s!r}")
    for key, value in zip(keys, values):
        if not (type(value) is float and isfinite(value) or _finite(value)):
            raise ValueError(f"{kind} param {key} must be a finite number, got {value!r}")


def _check_floats(kind: str, t_s: float, keys: Iterable[str], values: Iterable[float]) -> None:
    """_check_numbers for a float time and float values, with one test first: a sum of floats is
    finite only if every term is. What fails the test, finite values whose sum overflows included,
    goes through _check_numbers."""
    if not (0.0 <= t_s < inf and isfinite(sum(values))):
        _check_numbers(kind, t_s, keys, values)


def _check_param_keys(kind: str, params: Mapping[str, float]) -> None:
    if params.keys() != KIND_PARAM_KEYS[kind]:
        raise ValueError(f"{kind} params must be exactly {sorted(KIND_PARAM_KEYS[kind])}, got {sorted(params)}")


def _check_event(t_s: float, kind: str, target: Target, params: Mapping[str, float]) -> None:
    try:
        expected_type = KIND_TARGET_TYPE[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, such as a JSON array
        raise ValueError(f"unknown event kind {kind!r}") from None
    if not isinstance(target, expected_type):
        raise ValueError(f"{kind} events target a {expected_type.__name__}, got {type(target).__name__}")
    _check_param_keys(kind, params)
    _check_numbers(kind, t_s, params.keys(), params.values())


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timestamped fault occurrence."""

    t_s: float
    kind: str
    target: Target
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_event(self.t_s, self.kind, self.target, self.params)

    @property
    def sort_key(self) -> tuple:
        return (self.t_s, self.kind, self.target, tuple(sorted(self.params.items())))

    def canonical(self) -> "FaultEvent":
        """Copy with all numbers rounded to the 9-significant-digit wire form."""
        params = {k: canonical_number(v) for k, v in self.params.items()}
        return FaultEvent(canonical_number(self.t_s), self.kind, self.target, params)


def _keyed(idx: int, trace: Iterable[FaultEvent]) -> Iterator[Tuple[tuple, FaultEvent]]:
    previous: tuple = ()  # sorts before every key
    for event in trace:
        key = event.sort_key
        if key < previous:
            raise ValueError(f"input trace {idx} is not time-sorted by sort_key at t={event.t_s}")
        previous = key
        yield key, event


def merge_traces(traces: Sequence[Iterable[FaultEvent]]) -> Iterator[FaultEvent]:
    """Lazily heap-merge event sources into one deterministic ordering.

    Each source must already be sorted by sort_key, not just by time; one
    that is not raises ValueError naming its index once that is consumed.
    Ties in time are broken by (kind, target), then params, so the result
    does not depend on the source order; equal keys keep input order.
    """
    keyed = (_keyed(idx, trace) for idx, trace in enumerate(traces))
    return map(itemgetter(1), heapq.merge(*keyed, key=itemgetter(0)))


# wire tag -> target type and the keys of its fields, in field order
_TARGET_WIRE = {
    "device": (DeviceTarget, ("sat", "device")),
    "satellite": (SatelliteTarget, ("sat",)),
    "isl": (IslTarget, ("a", "b")),
    "ground_link": (GroundLinkTarget, ("gs",)),
}
_TARGET_KEYS = {tag: frozenset(("type", *keys)) for tag, (_, keys) in _TARGET_WIRE.items()}
_EVENT_KEYS = frozenset(("t", "kind", "target", "params"))


def _key_error(obj: dict, keys: frozenset, what: str, offset: int) -> TraceParseError:
    key = min(obj.keys() ^ keys)
    return TraceParseError(f"{'unknown' if key in obj else 'missing'} key {key!r} in {what}", offset)


def _target_from_obj(obj, offset: int) -> Target:
    if not isinstance(obj, dict):
        raise TraceParseError(f"target must be an object, got {obj!r}", offset)
    tag = obj.get("type")
    if not isinstance(tag, str) or tag not in _TARGET_WIRE:
        raise TraceParseError(f"unknown target type {tag!r}", offset)
    if obj.keys() != _TARGET_KEYS[tag]:
        raise _key_error(obj, _TARGET_KEYS[tag], f"{tag} target", offset)
    target_type, keys = _TARGET_WIRE[tag]
    args = []
    for key in keys:  # arrays of three become satellite ids; the target type checks every value
        value = obj[key]
        args.append(SatelliteId._make(value) if type(value) is list and len(value) == 3 else value)
    return target_type(*args)


# a station id's JSON string: a trace writes few ids on many lines
_json_string = functools.lru_cache(maxsize=1024)(json.dumps)


def _proven(*classes) -> List[Callable]:
    """Builders of frozen slotted dataclasses from values already proven valid: each fills its
    class's slots through their member descriptors, in field order, and runs no __post_init__.
    Their code is generated, from one source, as dataclass generates __init__: a loop over the
    setters took about 1.7x as long."""
    scope, lines = {"new": object.__new__}, []
    for i, cls in enumerate(classes):
        names = cls.__match_args__
        scope.update({f"cls{i}": cls}, **{f"set{i}_{name}": getattr(cls, name).__set__ for name in names})
        lines += [f"def build{i}({', '.join(names)}):", f"    obj = new(cls{i})", *(f"    set{i}_{n}(obj, {n})" for n in names), "    return obj"]
    exec("\n".join(lines), scope)
    return [scope[f"build{i}"] for i in range(len(classes))]


_device, _satellite, _isl, _event = _proven(DeviceTarget, SatelliteTarget, IslTarget, FaultEvent)
_sat_id = functools.partial(tuple.__new__, SatelliteId)  # from a tuple of three ints
# a station's target: a trace names few stations on many lines
_station = functools.lru_cache(maxsize=1024)(GroundLinkTarget)


def _isl_from(a: SatelliteId, b: SatelliteId) -> IslTarget:
    """A matched edge: built directly when in canonical order, else by IslTarget, which swaps or rejects it."""
    return _isl(a, b) if a < b else IslTarget(a, b)


# target type -> its JSON template ("%d" an integer, "%s" a JSON string),
# the f-string fields of its values in a row's target fields, and its
# inverse from a matched line's groups, of which group 0 is the time: the
# match proves the ids non-negative integers and the station id a string,
# so the inverse runs no check but the one a match cannot prove, that an
# edge's ends differ
_TARGET_FORMS = {
    DeviceTarget: (
        '{"type":"device","sat":[%d,%d,%d],"device":%d}',
        ("row[2][0]", "row[2][1]", "row[2][2]", "row[3]"),
        lambda f: _device(_sat_id((int(f[1]), int(f[2]), int(f[3]))), int(f[4])),
    ),
    SatelliteTarget: (
        '{"type":"satellite","sat":[%d,%d,%d]}',
        ("row[2][0]", "row[2][1]", "row[2][2]"),
        lambda f: _satellite(_sat_id((int(f[1]), int(f[2]), int(f[3])))),
    ),
    IslTarget: (
        '{"type":"isl","a":[%d,%d,%d],"b":[%d,%d,%d]}',
        ("row[2][0]", "row[2][1]", "row[2][2]", "row[3][0]", "row[3][1]", "row[3][2]"),
        lambda f: _isl_from(_sat_id((int(f[1]), int(f[2]), int(f[3]))), _sat_id((int(f[4]), int(f[5]), int(f[6])))),
    ),
    GroundLinkTarget: (
        '{"type":"ground_link","gs":%s}',
        ("_json_string(row[2])",),
        lambda f: _station(f[1]),
    ),
}


def _number_text(x) -> str:
    """repr(canonical_number(x)), a number's text on the wire. The %.9g text is repr's own when it
    is positional with a point: it then lies in [1e-4, 1e9), where repr is positional too, and two
    decimals of at most 9 digits never round to one double, so repr prints the same digits. Any
    other text goes through its float, as canonical_number does."""
    s = f"{float(x):.9g}"
    return s if "." in s and "e" not in s else repr(float(s))


def _line_form(kind: str) -> tuple:
    """kind's template ("%r" a float, written by repr as json does), target type, params' start in a row,
    param keys, and the source of make_<kind>(kind, keys), the factory of its renderer.

    The renderer checks a row's time and param values through this module's _check_numbers, then
    returns the template as one f-string: ids in decimal, a station id through
    _json_string and each number through _number_text. Each number column keeps one (value, text)
    slot, one tuple replaced whole, so the text is made once while rows pass the same float object
    (a source's repeated duration, an ISL step's time); a thread sharing the renderer never pairs
    a value with another's text, and identity, not equality, keeps 0.0 and -0.0 apart."""
    target_type, keys = KIND_TARGET_TYPE[kind], sorted(KIND_PARAM_KEYS[kind])
    target, target_fields = _TARGET_FORMS[target_type][:2]
    params = ",".join(f'"{key}":%r' for key in keys)
    template = f'{{"t":%r,"kind":"{kind}","target":{target},"params":{{{params}}}}}'
    end = 2 + len(target_type.__match_args__)
    numbers = [0, *range(end, end + len(keys))]  # the row indices of the time and the params
    slots = [f"m{j}" for j in range(len(numbers))]
    fields, texts = iter(target_fields), iter(f"x{j}" for j in range(len(numbers)))

    def field(m: re.Match) -> str:  # a token's f-string field, or a brace doubled
        return m[0] * 2 if m[0] in "{}" else "{%s}" % next(texts if m[0] == "%r" else fields)

    body = re.sub(r"%[rds]|[{}]", field, template)
    source = [
        f"def make_{kind}(kind, keys):",
        f"    {' = '.join(slots)} = None, None  # no value: _check_numbers rejects None",
        "    def render(row):",
        f"        nonlocal {', '.join(slots)}",
        f"        _check_numbers(kind, row[0], keys, row[{end}:])",
    ]
    for j, index in enumerate(numbers):
        source += [
            f"        v, m = row[{index}], m{j}",
            "        if m[0] is not v:",
            f"            m = m{j} = v, _number_text(v)",
            f"        x{j} = m[1]",
        ]
    source += [f"        return f{body!r}", "    return render"]
    return template, target_type, end, keys, "\n".join(source)


def _line_forms() -> dict:
    """kind -> its line form, the renderer in place of its factory's source: one exec makes every
    factory, in this module's globals, where a renderer finds _check_numbers."""
    forms, scope = {kind: _line_form(kind) for kind in KIND_TARGET_TYPE}, {}
    exec("\n".join(form[4] for form in forms.values()), globals(), scope)
    return {kind: (*form[:4], scope[f"make_{kind}"](kind, form[3])) for kind, form in forms.items()}


# kind -> its line form: a row is (t, kind, *target fields, *params in key order)
_LINE_FORMS = _line_forms()


def _event_from_row(row: tuple) -> FaultEvent:
    """The checked event of a row."""
    _, target_type, end, keys, _ = _LINE_FORMS[row[1]]
    return FaultEvent(row[0], row[1], target_type(*row[2:end]), dict(zip(keys, row[end:])))


def _row_from_event(event: FaultEvent) -> tuple:
    """An event's row. Only the keys of params, a mutable dict, are checked: the renderer checks numbers."""
    kind, target, params = event.kind, event.target, event.params
    _check_param_keys(kind, params)
    return (event.t_s, kind, *[getattr(target, f) for f in target.__match_args__], *[params[k] for k in _LINE_FORMS[kind][3]])


def serialize_event(event: FaultEvent) -> str:
    """One-line JSON rendering of an event (canonical numbers, sorted keys), from its row."""
    return _LINE_FORMS[event.kind][4](_row_from_event(event))


# JSON number tokens that float() reads as json does: a fraction or an
# exponent is required, since json reads an integer such as -0 through int()
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
# "%s" matches only a string without escapes; json.dumps escapes every non-ASCII character
_TOKENS = {"%r": _FLOAT, "%d": "(0|[1-9][0-9]*)", "%s": r'"([^"\\\x00-\x1f]*)"'}


@functools.cache
def _template_reader() -> Callable[[str], Optional[FaultEvent]]:
    """Reader of the writer's own line shapes, compiled on the first read.

    A line that matches its kind's template has that kind, target type
    and param keys, and non-negative integer ids; its event is built
    directly after the checks a match cannot prove: the number rules and
    an edge's distinct ends. Any other line, or a failed check, gives None.
    """
    # kind -> its line's fullmatch, the kind (one string for all its events),
    # its target from the groups, the first param group and the param keys
    forms = {}
    for kind, (template, _, _, keys, _) in _LINE_FORMS.items():
        pattern = re.compile(re.sub("%[rds]", lambda m: _TOKENS[m[0]], re.escape(template)))
        target_from = _TARGET_FORMS[KIND_TARGET_TYPE[kind]][2]
        forms[kind] = (pattern.fullmatch, kind, target_from, pattern.groups - len(keys), keys)

    def read(line: str) -> Optional[FaultEvent]:
        start = line.find('"kind":"') + 8
        form = forms.get(line[start : line.find('"', start)])
        match = form and form[0](line)
        if not match:
            return None
        _, kind, target_from, first, keys = form
        f = match.groups()  # the time, the target's fields, then the params
        try:
            t_s, params = float(f[0]), dict(zip(keys, map(float, f[first:])))
            _check_floats(kind, t_s, keys, params.values())
            return _event(t_s, kind, target_from(f), params)
        except ValueError:  # a rejected number, an id beyond int()'s digit limit or equal ends of an edge
            return None  # parse_event raises the error

    return read


def _decode(line: str, what: str, offset: int):
    try:
        return json.loads(line, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:  # exc.pos counts characters, not bytes
        raise TraceParseError(f"invalid {what}: {exc.msg}", offset + len(line[: exc.pos].encode())) from None
    except (ValueError, RecursionError) as exc:  # repeated keys, over-long integers, deep nesting
        raise TraceParseError(f"invalid {what}: {exc}", offset) from None


def parse_event(line: str, byte_offset: int = 0) -> FaultEvent:
    """Inverse of serialize_event; byte_offset is added to error locations."""
    obj = _decode(line, "JSON", byte_offset)
    if not isinstance(obj, dict):
        raise TraceParseError("event line must be a JSON object", byte_offset)
    if obj.keys() != _EVENT_KEYS:
        raise _key_error(obj, _EVENT_KEYS, "event", byte_offset)
    t, params = obj["t"], obj["params"]
    if type(t) is not float and type(t) is not int:
        raise TraceParseError(f"event time must be a number, got {t!r}", byte_offset)
    if not isinstance(params, dict):
        raise TraceParseError("params must be an object", byte_offset)
    try:
        target = _target_from_obj(obj["target"], byte_offset)
        for key, value in params.items():
            if type(value) is not float and type(value) is not int:
                raise TraceParseError(f"param {key} must be a number, got {value!r}", byte_offset)
            params[key] = float(value)  # an integer beyond the float range overflows
        return FaultEvent(float(t), obj["kind"], target, params)
    except TraceParseError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise TraceParseError(str(exc), byte_offset) from None


@contextmanager
def _atomic_text(path) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces path only if the with-block completes.

    Text streams into a temporary file beside the symlink-resolved path,
    which os.replace then swaps in; an exception removes the temporary
    file and leaves an existing file at path untouched. A directory at
    path, or a temporary file that cannot be opened, raises OSError naming
    path before the with-block runs.
    """
    target = Path(path).resolve()
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(path, rows: Iterable[tuple]) -> Counter:
    """write_trace's writer: one line per row, from its kind's renderer, which checks the row's numbers."""
    counts: Counter = Counter()
    with _atomic_text(path) as fh:
        fh.write(json.dumps({"schema": SCHEMA}, separators=(",", ":")) + "\n")
        for row in rows:
            fh.write(_LINE_FORMS[row[1]][4](row) + "\n")
            counts[row[1]] += 1
    return counts


def write_trace(path, events: Iterable[FaultEvent]) -> Counter:
    """Write a JSON-lines trace (UTF-8, newline-terminated); returns kind counts.

    The trace replaces path only once every line is written; a failed
    write or source leaves an existing trace untouched.
    """
    return _write_rows(path, map(_row_from_event, events))


def iter_trace(path) -> Iterator[FaultEvent]:
    """Stream a trace file's events, validating the schema header and every line.

    A line in the writer's own shape for its kind is read from its
    template; any other line, and any line whose event is rejected, goes
    through parse_event, so every error comes from one place.
    """
    template_event = _template_reader()
    offset = 0
    saw_header = False
    # binary lines split on b"\n" only; str.splitlines() also splits inside JSON strings
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8").removesuffix("\n")
            except UnicodeDecodeError as exc:
                raise TraceParseError(f"invalid UTF-8: {exc.reason}", offset + exc.start) from None
            if saw_header:
                event = template_event(line)
                if event is not None:
                    yield event
                elif line.strip():
                    yield parse_event(line, offset)
            elif line.strip():
                if _decode(line, "header", offset) != {"schema": SCHEMA}:
                    raise TraceParseError(f"expected schema header {SCHEMA!r}", offset)
                saw_header = True
            offset += len(raw)
    if not saw_header:
        raise TraceParseError("empty trace: missing schema header", 0)


def read_trace(path) -> List[FaultEvent]:
    """Read a whole trace file into a list; see iter_trace."""
    return list(iter_trace(path))
