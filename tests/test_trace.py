import ast
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leofault.trace as trace_module
from leofault import (
    DeviceTarget,
    FaultEvent,
    GroundLinkTarget,
    IslTarget,
    SatelliteId,
    SatelliteTarget,
    TraceParseError,
    iter_trace,
    merge_traces,
    parse_event,
    read_trace,
    serialize_event,
    write_trace,
)
from leofault.trace import KIND_PARAM_KEYS, KIND_TARGET_TYPE, canonical_number

SAT_A = SatelliteId(0, 1, 2)
SAT_B = SatelliteId(0, 1, 3)
# not an int or float that a float can hold: a time of True used to be written
# as "t":1.0, 10**400 overflowed only in the writer, and "3" and None escaped
# as a bare TypeError from math.isfinite
NOT_FLOAT_SIZED = [True, pytest.param(10**400, id="huge-int"), "3", None]


def make_event(kind: str, t: float, rng=None) -> FaultEvent:
    val = lambda: canonical_number(float(rng.uniform(0.0, 100.0))) if rng else 1.0
    if kind in ("device_reboot", "device_permanent_failure"):
        target = DeviceTarget(SAT_A, int(rng.integers(0, 60)) if rng else 0)
    elif kind in ("maneuver_start", "maneuver_end"):
        target = SatelliteTarget(SAT_A)
    elif kind in ("isl_down", "isl_up"):
        target = IslTarget(SAT_A, SAT_B)
    else:
        target = GroundLinkTarget("gs0")
    params = {key: val() for key in KIND_PARAM_KEYS[kind]}
    return FaultEvent(canonical_number(t), kind, target, params)


def reference_target_key(target) -> tuple:
    """The tie-break key merge_traces used before targets were ordered."""
    if isinstance(target, DeviceTarget):
        return ("device", tuple(target.sat), target.device)
    if isinstance(target, SatelliteTarget):
        return ("satellite", tuple(target.sat))
    if isinstance(target, IslTarget):
        return ("isl", tuple(target.a), tuple(target.b))
    return ("ground_link", target.gs_id)


def reference_sort_key(event: FaultEvent) -> tuple:
    return (
        event.t_s,
        event.kind,
        reference_target_key(event.target),
        tuple(sorted(event.params.items())),
    )


def reference_merge(traces):
    """Concatenate every source, then one stable sort on the reference key."""
    merged = [event for trace in traces for event in trace]
    merged.sort(key=reference_sort_key)
    return merged


SATS = [SatelliteId(s, p, i) for s in (0, 1) for p in (0, 2) for i in (0, 1)]


def pooled_event(kind: str, t: float, a: int, b: int, value: float) -> FaultEvent:
    """An event whose target and params come from small pools, so keys tie often."""
    target_type = KIND_TARGET_TYPE[kind]
    if target_type is DeviceTarget:
        target = DeviceTarget(SATS[a], b)
    elif target_type is SatelliteTarget:
        target = SatelliteTarget(SATS[a])
    elif target_type is IslTarget:
        target = IslTarget(SATS[a], SATS[(a + 1 + b) % len(SATS)])
    else:
        target = GroundLinkTarget(f"gs{b}")
    return FaultEvent(t, kind, target, {key: value for key in KIND_PARAM_KEYS[kind]})


def reference_bytes(events) -> bytes:
    lines = ['{"schema":"leofault/1"}', *(serialize_event(e) for e in events)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestEventValidation:
    def test_all_kinds_constructible(self):
        for kind in KIND_PARAM_KEYS:
            make_event(kind, 1.0)

    def test_wrong_target_type(self):
        with pytest.raises(ValueError, match="DeviceTarget"):
            FaultEvent(0.0, "device_reboot", SatelliteTarget(SAT_A), {"downtime_s": 30.0})

    def test_wrong_params(self):
        with pytest.raises(ValueError, match="params"):
            FaultEvent(0.0, "device_reboot", DeviceTarget(SAT_A, 0), {})
        with pytest.raises(ValueError, match="params"):
            FaultEvent(
                0.0, "isl_down", IslTarget(SAT_A, SAT_B), {"grazing_km": 1.0, "extra": 2.0}
            )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(0.0, "mystery", SatelliteTarget(SAT_A), {})
        # an unhashable kind used to escape as "unhashable type: 'list'"
        with pytest.raises(TraceParseError, match=r"unknown event kind \['isl_up'\]"):
            parse_event('{"t":1.0,"kind":["isl_up"],"target":{"type":"satellite","sat":[0,1,2]},"params":{}}')

    def test_negative_time(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": 1.0})

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), *NOT_FLOAT_SIZED])
    def test_non_finite_time(self, t):
        with pytest.raises(ValueError, match="t_s"):
            FaultEvent(t, "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), *NOT_FLOAT_SIZED])
    def test_non_finite_param(self, value):
        with pytest.raises(ValueError, match="dh_km"):
            FaultEvent(1.0, "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": value})

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(st.floats(), st.lists(st.floats(), max_size=3))
    @example(-0.0, [-0.0])
    @example(1e308, [1.7976931348623157e308, 1.7976931348623157e308])
    @example(0.0, [1.7976931348623157e308, -1.7976931348623157e308])
    @example(5e-324, [float("inf"), float("-inf")])
    def test_float_fast_path_keeps_the_number_rules(self, t_s, values):
        # the reader's float-only form of _check_numbers passes and rejects the same, with the same message
        def outcome(check):
            try:
                return check("maneuver_start", t_s, ["dh_km", "dwell_s", "x"], values)
            except ValueError as exc:
                return str(exc)

        assert outcome(trace_module._check_floats) == outcome(trace_module._check_numbers)

    def test_numpy_floats_and_float_sized_ints_accepted(self):
        event = FaultEvent(np.float64(2.5), "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": np.float64(-1.0)})
        assert serialize_event(event).startswith('{"t":2.5,"kind":"maneuver_end",')
        assert serialize_event(event).endswith('"params":{"dh_km":-1.0}}')
        event = FaultEvent(10**300, "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": 3})
        assert parse_event(serialize_event(event)) == FaultEvent(1e300, "maneuver_end", SatelliteTarget(SAT_A), {"dh_km": 3.0})

    def test_isl_target_normalized(self):
        t = IslTarget(SAT_B, SAT_A)
        assert (t.a, t.b) == (SAT_A, SAT_B)
        with pytest.raises(ValueError):
            IslTarget(SAT_A, SAT_A)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: DeviceTarget(SAT_A, -1), "device must be a non-negative integer"),
            (lambda: DeviceTarget(SAT_A, True), "device must be a non-negative integer"),
            (lambda: DeviceTarget(SAT_A, 1.0), "device must be a non-negative integer"),
            (lambda: SatelliteTarget(SatelliteId(-1, 0, 0)), "sat must be three non-negative integers"),
            (lambda: SatelliteTarget(SatelliteId(0.5, 0, 0)), "sat must be three non-negative integers"),
            (lambda: SatelliteTarget(SatelliteId(0, True, 0)), "sat must be three non-negative integers"),
            (lambda: SatelliteTarget([0, 1, 2]), "sat must be three non-negative integers"),
            (lambda: DeviceTarget((0, 1), 0), "sat must be three non-negative integers"),
            (lambda: GroundLinkTarget(7), "gs_id must be a string"),
            (lambda: IslTarget(SAT_A, SatelliteId("x", 0, 0)), "b must be three non-negative integers"),
        ],
        ids=["device-negative", "device-bool", "device-float", "sat-negative", "sat-float", "sat-bool",
             "sat-list", "sat-pair", "gs-int", "isl-endpoint-string"],
    )
    def test_target_values_checked_at_construction(self, build, match):
        # the writer used to emit these, and its own reader rejected them
        with pytest.raises(ValueError, match=match):
            build()

    def test_plain_tuple_satellite_id_serializes_like_satellite_id(self):
        event = FaultEvent(1.0, "maneuver_end", SatelliteTarget((0, 1, 2)), {"dh_km": 1.0})
        assert parse_event(serialize_event(event)) == make_event("maneuver_end", 1.0)


class TestMergeTraces:
    def test_single_list_identity(self):
        events = [make_event("isl_down", 1.0), make_event("isl_up", 3.0)]
        assert list(merge_traces([events])) == events

    def test_interleaving(self):
        a1 = make_event("maneuver_end", 1.0)
        a3 = make_event("maneuver_end", 3.0)
        b2 = make_event("handover_spike", 2.0)
        assert list(merge_traces([[a1, a3], [b2]])) == [a1, b2, a3]

    def test_tie_break_independent_of_input_order(self):
        x = make_event("isl_down", 5.0)
        y = make_event("device_reboot", 5.0)
        z = make_event("handover_spike", 5.0)
        orders = [[[x], [y], [z]], [[z], [y], [x]], [[y, z], [x]]]
        results = [list(merge_traces(o)) for o in orders]
        assert results[0] == results[1] == results[2]
        # deterministic rule: sorted by kind for equal times
        assert [e.kind for e in results[0]] == ["device_reboot", "handover_spike", "isl_down"]

    def test_unsorted_input_rejected(self):
        bad = [make_event("isl_down", 5.0), make_event("isl_up", 1.0)]
        with pytest.raises(ValueError, match="not time-sorted"):
            list(merge_traces([bad]))

    def test_tie_out_of_key_order_rejected(self):
        # time-sorted, but isl_down sorts before isl_up at t=5
        bad = [make_event("isl_up", 5.0), make_event("isl_down", 5.0)]
        with pytest.raises(ValueError, match=r"input trace 1 .*t=5\.0"):
            list(merge_traces([[make_event("maneuver_end", 1.0)], bad]))

    def test_sources_pulled_only_as_consumed(self):
        pulled = []

        def source():
            for t in (1.0, 2.0):
                pulled.append(t)
                yield make_event("isl_down", t)

        merged = merge_traces([source()])
        assert pulled == []
        assert next(merged) == make_event("isl_down", 1.0)
        assert pulled == [1.0]
        assert list(merged) == [make_event("isl_down", 2.0)]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_concatenate_and_sort_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        kinds = sorted(KIND_PARAM_KEYS)
        sources = [[] for _ in range(int(rng.integers(2, 6)))]
        for _ in range(400):
            event = pooled_event(
                kinds[int(rng.integers(len(kinds)))],
                float(rng.integers(0, 12)),  # few distinct times: ties across sources
                int(rng.integers(len(SATS))),
                int(rng.integers(3)),
                float(rng.choice([0.0, -0.0, 1.5, 2.0])),
            )
            sources[int(rng.integers(len(sources)))].append(event)
        shared = pooled_event("isl_down", 3.0, 0, 0, 1.5)
        sources[0].append(shared)
        sources[-1].append(shared)
        for source in sources:
            source.sort(key=reference_sort_key)
        expected = reference_merge(sources)
        merged = list(merge_traces(sources))
        assert merged == expected
        assert [e.t_s for e in merged] == [e.t_s for e in expected]
        path = tmp_path / "trace.jsonl"
        write_trace(path, merged)
        # signed zeros compare equal but serialize apart, so equal keys
        # must still come out in input order
        assert path.read_bytes() == reference_bytes(expected)


def reference_line(event: FaultEvent) -> str:
    """The line as json.dumps renders it, with the target built as a dict."""
    target = event.target
    if isinstance(target, DeviceTarget):
        obj = {"type": "device", "sat": list(target.sat), "device": target.device}
    elif isinstance(target, SatelliteTarget):
        obj = {"type": "satellite", "sat": list(target.sat)}
    elif isinstance(target, IslTarget):
        obj = {"type": "isl", "a": list(target.a), "b": list(target.b)}
    else:
        obj = {"type": "ground_link", "gs": target.gs_id}
    params = {key: canonical_number(event.params[key]) for key in sorted(event.params)}
    line = {"t": canonical_number(event.t_s), "kind": event.kind, "target": obj, "params": params}
    return json.dumps(line, separators=(",", ":"))


EDGE_FLOATS = [5e-324, 1e-7, 1e16, 1.7976931348623157e308]
sat_fields = st.one_of(st.integers(0, 100), st.integers(0, 2**80), st.sampled_from([2**63, 2**64 + 1]))
sat_ids = st.builds(SatelliteId, sat_fields, sat_fields, sat_fields)
station_ids = st.one_of(st.text(max_size=12), st.sampled_from(["Zürich-北京", '"', "\\", "\x00\x1f\x7f", "\u2028\u2029"]))
param_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([*EDGE_FLOATS, -0.0]))
times = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


@st.composite
def any_events(draw) -> FaultEvent:
    kind = draw(st.sampled_from(sorted(KIND_PARAM_KEYS)))
    target_type = KIND_TARGET_TYPE[kind]
    if target_type is DeviceTarget:
        target = DeviceTarget(draw(sat_ids), draw(sat_fields))
    elif target_type is SatelliteTarget:
        target = SatelliteTarget(draw(sat_ids))
    elif target_type is IslTarget:
        a = draw(sat_ids)
        target = IslTarget(a, draw(sat_ids.filter(lambda b: b != a)))
    else:
        target = GroundLinkTarget(draw(station_ids))
    keys = draw(st.permutations(sorted(KIND_PARAM_KEYS[kind])))  # any insertion order
    return FaultEvent(draw(times), kind, target, {key: draw(param_values) for key in keys})


@st.composite
def any_rows(draw) -> tuple:
    """A row, (t, kind, *target fields, *params in key order), over any_events' values."""
    kind = draw(st.sampled_from(sorted(KIND_PARAM_KEYS)))
    target_type = KIND_TARGET_TYPE[kind]
    if target_type is DeviceTarget:
        target = (draw(sat_ids), draw(sat_fields))
    elif target_type is SatelliteTarget:
        target = (draw(sat_ids),)
    elif target_type is IslTarget:
        a = draw(sat_ids)
        target = tuple(sorted((a, draw(sat_ids.filter(lambda b: b != a)))))  # rows hold an edge as a < b
    else:
        target = (draw(station_ids),)
    return (draw(times), kind, *target, *[draw(param_values) for _ in KIND_PARAM_KEYS[kind]])


def event_bits(event: FaultEvent) -> tuple:
    """The event and the bits of its floats, which == does not tell apart (0.0 == -0.0)."""
    return event, event.t_s.hex(), [(key, value.hex()) for key, value in event.params.items()]


def assert_template_path_agrees(line: str):
    """The template path reads nothing from the line, or parse_event's event bit for bit."""
    event = trace_module._template_reader()(line)
    if event is not None:
        assert event_bits(event) == event_bits(parse_event(line))
    return event


# writer lines for the template path's edge cases; SPIKE_LINE_TEMPLATE takes a station id
ISL_LINE = '{"t":1.5,"kind":"isl_down","target":{"type":"isl","a":[0,1,2],"b":[0,1,3]},"params":{"grazing_km":80.5}}'
DEVICE_REBOOT_LINE = '{"t":12.5,"kind":"device_reboot","target":{"type":"device","sat":[0,3,7],"device":4},"params":{"downtime_s":30.0}}'
SPIKE_LINE_TEMPLATE = '{"t":2.0,"kind":"handover_spike","target":{"type":"ground_link","gs":"%s"},"params":{"duration_s":1.0,"loss_rate":0.01}}'


def read_outcome(path) -> object:
    """iter_trace's events with their float bits, or its error's message and byte offset."""
    try:
        return [event_bits(event) for event in iter_trace(path)]
    except TraceParseError as exc:
        return str(exc), exc.byte_offset


def general_read_outcome(path) -> object:
    """read_outcome with the template path off, so every line goes through parse_event."""
    with mock.patch.object(trace_module, "_template_reader", lambda: lambda line: None):
        return read_outcome(path)


class TestSerialization:
    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(any_events())
    @example(
        FaultEvent(0.0, "handover_spike", GroundLinkTarget('Zürich "北京" \\ \x00\x1f \u2028'),
                   {"loss_rate": 1e-7, "duration_s": 1e16})
    )
    @example(
        FaultEvent(5e-324, "maneuver_start", SatelliteTarget(SAT_A), {"dwell_s": 1.7976931348623157e308, "dh_km": -0.0})
    )
    @example(
        FaultEvent(1.7976931348623157e308, "isl_up", IslTarget((2**64, 0, 1), (2**63, 5, 2**70)), {"grazing_km": 5e-324})
    )
    @example(FaultEvent(1e16, "device_reboot", DeviceTarget((2**63 + 1, 2**64, 0), 2**65), {"downtime_s": -5e-324}))
    def test_matches_json_dumps_reference(self, event):
        line = serialize_event(event)
        assert line == reference_line(event)
        assert line.isascii()

    @pytest.mark.parametrize("gs_id", ['"', "\\", "Z\u00fcrich", "\x00\x1f", "\u2028", "\U0001f6f0", 'a"b\\c', ""])
    def test_station_ids_render_as_json_dumps(self, gs_id):
        # each id is rendered once, through a bounded memo; a repeated id gives the same line
        event = FaultEvent(1.0, "gs_link_degraded", GroundLinkTarget(gs_id), {"throughput_multiplier": 0.5, "latency_factor": 2.0})
        lines = {serialize_event(event) for _ in range(2)}
        assert lines == {reference_line(event)}
        assert f'"gs":{json.dumps(gs_id)}}}' in lines.pop()
        assert trace_module._json_string.cache_info().maxsize is not None

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(any_rows())
    @example((0.0, "handover_spike", 'Zürich "北京" \\ \x00\x1f \u2028', 1e16, 1e-7))
    @example((5e-324, "maneuver_start", SAT_A, -0.0, 1.7976931348623157e308))
    @example((1.7976931348623157e308, "isl_up", SatelliteId(2**63, 5, 2**70), SatelliteId(2**64, 0, 1), 5e-324))
    @example((1e16, "device_reboot", SatelliteId(2**63 + 1, 2**64, 0), 2**65, -5e-324))
    @example((1e-7, "device_permanent_failure", SAT_B, 0))
    def test_row_renders_as_its_event(self, row):
        # simulate writes rows through their kind's renderer; the event of a row serializes to the same line
        event = trace_module._event_from_row(row)
        assert trace_module._LINE_FORMS[row[1]][4](row) == serialize_event(event) == reference_line(event)
        assert trace_module._row_from_event(event) == row

    @settings(derandomize=True, database=None, deadline=None, max_examples=2000)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-2e9, 2e9), st.floats(-1e-3, 1e-3)))
    @example(5e-324)
    @example(-0.0)
    @example(1.7976931348623157e308)
    @example(999999999.5)
    @example(99999999.95)
    @example(9.9999999995e-05)
    @example(1e16)
    @example(9.999999995e15)
    @example(3)
    @example(10**300)
    @example(np.float64(0.1) * 3)
    def test_number_text_is_repr_of_canonical_number(self, x):
        # the renderers' text of a number is json's text of its canonical float
        assert trace_module._number_text(x) == repr(canonical_number(x))

    def test_number_text_memo_follows_identity(self, monkeypatch):
        # each number column keeps one (value, text) slot, reused only for the same object:
        # equal values of other objects, 0.0 and -0.0, and ints and floats get their own texts
        x = 12.3456789012
        equal = float(repr(x))
        assert equal == x and equal is not x
        column = [x, x, equal, 0.0, -0.0, 0.0, np.float64(-0.0), 3, 3.0]
        calls = []
        number_text = trace_module._number_text
        monkeypatch.setattr(trace_module, "_number_text", lambda v: calls.append(v) or number_text(v))
        render = trace_module._LINE_FORMS["handover_spike"][4]
        for v in column:
            row = (v, "handover_spike", "gs0", v, 0.25)
            assert render(row) == reference_line(trace_module._event_from_row(row))
        # the repeated object and the constant loss_rate are rendered once; 0.0 twice, around -0.0
        assert len(calls) == 2 * (len(column) - 1) + 1

    def test_number_text_memo_is_thread_safe(self, monkeypatch):
        # two threads share one renderer, each rendering its own row, so the slots alternate
        # between their values; a slot torn between the two would give a thread the other's text.
        # Each text's making yields the interpreter lock, where a slot written in two steps would tear
        number_text = trace_module._number_text
        monkeypatch.setattr(trace_module, "_number_text", lambda v: time.sleep(0) or number_text(v))
        render = trace_module._LINE_FORMS["gs_link_degraded"][4]
        rows = [(t, "gs_link_degraded", "gs0", t / 7.0, t / 3.0) for t in (1.5, 2.25)]
        wrong = []

        def work(row):
            line = reference_line(trace_module._event_from_row(row))
            for _ in range(10_000):
                if render(row) != line:
                    wrong.append(row)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(row,)) for row in rows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_one_check_per_event(self, tmp_path, monkeypatch):
        # speed is pinned by structure: the writer never repeats the build-time check
        calls = []
        check = trace_module._check_event
        monkeypatch.setattr(trace_module, "_check_event", lambda *args: calls.append(args) or check(*args))
        events = [make_event(kind, float(t)) for t, kind in enumerate(sorted(KIND_PARAM_KEYS) * 3)]
        assert len(calls) == len(events)
        calls.clear()
        write_trace(tmp_path / "trace.jsonl", events)
        assert calls == []
        assert [e.kind for e in read_trace(tmp_path / "trace.jsonl")] == [e.kind for e in events]

    def test_read_checks_once_per_event_and_decodes_only_the_header(self, tmp_path, monkeypatch):
        events = [make_event(kind, float(t)) for t, kind in enumerate(sorted(KIND_PARAM_KEYS) * 3)]
        write_trace(tmp_path / "trace.jsonl", events)
        # a matched line's event is built from what its template proved: only the number rules run, once a line
        checks, numbers, decodes = [], [], []
        check, check_floats, loads = trace_module._check_event, trace_module._check_floats, json.loads
        monkeypatch.setattr(trace_module, "_check_event", lambda *args: checks.append(args) or check(*args))
        monkeypatch.setattr(trace_module, "_check_floats", lambda *args: numbers.append(args) or check_floats(*args))
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: decodes.append(args) or loads(*args, **kwargs))
        assert read_trace(tmp_path / "trace.jsonl") == events
        assert checks == []
        assert len(numbers) == len(events)
        assert decodes == [('{"schema":"leofault/1"}',)]

    @pytest.mark.parametrize(
        "line, read",
        [
            (ISL_LINE.replace("[0,1,2]", "[0,1,9]"), True),  # a > b: stored in canonical order
            (ISL_LINE.replace("[0,1,2]", "[1,0,0]"), True),
            (ISL_LINE.replace("[0,1,2]", "[0,1,3]"), False),  # a == b
            (DEVICE_REBOOT_LINE.replace('"t":12.5', '"t":-0.0'), True),
            (DEVICE_REBOOT_LINE.replace('"t":12.5', '"t":-1.5'), False),
            (DEVICE_REBOOT_LINE.replace('"t":12.5', '"t":1e999'), False),
            (DEVICE_REBOOT_LINE.replace('"downtime_s":30.0', '"downtime_s":1e999'), False),
            (ISL_LINE.replace('"grazing_km":80.5', '"grazing_km":-1e999'), False),
            ((SPIKE_LINE_TEMPLATE % "gs0").replace("1.0", "1.7e+308").replace("0.01", "1.7e+308"), True),  # sum overflows
            (DEVICE_REBOOT_LINE.replace("[0,3,7]", f"[0,{'9' * 4301},7]"), False),  # beyond int()'s digit limit
            (DEVICE_REBOOT_LINE.replace('"device":4', f'"device":{"9" * 4301}'), False),
            (SPIKE_LINE_TEMPLATE % "gs\x7f", True),  # DEL, which json.dumps leaves unescaped
            (SPIKE_LINE_TEMPLATE % "Zürich-北京", True),
        ],
        ids=["a-after-b", "a-after-b-plane", "a-equals-b", "t-minus-zero", "t-negative", "t-overflow",
             "param-overflow", "param-minus-overflow", "param-sum-overflow", "sat-4301-digits", "device-4301-digits", "gs-del", "gs-non-ascii"],
    )
    def test_template_path_edges_agree_with_parse_event(self, tmp_path, line, read):
        # lines that match their kind's template but that the match alone does not prove valid or canonical
        assert (assert_template_path_agrees(line) is not None) == read
        path = tmp_path / "trace.jsonl"
        path.write_text(f'{{"schema":"leofault/1"}}\n{line}\n', encoding="utf-8")
        assert read_outcome(path) == general_read_outcome(path)
        assert isinstance(read_outcome(path), list) == read

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(any_events())
    def test_writer_lines_take_the_template_path(self, event):
        # only a station id that json.dumps escapes sends a written line to parse_event
        line = serialize_event(event)
        assert (assert_template_path_agrees(line) is None) == ("\\" in line)

    def test_iter_trace_memory_is_bounded(self, tmp_path):
        kinds = sorted(KIND_PARAM_KEYS)
        peaks = []
        for n in (10**4, 10**5):
            path = tmp_path / f"trace-{n}.jsonl"
            write_trace(path, (make_event(kinds[i % len(kinds)], float(i)) for i in range(n)))
            next(iter_trace(path))  # compiles the templates outside the measurement
            tracemalloc.start()
            try:
                assert sum(1 for _ in iter_trace(path)) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("value", NOT_FLOAT_SIZED)
    def test_serialize_rejects_param_mutated_to_a_non_number(self, value):
        event = make_event("maneuver_end", 1.0)
        event.params["dh_km"] = value
        with pytest.raises(ValueError, match="dh_km"):
            serialize_event(event)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.update(dh_km=float("nan")),
            lambda p: p.update(dh_km=float("inf")),
            lambda p: p.update(extra=1.0),
            lambda p: p.pop("dh_km"),
        ],
        ids=["nan", "inf", "extra-key", "missing-key"],
    )
    def test_serialize_rejects_params_mutated_after_construction(self, mutate):
        event = make_event("maneuver_end", 1.0)
        mutate(event.params)
        with pytest.raises(ValueError):
            serialize_event(event)

    def test_round_trip_10000_random_events(self, rng):
        kinds = sorted(KIND_PARAM_KEYS)
        for i in range(10000):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            event = make_event(kind, float(rng.uniform(0.0, 1e6)), rng)
            assert parse_event(serialize_event(event)) == event

    def test_canonicalizes_to_nine_significant_digits(self):
        event = FaultEvent(
            1234.5678901234567,
            "device_reboot",
            DeviceTarget(SAT_A, 5),
            {"downtime_s": 30.000000001234},
        )
        line = serialize_event(event)
        obj = json.loads(line)
        assert obj["t"] == 1234.56789
        assert obj["params"]["downtime_s"] == 30.0
        assert parse_event(line) == event.canonical()

    def test_device_reboot_schema(self):
        line = serialize_event(make_event("device_reboot", 10.0))
        obj = json.loads(line)
        assert set(obj) == {"t", "kind", "target", "params"}
        assert obj["target"] == {"type": "device", "sat": [0, 1, 2], "device": 0}
        assert "downtime_s" in obj["params"]

    def test_isl_event_names_both_endpoints(self):
        line = serialize_event(make_event("isl_down", 42.0))
        obj = json.loads(line)
        assert obj["target"]["a"] == [0, 1, 2]
        assert obj["target"]["b"] == [0, 1, 3]

    def test_parse_error_carries_byte_offset(self):
        with pytest.raises(TraceParseError) as excinfo:
            parse_event('{"t": 1.0, "kind": "x"', byte_offset=100)
        assert excinfo.value.byte_offset >= 100

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(TraceParseError):
            parse_event("[1, 2, 3]")
        with pytest.raises(TraceParseError):
            parse_event('{"t": "late", "kind": "isl_down", "target": {}, "params": {}}')
        with pytest.raises(TraceParseError):
            parse_event('{"t": 1.0, "kind": "isl_down", "target": {"type": "nope"}, "params": {}}')
        with pytest.raises(TraceParseError):
            parse_event(
                '{"t": 1.0, "kind": "isl_down", '
                '"target": {"type": "isl", "a": [0, 0], "b": [0, 0, 1]}, "params": {"grazing_km": 1}}'
            )

    @pytest.mark.parametrize(
        "sat, downtime",
        [
            ("[true, 0, 0]", "3.0"),
            ("[0, -1, 0]", "3.0"),
            ("[0, 0, -5]", "3.0"),
            ("[0, 0, 1.0]", "3.0"),
            ("[0, 1, 2]", '"3"'),
            ("[0, 1, 2]", "true"),
            ("[0, 1, 2]", "null"),
        ],
    )
    def test_parse_rejects_bad_sat_and_param_types(self, sat, downtime):
        line = (
            f'{{"t": 1.0, "kind": "device_reboot", '
            f'"target": {{"type": "device", "sat": {sat}, "device": 0}}, '
            f'"params": {{"downtime_s": {downtime}}}}}'
        )
        with pytest.raises(TraceParseError) as excinfo:
            parse_event(line, byte_offset=100)
        assert excinfo.value.byte_offset == 100

    @pytest.mark.parametrize(
        "a, b",
        [('["x", 0, 0]', "[0, 0, 1]"), ("[0, 0, 1]", "[[0], 0, 0]"), ("[0.5, 0, 0]", "[0, 0, 1]"), ("[0, 0, 1]", "[0, 0, 1]")],
        ids=["string", "nested-list", "float", "same-endpoint"],
    )
    def test_parse_rejects_bad_isl_endpoints(self, a, b):
        line = (
            f'{{"t": 1.0, "kind": "isl_up", "target": {{"type": "isl", "a": {a}, "b": {b}}}, '
            f'"params": {{"grazing_km": 90.0}}}}'
        )
        with pytest.raises(TraceParseError) as excinfo:  # not a TypeError from ordering the endpoints
            parse_event(line, byte_offset=100)
        assert excinfo.value.byte_offset == 100

    def test_parse_accepts_integer_params(self):
        event = parse_event(
            '{"t": 1, "kind": "device_reboot", '
            '"target": {"type": "device", "sat": [0, 1, 2], "device": 0}, '
            '"params": {"downtime_s": 3}}'
        )
        assert event.params == {"downtime_s": 3.0}
        assert type(event.params["downtime_s"]) is float

    @pytest.mark.parametrize(
        "line",
        [
            '{"t": 1%s, "kind": "device_reboot", "target": {"type": "device", "sat": [0, 1, 2], '
            '"device": 0}, "params": {"downtime_s": 3}}' % ("0" * 400),
            '{"t": 1, "kind": "device_reboot", "target": {"type": "device", "sat": [0, 1, 2], '
            '"device": 0}, "params": {"downtime_s": 1%s}}' % ("0" * 400),
            "[" * 100_000 + "]" * 100_000,
            '{"t": 1%s}' % ("0" * 5000),
        ],
        ids=["integer-time-beyond-float", "integer-param-beyond-float", "deep-nesting", "over-long-integer"],
    )
    def test_parse_rejects_overflow_and_deep_nesting(self, line):
        # these used to escape as OverflowError, RecursionError and ValueError
        with pytest.raises(TraceParseError):
            parse_event(line, byte_offset=100)

    @pytest.mark.parametrize(
        "t, device, downtime",
        [
            ("Infinity", "0", "30.0"),
            ("1e999", "0", "30.0"),
            ("NaN", "0", "30.0"),
            ("1.0", "-3", "30.0"),
            ("1.0", "true", "30.0"),
            ("1.0", "0", "NaN"),
            ("1.0", "0", "-1e999"),
        ],
    )
    def test_parse_rejects_non_finite_and_bad_device(self, t, device, downtime):
        line = (
            f'{{"t": {t}, "kind": "device_reboot", '
            f'"target": {{"type": "device", "sat": [0, 1, 2], "device": {device}}}, '
            f'"params": {{"downtime_s": {downtime}}}}}'
        )
        with pytest.raises(TraceParseError) as excinfo:
            parse_event(line, byte_offset=100)
        assert excinfo.value.byte_offset == 100


class TestTraceFiles:
    def test_write_read_roundtrip(self, tmp_path, rng):
        events = list(merge_traces(
            [[make_event(k, float(t), rng) for t in range(5)] for k in sorted(KIND_PARAM_KEYS)]
        ))
        path = tmp_path / "trace.jsonl"
        write_trace(path, events)
        assert read_trace(path) == [e.canonical() for e in events]

    def test_header_line_first(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        first_line = path.read_text().splitlines()[0]
        assert json.loads(first_line) == {"schema": "leofault/1"}

    def test_no_trailing_blank_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        data = path.read_text()
        assert data.endswith("}\n")
        assert not data.endswith("\n\n")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(serialize_event(make_event("isl_down", 1.0)) + "\n")
        with pytest.raises(TraceParseError, match="schema"):
            read_trace(path)

    @pytest.mark.parametrize(
        "header", ['{"schema": 1%s}' % ("0" * 5000), "[" * 100_000 + "]" * 100_000],
        ids=["over-long-integer", "deep-nesting"],
    )
    def test_unreadable_header_rejected(self, tmp_path, header):
        path = tmp_path / "trace.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(TraceParseError, match="invalid header"):
            read_trace(path)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"t":1.5', '"t":1.5,"t":2.5', "t"),
            ('"a":[0,1,2]', '"a":[0,1,2],"a":[0,1,4]', "a"),
            ('"grazing_km":80.5', '"grazing_km":5.0,"grazing_km":80.5', "grazing_km"),
        ],
        ids=["event", "target", "params"],
    )
    def test_duplicate_key_rejected_at_its_line(self, tmp_path, old, new, key):
        # json keeps a repeated key's last value: these lines used to read as their second value
        header = '{"schema":"leofault/1"}'
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([header, ISL_LINE, ISL_LINE.replace(old, new)]) + "\n")
        outcome = read_outcome(path)
        assert outcome == (f"invalid JSON: duplicate key '{key}' (byte offset {len(header) + 1 + len(ISL_LINE) + 1})",
                           len(header) + 1 + len(ISL_LINE) + 1)
        assert general_read_outcome(path) == outcome

    def test_duplicate_header_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema":"bogus","schema":"leofault/1"}\n' + ISL_LINE + "\n")
        with pytest.raises(TraceParseError, match="invalid header: duplicate key 'schema'") as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == 0

    def test_malformed_line_reports_absolute_offset(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = serialize_event(make_event("isl_down", 1.0))
        header = '{"schema":"leofault/1"}'
        path.write_text(header + "\n" + good + "\n" + "{broken\n")
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset >= len(header) + 1 + len(good) + 1

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e999"])
    def test_non_finite_time_reports_line_offset(self, tmp_path, token):
        path = tmp_path / "trace.jsonl"
        header = '{"schema":"leofault/1"}'
        good = serialize_event(make_event("isl_down", 1.0))
        bad = good.replace('"t":1.0', f'"t":{token}')
        path.write_text("\n".join([header, good, bad]) + "\n")
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == len(header) + 1 + len(good) + 1

    def test_failed_write_keeps_old_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        old = path.read_bytes()

        def failing():
            yield make_event("isl_down", 2.0)
            raise RuntimeError("sampler failed")

        with pytest.raises(RuntimeError, match="sampler failed"):
            write_trace(path, failing())
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_invalid_event_keeps_old_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        old = path.read_bytes()
        bad = make_event("isl_up", 2.0)
        bad.params["grazing_km"] = math.nan
        with pytest.raises(ValueError):
            write_trace(path, [make_event("isl_down", 2.0), bad])
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_out_of_order_source_keeps_old_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        old = path.read_bytes()
        good = [make_event("maneuver_end", 1.0), make_event("maneuver_end", 6.0)]
        bad = [make_event("isl_up", 5.0), make_event("isl_down", 5.0)]
        with pytest.raises(ValueError, match=r"input trace 1 .*t=5\.0"):
            write_trace(path, merge_traces([good, bad]))
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    @pytest.mark.parametrize("where", ["missing/trace.jsonl", "."])
    def test_unwritable_path_named_before_source_is_pulled(self, tmp_path, monkeypatch, where):
        # a missing directory, or a directory where the trace should go, names the given path
        monkeypatch.chdir(tmp_path)

        def untouched():
            raise AssertionError("the source was pulled")
            yield

        with pytest.raises(OSError) as excinfo:
            write_trace(where, untouched())
        assert excinfo.value.filename == where
        assert ".tmp" not in str(excinfo.value)
        assert os.listdir(tmp_path) == []

    def test_write_returns_kind_counts(self, tmp_path):
        events = [make_event("isl_down", 1.0), make_event("isl_up", 2.0), make_event("isl_down", 3.0)]
        counts = write_trace(tmp_path / "trace.jsonl", iter(events))
        assert counts == Counter({"isl_down": 2, "isl_up": 1})
        assert counts == Counter(e.kind for e in read_trace(tmp_path / "trace.jsonl"))

    def test_new_trace_mode_matches_write_text(self, tmp_path):
        reference = tmp_path / "reference.txt"
        reference.write_text("x\n", encoding="utf-8")
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0)])
        assert os.stat(path).st_mode == os.stat(reference).st_mode

    def test_write_through_symlink(self, tmp_path):
        target = tmp_path / "real" / "trace.jsonl"
        target.parent.mkdir()
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        write_trace(link, [make_event("isl_down", 1.0)])
        assert link.is_symlink()
        assert read_trace(target) == [make_event("isl_down", 1.0)]
        assert sorted(os.listdir(target.parent)) == ["trace.jsonl"]

    @pytest.mark.parametrize("char", ["\u2028", "\u0085", "\u001c"])
    def test_line_separators_inside_strings_read_back(self, tmp_path, char):
        event = FaultEvent(
            1.0, "handover_spike", GroundLinkTarget(f"gs{char}0"), {"loss_rate": 0.5, "duration_s": 1.0}
        )
        raw = serialize_event(event).replace(json.dumps(char)[1:-1], char)
        assert char in raw
        path = tmp_path / "trace.jsonl"
        path.write_text('{"schema":"leofault/1"}\n' + raw + "\n", encoding="utf-8")
        if char < " ":  # JSON forbids raw control characters, so this one is an error
            with pytest.raises(TraceParseError, match="control character") as excinfo:
                read_trace(path)
            assert excinfo.value.byte_offset == len('{"schema":"leofault/1"}\n') + raw.index(char)
        else:
            assert read_trace(path) == [event]

    def test_offset_after_line_separator_is_byte_exact(self, tmp_path):
        header = '{"schema":"leofault/1"}'
        event = FaultEvent(
            1.0, "handover_spike", GroundLinkTarget("a\u2028b"), {"loss_rate": 0.5, "duration_s": 1.0}
        )
        raw = serialize_event(event).replace("\\u2028", "\u2028")
        good = serialize_event(make_event("isl_down", 1.0))
        bad = good.replace('"t":1.0', '"t":NaN')
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([header, raw, bad]) + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError) as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == len(header) + 1 + len(raw.encode("utf-8")) + 1

    @pytest.mark.parametrize("where", ["header", "event"])
    def test_invalid_utf8_reports_byte_offset(self, tmp_path, where):
        header = '{"schema":"leofault/1"}\n'.encode("utf-8")
        good = (serialize_event(make_event("isl_down", 1.0)) + "\n").encode("utf-8")
        event = FaultEvent(
            2.0, "handover_spike", GroundLinkTarget("\u00e9?"), {"loss_rate": 0.5, "duration_s": 1.0}
        )
        # a two-byte character before the bad byte: the offset counts bytes
        raw = serialize_event(event).replace("\\u00e9", "\u00e9").encode("utf-8")
        bad = raw.replace(b"?", b"\xff") + b"\n"
        lines = [bad, good] if where == "header" else [header, good, bad]
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(TraceParseError, match="invalid UTF-8") as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == sum(map(len, lines[: lines.index(bad)])) + bad.index(b"\xff")

    def test_error_at_end_of_line_points_at_its_newline(self, tmp_path):
        header = '{"schema":"leofault/1"}'
        truncated = serialize_event(make_event("isl_down", 1.0))[:-1]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([header, truncated, header]) + "\n")
        with pytest.raises(TraceParseError, match="Expecting") as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == len(header) + 1 + len(truncated)

    def test_json_error_offset_counts_bytes_after_non_ascii(self, tmp_path):
        header = '{"schema":"leofault/1"}\n'
        event = FaultEvent(
            1.0, "handover_spike", GroundLinkTarget("\u00e9\u2028"), {"loss_rate": 0.5, "duration_s": 1.0}
        )
        raw = serialize_event(event).replace("\\u00e9", "\u00e9").replace("\\u2028", "\u2028")
        bad = raw.replace("}}", ",}}")  # a trailing comma, after five bytes of two characters
        path = tmp_path / "trace.jsonl"
        path.write_text(header + bad + "\n", encoding="utf-8")
        with pytest.raises(TraceParseError, match="invalid JSON") as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == len(header) + len(bad[: bad.index(",}}") + 1].encode("utf-8"))

    def test_crlf_trace_reads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [make_event("isl_down", 1.0), make_event("isl_up", 2.0)])
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_trace(path) == [make_event("isl_down", 1.0), make_event("isl_up", 2.0)]

    @pytest.mark.parametrize(
        "target, params, extra, message",
        [
            ('{"type":"satellite","sat":[0,1,2]}', '{"dh_km":1.0}', ',"extra":1', "unknown key 'extra' in event"),
            ('{"type":"satellite","sat":[0,1,2],"device":3}', '{"dh_km":1.0}', "", "unknown key 'device' in satellite target"),
            ('{"type":"satellite"}', '{"dh_km":1.0}', "", "missing key 'sat' in satellite target"),
            ('{"sat":[0,1,2]}', '{"dh_km":1.0}', "", "unknown target type None"),
        ],
        ids=["event-extra-key", "satellite-target-device-key", "target-missing-key", "target-without-type"],
    )
    def test_unknown_and_missing_keys_rejected_at_line_offset(self, tmp_path, target, params, extra, message):
        header = '{"schema":"leofault/1"}'
        good = serialize_event(make_event("maneuver_end", 1.0))
        bad = f'{{"t":2.0,"kind":"maneuver_end","target":{target},"params":{params}{extra}}}'
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join([header, good, bad]) + "\n")
        with pytest.raises(TraceParseError, match=re.escape(message)) as excinfo:
            read_trace(path)
        assert excinfo.value.byte_offset == len(header) + 1 + len(good) + 1

    def test_event_missing_key_named(self):
        with pytest.raises(TraceParseError, match="missing key 'params' in event"):
            parse_event('{"t":1.0,"kind":"maneuver_end","target":{"type":"satellite","sat":[0,1,2]}}')

    @pytest.mark.parametrize("header", ['{"schema":"leofault/1","extra":1}', '{"schema":"leofault/2"}', "[]"])
    def test_header_must_be_exactly_the_schema(self, tmp_path, header):
        path = tmp_path / "trace.jsonl"
        path.write_text(header + "\n")
        with pytest.raises(TraceParseError, match="expected schema header"):
            read_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        with pytest.raises(TraceParseError, match="header"):
            read_trace(path)


def test_readme_trace_table_matches_kinds_params_and_writer():
    """The README trace table lists every kind with its target and params, and
    each target encoding it shows is what serialize_event writes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Trace format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\|([^|]*)\|$", section, re.MULTILINE)
    encodings = dict(re.findall(r"^- `(\w+)`: `(\{.*?\})`", section, re.MULTILINE))
    assert sorted(kind for kind, _, _ in rows) == sorted(KIND_TARGET_TYPE)
    assert {tag for _, tag, _ in rows} == set(encodings)
    for kind, tag, params in rows:
        assert frozenset(re.findall(r"`(\w+)`", params)) == KIND_PARAM_KEYS[kind], kind
        line = json.dumps(
            {"t": 1.0, "kind": kind, "target": json.loads(encodings[tag]),
             "params": {key: 1.0 for key in KIND_PARAM_KEYS[kind]}}
        )
        event = parse_event(line)
        assert type(event.target) is KIND_TARGET_TYPE[kind], kind
        written = json.loads(serialize_event(event))["target"]
        assert json.dumps(written, separators=(",", ":")) == encodings[tag], kind


def test_only_the_merge_reads_sort_key():
    """Sources sort and yield rows whose tuple order is sort_key order, and
    simulate merges and writes those rows, so only merge_traces, for events
    from the library, builds an event's key."""
    package = Path(trace_module.__file__).parent
    readers = sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "sort_key"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert readers == ["trace.py"]
