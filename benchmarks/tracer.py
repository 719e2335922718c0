"""Outside-in tracer: wraps leofault's public functions without editing them.

Each wrapped call records a span (name, parent span, start, end) in
memory, timed by time.perf_counter: the CPU clock would cost a system
call per read, several times the wrapper's own cost. Self time is a span's duration minus the durations of the
wrapped calls made inside it, so work in private helpers such as
topology._refine_crossing shows up as its caller's self time.

`from module import name` copies a reference into the importing module,
so a function is replaced under its own name in every loaded leofault
module that holds it. Methods are replaced on their class. Everything is
restored when the `installed()` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _edge_evals(args, result) -> int:
    return len(result[0])


def _topology_edges(args, result) -> int:
    return args[0].n_edges


# (module, attribute or Class.method, layer metric prefix, optional counter).
# A counter is (metric name, function mapping (args, result) to a count).
TARGETS: List[Tuple[str, str, str, Optional[Tuple[str, Callable]]]] = [
    ("leofault.cli", "main", "cli.main", None),
    ("leofault.simulation", "load_config", "simulation.load_config", None),
    ("leofault.simulation", "build_fleet", "simulation.build_fleet", None),
    ("leofault.simulation", "run_simulation", "simulation.run_simulation", None),
    ("leofault.tle", "read_tle_file", "tle.read_tle_file", None),
    ("leofault.orbital", "build_constellation", "orbital.build_constellation", None),
    ("leofault.orbital", "propagate", "orbital.propagate", None),
    ("leofault.orbital", "propagate_arrays", "orbital.propagate_arrays", None),
    ("leofault.geometry", "grazing_altitude", "geometry.grazing_altitude", None),
    ("leofault.geometry", "elevation_angle", "geometry.elevation_angle", None),
    ("leofault.geometry", "ground_station_eci", "geometry.ground_station_eci", None),
    ("leofault.topology", "GridTopology.__init__", "topology.GridTopology", ("topology.edges", _topology_edges)),
    ("leofault.topology", "GridTopology.positions", "topology.positions", None),
    ("leofault.topology", "GridTopology.grazing", "topology.grazing", ("topology.grazing.edge_evals", _edge_evals)),
    ("leofault.topology", "visibility_windows", "topology.visibility_windows", None),
    ("leofault.topology", "handover_schedule", "topology.handover_schedule", None),
    ("leofault.faults", "RandomStreams.stream", "faults.RandomStreams.stream", None),
    ("leofault.faults", "offsets_at", "faults.offsets_at", None),
    ("leofault.faults", "sample_seu_events", "faults.sample_seu_events", None),
    ("leofault.faults", "sample_maneuvers", "faults.sample_maneuvers", None),
    ("leofault.faults", "sample_handover_spikes", "faults.sample_handover_spikes", None),
    ("leofault.faults", "rain_events", "faults.rain_events", None),
    ("leofault.faults", "read_precipitation_csv", "faults.read_precipitation_csv", None),
    ("leofault.trace", "merge_traces", "trace.merge_traces", None),
    ("leofault.trace", "write_trace", "trace.write_trace", None),
    ("leofault.trace", "serialize_event", "trace.serialize_event", None),
    ("leofault.trace", "read_trace", "trace.read_trace", None),
    ("leofault.trace", "parse_event", "trace.parse_event", None),
    ("leofault.stats", "min_isl_altitude_cdf", "stats.min_isl_altitude_cdf", None),
    ("leofault.stats", "write_cdf_csv", "stats.write_cdf_csv", None),
    ("leofault.stats", "read_cdf_csv", "stats.read_cdf_csv", None),
]


class Tracer:
    """Collects spans for the TARGETS while installed."""

    def __init__(self) -> None:
        self.names: List[str] = [prefix for _, _, prefix, _ in TARGETS]
        self.spans: List[Optional[Tuple[int, int, float, float]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, name_index: int, fn: Callable, counter) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (name_index, parent, start, end)
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        restore = []
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "leofault"]
        try:
            for index, (module_name, attr, _, counter) in enumerate(TARGETS):
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(index, original, counter))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(index, original, counter)
                for holder in modules:
                    if holder.__dict__.get(attr) is original:
                        restore.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(restore):
                setattr(holder, attr, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as parallel arrays: name index, parent span, start, end."""
        done = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {
            "name": done[:, 0].astype(np.int32),
            "parent": done[:, 1].astype(np.int64),
            "start": done[:, 2],
            "end": done[:, 3],
        }

    def summary(self) -> Dict[str, float]:
        """Per target: calls, total_s and self_s; plus the counters."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child_time = np.zeros(len(duration))
        has_parent = spans["parent"] >= 0
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        out: Dict[str, float] = {}
        for index, name in enumerate(self.names):
            mine = spans["name"] == index
            out[f"{name}.calls"] = int(np.count_nonzero(mine))
            out[f"{name}.total_s"] = float(duration[mine].sum())
            out[f"{name}.self_s"] = float(self_time[mine].sum())
        for _, _, _, counter in TARGETS:
            if counter is not None:
                out[counter[0]] = int(self.counts[counter[0]])
        return out

    def write(self, path) -> None:
        """Write the spans (and the name table) as a .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def wrapper_cost_s(calls: int = 20000, rounds: int = 5) -> float:
    """CPU time one wrapped call costs over a bare call, median of rounds.

    Multiplied by the number of spans, this is the time the tracer adds to
    a run. Comparing a traced with an untraced run instead gives mostly
    host noise, which on a shared virtual machine was larger than the
    overhead itself.
    """
    probe = Tracer()

    def bare():
        return None

    wrapped = probe._wrap(0, bare, None)
    costs = []
    for _ in range(rounds):
        t0 = time.process_time()
        for _ in range(calls):
            bare()
        t1 = time.process_time()
        for _ in range(calls):
            wrapped()
        t2 = time.process_time()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        probe.spans.clear()
    return float(np.median(costs))
