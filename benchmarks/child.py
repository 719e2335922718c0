"""One iteration of a benchmark workload, in a fresh interpreter.

Usage: python child.py '<json spec>'   (started by run.py; cwd = work dir)

The spec names the workload, the mode and the expected digests:

* mode "setup" takes the CPU time of `import leofault`, config load,
  fleet build and GridTopology construction, the set-up every command
  pays;
* mode "run" runs the workload's commands through the public entry
  points, records the CPU time used until the last output is written,
  reads the outputs back and checks them;
* mode "traced" does the same with the outside-in tracer installed and
  writes the spans to spans.npz.

The last stdout line is one JSON object with the timings, the operation
outcomes and the exact work counts.
"""

import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# A read-back is repeated this many times, so that short reads are
# still measured steadily, and each read is followed by a slice of the
# reference kernel of this many units, about as long as the read. The
# counts are fixed, not timed, so that traced runs repeat their call
# counts exactly.
READS = {"gen1-scan": (5, 10), "catalog-io": (3, 60), "dense-ground": (200, 1)}
KERNEL_UNITS = 200


def reference_kernel(units: int = KERNEL_UNITS) -> float:
    """CPU time of a fixed job that no change to leofault can affect.

    The host this benchmark was built on ran up to twice as slow in some
    minutes as in others, for every workload at once. run.py divides the
    workload's CPU times by this kernel's, measured in the same runs, so
    that the reported ratios follow the program rather than the host.
    The job mixes what leofault spends its time on: numpy arithmetic on
    arrays the size of a constellation, numpy calls on single 3-vectors,
    and Python objects through json. A slice of fewer units does the
    same mix, scaled down. The garbage collector is off while it runs,
    so that its time does not depend on the objects the workload left.
    """
    import numpy as np

    gc.disable()
    t0 = time.process_time()
    positions = np.random.default_rng(0).random((9000, 3))
    for _ in range(units):
        d = positions[::-1] - positions
        np.sqrt(np.sum(d * d, axis=-1))
    station = np.array([6371.0, 0.0, 0.0])
    for k in range(40 * units):
        d = np.array([7000.0, k * 0.1, 5.0]) - station
        np.degrees(np.arcsin(np.clip(np.sum(d * station) / np.sqrt(np.sum(d * d)) / 6371.0, -1, 1)))
    rows = [{"t": i * 0.5, "kind": "device_reboot", "sat": [0, i % 72, i % 22]} for i in range(150 * units)]
    text = json.dumps(rows)
    json.loads(text)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    elapsed = time.process_time() - t0
    gc.enable()
    return elapsed


def mark_written(out: dict) -> None:
    """The last output is written: record the wall clock, the CPU time
    this process has used since the interpreter started, and its peak
    memory so far, before the read-back can raise it."""
    out["t_written"] = time.monotonic()
    out["cpu_s"] = time.process_time()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckFailed(Exception):
    """An output does not match what the workload must produce."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_leofault_source(src: str) -> None:
    import leofault

    origin = Path(leofault.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise CheckFailed(f"leofault imported from {origin}, not from {src}")


def timed_reads(read, path, workload: str):
    """CPU times of repeated reads, the time of the kernel slice after
    each one scaled to the whole kernel, and the last read's result.

    The host's speed changed within a second, so a read is compared with
    kernel work done right after it rather than at the end of the process.
    """
    repeats, units = READS[workload]
    times, kernel = [], []
    for _ in range(repeats):
        result = None  # so two results are never held at once
        t0 = time.process_time()
        result = read(path)
        times.append(time.process_time() - t0)
        kernel.append(reference_kernel(units) * KERNEL_UNITS / units)
    return times, kernel, result


def parse_summary(text: str) -> dict:
    """The numbers `leofault simulate` prints about the trace it wrote."""
    summary = {"event_counts": {}}
    for line in text.splitlines():
        if line.startswith("config (defaults materialized)"):
            break
        if m := re.fullmatch(r"events: (\d+)", line):
            summary["n_events"] = int(m.group(1))
        elif m := re.fullmatch(r"  (\w+): (\d+)", line):
            summary["event_counts"][m.group(1)] = int(m.group(2))
        elif m := re.fullmatch(r"seu events: expected \S+, sampled (\d+)", line):
            summary["sampled_seu_count"] = int(m.group(1))
    return summary


def check_trace(events, summary: dict) -> None:
    """Structural checks that hold for a simulate trace at any seed."""
    for prev, cur in zip(events, events[1:]):
        if cur.t_s < prev.t_s:
            raise CheckFailed(f"trace not time-sorted at t={cur.t_s}")
    if len(events) != summary.get("n_events"):
        raise CheckFailed(f"trace has {len(events)} events, summary says {summary.get('n_events')}")
    kinds = Counter(e.kind for e in events)
    if dict(kinds) != summary["event_counts"]:
        raise CheckFailed(f"trace kinds {dict(kinds)} != summary {summary['event_counts']}")
    seu = kinds["device_reboot"] + kinds["device_permanent_failure"]
    if seu != summary.get("sampled_seu_count"):
        raise CheckFailed(f"sampled SEU count {summary.get('sampled_seu_count')} != {seu} in trace")


def check_digests(actual: dict, golden) -> None:
    """At the default seed, outputs must match their pinned SHA-256."""
    if golden is not None and actual != golden:
        raise CheckFailed(f"output digests {actual} != pinned {golden}")


class Ops:
    """Runs the workload's operations, recording each one's outcome."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of the program counts against error_rate
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)


def run_simulate(spec, ops: Ops, out: dict) -> None:
    import leofault
    from leofault import cli

    captured = io.StringIO()
    with ops.op("simulate"):
        with contextlib.redirect_stdout(captured):
            code = cli.main(["simulate", "--config", "config.json", "--out", "trace.jsonl"])
        if code != 0:
            raise CheckFailed(f"simulate exited with {code}")
    mark_written(out)
    with ops.op("read-back"):
        out["read_s"], out["read_kernel_s"], events = timed_reads(
            leofault.read_trace, "trace.jsonl", spec["workload"]
        )
        summary = parse_summary(captured.getvalue())
        check_trace(events, summary)
        kinds = Counter(e.kind for e in events)
        out["counts"].update(
            {
                "trace.events": len(events),
                "trace.bytes": Path("trace.jsonl").stat().st_size,
                **{f"trace.events.{k}": kinds[k] for k in leofault.trace.KIND_TARGET_TYPE},
            }
        )
        out["digests"]["trace.jsonl"] = sha256_file("trace.jsonl")
        check_digests(out["digests"], spec["golden"])


def render_handovers(station_id, schedule, spikes) -> str:
    """Canonical text of one station's handover schedule and spikes."""
    import leofault

    lines = [f"{station_id} {t!r} {a.label()} {b.label()}" for t, a, b in schedule]
    lines.extend(leofault.serialize_event(e) for e in spikes)
    return "\n".join(lines) + "\n"


def run_dense_ground(spec, ops: Ops, out: dict) -> None:
    import leofault
    from leofault import cli

    with ops.op("isl-cdf"):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["isl-cdf", "--config", "config.json", "--out", "cdf.csv"])
        if code != 0:
            raise CheckFailed(f"isl-cdf exited with {code}")

    config = None
    with ops.op("fleet"):
        config = leofault.load_config("config.json")
        constellation = leofault.build_fleet(config)
    if config is None:
        return
    rendered = []
    spike_kinds = Counter()
    for gs in config.ground_stations:
        with ops.op(f"handovers/{gs.id}"):
            windows = leofault.visibility_windows(gs, constellation, 0.0, config.duration_s, 10.0)
            schedule = leofault.handover_schedule(windows, gs, constellation, step_s=1.0)
            spikes = leofault.sample_handover_spikes(
                config.faults,
                [gs.id],
                0.0,
                config.duration_s,
                leofault.RandomStreams(config.seed),
                mode="geometric",
                schedules={gs.id: [t for t, _, _ in schedule]},
            )
            times = [t for t, _, _ in schedule]
            if times != sorted(times) or any(a == b for _, a, b in schedule):
                raise CheckFailed(f"{gs.id}: handover schedule out of order or self-handover")
            if [e.t_s for e in spikes] != times:
                raise CheckFailed(f"{gs.id}: {len(spikes)} spikes for {len(schedule)} handovers")
            if not schedule:
                raise CheckFailed(f"{gs.id}: no handovers in the window")
            rendered.append(render_handovers(gs.id, schedule, spikes))
            spike_kinds.update(e.kind for e in spikes)
    Path("handovers.txt").write_text("".join(rendered), encoding="utf-8")
    mark_written(out)

    with ops.op("read-back"):
        out["read_s"], out["read_kernel_s"], cdf = timed_reads(
            leofault.read_cdf_csv, "cdf.csv", spec["workload"]
        )
        if not cdf.points:
            raise CheckFailed("empty CDF")
        out["counts"].update(
            {
                "trace.events": sum(spike_kinds.values()),
                "trace.bytes": 0,
                **{f"trace.events.{k}": spike_kinds[k] for k in leofault.trace.KIND_TARGET_TYPE},
            }
        )
        out["digests"].update({name: sha256_file(name) for name in ("cdf.csv", "handovers.txt")})
        check_digests(out["digests"], spec["golden"])


def run_setup(spec, out: dict) -> None:
    t0 = time.process_time()
    import leofault

    config = leofault.load_config("config.json")
    constellation = leofault.build_fleet(config)
    leofault.GridTopology(constellation, config.earth_radius_km)
    out["setup_s"] = time.process_time() - t0
    check_leofault_source(spec["src"])


def main() -> int:
    spec = json.loads(sys.argv[1])
    ops = Ops()
    out = {"counts": {}, "digests": {}}
    if spec["mode"] == "setup":
        with ops.op("setup"):
            run_setup(spec, out)
    else:
        run = run_dense_ground if spec["workload"] == "dense-ground" else run_simulate
        with ops.op("import"):
            import leofault  # noqa: F401  (imported before the tracer installs)

            check_leofault_source(spec["src"])
        if spec["mode"] == "traced":
            from tracer import Tracer, wrapper_cost_s

            tracer = Tracer()
            with tracer.installed():
                run(spec, ops, out)
            out["layers"] = tracer.summary()
            tracer.write("spans.npz")
            out["wrapper_cost_s"] = wrapper_cost_s()
        else:
            run(spec, ops, out)
    out["reference_s"] = reference_kernel()
    out["attempted"] = ops.attempted
    out["failures"] = ops.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
