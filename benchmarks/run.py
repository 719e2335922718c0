"""Benchmark runner for leofault.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload gen1-scan --seed 1 --seconds 30 --trace 0

The runner generates the workload's inputs from --seed under
.bench_out/, then starts every iteration as a fresh single-threaded
Python process (child.py) that imports leofault from the checkout's
src/ and calls its public entry points.

--trace 0 reports the end-to-end metrics: set-up probes interleaved
with whole iterations for --seconds (at least MIN_ITERATIONS and
MIN_SETUP_PROBES), each metric the median over its samples, except
cpu_ref, a ratio of means. Times are
the CPU time of the measuring process: on a shared virtual machine,
time stolen by the host makes wall time swing far more than the work
does. Wall time is still recorded. --trace 1 reports the per-layer
metrics: one untraced and two traced iterations; the two traced
iterations must repeat every exact count.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics that BENCHMARK.json declares for the mode. A readable table
goes to stderr, and the full record (medians, failures, digests) to
record.json in the work directory. Exits 2 without a result if the
checkout has no leofault source or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
MIN_SETUP_PROBES = 5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150
# setup_s is reported in seconds of a host on which child.reference_kernel
# takes this much CPU time, its typical time on the build host.
REFERENCE_HOST_S = 0.35


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.output_digests: Dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


def spawn(mode: str, workload: str, work: Path, src: Path, pinned, tally: Tally) -> Optional[dict]:
    """One child iteration; returns its report with wall_s added, or None."""
    spec = {"mode": mode, "workload": workload, "src": str(src), "golden": pinned}
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=work,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.attempted += 1
        tally.fail(f"{mode} iteration timed out after {CHILD_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tally.attempted += 1
        tally.fail(f"{mode} iteration exited with {proc.returncode}")
        return None
    report = json.loads(lines[-1])
    tally.attempted += report["attempted"]
    for failure in report["failures"]:
        tally.failures.append(failure)
        print(f"FAILED: {failure}", file=sys.stderr)
    tally.output_digests.update(report["digests"])
    if "t_written" in report:
        report["wall_s"] = report["t_written"] - started
    return report


def samples(reports: List[Optional[dict]], key: str) -> List[float]:
    """Every sample of key over the reports; read_s holds several per report."""
    values = []
    for report in reports:
        if report is not None and key in report:
            value = report[key]
            values.extend(value if isinstance(value, list) else [value])
    return values


def work_dir(root: Path, workload: str, seed: int, trace: int) -> Path:
    return root / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"


def end_to_end(workload, seconds, work, src, pinned, tally) -> Dict[str, float]:
    """Medians over set-up probes and whole iterations, interleaved so that
    both sample the whole run rather than one phase of a noisy host."""
    probes, iterations = [], []
    begin = time.monotonic()
    while True:
        probes.append(spawn("setup", workload, work, src, pinned, tally))
        iterations.append(spawn("run", workload, work, src, pinned, tally))
        elapsed = time.monotonic() - begin
        if len(iterations) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(iterations)) > seconds:
            break
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(spawn("setup", workload, work, src, pinned, tally))
    measured = {
        "cpu_s": samples(iterations, "cpu_s"),
        "wall_s": samples(iterations, "wall_s"),
        "setup_s": samples(probes, "setup_s"),
        "peak_rss_mb": samples(iterations, "peak_rss_mb"),
        "read_s": samples(iterations, "read_s"),
        "read_kernel_s": samples(iterations, "read_kernel_s"),
        "reference_s": samples(probes + iterations, "reference_s"),
    }
    for name, values in measured.items():
        print(f"{name} samples: {' '.join(f'{v:.4g}' for v in values)}", file=sys.stderr)
    medians = {name: statistics.median(values) for name, values in measured.items() if values}
    # The host's slow spells last minutes and hit every process of a run:
    # the iterations' mean CPU time is divided by the run's mean kernel
    # time. A single kernel took anywhere from 0.22 s to 0.5 s, and over a
    # handful of them a median of such a spread moved more than a mean.
    # The reads are divided by the kernel slices timed right after each of
    # them. Set-ups also vary from process to process, so each is divided
    # by the kernel time of the same process.
    if measured["cpu_s"] and measured["reference_s"]:
        medians["cpu_ref"] = statistics.fmean(measured["cpu_s"]) / statistics.fmean(
            measured["reference_s"]
        )
    if "read_s" in medians and "read_kernel_s" in medians:
        medians["read_ref"] = medians["read_s"] / medians["read_kernel_s"]
    setup_ref = [r["setup_s"] / r["reference_s"] for r in probes if r is not None]
    if setup_ref:
        medians["setup_raw_s"] = medians.pop("setup_s")
        medians["setup_s"] = statistics.median(setup_ref) * REFERENCE_HOST_S
    return medians


def per_layer(workload, work, src, pinned, tally) -> Dict[str, float]:
    untraced = spawn("run", workload, work, src, pinned, tally)
    traced = [spawn("traced", workload, work, src, pinned, tally) for _ in range(2)]
    if untraced is None or None in traced:
        return {}
    first, second = ({**r["layers"], **r["counts"]} for r in traced)
    tally.attempted += 1
    differ = [
        f"{name}: {first[name]} != {second.get(name)}"
        for name in sorted(first)
        if not name.endswith("_s") and first[name] != second.get(name)
    ]
    if differ:
        tally.fail("exact counts differ between traced iterations: " + "; ".join(differ))
    metrics = {
        name: statistics.median([first[name], second[name]]) if name.endswith("_s") else first[name]
        for name in first
    }
    metrics["counts_repeat"] = not differ
    metrics["tracer.untraced_cpu_s"] = untraced["cpu_s"]
    metrics["tracer.traced_cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    metrics["tracer.untraced_wall_s"] = untraced["wall_s"]
    metrics["tracer.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["tracer.spans"] = sum(first[n] for n in first if n.endswith(".calls"))
    metrics["tracer.overhead_s"] = metrics["tracer.spans"] * statistics.median(
        r["wrapper_cost_s"] for r in traced
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "leofault" / "__init__.py").is_file():
        print(f"error: no leofault source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import inputs

    work = work_dir(root, args.workload, args.seed, args.trace)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tally = Tally()
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    pinned = golden[args.workload] if args.seed == DEFAULT_SEED else None
    input_digests = inputs.generate(args.workload, args.seed, work)
    tally.attempted += 1  # input generation
    if pinned is not None and input_digests != pinned["inputs"]:
        tally.fail(f"generated inputs {input_digests} != pinned {pinned['inputs']}")
    outputs = None if pinned is None else pinned["outputs"]

    if args.trace:
        measured = per_layer(args.workload, work, src, outputs, tally)
        wanted = declared["per_layer"]
    else:
        measured = end_to_end(args.workload, args.seconds, work, src, outputs, tally)
        wanted = declared["end_to_end"]

    metrics = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            tally.attempted += 1
            tally.fail(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:45s} {value:14.6g} {metric['unit']}", file=sys.stderr)
    failed = len(tally.failures)
    print(
        f"{'error_rate':45s} {failed / tally.attempted:14.6g} ratio ({failed}/{tally.attempted})",
        file=sys.stderr,
    )
    print(f"input digests: {json.dumps(input_digests, sort_keys=True)}", file=sys.stderr)
    print(f"output digests: {json.dumps(tally.output_digests, sort_keys=True)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "result": result,
        "measured": measured,
        "failures": tally.failures,
        "input_digests": input_digests,
        "output_digests": tally.output_digests,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
