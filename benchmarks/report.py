"""Run every workload at the default and the held-out seed, print one table.

Run from the root of a checkout:

    python3 benchmarks/report.py [--out .bench_out/report.json]

For each workload this makes one end-to-end run of BENCHMARK.json's
run_seconds at the default seed (outputs checked against their pinned
digests), one at the held-out seed (structural checks only) and one
traced run at the default seed, whose two traced iterations must agree
on every exact count. It prints every end-to-end metric and
error_rate by name with its unit, the raw seconds behind the ratio
metrics, the tracing overhead, and writes the whole record as JSON. The
record makes no performance claim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED, work_dir

RUNNER = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation; returns the record it leaves in its work dir."""
    subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.DEVNULL,
        check=True,
    )
    record = work_dir(Path.cwd(), workload, seed, trace) / "record.json"
    return json.loads(record.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".bench_out/report.json")
    args = parser.parse_args(argv)

    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "claim": None,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "seconds": declared["run_seconds"],
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    ok = True
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        entry = {}
        for label, seed in (("default", DEFAULT_SEED), ("held_out", HELD_OUT_SEED)):
            run_record = run(workload, seed, declared["run_seconds"], 0)
            entry[label] = run_record
            result = run_record["result"]
            ok &= result["correct"]
            for name in ("wall_s", "cpu_s", "read_s", "setup_raw_s", "reference_s"):
                rows.append((workload, seed, name, run_record["measured"][name], "s"))
            for name, metric in result["metrics"].items():
                rows.append((workload, seed, name, metric["value"], metric["unit"]))
            rows.append(
                (workload, seed, "error_rate", result["failed"] / result["attempted"], "ratio")
            )
        traced = run(workload, DEFAULT_SEED, declared["run_seconds"], 1)
        entry["traced"] = traced["result"]
        entry["traced_counts_repeat"] = traced["measured"].get("counts_repeat", False)
        ok &= traced["result"]["correct"] and entry["traced_counts_repeat"]
        overhead = traced["result"]["metrics"]["tracer.overhead_s"]
        rows.append((workload, DEFAULT_SEED, "tracer.overhead_s", overhead["value"], "s"))
        rows.append(
            (workload, DEFAULT_SEED, "traced_counts_repeat", int(entry["traced_counts_repeat"]), "bool")
        )
        record["workloads"][workload] = entry

    for workload, seed, name, value, unit in rows:
        print(f"{workload:13s} seed={seed:<5d} {name:22s} {value:12.6g} {unit}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record written to {args.out}; all checks {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
