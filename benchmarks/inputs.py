"""Seeded input generation for the benchmark workloads.

Every file the program reads is generated here from the workload seed,
so the same seed always yields byte-identical inputs. Paths inside the
generated configs are relative to the work directory, which is also the
working directory of every child process, so the files do not depend on
where the checkout lives.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict

import numpy as np

from leofault.constants import EARTH_RADIUS_KM, MU_EARTH_M3_S2, SECONDS_PER_DAY
from leofault.tle import TleRecord, serialize_tle

from child import sha256_file

BERLIN = {"id": "berlin", "latitude_deg": 52.5, "longitude_deg": 13.4}
SEATTLE = {"id": "seattle", "latitude_deg": 47.6, "longitude_deg": -122.3}
MID_LAT = {"id": "mid_lat", "latitude_deg": 30.0, "longitude_deg": 0.0}

GEN1_SHELLS = [
    {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22},
    {"altitude_km": 540.0, "inclination_deg": 53.2, "planes": 72, "sats_per_plane": 22},
    {"altitude_km": 570.0, "inclination_deg": 70.0, "planes": 36, "sats_per_plane": 20},
    {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 6, "sats_per_plane": 58},
    {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 4, "sats_per_plane": 43},
]
# Two hours rather than ROADMAP's full day: iterations of about 4 s let a
# run take the median of several, which host noise of +-15% per
# iteration requires. The ISL scan still dominates and maneuvers start
# within the window, so the offset path runs.
GEN1_DURATION_S = 2 * 3600.0
# Half an hour rather than the full hour, for the same reason.
DENSE_DURATION_S = 1800.0
DENSE_SHELL = {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22}

CATALOG_OBJECTS = 6000
CATALOG_STATIONS = 8
# Kept below tle.ECCENTRICITY_WARN_LIMIT so no EccentricityWarning fires.
CATALOG_MAX_ECCENTRICITY = 0.015


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mean_motion_rev_per_day(altitude_km: float) -> float:
    a_m = (EARTH_RADIUS_KM + altitude_km) * 1e3
    return SECONDS_PER_DAY / (2.0 * math.pi * math.sqrt(a_m**3 / MU_EARTH_M3_S2))


def _catalog_text(rng: np.random.Generator) -> str:
    lines = []
    for i in range(CATALOG_OBJECTS):
        altitude = rng.uniform(350.0, 1200.0)
        rec = TleRecord(
            catalog_number=10000 + i,
            epoch_year=2023,
            epoch_day=round(float(rng.uniform(1.0, 365.0)), 8),
            inclination_deg=round(float(rng.uniform(0.0, 110.0)), 4),
            raan_deg=round(float(rng.uniform(0.0, 360.0)), 4) % 360.0,
            eccentricity=int(rng.integers(0, int(CATALOG_MAX_ECCENTRICITY * 1e7))) / 1e7,
            arg_perigee_deg=round(float(rng.uniform(0.0, 360.0)), 4) % 360.0,
            mean_anomaly_deg=round(float(rng.uniform(0.0, 360.0)), 4) % 360.0,
            mean_motion_rev_per_day=round(_mean_motion_rev_per_day(altitude), 8),
            name=f"BENCH-{i:05d}",
            element_number=int(rng.integers(1, 1000)),
            rev_number=int(rng.integers(0, 99999)),
        )
        lines.append(rec.name)
        lines.extend(serialize_tle(rec))
    return "\n".join(lines) + "\n"


def _precipitation_text(rng: np.random.Generator) -> str:
    """Per-minute precipitation over 24 h hovering around the 2-4 mm/h
    ramp, so most rows change the rain multiplier."""
    level = 3.0
    rows = ["t_s,mm_per_h"]
    for minute in range(24 * 60):
        level = 3.0 + 0.9 * (level - 3.0) + rng.normal(0.0, 0.6)
        rows.append(f"{minute * 60},{max(0.0, level):.2f}")
    return "\n".join(rows) + "\n"


def _stations(rng: np.random.Generator):
    return [
        {
            "id": f"gs{k}",
            "latitude_deg": round(float(rng.uniform(-60.0, 60.0)), 4),
            "longitude_deg": round(float(rng.uniform(-180.0, 180.0)), 4),
        }
        for k in range(CATALOG_STATIONS)
    ]


def generate(workload: str, seed: int, work_dir: Path) -> Dict[str, str]:
    """Write the workload's input files into work_dir.

    Returns {file name: SHA-256} for every generated file, so a change to
    the generator shows up as a digest change.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    sim_seed = seed % 2**64
    written = ["config.json"]
    if workload == "gen1-scan":
        config = {
            "shells": GEN1_SHELLS,
            "ground_stations": [BERLIN, SEATTLE],
            "faults": {"seu_rate_per_device_day": 1e-3},
            "duration_s": GEN1_DURATION_S,
            "step_s": 10.0,
            "seed": sim_seed,
        }
    elif workload == "catalog-io":
        rng = np.random.default_rng([seed, 1])
        (work_dir / "catalog.tle").write_text(_catalog_text(rng), encoding="utf-8")
        (work_dir / "rain.csv").write_text(_precipitation_text(rng), encoding="utf-8")
        stations = _stations(rng)
        _write_json(work_dir / "stations.json", stations)
        written += ["catalog.tle", "rain.csv", "stations.json"]
        config = {
            "tle_files": ["catalog.tle"],
            "ground_stations": stations,
            "faults": {"seu_rate_per_device_day": 0.1, "seu_permanent_prob": 0.01},
            "duration_s": 24 * 3600.0,
            "step_s": 10.0,
            "precipitation_csv": "rain.csv",
            "seed": sim_seed,
        }
    elif workload == "dense-ground":
        config = {
            "shells": [DENSE_SHELL],
            "ground_stations": [BERLIN, MID_LAT],
            "duration_s": DENSE_DURATION_S,
            "step_s": 10.0,
            "seed": sim_seed,
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(work_dir / "config.json", config)
    return {name: sha256_file(work_dir / name) for name in sorted(written)}
