"""Pinned SHA-256 digests of reference outputs.

Byte-identical traces for a given config are the contract users rely on,
so any refactor of the ISL scan, the fleet arrays or the time grid must
leave these digests unchanged. A deliberate behaviour change updates a
digest here and says so in CHANGES.md.
"""

import hashlib
import json
from collections import Counter

import pytest

from leofault import read_trace
from leofault.cli import main

GEN1_SHELLS = [
    {"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22},
    {"altitude_km": 540.0, "inclination_deg": 53.2, "planes": 72, "sats_per_plane": 22},
    {"altitude_km": 570.0, "inclination_deg": 70.0, "planes": 36, "sats_per_plane": 20},
    {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 6, "sats_per_plane": 58},
    {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 4, "sats_per_plane": 43},
]

# A maneuver rate far above the physical ~12/year makes maneuvers start
# and end inside 15 minutes, so the offset path of the ISL scan shapes
# the trace.
GEN1_CONFIG = {
    "shells": GEN1_SHELLS,
    "ground_stations": [{"id": "berlin", "latitude_deg": 52.5, "longitude_deg": 13.4}],
    "faults": {
        "seu_rate_per_device_day": 1e-3,
        "maneuver_rate_per_sat_year": 2000.0,
        "maneuver_dwell_s": 300.0,
    },
    "precipitation_mm_h": 3.0,
    "duration_s": 900.0,
    "step_s": 10.0,
    "seed": 1,
}

DENSE_CONFIG = {
    "shells": [{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22}],
    "duration_s": 3600.0,
    "step_s": 10.0,
    "seed": 1,
}

GEN1_TRACE_SHA256 = "27557f975ca7a9bb629b4f7ba5cadda2fdca551561d9f7cefbe2b01a90f524d8"
DENSE_CDF_PER_STEP_SHA256 = "e0feba950a4d0692c4e9adb08bab776cc651f02004d2d2bf583e876dd1336d0d"
DENSE_CDF_PER_LINK_MIN_SHA256 = "16cee8be245f935672a6dee1e7ff6b03ce528e6e1aa679632d5dff970ff6f867"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_gen1_trace_digest(tmp_path, capsys):
    config = write_config(tmp_path, GEN1_CONFIG)
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    kinds = Counter(e.kind for e in read_trace(out))
    for kind in ("maneuver_start", "maneuver_end", "isl_down", "isl_up"):
        assert kinds[kind] > 0, kind
    assert sha256_of(out) == GEN1_TRACE_SHA256


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], DENSE_CDF_PER_STEP_SHA256),
        (["--per-link-min"], DENSE_CDF_PER_LINK_MIN_SHA256),
    ],
    ids=["per-step", "per-link-min"],
)
def test_dense_isl_cdf_digest(tmp_path, capsys, flags, digest):
    config = write_config(tmp_path, DENSE_CONFIG)
    out = tmp_path / "cdf.csv"
    assert main(["isl-cdf", "--config", str(config), "--out", str(out), *flags]) == 0
    assert sha256_of(out) == digest
