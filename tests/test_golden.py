"""Pinned SHA-256 digests of reference outputs.

Byte-identical traces for a given config are the contract users rely on,
so any refactor of the ISL scan, the fleet arrays or the time grid must
leave these digests unchanged. A deliberate behaviour change updates a
digest here and says so in CHANGES.md.
"""

import hashlib
import json
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from leofault import (
    EccentricityWarning,
    FaultModelConfig,
    GridTopology,
    GroundStation,
    RandomStreams,
    TleRecord,
    build_fleet,
    config_from_dict,
    handover_schedule,
    offsets_at,
    read_trace,
    run_simulation,
    sample_handover_spikes,
    sample_maneuvers,
    serialize_event,
    serialize_tle,
    visibility_windows,
)
from leofault import topology
from leofault.cli import main
from leofault.faults import MAX_TOTAL_OFFSET_KM
from leofault.orbital import time_grid
from leofault.tle import ECCENTRICITY_WARN_LIMIT
from leofault.trace import KIND_TARGET_TYPE
from test_trace import assert_template_path_agrees

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

# Maneuvers far denser than their dwell: on one polar shell most
# satellites carry several at once, so overlapping offsets, their sums and
# the +-10 km clamp all shape which links go down.
OVERLAP_CONFIG = {
    "shells": [{"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 4, "sats_per_plane": 43}],
    "faults": {"maneuver_rate_per_sat_year": 200000.0, "maneuver_dwell_s": 1200.0},
    "duration_s": 3600.0,
    "step_s": 10.0,
    "seed": 1,
}

# Every event kind, from a grid shell, a TLE catalog and two stations
# under rain that crosses both thresholds. The TLE file and the
# precipitation CSV are written into the test's directory.
ALL_KINDS_CONFIG = {
    "shells": [{"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 4, "sats_per_plane": 43}],
    "ground_stations": [
        {"id": "a", "latitude_deg": 52.5, "longitude_deg": 13.4},
        {"id": "b", "latitude_deg": -33.9, "longitude_deg": 151.2},
    ],
    "faults": {
        "seu_rate_per_device_day": 0.05,
        "seu_permanent_prob": 0.2,
        "maneuver_rate_per_sat_year": 20000.0,
        "maneuver_dwell_s": 600.0,
    },
    "duration_s": 3600.0,
    "step_s": 10.0,
    "seed": 1,
}
ALL_KINDS_PRECIPITATION = "t_s,mm_per_h\n0,0.5\n600,3.0\n1200,6.0\n2400,3.0\n3000,1.0\n"
ALL_KINDS_TLE_RECORDS = 40

DENSE_CONFIG = {
    "shells": [{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 72, "sats_per_plane": 22}],
    "duration_s": 3600.0,
    "step_s": 10.0,
    "seed": 1,
}

# isl-cdf's Gen1 reference: the five shells over 2 h. The polar shells'
# classes are the smallest, so their class-steps fall back most often.
GEN1_CDF_CONFIG = {"shells": GEN1_SHELLS, "duration_s": 7200.0, "step_s": 10.0, "seed": 1}

# The reference run: the Gen1 shells with two stations over a whole day.
GEN1_DAY_CONFIG = {
    "shells": GEN1_SHELLS,
    "ground_stations": [
        {"id": "berlin", "latitude_deg": 52.5, "longitude_deg": 13.4},
        {"id": "seattle", "latitude_deg": 47.6, "longitude_deg": -122.3},
    ],
    "faults": {"seu_rate_per_device_day": 1e-3},
    "duration_s": 86400.0,
    "step_s": 10.0,
    "seed": 1,
}

GEN1_TRACE_SHA256 = "27557f975ca7a9bb629b4f7ba5cadda2fdca551561d9f7cefbe2b01a90f524d8"
ALL_KINDS_TRACE_SHA256 = "46bb5cb0684b5ba729b136244ba7df1c1eff8624b08955590a0edac735023437"
GEN1_DAY_TRACE_SHA256 = "de8f779a7ca97c00fe68a63c3569eb92e509ce319a5aa08266d83f0f25c940a1"
OVERLAP_TRACE_SHA256 = "2bb650d898740459ca891e54756763c8c9c50ad36a2eafa59f0adba5f5e73062"
DENSE_CDF_PER_STEP_SHA256 = "e0feba950a4d0692c4e9adb08bab776cc651f02004d2d2bf583e876dd1336d0d"
DENSE_CDF_PER_LINK_MIN_SHA256 = "16cee8be245f935672a6dee1e7ff6b03ce528e6e1aa679632d5dff970ff6f867"
GEN1_CDF_PER_STEP_SHA256 = "c9067ac0e4b3d879f8c2f72ff63fdd4772ca2bc0d46af7e9de2ebc9e10fb021b"
GEN1_CDF_PER_LINK_MIN_SHA256 = "0a1bf94e0f23038971205d830faa27f3f7107fc9a07157bbfbf233c6e301477c"
ELEMENTS_SHA256 = "c52e2442f414146a09fb3805d374839c218d8db20baa4b12bf85f77e3099eb75"

# A seeded catalog of named and unnamed records over every field's range,
# some eccentric enough to warn. No trace pins element values: catalog
# satellites carry no ISLs, and their faults do not depend on the orbit.
ELEMENTS_TLE_RECORDS = 300

# Geometric ground path on the dense shell over 30 min: visibility
# windows at 10 s, the 1 s handover schedule and its geometric spikes.
GROUND_WINDOW_S = 1800.0
GROUND_DIGESTS = {
    "berlin": (
        GroundStation("berlin", 52.5, 13.4),
        "154e2fd968931f5200e8e98fc96b61cd7d756ea46aaf5ce62dda064200414f1c",
        "09e1deaa5652bb06a459a8d9b6183b1d7c12da0aeb684857030ffed261928b07",
    ),
    "mid": (
        GroundStation("mid", 30.0, 0.0),
        "15e3ed0609f074c60dbd6397ab1ae810007c4a2e0110fb848609c0c9e32abbb1",
        "df47e870981ab2884288545f2d46024133fac8ab0565ef9c114f419609c6439a",
    ),
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def scan_work(printed: str) -> tuple:
    """(ISL edge evaluations, ISL scan blocks) from simulate's printed summary."""
    evaluations = re.search(r"^isl edge evaluations: (\d+) of \d+$", printed, re.M)
    blocks = re.search(r"^isl scan blocks: (\d+)$", printed, re.M)
    return int(evaluations[1]), int(blocks[1])


def test_gen1_trace_digest(tmp_path, capsys):
    config = write_config(tmp_path, GEN1_CONFIG)
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    kinds = Counter(e.kind for e in read_trace(out))
    for kind in ("maneuver_start", "maneuver_end", "isl_down", "isl_up"):
        assert kinds[kind] > 0, kind
    assert sha256_of(out) == GEN1_TRACE_SHA256
    assert scan_work(capsys.readouterr().out) == (19_386, 88)


def test_overlapping_maneuvers_trace_digest(tmp_path, capsys):
    config = write_config(tmp_path, OVERLAP_CONFIG)
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    kinds = Counter(e.kind for e in read_trace(out))
    for kind in ("maneuver_start", "maneuver_end", "isl_down", "isl_up"):
        assert kinds[kind] > 0, kind
    parsed = config_from_dict(OVERLAP_CONFIG)
    fleet = sorted(build_fleet(parsed))
    maneuvers = sample_maneuvers(
        parsed.faults, fleet, 0.0, parsed.duration_s, RandomStreams(parsed.seed)
    )
    clamped = sum(
        abs(v) == MAX_TOTAL_OFFSET_KM
        for t in time_grid(0.0, parsed.duration_s, parsed.step_s)
        for v in offsets_at(maneuvers, float(t)).values()
    )
    assert clamped > 0
    assert sha256_of(out) == OVERLAP_TRACE_SHA256
    assert scan_work(capsys.readouterr().out) == (28_999, 361)


def catalog_text(n: int) -> str:
    rng = np.random.default_rng(40)
    lines = []
    for i in range(n):
        rec = TleRecord(
            catalog_number=20000 + i,
            epoch_year=2023,
            epoch_day=round(float(rng.uniform(1.0, 365.0)), 8),
            inclination_deg=round(float(rng.uniform(0.0, 110.0)), 4),
            raan_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            eccentricity=int(rng.integers(0, 100000)) / 1e7,
            arg_perigee_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            mean_anomaly_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            mean_motion_rev_per_day=round(float(rng.uniform(14.5, 15.6)), 8),
        )
        lines.extend(serialize_tle(rec))
    return "\n".join(lines) + "\n"


def elements_catalog() -> tuple:
    """The catalog's text and its records, in file order."""
    rng = np.random.default_rng(28)
    lines, records = [], []
    for i in range(ELEMENTS_TLE_RECORDS):
        rec = TleRecord(
            catalog_number=int(rng.integers(0, 100000)),
            epoch_year=int(rng.integers(1957, 2057)),
            epoch_day=round(float(rng.uniform(0.0, 366.9)), 8),
            inclination_deg=round(float(rng.uniform(0.0, 180.0)), 4),
            raan_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            eccentricity=int(rng.integers(0, 400000)) / 1e7,
            arg_perigee_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            mean_anomaly_deg=round(float(rng.uniform(0.0, 359.99)), 4),
            mean_motion_rev_per_day=round(float(rng.uniform(0.5, 17.0)), 8),
            name=f"OBJECT {i}" if i % 3 else None,
            element_number=int(rng.integers(0, 10000)),
            rev_number=int(rng.integers(0, 100000)),
        )
        lines.extend([rec.name] if rec.name else [])
        lines.extend(serialize_tle(rec))
        records.append(rec)
    return "\n".join(lines) + "\n", records


def test_tle_elements_digest(tmp_path):
    text, records = elements_catalog()
    tle_path = tmp_path / "catalog.tle"
    tle_path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fleet = build_fleet(config_from_dict({"tle_files": [str(tle_path)]}))
    eccentric = [r.catalog_number for r in records if r.eccentricity > ECCENTRICITY_WARN_LIMIT]
    assert eccentric and all(w.category is EccentricityWarning for w in caught)
    assert [int(str(w.message).split()[1].rstrip(":")) for w in caught] == eccentric
    rendered = "".join(
        f"{sat.label()} {e.semi_major_axis_km!r} {e.inclination_deg!r} {e.raan_deg!r} {e.phase_deg!r}\n"
        for sat, e in sorted(fleet.items())
    )
    assert len(fleet) == ELEMENTS_TLE_RECORDS
    assert sha256_text(rendered) == ELEMENTS_SHA256


def test_gen1_day_trace_digest(tmp_path):
    out = tmp_path / "trace.jsonl"
    summary = run_simulation(config_from_dict(GEN1_DAY_CONFIG), out)
    assert summary["n_events"] == 33_594
    assert sha256_of(out) == GEN1_DAY_TRACE_SHA256
    assert (summary["isl_edge_evaluations"], summary["isl_scan_blocks"]) == (1_623_274, 606)


def test_all_kinds_trace_digest(tmp_path, capsys):
    tle_path = tmp_path / "catalog.tle"
    tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
    rain_path = tmp_path / "rain.csv"
    rain_path.write_text(ALL_KINDS_PRECIPITATION, encoding="utf-8")
    config = write_config(
        tmp_path,
        {**ALL_KINDS_CONFIG, "tle_files": [str(tle_path)], "precipitation_csv": str(rain_path)},
    )
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    kinds = Counter(e.kind for e in read_trace(out))
    for kind in (
        "device_permanent_failure",
        "device_reboot",
        "gs_link_degraded",
        "handover_spike",
        "isl_down",
        "isl_up",
        "maneuver_end",
        "maneuver_start",
    ):
        assert kinds[kind] > 0, kind
    assert sha256_of(out) == ALL_KINDS_TRACE_SHA256


def test_all_kinds_summary_counts_match_written_trace(tmp_path):
    # the summary counts kinds while the trace is written; the file is the truth
    tle_path = tmp_path / "catalog.tle"
    tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
    rain_path = tmp_path / "rain.csv"
    rain_path.write_text(ALL_KINDS_PRECIPITATION, encoding="utf-8")
    config = config_from_dict(
        {**ALL_KINDS_CONFIG, "tle_files": [str(tle_path)], "precipitation_csv": str(rain_path)}
    )
    out = tmp_path / "trace.jsonl"
    summary = run_simulation(config, out)
    assert sha256_of(out) == ALL_KINDS_TRACE_SHA256
    kinds = Counter(e.kind for e in read_trace(out))
    assert summary["n_events"] == sum(kinds.values())
    assert summary["event_counts"] == dict(sorted(kinds.items()))
    assert sorted(summary["event_counts"]) == sorted(KIND_TARGET_TYPE)


@pytest.mark.parametrize(
    "config, digest",
    [
        (GEN1_CONFIG, GEN1_TRACE_SHA256),
        (OVERLAP_CONFIG, OVERLAP_TRACE_SHA256),
        (ALL_KINDS_CONFIG, ALL_KINDS_TRACE_SHA256),
    ],
    ids=["gen1", "overlap", "all-kinds"],
)
def test_every_trace_line_takes_the_template_path(tmp_path, config, digest):
    # the reader's template path reads every line the writer made, bit for bit as parse_event does
    if config is ALL_KINDS_CONFIG:
        tle_path, rain_path = tmp_path / "catalog.tle", tmp_path / "rain.csv"
        tle_path.write_text(catalog_text(ALL_KINDS_TLE_RECORDS), encoding="utf-8")
        rain_path.write_text(ALL_KINDS_PRECIPITATION, encoding="utf-8")
        config = {**config, "tle_files": [str(tle_path)], "precipitation_csv": str(rain_path)}
    out = tmp_path / "trace.jsonl"
    run_simulation(config_from_dict(config), out)
    assert sha256_of(out) == digest
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert lines and all(assert_template_path_agrees(line) is not None for line in lines)


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


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], GEN1_CDF_PER_STEP_SHA256),
        (["--per-link-min"], GEN1_CDF_PER_LINK_MIN_SHA256),
    ],
    ids=["per-step", "per-link-min"],
)
def test_gen1_isl_cdf_digest(tmp_path, capsys, flags, digest):
    config = write_config(tmp_path, GEN1_CDF_CONFIG)
    out = tmp_path / "cdf.csv"
    assert main(["isl-cdf", "--config", str(config), "--out", str(out), *flags]) == 0
    assert sha256_of(out) == digest


@pytest.mark.parametrize("flags", [[], ["--per-link-min"]], ids=["per-step", "per-link-min"])
@pytest.mark.parametrize(
    "config, evaluations",
    [({**DENSE_CONFIG, "duration_s": 1800.0}, 11_939), (GEN1_CDF_CONFIG, 227_774)],
    ids=["dense-30min", "gen1-2h"],
)
def test_isl_cdf_evaluations(tmp_path, capsys, monkeypatch, flags, config, evaluations):
    # the link kernel's evaluations: every class representative at every step, and the members of
    # the class-steps near a rounding boundary; a certificate that flags more changes these counts
    evaluated = []
    kernel = GridTopology._edge_grazing
    monkeypatch.setattr(GridTopology, "_edge_grazing",
                        lambda self, a, *args: evaluated.append(a.size) or kernel(self, a, *args))
    path = write_config(tmp_path, config)
    assert main(["isl-cdf", "--config", str(path), "--out", str(tmp_path / "cdf.csv"), *flags]) == 0
    assert sum(evaluated) == evaluations


def render_windows(windows) -> str:
    return "".join(
        f"{w.gs_id} {w.sat.label()} {w.start_s!r} {w.end_s!r} {w.max_elevation_deg!r}\n"
        for w in windows
    )


def render_handovers(gs_id, schedule, spikes) -> str:
    lines = [f"{gs_id} {t!r} {a.label()} {b.label()}\n" for t, a, b in schedule]
    lines.extend(serialize_event(e) + "\n" for e in spikes)
    return "".join(lines)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("station", sorted(GROUND_DIGESTS))
def test_ground_path_digest(dense_constellation, station):
    gs, windows_digest, handovers_digest = GROUND_DIGESTS[station]
    windows = visibility_windows(gs, dense_constellation, 0.0, GROUND_WINDOW_S, 10.0)
    schedule = handover_schedule(windows, gs, dense_constellation, step_s=1.0)
    spikes = sample_handover_spikes(
        FaultModelConfig(),
        [gs.id],
        0.0,
        GROUND_WINDOW_S,
        RandomStreams(1),
        mode="geometric",
        schedules={gs.id: [t for t, _, _ in schedule]},
    )
    assert schedule and len(spikes) == len(schedule)
    assert sha256_text(render_windows(windows)) == windows_digest
    assert sha256_text(render_handovers(gs.id, schedule, spikes)) == handovers_digest


@pytest.mark.parametrize("station, evaluations", [("berlin", 10_975), ("mid", 8_420)])
def test_ground_path_evaluations(dense_constellation, monkeypatch, station, evaluations):
    # the elevation samples of the golden ground paths, scan and bisection: due satellites in two
    # rounds per block of steps, then every halving; a looser skip bound changes these counts
    evaluated = []
    kernel = topology.elevation_angle
    monkeypatch.setattr(topology, "elevation_angle",
                        lambda gs_pos, sat_pos: evaluated.append(len(sat_pos)) or kernel(gs_pos, sat_pos))
    visibility_windows(GROUND_DIGESTS[station][0], dense_constellation, 0.0, GROUND_WINDOW_S, 10.0)
    assert sum(evaluated) == evaluations
