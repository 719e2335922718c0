"""End-to-end acceptance checks.

Each test evaluates one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from leofault import (
    CdfTable,
    CircularElements,
    FaultModelConfig,
    GridTopology,
    RandomStreams,
    SatelliteId,
    ShellSpec,
    build_constellation,
    checksum,
    default_dose_profile,
    dose_rate,
    expected_seu_count,
    min_isl_altitude_cdf,
    propagate,
    read_trace,
    sample_handover_spikes,
    sample_maneuvers,
    sample_seu_events,
    serialize_event,
    rain_multiplier,
    run_simulation,
    config_from_dict,
    write_cdf_csv,
    read_cdf_csv,
)
from leofault.constants import SPEED_OF_LIGHT_KM_S
from leofault.topology import CROSS_PLANE, INTRA_PLANE

DENSE = ShellSpec(altitude_km=550.0, inclination_deg=53.0, planes=72, sats_per_plane=22)
SPARSE = ShellSpec(altitude_km=560.0, inclination_deg=97.6, planes=6, sats_per_plane=58)


def report(number: int, label: str, checks: dict) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {number} [{label}]: {status}")
    assert not failed, f"criterion {number} failed: {failed}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "leofault", *args], capture_output=True, text=True
    )


def per_link_minima(shell: ShellSpec, t1_s: float = 3600.0, step_s: float = 10.0):
    constellation = build_constellation([shell])
    topo = GridTopology(constellation)
    minima = np.full(topo.n_edges, np.inf)
    for t in np.arange(0.0, t1_s + step_s / 2.0, step_s):
        grazing, _ = topo.grazing(float(t))
        np.minimum(minima, grazing, out=minima)
    kinds = np.array(topo.edge_kinds)
    return minima, kinds


def test_criterion_1_dense_shell_link_altitudes():
    started = time.perf_counter()
    minima, kinds = per_link_minima(DENSE)
    cdf = CdfTable.from_samples(minima)
    elapsed = time.perf_counter() - started
    cross = minima[kinds == CROSS_PLANE]
    report(
        1,
        "dense shell 72x22/550km/53deg, 1h @ 10s",
        {
            "no infeasible per-link minima": cdf.proportion_below(80.0) == 0.0,
            "cross-plane minima within [400, 560] km": bool(
                np.all((cross >= 400.0) & (cross <= 560.0))
            ),
            "fraction of minima below 500 km in [0.3, 0.7]": 0.3
            <= cdf.proportion_below(500.0)
            <= 0.7,
            "runtime under 60 s": elapsed < 60.0,
        },
    )


def test_criterion_2_sparse_polar_shell():
    constellation = build_constellation([SPARSE])
    cdf = min_isl_altitude_cdf(constellation, 0.0, 3600.0, 10.0, per_link_min=False)
    fraction = cdf.proportion_below(80.0)
    minima, kinds = per_link_minima(SPARSE)
    intra_minima = minima[kinds == INTRA_PLANE]
    report(
        2,
        "sparse polar shell 6x58/560km/97.6deg",
        {
            "infeasible fraction 25% +- 15pp": 0.10 <= fraction <= 0.40,
            "all intra-plane links viable": bool(np.all(intra_minima >= 80.0)),
        },
    )


def test_criterion_3_seu_fleet_arithmetic():
    low = run_cli("seu", "--satellites", "4408", "--devices", "60", "--rate", "1e-4", "--days", "1")
    high = run_cli("seu", "--satellites", "4408", "--devices", "60", "--rate", "1e-3", "--days", "1")

    # Monte Carlo: 40 satellites x 60 devices at 2.5e-3/device/day for one
    # day gives an expected count of 6 per seed
    cfg = FaultModelConfig(seu_rate_per_device_day=2.5e-3)
    fleet = [SatelliteId(0, 0, i) for i in range(40)]
    lam = expected_seu_count(2.5e-3, 60, 40, 1)
    n_seeds = 1500
    counts = [
        len(sample_seu_events(cfg, fleet, 0.0, 86400.0, RandomStreams(seed)))
        for seed in range(n_seeds)
    ]
    mc_mean = float(np.mean(counts))
    report(
        3,
        "seu fleet arithmetic and sampling",
        {
            "cli prints 26.448": low.stdout.strip() == "26.448" and low.returncode == 0,
            "cli prints 264.48": high.stdout.strip() == "264.48" and high.returncode == 0,
            "monte carlo mean within 5% of analytic": abs(mc_mean - lam) <= 0.05 * lam,
        },
    )


def test_criterion_4_tid_dose_check():
    result = run_cli("dose", "--inclination", "73", "--limit-krad", "50", "--years", "5")
    lines = result.stdout.splitlines()
    zero = run_cli("dose", "--inclination", "0")
    zero_dose = float(zero.stdout.splitlines()[0].split("=")[1])
    profile = default_dose_profile()
    report(
        4,
        "ionizing-dose lifetime check",
        {
            "mission dose 40 krad": lines[0] == "mission_dose_krad=40",
            "survives at 50 krad limit": lines[1] == "survives=true",
            "lifetime 6.25 years": lines[2] == "lifetime_years=6.25",
            "equatorial dose ~0": abs(zero_dose) < 1e-9,
            "mirror exact at 107 deg": dose_rate(profile, 107.0, 5.0)
            == dose_rate(profile, 73.0, 5.0),
        },
    )


def test_criterion_5_maneuver_model():
    cfg = FaultModelConfig()  # 12 maneuvers per satellite-year, 1-3 km
    fleet = [SatelliteId(0, 0, i) for i in range(100)]
    ten_years = 10 * 365.25 * 86400.0
    events = sample_maneuvers(cfg, fleet, 0.0, ten_years, RandomStreams(2027))
    annual_rate = len(events) / (len(fleet) * 10.0)

    rng = np.random.default_rng(5)
    delay_ok = True
    for _ in range(200):
        e1 = CircularElements(6921.0, float(rng.uniform(0, 180)), float(rng.uniform(0, 360)), float(rng.uniform(0, 360)))
        e2 = CircularElements(6921.0, float(rng.uniform(0, 180)), float(rng.uniform(0, 360)), float(rng.uniform(0, 360)))
        base = np.linalg.norm(propagate(e2, 0.0) - propagate(e1, 0.0))
        moved = np.linalg.norm(propagate(e2, 0.0, 3.0) - propagate(e1, 0.0, -3.0))
        if abs(moved - base) / SPEED_OF_LIGHT_KM_S > 20.02e-6:
            delay_ok = False
    report(
        5,
        "conjunction-avoidance maneuver model",
        {
            "annual rate within 5% of 12": abs(annual_rate - 12.0) <= 0.6,
            "all offsets between 1 and 3 km": all(1.0 <= abs(e.dh_km) <= 3.0 for e in events),
            "one-way delay change <= 20.02 us at 3 km": delay_ok,
        },
    )


def test_criterion_6_bent_pipe_latency():
    zenith = run_cli("rtt", "--alt-km", "550", "--elevation", "90")
    slanted = run_cli("rtt", "--alt-km", "550", "--elevation", "25")
    rtt_zenith = float(dict(l.split("=") for l in zenith.stdout.splitlines())["rtt_ms"])
    rtt_25 = float(dict(l.split("=") for l in slanted.stdout.splitlines())["rtt_ms"])
    report(
        6,
        "bent-pipe round-trip latency",
        {
            "zenith rtt 7.34 ms +- 0.5%": abs(rtt_zenith - 7.34) <= 0.005 * 7.34,
            "25-degree rtt 14.99 ms +- 0.5%": abs(rtt_25 - 14.99) <= 0.005 * 14.99,
        },
    )


def test_criterion_7_rain_and_handover_models():
    grid = np.linspace(0.0, 8.0, 3201)
    values = np.array([rain_multiplier(float(x)) for x in grid])
    continuous = bool(np.max(np.abs(np.diff(values))) < 0.002)
    floor = 120.0 / 215.0
    midpoint_linear = abs(rain_multiplier(3.0) - (1.0 + floor) / 2.0) < 1e-12

    cfg = FaultModelConfig()
    spike_counts = []
    losses_ok = True
    for seed in range(25):
        events = sample_handover_spikes(cfg, ["gs"], 0.0, 3600.0, RandomStreams(seed))
        spike_counts.append(len(events))
        losses_ok &= all(0.01 <= e.params["loss_rate"] <= 0.02 for e in events)
    report(
        7,
        "rain fade and handover spikes",
        {
            "multiplier(0) == 1": rain_multiplier(0.0) == 1.0,
            "multiplier(2) == 1": rain_multiplier(2.0) == 1.0,
            "multiplier(4) == 0.5581 +- 1e-4": abs(rain_multiplier(4.0) - 0.5581) <= 1e-4,
            "piecewise linear and continuous": continuous and midpoint_linear,
            "hourly spikes between 30 and 60": all(30 <= n <= 60 for n in spike_counts),
            "loss rates within [1%, 2%]": losses_ok,
        },
    )


def test_criterion_8_determinism_and_formats(tmp_path, rng):
    config = config_from_dict(
        {
            "shells": [
                {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 6, "sats_per_plane": 58}
            ],
            "ground_stations": [{"id": "gs0", "latitude_deg": 30.0, "longitude_deg": 0.0}],
            "duration_s": 1200.0,
            "step_s": 30.0,
            "seed": 424242,
            "faults": {"seu_rate_per_device_day": 0.02, "maneuver_rate_per_sat_year": 300.0},
        }
    )
    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_simulation(config, t1)
    run_simulation(config, t2)
    byte_identical = t1.read_bytes() == t2.read_bytes()

    events = read_trace(t1)
    lines = t1.read_text().splitlines()
    round_trips = lines[0] == '{"schema":"leofault/1"}' and lines[1:] == [
        serialize_event(e) for e in events
    ]

    cdf = min_isl_altitude_cdf(build_constellation([SPARSE]), 0.0, 1200.0, 30.0, per_link_min=False)
    csv_path = tmp_path / "cdf.csv"
    write_cdf_csv(cdf, csv_path)
    parsed = read_cdf_csv(csv_path)
    values = [v for v, _ in parsed.points]
    proportions = [p for _, p in parsed.points]
    csv_ok = (
        values == sorted(values)
        and proportions == sorted(proportions)
        and proportions[-1] == 1.0
    )

    # property suite: homogeneous event counts behave like a Poisson draw
    cfg = FaultModelConfig(seu_rate_per_device_day=2.5e-3)
    fleet = [SatelliteId(0, 0, i) for i in range(40)]
    lam = 6.0
    n_seeds = 1000
    counts = np.array(
        [
            len(sample_seu_events(cfg, fleet, 0.0, 86400.0, RandomStreams(seed + 10_000)))
            for seed in range(n_seeds)
        ]
    )
    poisson_ok = abs(counts.mean() - lam) < 3.0 * np.sqrt(lam / n_seeds) and abs(
        counts.var(ddof=1) - lam
    ) < 3.0 * np.sqrt((lam + 2.0 * lam**2) / n_seeds)

    # property suite: clamped-segment grazing altitude vs brute force
    from leofault import grazing_altitude

    ts = np.linspace(0.0, 1.0, 10001)[:, None]
    grazing_ok = True
    for _ in range(1000):
        p1 = rng.normal(size=3)
        p2 = rng.normal(size=3)
        p1 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p1)
        p2 *= rng.uniform(6500.0, 8300.0) / np.linalg.norm(p2)
        brute = np.min(np.linalg.norm(p1 + ts * (p2 - p1), axis=1)) - 6371.0
        if abs(grazing_altitude(p1, p2) - brute) >= 0.5:
            grazing_ok = False

    # property suite: checksum against an independent digit-count oracle
    charset = np.array(list("0123456789-+. ABCdef/"))
    checksum_ok = True
    for _ in range(1000):
        line = "".join(rng.choice(charset, size=68))
        oracle = (sum(int(c) for c in line if c in "0123456789") + line.count("-")) % 10
        if checksum(line) != oracle:
            checksum_ok = False

    report(
        8,
        "determinism, trace format, property suites",
        {
            "identical seed gives byte-identical traces": byte_identical,
            "trace round-trips through the parser": round_trips,
            "cdf csv monotone with terminal 1.0": csv_ok,
            "poisson soundness": bool(poisson_ok),
            "grazing brute-force equivalence": grazing_ok,
            "checksum oracle equivalence": checksum_ok,
        },
    )
