import json
import subprocess
import sys

import pytest

from leofault import TleRecord, checksum, read_cdf_csv, read_trace, serialize_tle

SPARSE_CONFIG = {
    "shells": [
        {"altitude_km": 560.0, "inclination_deg": 97.6, "planes": 6, "sats_per_plane": 58}
    ],
    "duration_s": 600.0,
    "step_s": 60.0,
    "seed": 11,
    "faults": {"seu_rate_per_device_day": 0.0, "maneuver_rate_per_sat_year": 0.0},
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "leofault", *args],
        capture_output=True,
        text=True,
    )


class TestSeuCommand:
    def test_gen1_low_rate(self):
        result = run_cli("seu", "--satellites", "4408", "--devices", "60", "--rate", "1e-4", "--days", "1")
        assert result.returncode == 0
        assert result.stdout.strip() == "26.448"

    def test_gen1_high_rate(self):
        result = run_cli("seu", "--satellites", "4408", "--devices", "60", "--rate", "1e-3", "--days", "1")
        assert result.returncode == 0
        assert result.stdout.strip() == "264.48"

    def test_negative_rejected(self):
        result = run_cli("seu", "--satellites", "-1", "--devices", "60", "--rate", "1e-4", "--days", "1")
        assert result.returncode == 2
        assert "error" in result.stderr


class TestDoseCommand:
    def test_peak_inclination(self):
        result = run_cli("dose", "--inclination", "73", "--limit-krad", "50", "--years", "5")
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "mission_dose_krad=40",
            "survives=true",
            "lifetime_years=6.25",
        ]

    def test_equatorial(self):
        result = run_cli("dose", "--inclination", "0")
        lines = result.stdout.splitlines()
        assert lines[0] == "mission_dose_krad=0"
        assert lines[1] == "survives=true"
        assert lines[2] == "lifetime_years=inf"

    def test_mirror(self):
        out73 = run_cli("dose", "--inclination", "73").stdout
        out107 = run_cli("dose", "--inclination", "107").stdout
        assert out73 == out107

    def test_out_of_range(self):
        result = run_cli("dose", "--inclination", "200")
        assert result.returncode == 2
        assert "inclination" in result.stderr


class TestRttCommand:
    def test_25_degrees(self):
        result = run_cli("rtt", "--alt-km", "550", "--elevation", "25")
        assert result.returncode == 0
        values = dict(line.split("=") for line in result.stdout.splitlines())
        assert float(values["slant_range_km"]) == pytest.approx(1123.277, abs=0.01)
        assert float(values["rtt_ms"]) == pytest.approx(14.987, abs=0.01)

    def test_zenith(self):
        result = run_cli("rtt", "--alt-km", "550", "--elevation", "90")
        values = dict(line.split("=") for line in result.stdout.splitlines())
        assert float(values["slant_range_km"]) == pytest.approx(550.0, abs=1e-6)
        assert float(values["rtt_ms"]) == pytest.approx(7.338, abs=0.01)


class TestTleCommand:
    def test_parse_file(self, tmp_path):
        rec = TleRecord(
            catalog_number=44713, epoch_year=2023, epoch_day=15.5, inclination_deg=53.05,
            raan_deg=100.0, eccentricity=0.0001, arg_perigee_deg=90.0, mean_anomaly_deg=270.0,
            mean_motion_rev_per_day=15.06,
        )
        path = tmp_path / "starlink.tle"
        path.write_text("TESTSAT-1\n" + "\n".join(serialize_tle(rec)) + "\n")
        result = run_cli("tle", "parse", str(path))
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 1
        line = result.stdout.splitlines()[0]
        assert "44713" in line and "TESTSAT-1" in line
        assert "inclination_deg=53.05" in line

    def test_parse_error_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.tle"
        path.write_text("1 25544U broken\n2 25544 nope\n")
        result = run_cli("tle", "parse", str(path))
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_tiny_mean_motion_exits_2(self, tmp_path):
        lines = serialize_tle(
            TleRecord(
                catalog_number=44713, epoch_year=2023, epoch_day=15.5, inclination_deg=53.05,
                raan_deg=100.0, eccentricity=0.0001, arg_perigee_deg=90.0, mean_anomaly_deg=270.0,
                mean_motion_rev_per_day=15.06,
            )
        )
        body = lines[1][:52] + "     1e-300" + lines[1][63:68]
        path = tmp_path / "tiny.tle"
        path.write_text(f"{lines[0]}\n{body}{checksum(body)}\n")
        result = run_cli("tle", "parse", str(path))
        assert result.returncode == 2
        assert "input line 1" in result.stderr and "mean_motion_rev_per_day" in result.stderr
        assert "Traceback" not in result.stderr

    def test_eccentric_warning_on_stderr(self, tmp_path):
        rec = TleRecord(
            catalog_number=20, epoch_year=2023, epoch_day=1.0, inclination_deg=63.4,
            raan_deg=0.0, eccentricity=0.7, arg_perigee_deg=270.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=13.0,
        )
        path = tmp_path / "molniya.tle"
        path.write_text("\n".join(serialize_tle(rec)) + "\n")
        result = run_cli("tle", "parse", str(path))
        assert result.returncode == 0
        assert "eccentricity" in result.stderr


class TestSimulateCommand:
    def test_simulate_and_determinism(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1 = run_cli("simulate", "--config", str(config_path), "--out", str(t1))
        assert r1.returncode == 0, r1.stderr
        assert "trace written" in r1.stdout
        assert "config (defaults materialized):" in r1.stdout
        r2 = run_cli("simulate", "--config", str(config_path), "--out", str(t2))
        assert r2.returncode == 0
        assert t1.read_bytes() == t2.read_bytes()
        events = read_trace(t1)
        assert {e.kind for e in events} <= {"isl_down", "isl_up"}

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**SPARSE_CONFIG, "sheels": []}))
        result = run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "t"))
        assert result.returncode == 2
        assert "sheels" in result.stderr

    def test_invalid_value_names_field(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**SPARSE_CONFIG, "duration_s": -5}))
        result = run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "t"))
        assert result.returncode == 2
        assert "duration_s" in result.stderr

    def test_trace_only_on_file_not_stdout(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        result = run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl"))
        assert '"schema"' not in result.stdout


class TestIslCdfCommand:
    def test_per_sample_csv(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        out = tmp_path / "cdf.csv"
        result = run_cli("isl-cdf", "--config", str(config_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        cdf = read_cdf_csv(out)
        assert cdf.points[-1][1] == 1.0
        values = [v for v, _ in cdf.points]
        assert values == sorted(values)

    def test_per_link_min_mode(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        out = tmp_path / "cdf_min.csv"
        result = run_cli(
            "isl-cdf", "--config", str(config_path), "--out", str(out), "--per-link-min"
        )
        assert result.returncode == 0
        assert "per-link minima" in result.stdout
        cdf = read_cdf_csv(out)
        assert cdf.points[-1][1] == 1.0
