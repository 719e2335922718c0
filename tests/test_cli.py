import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from leofault import (
    CdfTable,
    TleRecord,
    build_fleet,
    checksum,
    load_config,
    min_isl_altitude_cdf,
    read_cdf_csv,
    read_trace,
    serialize_tle,
    write_cdf_csv,
)
from leofault.cli import _finite, _integer, build_parser, main

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

    def test_dose_equal_to_limit_does_not_survive(self):
        # 45/73 of the 40 krad peak; rate * years used to land a hair below the limit
        result = run_cli("dose", "--inclination", "45", "--limit-krad", "24.65753424657534", "--years", "1.5")
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "mission_dose_krad=24.65753425",
            "survives=false",
            "lifetime_years=1.5",
        ]

    def test_tiny_mission_keeps_its_dose(self):
        # 40 / 1e-320 overflowed the rate, and rate * years gave an infinite dose
        result = run_cli("dose", "--inclination", "73", "--years", "1e-320")
        assert result.returncode == 0
        assert result.stdout.splitlines()[:2] == ["mission_dose_krad=40", "survives=true"]

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


VALID_ARGS = {
    "dose": {"--inclination": "53", "--limit-krad": "50", "--years": "5"},
    "seu": {"--satellites": "1", "--devices": "1", "--rate": "1e-4", "--days": "1"},
    "rtt": {"--alt-km": "550", "--elevation": "30"},
}
FLOAT_FLAGS = [
    ("dose", "--inclination"),
    ("dose", "--limit-krad"),
    ("dose", "--years"),
    ("rtt", "--alt-km"),
    ("rtt", "--elevation"),
    ("seu", "--days"),
    ("seu", "--rate"),
]
INTEGER_FLAGS = [("seu", "--devices"), ("seu", "--satellites")]


def cli_args(command, **overrides):
    flags = {**VALID_ARGS[command], **overrides}
    return [command, *(f"{flag}={value}" for flag, value in flags.items())]  # "=": -inf is no option


class TestFloatFlags:
    def test_every_non_integer_flag_listed(self):
        # the integer flags are listed too: they take a checked type rather than int
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        numeric = sorted(
            (command, action.option_strings[0], action.type)
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if action.type is not None
        )
        expected = [(c, f, _finite) for c, f in FLOAT_FLAGS] + [(c, f, _integer) for c, f in INTEGER_FLAGS]
        assert numeric == sorted(expected)

    @pytest.mark.parametrize("command", sorted(VALID_ARGS))
    def test_valid_values_accepted(self, capsys, command):
        assert main(cli_args(command)) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "ten"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_non_finite_rejected(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(cli_args(command, **{flag: value}))
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a finite number, got '{value}'" in captured.err

    @pytest.mark.parametrize("value", ["5_50", "1_0.5", "\u0667\u0663", "\uff15\uff15\uff10", "\u2003550"])
    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS)
    def test_digit_separators_and_non_ascii_rejected(self, capsys, command, flag, value):
        # float() reads each of these as a number
        with pytest.raises(SystemExit) as excinfo:
            main(cli_args(command, **{flag: value}))
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be a finite number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["1" + "0" * 400, "1_0", "\u0663", "1.5", "1e3", "ten"],
        ids=["beyond-float", "separator", "arabic-indic", "fraction", "exponent", "word"],
    )
    @pytest.mark.parametrize("command, flag", INTEGER_FLAGS)
    def test_integer_flags_checked(self, capsys, command, flag, value):
        # a 401-digit --satellites used to print "error: int too large to convert to float"
        with pytest.raises(SystemExit) as excinfo:
            main(cli_args(command, **{flag: value}))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer within the float range, got {value!r}" in err

    def test_rtt_overflow_is_an_error_not_a_crash(self, capsys):
        assert main(cli_args("rtt", **{"--alt-km": "1e300"})) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--alt-km" in err and "1e+300" in err

    @pytest.mark.parametrize("value", ["0", "-7000"])
    def test_rtt_altitude_must_be_positive(self, capsys, value):
        assert main(cli_args("rtt", **{"--alt-km": value})) == 2
        assert f"--alt-km must be > 0, got {float(value)}" in capsys.readouterr().err


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

    def test_unbounded_seu_rate_exits_quickly(self, tmp_path, capsys):
        # one satellite, 600 s: about 4e11 expected arrivals, which used to run past `timeout 5`
        config = {
            "shells": [{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 1, "sats_per_plane": 1}],
            "duration_s": 600.0,
            "faults": {"seu_rate_per_device_day": 1e12},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        start = time.perf_counter()
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "faults.seu_rate_per_device_day" in capsys.readouterr().err

    def test_devices_beyond_the_draw_exit_2(self, tmp_path, capsys):
        # about 900 expected upsets pass the upset bound; numpy's draw used to fail unnamed
        config = {
            "shells": [{"altitude_km": 550.0, "inclination_deg": 53.0, "planes": 3, "sats_per_plane": 3}],
            "duration_s": 86400.0,
            "faults": {"seu_rate_per_device_day": 1e-30, "devices_per_satellite": 10**32},
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "faults.devices_per_satellite must be in [0, 9223372036854775808]" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    def test_duplicate_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        text = json.dumps(SPARSE_CONFIG, separators=(",", ":"))
        config_path.write_text(text.replace('"duration_s":', '"duration_s":60.0,"duration_s":', 1))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "duplicate key 'duration_s' in simulation config" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()
        config_path.write_text(text.replace('"altitude_km":', '"altitude_km":550.0,"altitude_km":', 1))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "duplicate key 'altitude_km' in shells[0]" in capsys.readouterr().err

    def test_trace_only_on_file_not_stdout(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        result = run_cli("simulate", "--config", str(config_path), "--out", str(tmp_path / "t.jsonl"))
        assert '"schema"' not in result.stdout

    @pytest.mark.parametrize("out", ["missing/t.jsonl", "outdir"])
    def test_unwritable_out_named(self, tmp_path, monkeypatch, capsys, out):
        # a directory at --out is rejected before the first trace line, not after the whole run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        Path("config.json").write_text(json.dumps(SPARSE_CONFIG))
        assert main(["simulate", "--config", "config.json", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"'{out}'" in err and ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "outdir"]
        assert os.listdir(tmp_path / "outdir") == []


LINE1, LINE2 = serialize_tle(
    TleRecord(
        catalog_number=44713, epoch_year=2023, epoch_day=15.5, inclination_deg=53.05,
        raan_deg=100.0, eccentricity=0.0001, arg_perigee_deg=90.0, mean_anomaly_deg=270.0,
        mean_motion_rev_per_day=15.06,
    )
)

GARBLED = {
    "missing": None,
    "not-utf-8": b"\xff\xfe\n",
    "bad-checksum": f"{LINE1[:-1]}{(int(LINE1[-1]) + 1) % 10}\n{LINE2}\n".encode(),
    "bad-rain-header": b"time,rate\n0,1\n",
    "bad-rain-row": b"t_s,mm_per_h\n0,wet\n",
}


class TestConfigFileErrors:
    """A file named in the config that cannot be read or parsed exits 2, naming its field."""

    @pytest.mark.parametrize("command", ["simulate", "isl-cdf"])
    @pytest.mark.parametrize("case", ["missing", "not-utf-8", "bad-checksum"])
    def test_tle_file_named(self, tmp_path, monkeypatch, capsys, command, case):
        monkeypatch.chdir(tmp_path)
        Path("good.tle").write_text(f"{LINE1}\n{LINE2}\n")
        if GARBLED[case] is not None:
            Path("bad.tle").write_bytes(GARBLED[case])
        config = {**SPARSE_CONFIG, "tle_files": ["good.tle", "bad.tle"]}
        Path("config.json").write_text(json.dumps(config))
        assert main([command, "--config", "config.json", "--out", "out"]) == 2
        assert capsys.readouterr().err.startswith("error: tle_files[1] (bad.tle): ")
        assert not Path("out").exists()

    def test_config_file_not_utf8_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_bytes(GARBLED["not-utf-8"])
        assert main(["simulate", "--config", "config.json", "--out", "t.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file config.json: ")

    @pytest.mark.parametrize("case", ["missing", "not-utf-8", "bad-rain-header", "bad-rain-row"])
    def test_precipitation_csv_named(self, tmp_path, monkeypatch, capsys, case):
        monkeypatch.chdir(tmp_path)
        if GARBLED[case] is not None:
            Path("rain.csv").write_bytes(GARBLED[case])
        Path("config.json").write_text(json.dumps({**SPARSE_CONFIG, "precipitation_csv": "rain.csv"}))
        assert main(["simulate", "--config", "config.json", "--out", "t.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error: precipitation_csv (rain.csv): ")
        assert not Path("t.jsonl").exists()


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

    @pytest.mark.parametrize("flags", [[], ["--per-link-min"]], ids=["per-step", "per-link-min"])
    def test_builds_no_pairs_view(self, tmp_path, monkeypatch, capsys, flags):
        # the table stays two arrays from the scan to the CSV, in the CLI and in the library
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(SPARSE_CONFIG))
        fleet = build_fleet(load_config(config_path))

        def library(name):
            write_cdf_csv(min_isl_altitude_cdf(fleet, 0.0, 600.0, 60.0, per_link_min=bool(flags)), tmp_path / name)
            return (tmp_path / name).read_bytes()

        expected = library("expected.csv")
        monkeypatch.setattr(CdfTable, "points", property(lambda cdf: pytest.fail("CdfTable.points built")))
        assert library("library.csv") == expected
        assert main(["isl-cdf", "--config", str(config_path), "--out", str(tmp_path / "cli.csv"), *flags]) == 0
        assert "distinct values" in capsys.readouterr().out
        assert (tmp_path / "cli.csv").read_bytes() == expected
