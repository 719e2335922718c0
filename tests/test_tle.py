import math

import numpy as np
import pytest

from leofault import (
    EccentricityWarning,
    TleChecksumError,
    TleFormatError,
    TleRecord,
    checksum,
    parse_tle,
    parse_tle_text,
    read_tle_file,
    serialize_tle,
    tle_to_elements,
)
from leofault.constants import MU_EARTH_M3_S2

ISS_NAME = "ISS (ZARYA)"
ISS_L1 = "1 25544U 98067A   20151.61686127  .00000168  00000-0  11087-4 0  9992"
ISS_L2 = "2 25544  51.6444  75.4313 0002297  11.5525  50.1151 15.49398617229298"


def random_record(rng) -> TleRecord:
    # all numeric fields restricted to their column precision, so the
    # serialized form is exact
    return TleRecord(
        catalog_number=int(rng.integers(1, 99999)),
        epoch_year=int(rng.integers(1960, 2050)),
        epoch_day=round(float(rng.uniform(1.0, 366.0)), 8),
        inclination_deg=round(float(rng.uniform(0.0, 180.0)), 4),
        raan_deg=round(float(rng.uniform(0.0, 359.99)), 4),
        eccentricity=int(rng.integers(0, 10**7)) / 1e7,
        arg_perigee_deg=round(float(rng.uniform(0.0, 359.99)), 4),
        mean_anomaly_deg=round(float(rng.uniform(0.0, 359.99)), 4),
        mean_motion_rev_per_day=round(float(rng.uniform(10.0, 16.9)), 8),
        rev_number=int(rng.integers(0, 99999)),
        element_number=int(rng.integers(0, 9999)),
        intl_designator="98067A",
    )


class TestChecksum:
    def test_all_spaces(self):
        assert checksum(" " * 68) == 0

    def test_single_minus(self):
        assert checksum("-" + " " * 67) == 1

    def test_digits_and_minuses(self):
        # digits sum to 123, two minus signs -> (123 + 2) % 10 = 5
        line = "9" * 13 + "6" + "--" + " " * 52
        assert len(line) == 68
        assert sum(int(c) for c in line if c.isdigit()) == 123
        assert checksum(line) == 5

    @pytest.mark.parametrize("length", [0, 67, 69])
    def test_wrong_length(self, length):
        with pytest.raises(TleFormatError):
            checksum(" " * length)

    def test_brute_force_oracle_on_random_lines(self, rng):
        charset = np.array(list("0123456789-+. ABCdef/"))
        for _ in range(1000):
            line = "".join(rng.choice(charset, size=68))
            expected = sum(int(c) for c in line if c in "0123456789")
            expected += line.count("-")
            assert checksum(line) == expected % 10


class TestParse:
    def test_iss_fields(self):
        rec = parse_tle(ISS_L1, ISS_L2, name=ISS_NAME)
        assert rec.catalog_number == 25544
        assert rec.epoch_year == 2020
        assert rec.epoch_day == pytest.approx(151.61686127)
        assert rec.inclination_deg == pytest.approx(51.6444)
        assert rec.raan_deg == pytest.approx(75.4313)
        assert rec.eccentricity == pytest.approx(0.0002297)
        assert rec.arg_perigee_deg == pytest.approx(11.5525)
        assert rec.mean_anomaly_deg == pytest.approx(50.1151)
        assert rec.mean_motion_rev_per_day == pytest.approx(15.49398617)
        assert rec.rev_number == 22929

    def test_iss_byte_roundtrip(self):
        rec = parse_tle(ISS_L1, ISS_L2)
        assert serialize_tle(rec) == (ISS_L1, ISS_L2)

    def test_epoch_field_decomposition(self):
        # epoch column text "23015.50000000" splits into year 2023, day 15.5
        rec = parse_tle(*serialize_tle(random_record(np.random.default_rng(7))))
        line1, _ = serialize_tle(
            TleRecord(
                catalog_number=rec.catalog_number,
                epoch_year=2023,
                epoch_day=15.5,
                inclination_deg=rec.inclination_deg,
                raan_deg=rec.raan_deg,
                eccentricity=rec.eccentricity,
                arg_perigee_deg=rec.arg_perigee_deg,
                mean_anomaly_deg=rec.mean_anomaly_deg,
                mean_motion_rev_per_day=rec.mean_motion_rev_per_day,
            )
        )
        assert line1[18:32] == "23015.50000000"
        parsed = parse_tle(*serialize_tle(TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=15.5, inclination_deg=53.0,
            raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.05,
        )))
        assert parsed.epoch_year == 2023
        assert parsed.epoch_day == 15.5

    def test_old_epoch_years_map_to_1900s(self):
        rec = TleRecord(
            catalog_number=5, epoch_year=1958, epoch_day=1.0, inclination_deg=30.0,
            raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.0,
        )
        assert parse_tle(*serialize_tle(rec)).epoch_year == 1958

    def test_implied_decimal_eccentricity(self):
        rec = TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=0.0,
            raan_deg=0.0, eccentricity=0.0001234, arg_perigee_deg=0.0,
            mean_anomaly_deg=0.0, mean_motion_rev_per_day=15.0,
        )
        _, line2 = serialize_tle(rec)
        assert line2[26:33] == "0001234"
        assert parse_tle(*serialize_tle(rec)).eccentricity == pytest.approx(0.0001234)

    def test_record_roundtrip_identity(self, rng):
        for _ in range(200):
            rec = random_record(rng)
            assert parse_tle(*serialize_tle(rec)) == rec

    def test_serialize_parse_serialize_bytes(self, rng):
        for _ in range(200):
            lines = serialize_tle(random_record(rng))
            assert serialize_tle(parse_tle(*lines)) == lines

    def test_wrong_length_names_line(self):
        with pytest.raises(TleFormatError, match="line 1"):
            parse_tle(ISS_L1[:-1], ISS_L2)
        with pytest.raises(TleFormatError, match="line 2"):
            parse_tle(ISS_L1, ISS_L2 + " ")

    def test_checksum_mismatch(self):
        bad = ISS_L1[:-1] + "5"
        with pytest.raises(TleChecksumError, match="line 1"):
            parse_tle(bad, ISS_L2)

    def test_line_number_column(self):
        swapped = "2" + ISS_L1[1:]
        with pytest.raises(TleFormatError, match="column 1"):
            parse_tle(swapped, ISS_L2)

    def test_catalog_mismatch(self):
        other = serialize_tle(TleRecord(
            catalog_number=11111, epoch_year=2020, epoch_day=151.0, inclination_deg=51.0,
            raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.5,
        ))[1]
        with pytest.raises(TleFormatError, match="catalog"):
            parse_tle(ISS_L1, other)

    def test_garbage_field_reports_columns(self):
        line2 = ISS_L2[:8] + "xxxxxxxx" + ISS_L2[16:]
        body = line2[:68]
        line2 = body + str(checksum(body))
        with pytest.raises(TleFormatError, match="columns 9-16"):
            parse_tle(ISS_L1, line2)

    @pytest.mark.parametrize(
        "start,end,text",
        [(52, 63, "        nan"), (8, 16, "     inf"), (43, 51, "-inf    "), (20, 32, "         NaN")],
        ids=["mean-motion-nan", "inclination-inf", "mean-anomaly-neg-inf", "epoch-day-nan"],
    )
    def test_non_finite_field_rejected(self, start, end, text):
        lines = [ISS_L1, ISS_L2]
        line_no = 1 if start == 20 else 2
        body = lines[line_no - 1][:start] + text + lines[line_no - 1][end:68]
        lines[line_no - 1] = body + str(checksum(body))
        match = f"line {line_no}, columns {start + 1}-{end}"
        with pytest.raises(TleFormatError, match=match):
            parse_tle(*lines)
        with pytest.raises(TleFormatError, match=f"input line 1: {match}"):
            parse_tle_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("start,end,text", [(8, 16, " 5_3.000"), (52, 63, "15.4_939861"), (63, 68, "22_98")])
    def test_digit_separator_rejected(self, start, end, text):
        # int() and float() read "5_3.000" as 53.0
        lines = [ISS_L1, ISS_L2]
        body = ISS_L2[:start] + text + ISS_L2[end:68]
        lines[1] = body + str(checksum(body))
        with pytest.raises(TleFormatError, match=f"line 2, columns {start + 1}-{end}"):
            parse_tle(*lines)

    @pytest.mark.parametrize("text", ["     1e-300", "     6e-150", "      1e-09", "100.0000000"])
    def test_mean_motion_out_of_range_carries_input_line(self, text):
        # unbounded, 1e-300 overflows tle_to_elements and 6e-150 gives an infinite semi-major axis
        body = ISS_L2[:52] + text + ISS_L2[63:68]
        tle = f"{ISS_NAME}\n{ISS_L1}\n{body}{checksum(body)}\n"
        with pytest.raises(TleFormatError, match="input line 2: .*mean.motion"):
            parse_tle_text(tle)

    def test_mean_motion_range_ends(self):
        for mean_motion in (1e-8, 99.99999999):
            body = ISS_L2[:52] + f"{mean_motion:11.8f}" + ISS_L2[63:68]
            (record,) = parse_tle_text(f"{ISS_L1}\n{body}{checksum(body)}\n")
            assert record.mean_motion_rev_per_day == mean_motion
            assert math.isfinite(tle_to_elements(record).semi_major_axis_km)

    def test_out_of_range_field_carries_input_line(self):
        body = ISS_L2[:8] + "400.0000" + ISS_L2[16:68]
        text = f"{ISS_NAME}\n{ISS_L1}\n{body}{checksum(body)}\n"
        with pytest.raises(TleFormatError, match="input line 2: inclination_deg"):
            parse_tle_text(text)


class TestTleToElements:
    def test_semi_major_axis_from_mean_motion(self):
        rec = TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
            raan_deg=10.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.05,
        )
        elements = tle_to_elements(rec)
        # closed-form oracle: T = 86400/n, a = (mu (T/2pi)^2)^(1/3)
        period = 86400.0 / 15.05
        a_oracle = (MU_EARTH_M3_S2 * (period / (2 * math.pi)) ** 2) ** (1 / 3) / 1e3
        assert elements.semi_major_axis_km == pytest.approx(a_oracle, abs=1e-9)
        assert elements.semi_major_axis_km == pytest.approx(6929.64, abs=0.01)
        assert elements.semi_major_axis_km - 6371.0 == pytest.approx(558.64, abs=0.01)

    def test_inclination_passthrough(self):
        rec = TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
            raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.0,
        )
        assert tle_to_elements(rec).inclination_deg == 53.0

    def test_phase_normalization(self):
        rec = TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
            raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=10.0, mean_anomaly_deg=355.0,
            mean_motion_rev_per_day=15.0,
        )
        assert tle_to_elements(rec).phase_deg == pytest.approx(5.0)

    def test_altitude_plausibility(self, rng):
        for _ in range(200):
            mm = float(rng.uniform(14.0, 16.0))
            rec = TleRecord(
                catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
                raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                mean_motion_rev_per_day=mm,
            )
            altitude = tle_to_elements(rec).semi_major_axis_km - 6371.0
            assert 200.0 < altitude < 900.0

    def test_eccentric_orbit_warns(self):
        rec = TleRecord(
            catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
            raan_deg=0.0, eccentricity=0.05, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
            mean_motion_rev_per_day=15.0,
        )
        with pytest.warns(EccentricityWarning):
            tle_to_elements(rec)

    def test_record_rejects_nonpositive_mean_motion(self):
        with pytest.raises(ValueError):
            TleRecord(
                catalog_number=1, epoch_year=2023, epoch_day=1.0, inclination_deg=53.0,
                raan_deg=0.0, eccentricity=0.0, arg_perigee_deg=0.0, mean_anomaly_deg=0.0,
                mean_motion_rev_per_day=0.0,
            )


class TestFileParsing:
    def test_three_line_format(self, tmp_path):
        path = tmp_path / "iss.tle"
        path.write_text(f"{ISS_NAME}\n{ISS_L1}\n{ISS_L2}\n")
        records = read_tle_file(path)
        assert len(records) == 1
        assert records[0].name == ISS_NAME

    def test_two_line_format_multiple_records(self, rng):
        recs = [random_record(rng) for _ in range(3)]
        text = "\n".join("\n".join(serialize_tle(r)) for r in recs)
        parsed = parse_tle_text(text)
        assert [p.catalog_number for p in parsed] == [r.catalog_number for r in recs]
        assert all(p.name is None for p in parsed)

    def test_trailing_name_rejected(self):
        with pytest.raises(TleFormatError, match="trailing name"):
            parse_tle_text("DANGLING NAME\n")

    def test_error_carries_input_line(self):
        text = f"{ISS_NAME}\n{ISS_L1}\n{ISS_L2[:-1]}9\n"
        with pytest.raises(TleFormatError, match="input line 2"):
            parse_tle_text(text)
