import math

import numpy as np
import pytest

from leofault import (
    CdfTable,
    GridTopology,
    ShellSpec,
    build_constellation,
    min_isl_altitude_cdf,
    read_cdf_csv,
    write_cdf_csv,
)
from leofault.constants import EARTH_RADIUS_KM
from leofault.topology import INTRA_PLANE

R = EARTH_RADIUS_KM


class TestCdfTable:
    def test_from_samples(self):
        cdf = CdfTable.from_samples([3.0, 1.0, 2.0, 2.0])
        assert cdf.points == ((1.0, 0.25), (2.0, 0.75), (3.0, 1.0))

    def test_empty(self):
        assert CdfTable.from_samples([]).points == ()

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            CdfTable(points=((2.0, 0.5), (1.0, 1.0)))  # values not increasing
        with pytest.raises(ValueError):
            CdfTable(points=((1.0, 0.9), (2.0, 0.5)))  # proportions decreasing
        with pytest.raises(ValueError):
            CdfTable(points=((1.0, 0.5),))  # terminal proportion != 1

    def test_monotone_for_random_samples(self, rng):
        for _ in range(50):
            samples = rng.normal(size=int(rng.integers(1, 300)))
            cdf = CdfTable.from_samples(samples)
            values = [v for v, _ in cdf.points]
            props = [p for _, p in cdf.points]
            assert values == sorted(values)
            assert props == sorted(props)
            assert props[-1] == 1.0


class TestInfeasibleFraction:
    def test_all_above(self):
        cdf = CdfTable.from_samples([100.0, 200.0])
        assert cdf.proportion_below(80.0) == 0.0

    def test_all_below(self):
        cdf = CdfTable.from_samples([10.0, 20.0])
        assert cdf.proportion_below(80.0) == 1.0

    def test_one_of_four(self):
        cdf = CdfTable.from_samples([70.0, 85.0, 90.0, 100.0])
        assert cdf.proportion_below(80.0) == 0.25

    def test_threshold_value_not_counted(self):
        cdf = CdfTable.from_samples([80.0, 90.0])
        assert cdf.proportion_below(80.0) == 0.0  # strictly below

    def test_matches_direct_count(self, rng):
        for _ in range(100):
            samples = rng.uniform(-400.0, 600.0, size=int(rng.integers(1, 500)))
            cdf = CdfTable.from_samples(samples)
            threshold = float(rng.uniform(-100.0, 300.0))
            direct = np.mean(samples < threshold)
            assert cdf.proportion_below(threshold) == pytest.approx(direct, abs=1e-12)


class TestMinIslAltitudeCdf:
    def test_single_satellite_empty(self):
        c = build_constellation([ShellSpec(550.0, 53.0, 1, 1)])
        cdf = min_isl_altitude_cdf(c, 0.0, 3600.0, 60.0)
        assert cdf.points == ()

    def test_intra_plane_point_mass(self, dense_constellation):
        topo = GridTopology(dense_constellation)
        intra = [i for i, k in enumerate(topo.edge_kinds) if k == INTRA_PLANE]
        samples = []
        for t in np.arange(0.0, 600.0, 60.0):
            grazing, _ = topo.grazing(float(t))
            samples.append(grazing[intra])
        samples = np.concatenate(samples)
        assert samples.max() - samples.min() < 1e-6
        oracle = (R + 550.0) * math.cos(math.pi / 22.0) - R
        assert abs(samples[0] - oracle) < 0.5

    def test_per_link_min_is_lower_envelope(self, sparse_constellation):
        per_link = min_isl_altitude_cdf(sparse_constellation, 0.0, 600.0, 60.0, per_link_min=True)
        per_step = min_isl_altitude_cdf(sparse_constellation, 0.0, 600.0, 60.0, per_link_min=False)
        # per-link minima has one sample per edge
        topo = GridTopology(sparse_constellation)
        n_samples = sum(
            round((p - prev_p) * topo.n_edges)
            for (_, p), (_, prev_p) in zip(per_link.points, ((0, 0.0),) + per_link.points)
        )
        assert n_samples == topo.n_edges
        assert min(v for v, _ in per_link.points) == pytest.approx(
            min(v for v, _ in per_step.points), abs=1e-9
        )

    def test_sampling_step_convergence(self, sparse_constellation):
        # infeasible fraction of per-sample CDFs moves < 1 percentage point
        # between a 10 s and a 1 s step
        coarse = min_isl_altitude_cdf(sparse_constellation, 0.0, 3600.0, 10.0, per_link_min=False)
        fine = min_isl_altitude_cdf(sparse_constellation, 0.0, 3600.0, 1.0, per_link_min=False)
        assert abs(coarse.proportion_below(80.0) - fine.proportion_below(80.0)) < 0.01

    def test_invalid_window(self, sparse_constellation):
        with pytest.raises(ValueError):
            min_isl_altitude_cdf(sparse_constellation, 10.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            min_isl_altitude_cdf(sparse_constellation, 0.0, 10.0, -1.0)


class TestCdfCsv:
    def test_roundtrip(self, tmp_path):
        cdf = CdfTable.from_samples([450.0, 500.123456, 543.0, 543.0])
        path = tmp_path / "cdf.csv"
        write_cdf_csv(cdf, path)
        text = path.read_text()
        assert text.splitlines()[0] == "value_km,proportion"
        parsed = read_cdf_csv(path)
        assert len(parsed.points) == 3
        assert parsed.points[-1][1] == 1.0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_text("a,b\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            read_cdf_csv(path)

    @pytest.mark.parametrize(
        "body, line_no",
        [
            ("nan,0.5\n10,1\n", None),
            ("1,0.5\ninf,1\n", None),
            ("-inf,0.5\n1,1\n", None),
            ("1,nan\n2,1\n", None),
            ("1,0.5\n1_0,1\n", None),
            ("1,0.5\n2,1,3\n", 3),
            ("1,0.5\n2\n", 3),
            ("1,0.5\nten,1\n", 3),
            ("1.0,0.5\x0c2.0,1.0\n", 2),  # str.splitlines() would split here
            ("1.0,0.5\x1c2.0,1.0\n", 2),
            ("1,0.5\n\u0662,1\n", None),
            ("1,0.5\n\uff12,1\n", None),
        ],
        ids=["nan-value", "inf-value", "minus-inf-value", "nan-proportion", "digit-separator",
             "three-columns", "one-column", "not-a-number", "form-feed", "file-separator",
             "arabic-indic-digit", "fullwidth-digit"],
    )
    def test_malformed_rows_rejected(self, tmp_path, body, line_no):
        path = tmp_path / "cdf.csv"
        path.write_text("value_km,proportion\n" + body)
        match = f"line {line_no}" if line_no else "CDF (values|proportions)|'_'"
        with pytest.raises(ValueError, match=match):
            read_cdf_csv(path)

    def test_crlf_rows_read(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_bytes(b"value_km,proportion\r\n1,0.5\r\n2,1\r\n")
        assert read_cdf_csv(path).points == ((1.0, 0.5), (2.0, 1.0))


class TestCdfTableNonFinite:
    @pytest.mark.parametrize(
        "points",
        [
            ((math.nan, 0.5), (10.0, 1.0)),
            ((1.0, 0.5), (math.nan, 1.0)),
            ((1.0, 0.5), (math.inf, 1.0)),
            ((-math.inf, 0.5), (1.0, 1.0)),
            ((1.0, math.nan), (2.0, 1.0)),
            ((1.0, 0.5), (2.0, math.nan)),
        ],
    )
    def test_rejected(self, points):
        with pytest.raises(ValueError, match="CDF"):
            CdfTable(points=points)
