import math
import os
import re
import tracemalloc
from types import SimpleNamespace

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
from leofault import stats
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
            CdfTable([2.0, 1.0], [0.5, 1.0])  # values not increasing
        with pytest.raises(ValueError):
            CdfTable([1.0, 2.0], [0.9, 0.5])  # proportions decreasing
        with pytest.raises(ValueError):
            CdfTable([1.0], [0.5])  # terminal proportion != 1

    def test_signed_zero_counts_as_zero(self):
        for samples in ([-0.0], [0.0, -0.0], [-0.0, 1.0, -0.0, 0.0]):
            cdf = CdfTable.from_samples(samples)
            assert math.copysign(1.0, cdf.points[0][0]) == 1.0
        assert CdfTable.from_samples([-0.0, 1.0, -0.0, 0.0]).points == ((0.0, 0.75), (1.0, 1.0))

    def test_from_counts(self):
        cdf = CdfTable.from_counts(np.array([1.0, 1.0000000001, 2.0]), np.array([1, 2, 1]))
        assert cdf.points == ((1.0, 0.75), (2.0, 1.0))
        assert CdfTable.from_counts(np.zeros(0), np.zeros(0, dtype=np.int64)).points == ()

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

    @pytest.mark.parametrize("threshold", ["a", "80", None, True, False, 80j], ids=repr)
    def test_threshold_must_be_a_number(self, threshold):
        # none is a number, though searchsorted would place "a" after every value and read True as 1.0
        cdf = CdfTable.from_samples([70.0, 85.0])
        with pytest.raises(ValueError, match=f"^threshold must be a number, got {re.escape(repr(threshold))}$"):
            cdf.proportion_below(threshold)

    def test_any_real_threshold(self):
        cdf = CdfTable.from_samples([70.0, 85.0])
        assert cdf.proportion_below(80) == cdf.proportion_below(np.float64(80.0)) == cdf.proportion_below(80.0) == 0.5
        assert cdf.proportion_below(np.int64(71)) == 0.5
        assert cdf.proportion_below(math.nan) == cdf.proportion_below(np.float64("nan")) == 0.0

    def test_matches_direct_count(self, rng):
        for _ in range(100):
            samples = rng.uniform(-400.0, 600.0, size=int(rng.integers(1, 500)))
            cdf = CdfTable.from_samples(samples)
            threshold = float(rng.uniform(-100.0, 300.0))
            direct = np.mean(samples < threshold)
            assert cdf.proportion_below(threshold) == pytest.approx(direct, abs=1e-12)


def loop_proportion_below(cdf, threshold):
    """proportion_below as a walk over every point."""
    result = 0.0
    for value, proportion in cdf.points:
        if value < threshold:
            result = proportion
        else:
            break
    return result


class TestProportionBelowSearch:
    def test_matches_loop(self, rng):
        for _ in range(50):
            samples = np.round(rng.normal(size=int(rng.integers(1, 200))), int(rng.integers(0, 3)))
            cdf = CdfTable.from_samples(samples)
            values = [v for v, _ in cdf.points]
            thresholds = values + [values[0] - 1.0, values[-1] + 1.0, math.nan, -math.inf, math.inf]
            thresholds += rng.uniform(values[0] - 1.0, values[-1] + 1.0, size=20).tolist()
            for threshold in thresholds:
                assert cdf.proportion_below(threshold) == loop_proportion_below(cdf, threshold)

    def test_edges(self):
        cdf = CdfTable.from_samples([1.0, 2.0, 2.0, 3.0])
        assert cdf.proportion_below(0.5) == 0.0
        assert cdf.proportion_below(2.0) == 0.25
        assert cdf.proportion_below(3.5) == 1.0
        assert cdf.proportion_below(math.nan) == 0.0
        assert CdfTable([], []).proportion_below(1.0) == 0.0


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

    def test_per_step_memory_bounded_by_distinct_values(self, dense_constellation):
        # 3,168 links x 181 steps: the raw samples alone would take 4.6 MB
        n_samples = GridTopology(dense_constellation).n_edges * 181
        assert n_samples * 8 > 4.5e6
        tracemalloc.start()
        try:
            cdf = min_isl_altitude_cdf(dense_constellation, 0.0, 1800.0, 10.0, per_link_min=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cdf.points) > 1000
        assert peak < 3e6

    def test_prescreen_clears_values_off_rounding_boundaries(self):
        # a boundary every 1e-6 km in [100, 1000): about 2 eps / 1e-6 of the values lie near one
        v = np.random.default_rng(1).uniform(100.0, 1000.0, 100_000)
        assert 0.015 < stats._near_rounding_boundary(v, 1e-8).mean() < 0.025
        cases = {
            483.123456789: False,
            -483.123456789: False,
            483.1234565: True,  # a midpoint between 9-digit decimals
            483.12345651: True,
            999.9999995: True,  # rounds to 1000
            1000.0: False,  # no rounding boundary lies within eps; only the old decade window flagged it
            0.0: True,
            -0.0: True,
            5e-9: True,
            1e-4: True,  # below 1e-3 km nothing is cleared
            1.5e12: False,  # no rounding boundary lies within eps; only the old decade window flagged it
            math.nan: True,
        }
        flagged = stats._near_rounding_boundary(np.array(list(cases)), 1e-8)
        assert dict(zip(cases, flagged.tolist())) == cases

    def test_class_cdf_evaluates_few_links(self, dense_constellation, monkeypatch):
        evaluated = []
        kernel = GridTopology._edge_grazing
        monkeypatch.setattr(GridTopology, "_edge_grazing",
                            lambda self, a, *args: evaluated.append(a.size) or kernel(self, a, *args))
        min_isl_altitude_cdf(dense_constellation, 0.0, 1800.0, 10.0, per_link_min=False)
        # 23 classes at 181 steps, and the members of the few class-steps near a rounding boundary,
        # against 3,168 links at 181 steps
        assert 23 * 181 <= sum(evaluated) < 4 * 23 * 181

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

    def test_streamed_rows_match_joined_text(self, tmp_path, monkeypatch, rng):
        cdf = CdfTable.from_samples(rng.normal(size=50))
        monkeypatch.setattr(stats, "_CSV_ROWS", 7)
        path = tmp_path / "cdf.csv"
        write_cdf_csv(cdf, path)
        lines = ["value_km,proportion"] + [f"{v:.9g},{p:.9g}" for v, p in cdf.points]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        write_cdf_csv(CdfTable([], []), path)
        assert path.read_bytes() == b"value_km,proportion\n"

    def test_failed_write_keeps_old_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "cdf.csv"
        write_cdf_csv(CdfTable.from_samples([1.0, 2.0]), path)
        old = path.read_bytes()
        monkeypatch.setattr(stats, "_CSV_ROWS", 2)
        # the first slices reach the file before the last one fails: its columns differ in length
        bad = SimpleNamespace(values=np.arange(6.0), proportions=np.linspace(0.2, 1.0, 5))
        with pytest.raises(ValueError):
            write_cdf_csv(bad, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["cdf.csv"]

    @pytest.mark.parametrize("where", ["missing/cdf.csv", "."])
    def test_unwritable_path_named(self, tmp_path, monkeypatch, where):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as excinfo:
            write_cdf_csv(CdfTable.from_samples([1.0, 2.0]), where)
        assert excinfo.value.filename == where
        assert ".tmp" not in str(excinfo.value)
        assert os.listdir(tmp_path) == []

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cdf.csv"
        path.write_text("a,b\n1,1\n")
        with pytest.raises(ValueError, match="header"):
            read_cdf_csv(path)

    @pytest.mark.parametrize(
        "body, line_no",
        [
            ("nan,0.5\n10,1\n", 2),
            ("1,0.5\ninf,1\n", 3),
            ("-inf,0.5\n1,1\n", 2),
            ("1,nan\n2,1\n", 2),
            ("2,0.5\n\n1,1\n", 4),
            ("1,0.5\n2,0.25\n3,1\n", 3),
            ("1,0.5\n2,0.75\n", 3),
            ("1,0.5\n1_0,1\n", None),
            ("1,0.5\n2,1,3\n", 3),
            ("1,0.5\n2\n", 3),
            ("1,0.5\nten,1\n", 3),
            ("1.0,0.5\x0c2.0,1.0\n", 2),  # str.splitlines() would split here
            ("1.0,0.5\x1c2.0,1.0\n", 2),
            ("1,0.5\n\u0662,1\n", None),
            ("1,0.5\n\uff12,1\n", None),
        ],
        ids=["nan-value", "inf-value", "minus-inf-value", "nan-proportion", "decreasing-value-after-blank",
             "decreasing-proportion", "final-proportion-below-one", "digit-separator",
             "three-columns", "one-column", "not-a-number", "form-feed", "file-separator",
             "arabic-indic-digit", "fullwidth-digit"],
    )
    def test_malformed_rows_rejected(self, tmp_path, body, line_no):
        path = tmp_path / "cdf.csv"
        path.write_text("value_km,proportion\n" + body)
        match = f"line {line_no}:" if line_no else "'_'"
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
            CdfTable(*zip(*points))
