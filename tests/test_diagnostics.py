"""Tests for mixer diagnostics: rank, row-distance histograms, locality
mass, and the approximation error curve."""

import csv

import numpy as np
import pytest

from mixerlab import (
    Histogram,
    MatrixMixer,
    MixerClass,
    approximation_error_curve,
    build_mixer_report,
    default_windows,
    draw_orthogonal_features,
    favor_mixer,
    head_average,
    locality_mass,
    numerical_rank,
    pairwise_l2_histogram,
    softmax_mixer,
    write_approx_curve,
    write_l2_hist,
    write_locality,
    write_rank_report,
)


def dense(m):
    return MatrixMixer(np.asarray(m, dtype=float), MixerClass.dense())


def oracle_histogram(m, bins):
    """All pairwise row distances via a double loop, then np.histogram
    over [0, max]. Mirrors the documented binning exactly."""
    T = m.shape[0]
    dists = []
    for i in range(T):
        for j in range(i + 1, T):
            diff = m[j] - m[i]
            dists.append(np.sqrt(np.sum(diff * diff)))
    dists = np.array(dists)
    if len(dists) == 0 or np.max(dists) == 0.0:
        return None
    counts, edges = np.histogram(dists, bins=bins, range=(0.0, float(np.max(dists))))
    return counts, edges


class TestHeadAverage:
    def test_single_mixer_is_itself(self):
        rng = np.random.default_rng(0)
        m = dense(rng.standard_normal((4, 4)))
        avg = head_average([m])
        assert np.array_equal(avg.m, m.m)

    def test_opposite_pair_cancels(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        avg = head_average([dense(a), dense(-a)])
        np.testing.assert_allclose(avg.m, np.zeros((5, 5)), atol=0)

    def test_four_mixers_match_elementwise_mean(self):
        rng = np.random.default_rng(5)
        ms = [rng.standard_normal((3, 3)) for _ in range(4)]
        avg = head_average([dense(m) for m in ms])
        np.testing.assert_allclose(avg.m, np.mean(ms, axis=0), atol=1e-15)

    def test_result_tagged_dense(self):
        avg = head_average([dense(np.eye(3)), dense(np.eye(3))])
        assert avg.class_tag.kind == "dense"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            head_average([])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            head_average([dense(np.eye(3)), dense(np.eye(4))])


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(dense(np.eye(4))) == 4

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        assert numerical_rank(dense(np.outer(u, v))) == 1

    def test_zero_matrix(self):
        assert numerical_rank(dense(np.zeros((3, 3)))) == 0

    def test_favor_bounded_softmax_full(self):
        rng = np.random.default_rng(3)
        T, d, r = 64, 8, 16
        q = rng.standard_normal((T, d))
        k = rng.standard_normal((T, d))
        om = draw_orthogonal_features(d, r, 0)
        assert numerical_rank(favor_mixer(q, k, om)) <= r
        assert numerical_rank(softmax_mixer(q, k)) == T

    def test_tolerance_is_relative_to_largest_singular_value(self):
        m = np.diag([1.0, 1e-3, 1e-9])
        assert numerical_rank(dense(m), tol=1e-6) == 2
        assert numerical_rank(dense(m), tol=1e-12) == 3

    def test_bool_tol_rejected(self):
        for tol in (True, False, 0.0, float("nan")):
            with pytest.raises(ValueError):
                numerical_rank(dense(np.eye(3)), tol=tol)


class TestPairwiseHistogram:
    def test_matches_double_loop_oracle_exactly(self):
        """Counts and edges must be bitwise equal to the brute-force pair
        enumeration, not merely close."""
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8))
        h = pairwise_l2_histogram(dense(m), bins=10)
        counts, edges = oracle_histogram(m, 10)
        assert np.array_equal(h.counts, counts)
        assert np.array_equal(h.bin_edges, edges)

    def test_seeded_sweep_against_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            T = int(rng.integers(2, 12))
            bins = int(rng.integers(1, 8))
            m = rng.standard_normal((T, T))
            h = pairwise_l2_histogram(dense(m), bins=bins)
            counts, edges = oracle_histogram(m, bins)
            assert np.array_equal(h.counts, counts)
            assert np.array_equal(h.bin_edges, edges)

    def test_total_counts_all_pairs(self):
        rng = np.random.default_rng(9)
        T = 7
        h = pairwise_l2_histogram(dense(rng.standard_normal((T, T))))
        assert h.total == T * (T - 1) // 2
        assert int(h.counts.sum()) == h.total

    def test_single_row_gives_empty_histogram(self):
        h = pairwise_l2_histogram(dense(np.array([[3.0]])))
        assert h.total == 0
        assert int(h.counts.sum()) == 0
        assert len(h.counts) == 1

    def test_identical_rows_collapse_to_zero_bin(self):
        h = pairwise_l2_histogram(dense(np.ones((4, 4))))
        assert h.total == 6
        assert len(h.counts) == 1
        assert int(h.counts[0]) == 6

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            Histogram(
                bin_edges=np.array([0.0, 1.0]),
                counts=np.array([2], dtype=np.int64),
                total=3,
            )
        with pytest.raises(ValueError):
            Histogram(
                bin_edges=np.array([1.0, 0.5]),
                counts=np.array([2], dtype=np.int64),
                total=2,
            )


class TestLocalityMass:
    def test_identity_window_zero(self):
        assert locality_mass(dense(np.eye(5)), 0) == 1.0

    def test_tridiagonal_window_one(self):
        m = np.diag(np.ones(5)) + np.diag(np.ones(4), 1) + np.diag(np.ones(4), -1)
        assert locality_mass(dense(m), 1) == 1.0

    def test_full_window_is_exactly_one(self):
        rng = np.random.default_rng(10)
        m = dense(rng.standard_normal((6, 6)))
        assert locality_mass(m, 5) == 1.0
        assert locality_mass(m, 9) == 1.0

    def test_monotone_in_window(self):
        rng = np.random.default_rng(11)
        m = dense(rng.standard_normal((8, 8)))
        masses = [locality_mass(m, w) for w in range(8)]
        assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
        assert all(0.0 <= v <= 1.0 for v in masses)

    def test_zero_rows_count_as_fully_local(self):
        m = np.zeros((4, 4))
        m[1, 0] = 2.0
        assert locality_mass(dense(m), 0) < 1.0
        assert locality_mass(dense(np.zeros((3, 3))), 0) == 1.0

    def test_matches_direct_band_ratio(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((7, 7))
        w = 2
        got = locality_mass(dense(m), w)
        absm = np.abs(m)
        i, j = np.indices(m.shape)
        band = absm * (np.abs(i - j) <= w)
        expected = float(np.mean(band.sum(axis=1) / absm.sum(axis=1)))
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            locality_mass(dense(np.eye(3)), -1)


class TestApproximationErrorCurve:
    def test_zero_inputs_give_zero_error(self):
        """With q = k = 0 both mixers are uniform, any feature count."""
        q = np.zeros((6, 2))
        k = np.zeros((6, 2))
        curve = approximation_error_curve(q, k, [64], seeds=[0, 1])
        ((r, err),) = curve
        assert r == 64
        assert err == 0.0

    def test_repeated_seed_gives_identical_errors(self):
        rng = np.random.default_rng(13)
        q = rng.standard_normal((8, 3))
        k = rng.standard_normal((8, 3))
        c1 = approximation_error_curve(q, k, [8, 32], seeds=[5, 5, 5])
        c2 = approximation_error_curve(q, k, [8, 32], seeds=[5])
        assert c1 == c2

    def test_error_decreases_with_feature_count(self):
        rng = np.random.default_rng(14)
        q = rng.standard_normal((16, 8)) / np.sqrt(8)
        k = rng.standard_normal((16, 8)) / np.sqrt(8)
        curve = approximation_error_curve(q, k, [16, 1024], seeds=range(32))
        errs = dict(curve)
        assert errs[1024] < errs[16]

    def test_matches_direct_median_of_frobenius_ratios(self):
        rng = np.random.default_rng(15)
        q = rng.standard_normal((6, 2))
        k = rng.standard_normal((6, 2))
        seeds = [3, 9, 27]
        ((_, got),) = approximation_error_curve(q, k, [8], seeds=seeds)
        ref = softmax_mixer(q, k).m
        errors = []
        for s in seeds:
            om = draw_orthogonal_features(2, 8, s)
            approx = favor_mixer(q, k, om).m
            errors.append(
                np.linalg.norm(approx - ref) / np.linalg.norm(ref)
            )
        np.testing.assert_allclose(got, float(np.median(errors)), atol=1e-15)


class TestReportsAndCsv:
    def test_default_windows_structure(self):
        w = default_windows(16)
        assert w[0] == 0
        assert w[-1] == 15
        assert list(w) == sorted(set(w))

    def test_default_windows_T1(self):
        assert default_windows(1) == (0,)

    def test_build_mixer_report_fields(self):
        rng = np.random.default_rng(16)
        m = dense(rng.standard_normal((8, 8)))
        rep = build_mixer_report(m, "example", bins=5)
        assert rep.kind_label == "example"
        assert rep.rank == numerical_rank(m)
        lo, hi = rep.row_sum_range
        sums = m.m.sum(axis=1)
        assert lo == float(np.min(sums))
        assert hi == float(np.max(sums))
        assert len(rep.windows) == len(rep.locality)
        assert rep.l2_histogram.total == 28

    def test_rank_report_csv(self, tmp_path):
        path = tmp_path / "rank.csv"
        write_rank_report(path, [("softmax", 8, 4, None, 8), ("favor", 8, 4, 2, 2)])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["mixer_kind", "T", "d_or_N", "r", "rank"]
        assert rows[1] == ["softmax", "8", "4", "", "8"]
        assert rows[2] == ["favor", "8", "4", "2", "2"]

    def test_l2_hist_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        h = pairwise_l2_histogram(dense(rng.standard_normal((5, 5))), bins=3)
        path = tmp_path / "h.csv"
        write_l2_hist(path, [("softmax", h)])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "mixer_kind"]
        assert len(rows) == 1 + 3
        assert sum(int(r[2]) for r in rows[1:]) == h.total

    def test_locality_csv(self, tmp_path):
        rng = np.random.default_rng(18)
        rep = build_mixer_report(dense(rng.standard_normal((8, 8))), "hydra")
        path = tmp_path / "loc.csv"
        write_locality(path, [("hydra", rep)])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["window", "mass", "mixer_kind"]
        assert len(rows) == 1 + len(rep.windows)
        assert all(r[2] == "hydra" for r in rows[1:])

    def test_approx_curve_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        write_approx_curve(path, [(16, 0.5), (64, 0.25)])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["r", "median_rel_err"]
        assert rows[1] == ["16", "0.5"]
        assert rows[2] == ["64", "0.25"]

    def test_csv_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "a.csv"
        write_approx_curve(path, [(16, 0.5)])
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")
