"""Tests for mixer diagnostics: rank, row-distance histograms, locality
mass, and the approximation error curve."""

import csv

import numpy as np
import pytest

from mixerlab import (
    DEFAULT_RANK_TOL,
    BiMambaParams,
    Histogram,
    HydraParams,
    MatrixMixer,
    MixerClass,
    NumericRangeError,
    ScanParams,
    StructureReport,
    approximation_error_curve,
    bimamba_mixer,
    build_mixer_report,
    check_structure,
    default_windows,
    draw_orthogonal_features,
    favor_mixer,
    head_average,
    hydra_mixer,
    locality_mass,
    numerical_rank,
    pairwise_l2_histogram,
    softmax_mixer,
    ssm_mixer,
    write_approx_curve,
    write_l2_hist,
    write_locality,
    write_rank_report,
)
from mixerlab import diagnostics, mixer_core


def dense(m):
    return MatrixMixer(np.asarray(m, dtype=float), MixerClass.dense())


def oracle_distances(m):
    """All pairwise row distances via a double loop, i < j in row order."""
    T = m.shape[0]
    dists = []
    for i in range(T):
        for j in range(i + 1, T):
            diff = m[j] - m[i]
            dists.append(np.sqrt(np.sum(diff * diff)))
    return np.array(dists)


def oracle_histogram(m, bins, dists=None):
    """np.histogram of the double-loop distances over [0, max]. Mirrors
    the documented binning exactly; ``dists`` reuses
    :func:`oracle_distances` output across bin counts."""
    if dists is None:
        dists = oracle_distances(m)
    if len(dists) == 0 or np.max(dists) == 0.0:
        return None
    counts, edges = np.histogram(dists, bins=bins, range=(0.0, float(np.max(dists))))
    return counts, edges


def assert_matches_oracle(m, bins_list, dists=None):
    """Bitwise equality with the oracle for every bin count; returns the
    oracle distances so callers can reuse them."""
    if dists is None:
        dists = oracle_distances(m)
    for bins in bins_list:
        h = pairwise_l2_histogram(dense(m), bins=bins)
        expected = oracle_histogram(m, bins, dists)
        if expected is None:
            assert h.bins == 1 and int(h.counts[0]) == h.total == len(dists)
            continue
        counts, edges = expected
        assert np.array_equal(h.bin_edges, edges), bins
        assert np.array_equal(h.counts, counts), bins
    return dists


def audit_mixers(T, seed):
    """The five mixer kinds of the structure-audit benchmark, built the
    same way: slow scan decays, head width 64, 64 features."""
    rng = np.random.default_rng(seed)

    def scan():
        return ScanParams(
            a=rng.uniform(0.8, 1.0, T),
            b=rng.standard_normal((T, 16)),
            c=rng.standard_normal((T, 16)),
        )

    q = rng.standard_normal((T, 64)) / 8.0
    k = rng.standard_normal((T, 64)) / 8.0
    return {
        "ssm": ssm_mixer(scan()),
        "bimamba": bimamba_mixer(BiMambaParams(scan(), scan())),
        "hydra": hydra_mixer(HydraParams(scan(), scan(), rng.standard_normal(T))),
        "softmax": softmax_mixer(q, k),
        "favor": favor_mixer(q, k, draw_orthogonal_features(64, 64, seed)),
    }


def count_exact_pairs(monkeypatch):
    """Record how many pairs the histogram recomputes exactly."""
    seen = []
    original = diagnostics._exact_distances

    def counting(m, i, j):
        seen.append(i.shape[0])
        return original(m, i, j)

    monkeypatch.setattr(diagnostics, "_exact_distances", counting)
    return seen


def oracle_locality(m, window):
    """Band ratio with an explicit multiplicative mask, as a direct
    reading of the definition."""
    absm = np.abs(m)
    idx = np.arange(m.shape[0])
    mask = np.abs(idx[:, None] - idx[None, :]) <= window
    near = (absm * mask).sum(axis=1)
    full = absm.sum(axis=1)
    ratios = np.where(full > 0.0, near / np.where(full > 0.0, full, 1.0), 1.0)
    return float(np.mean(ratios))


def approximation_error_curve_reference(q, k, r_values, seeds):
    """The error curve with a fresh favor_mixer per draw and the error
    ``norm(approx - exact) / norm(exact)`` taken on a new difference,
    each Frobenius norm the root of an einsum sum of squares."""
    def norm(m):
        return float(np.sqrt(np.einsum("ij,ij->", m, m)))

    exact = softmax_mixer(q, k).m
    table = []
    for r in r_values:
        errs = []
        for s in seeds:
            approx = favor_mixer(q, k, draw_orthogonal_features(q.shape[1], r, s)).m
            errs.append(norm(approx - exact) / norm(exact))
        table.append((r, float(np.median(errs))))
    return tuple(table)


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_mean_of_stack_bit_for_bit(self, n):
        rng = np.random.default_rng(20 + n)
        ms = [rng.standard_normal((7, 7)) * 10.0 ** rng.uniform(-3, 3) for _ in range(n)]
        ref = np.mean(np.stack(ms), axis=0)
        assert np.array_equal(head_average([dense(m) for m in ms]).m, ref)
        assert np.array_equal(head_average(dense(m) for m in ms).m, ref)

    def test_generator_checks_are_kept(self):
        with pytest.raises(ValueError, match="empty"):
            head_average(dense(m) for m in [])
        with pytest.raises(ValueError, match=r"mixer 2 is 4x4, expected 3x3"):
            head_average(dense(m) for m in [np.eye(3), np.eye(3), np.eye(4)])


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

    def test_one_full_svd_per_mixer(self, monkeypatch):
        """check_structure, build_mixer_report and numerical_rank on one
        mixer share a single values-only SVD of the whole matrix."""
        mixer = audit_mixers(48, 31)["hydra"]
        full_calls = []
        original = np.linalg.svd

        def counting(a, *args, **kwargs):
            if np.shape(a) == (mixer.T, mixer.T):
                full_calls.append(kwargs.get("compute_uv"))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        report = check_structure(mixer)
        diag = build_mixer_report(mixer, "hydra")
        mistag = check_structure(mixer, class_tag=MixerClass.semiseparable(16))
        rank = numerical_rank(mixer, tol=1e-9)
        assert full_calls == [False]
        assert report.ok and not mistag.ok

        monkeypatch.setattr(np.linalg, "svd", original)
        fresh = audit_mixers(48, 31)["hydra"]
        assert check_structure(fresh) == report
        assert build_mixer_report(fresh, "hydra").rank == diag.rank
        assert numerical_rank(fresh, tol=1e-9) == rank

    def test_shared_values_are_read_only(self):
        m = dense(np.diag([3.0, 2.0, 1.0]))
        assert numerical_rank(m) == 3
        sv = mixer_core._singular_values(m)
        assert not sv.flags.writeable
        assert sv is mixer_core._singular_values(m)


def svd_rank(m, tol=DEFAULT_RANK_TOL):
    """The rank count of one full values-only SVD."""
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0])) if sv[0] > 0.0 else 0


def graded(rng, T, rank, decades):
    """A T x T matrix of the given rank, singular values spread log-evenly
    over ``decades``, in random singular directions."""
    u = np.linalg.qr(rng.standard_normal((T, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((T, rank)))[0]
    return (u * np.logspace(0.0, -decades, rank)) @ v.T


def at_threshold(rng, T, offset, tol=DEFAULT_RANK_TOL):
    """Rank 4 with its smallest singular value at tol * sigma_1 * (1 +
    offset): sigma_1 moves with that value, so settle the fixed point."""
    u = np.linalg.qr(rng.standard_normal((T, 4)))[0]
    v = np.linalg.qr(rng.standard_normal((T, 4)))[0]
    s = np.array([1.0, 0.5, 0.25, tol])
    for _ in range(4):
        m = (u * s) @ v.T
        s[3] = tol * np.linalg.svd(m, compute_uv=False)[0] * (1.0 + offset)
    return (u * s) @ v.T


def low_rank_tagged_cases(seed):
    """(m, r, tol) for mixers tagged low_rank(r): favor maps at several T,
    r and input scales; mis-tagged maps of true rank r+1..T; a value at
    the threshold; the zero matrix; T below 2(r + 8); extreme scales."""
    rng = np.random.default_rng(seed)
    for T in (24, 40, 64, 130, 200):
        for r in (1, 4, 12, 24):
            for scale in (0.05, 0.5, 1.0, 2.0):
                q, k = rng.standard_normal((2, T, 8)) * scale
                m = favor_mixer(q, k, draw_orthogonal_features(8, r, T + r)).m
                yield m, r, DEFAULT_RANK_TOL
    for _ in range(110):
        T = int(rng.choice((34, 48, 96, 160)))
        r = int(rng.integers(1, 9))
        rank = int(rng.integers(r + 1, T + 1))
        tol = float(rng.choice((1e-3, DEFAULT_RANK_TOL, 1e-10)))
        yield graded(rng, T, rank, float(rng.uniform(1.0, 15.0))), r, tol
    for offset in (1e-12, -1e-12):
        for T, r in ((64, 3), (64, 4), (96, 8)):
            yield at_threshold(rng, T, offset), r, DEFAULT_RANK_TOL
    for T, r in ((64, 1), (40, 16), (300, 4)):
        yield np.zeros((T, T)), r, DEFAULT_RANK_TOL
    for T, r in ((30, 8), (33, 9), (48, 24)):
        yield graded(rng, T, r, 4.0), r, DEFAULT_RANK_TOL
    for scale in (1e-300, 1e-160, 1e150, 1e300):
        q, k = rng.standard_normal((2, 80, 4))
        yield favor_mixer(q, k, draw_orthogonal_features(4, 6, 5)).m * scale, 6, DEFAULT_RANK_TOL
        yield graded(rng, 80, 30, 9.0) * scale, 6, DEFAULT_RANK_TOL


class TestSketchedRank:
    """Low_rank-tagged mixers may be counted from a sketch; the counts
    must be the full SVD's, compared with ==."""

    def test_counts_equal_full_svd(self, monkeypatch):
        certified = []
        original = mixer_core._sketched_rank

        def recording(m, tol, width):
            rank = original(m, tol, width)
            certified.append(rank is not None)
            return rank

        monkeypatch.setattr(mixer_core, "_sketched_rank", recording)
        cases = 0
        for m, r, tol in low_rank_tagged_cases(61):
            T = m.shape[0]
            tag = MixerClass.low_rank(r)
            expected = svd_rank(m, tol)
            assert numerical_rank(MatrixMixer(m, tag), tol) == expected, (T, r, tol)
            violations = (((0, T, 0, T), expected),) if expected > min(T, r) else ()
            report = check_structure(MatrixMixer(m, tag), tol)
            assert report == StructureReport(tag, expected, violations), (T, r, tol)
            cases += 1
        assert cases >= 200
        # the sketch was tried and both certified and declined
        assert 0 < sum(certified) < len(certified)

    @pytest.mark.parametrize("scale, certified", [
        (1.0, True), (1e150, True), (1e300, False), (2e307, False),
    ])
    def test_sketch_declines_near_overflow(self, scale, certified):
        """Near the float64 limit the sketch's residual (entries near
        1e300) or its QR (near 2e307) overflows and the sketch declines;
        the full SVD's count stands. Well inside the range it certifies."""
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 4)) @ rng.standard_normal((4, 64))
        m *= scale / np.abs(m).max()
        width = 4 + mixer_core._SKETCH_OVERSAMPLE
        assert mixer_core._sketched_rank(m, DEFAULT_RANK_TOL, width) == (4 if certified else None)
        assert numerical_rank(MatrixMixer(m, MixerClass.low_rank(4))) == svd_rank(m) == 4

    @pytest.mark.parametrize("tag", [
        MixerClass.dense(), MixerClass.low_rank(4), MixerClass.quasiseparable(4),
    ])
    def test_overflowed_reference_scale_raises(self, tag):
        """At entries up to 5e307 the rank-4 matrix is finite but its
        largest singular value overflows, so there is no reference scale
        to count against; at 2e307 it still fits and the count is 4."""
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 4)) @ rng.standard_normal((4, 64))
        m /= np.abs(m).max()
        for count in (numerical_rank, lambda mixer: check_structure(mixer).max_offdiag_block_rank):
            with pytest.raises(NumericRangeError, match="overflows"):
                count(MatrixMixer(m * 5e307, tag))
            assert count(MatrixMixer(m * 2e307, tag)) == 4

    def test_favor_head_map_takes_no_full_svd(self, monkeypatch):
        """A T=512, r=16 favor head map is counted without a (T, T) SVD;
        the same size softmax map tagged low_rank(16) takes one."""
        T = 512
        rng = np.random.default_rng(512)
        q, k = rng.standard_normal((2, T, 16)) / 4.0
        favor = favor_mixer(q, k, draw_orthogonal_features(16, 16, 3))
        mistag = MatrixMixer(softmax_mixer(q, k).m, MixerClass.low_rank(16))
        full_calls = []
        original = np.linalg.svd

        def counting(a, *args, **kwargs):
            if np.shape(a) == (T, T):
                full_calls.append(kwargs.get("compute_uv"))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert numerical_rank(favor) == 16
        assert check_structure(favor).ok
        assert full_calls == []
        assert numerical_rank(mistag) == svd_rank(mistag.m) > 16
        assert not check_structure(mistag).ok
        # one for the mixer, one for svd_rank here
        assert full_calls == [False, False]
        monkeypatch.setattr(np.linalg, "svd", original)
        assert svd_rank(favor.m) == 16


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

    def test_oracle_across_sizes_and_bin_counts(self):
        rng = np.random.default_rng(19)
        for T in (1, 2, 3, 17, 320, 512):
            assert_matches_oracle(rng.standard_normal((T, T)), (1, 2, 50, 1000))

    def test_oracle_on_audit_mixers(self):
        for kind, mixer in audit_mixers(320, 20).items():
            assert_matches_oracle(mixer.m, (1, 50, 1000))

    def test_identical_and_near_duplicate_rows(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal((6, 40))
        m = base[rng.integers(0, 6, 40)]
        assert_matches_oracle(m, (1, 2, 50, 1000))
        near = m * (1.0 + 1e-12 * rng.standard_normal(m.shape))
        assert_matches_oracle(near, (1, 2, 50, 1000))
        assert_matches_oracle(np.tile(base[0], (40, 1)), (1, 50))

    def test_row_norms_spanning_eight_decades(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((64, 64)) * 10.0 ** rng.uniform(-4, 4, (64, 1))
        m[0] *= 1e4 / np.linalg.norm(m[0])
        m[1] *= 1e-4 / np.linalg.norm(m[1])
        assert_matches_oracle(m, (1, 2, 50, 1000))

    def test_large_common_offset_cancels_in_gram_form(self, monkeypatch):
        """Rows 1e6 + O(1): the Gram form loses about eight digits to
        cancellation, so many intervals straddle edges at 1000 bins."""
        rng = np.random.default_rng(29)
        m = 1e6 + rng.standard_normal((96, 96))
        exact = count_exact_pairs(monkeypatch)
        assert_matches_oracle(m, (1, 2, 50, 1000))
        assert sum(exact) > 96

    def test_near_tied_maximum_under_cancellation(self):
        """Points on a circle, offset by 1e5: the largest distances differ
        by less than the Gram form's error, so the pair with the largest
        estimate need not be the one with the largest distance."""
        rng = np.random.default_rng(30)
        T = 64
        theta = 2 * np.pi * np.arange(T) / T + 1e-4 * rng.standard_normal(T)
        m = np.full((T, T), 1e5)
        m[:, 0] += 10.0 * np.cos(theta)
        m[:, 1] += 10.0 * np.sin(theta)
        assert_matches_oracle(m, (1, 50, 1000))

    def test_squared_norms_summing_past_overflow(self):
        """|m_0|^2 + |m_1|^2 overflows while 2 (m m^T)_01 and every
        distance stay finite, so the Gram estimate is +inf."""
        rng = np.random.default_rng(31)
        m = rng.standard_normal((6, 6))
        m[:2] = 0.0
        m[0, 0] = m[1, 0] = 9.4e153
        m[1, 1] = 2e153
        with np.errstate(over="ignore"):
            assert np.isinf(m[0] @ m[0] + m[1] @ m[1])
        assert_matches_oracle(m, (1, 2, 50, 1000))

    def test_subnormal_squares_fall_back_to_exact(self, monkeypatch):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((32, 32)) * 1e-160
        exact = count_exact_pairs(monkeypatch)
        assert_matches_oracle(m, (1, 2, 50, 1000))
        assert sum(exact) >= 32 * 31 // 2

    def test_overflowing_gram_falls_back_to_exact(self, monkeypatch):
        """Squared row norms overflow although every distance is finite,
        so no Gram estimate is finite."""
        rng = np.random.default_rng(24)
        m = 6e153 * (1.0 + 1e-3 * rng.standard_normal((64, 64)))
        assert not np.all(np.isfinite(np.einsum("ij,ij->i", m, m)))
        exact = count_exact_pairs(monkeypatch)
        assert_matches_oracle(m, (1, 2, 50, 1000))
        assert sum(exact) >= 64 * 63 // 2

    def test_overflowing_distances_raise_like_np_histogram(self):
        rng = np.random.default_rng(25)
        m = rng.standard_normal((16, 16)) * 1e160
        with np.errstate(over="ignore"):
            dists = oracle_distances(m)
            assert np.isinf(dists.max())
            with pytest.raises(ValueError) as expected:
                oracle_histogram(m, 50, dists)
            with pytest.raises(ValueError) as got:
                pairwise_l2_histogram(dense(m), bins=50)
        assert str(got.value) == str(expected.value)

    def test_distances_on_bin_edges_take_the_exact_path(self, monkeypatch):
        """Rows k * (3, 4, 0, ...) are 5 |k - l| apart: integers that land
        exactly on edges of linspace(0, 5 (T - 1), bins + 1)."""
        T = 40
        m = np.zeros((T, T))
        m[:, 0] = 3.0 * np.arange(T)
        m[:, 1] = 4.0 * np.arange(T)
        exact = count_exact_pairs(monkeypatch)
        assert_matches_oracle(m, (1, 3, 13, 39, 78, 195))
        # every pair sits on an edge at bins = 39, 78 and 195
        assert sum(exact) >= 3 * T * (T - 1) // 2

    def test_transient_memory_bounded_by_blocks(self):
        """Peak traced allocation stays under the two stored bounds per
        pair plus eight pair blocks of temporaries. A loop that keeps
        every distance and then bins them all at once needs more."""
        import tracemalloc

        rng = np.random.default_rng(26)
        for T in (320, 512):
            m = dense(rng.standard_normal((T, T)))
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                pairwise_l2_histogram(m, bins=50)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            pairs = T * (T - 1) // 2
            assert peak - base < 16 * pairs + 8 * 8 * diagnostics._PAIR_BLOCK, T

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

    @pytest.mark.parametrize("counts, total", [
        ([1.7], 1), ([True], 1), (["1"], 1), ([1], True), ([1], 1.0), ([1], np.int64(1)),
    ])
    def test_histogram_counts_and_total_must_be_integers(self, counts, total):
        with pytest.raises(ValueError, match="counts must be integer-valued|total must be"):
            Histogram(np.array([0.0, 1.0]), np.array(counts), total)

    def test_histogram_stores_integer_valued_float_counts_as_int64(self):
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.0]), 2)
        assert h.counts.dtype == np.int64 and h.counts.tolist() == [2, 0]


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

    def test_profile_equals_per_window_mass(self):
        for kind, mixer in audit_mixers(64, 27).items():
            windows = default_windows(64) + (5, 70)
            profile = diagnostics._locality_profile(mixer.m, windows)
            assert profile == tuple(locality_mass(mixer, w) for w in windows)
            assert profile == tuple(oracle_locality(mixer.m, w) for w in windows)


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

    def test_matches_per_draw_favor_mixers_bit_for_bit(self):
        """At the size diagnose runs: T=512, d=16. Feature counts out of
        order reuse feature scratch last filled by a larger count."""
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            q = rng.standard_normal((512, 16)) / 4.0
            k = rng.standard_normal((512, 16)) / 4.0
            seeds = [seed, seed + 10]
            for r_values in ((16, 1024), (1024, 16, 256)):
                got = approximation_error_curve(q, k, r_values, seeds)
                assert got == approximation_error_curve_reference(q, k, r_values, seeds)

    @pytest.mark.parametrize(
        "r_values, seeds",
        [([16.7], [1]), ([True], [1]), ([np.int64(8)], [1]), ([8, 0], [1]),
         ([8], [1.9]), ([8], [True]), ([8], [-1]), ([8], [1, "2"])],
    )
    def test_non_integer_r_or_seed_refused_before_any_draw(self, monkeypatch, r_values, seeds):
        drawn = []
        monkeypatch.setattr(diagnostics, "draw_orthogonal_features",
                            lambda *args: drawn.append(args))
        q = np.ones((4, 2))
        with pytest.raises(ValueError):
            approximation_error_curve(q, q, r_values, seeds)
        assert drawn == []


class TestReportsAndCsv:
    def test_default_windows_structure(self):
        w = default_windows(16)
        assert w[0] == 0
        assert w[-1] == 15
        assert list(w) == sorted(set(w))

    def test_default_windows_T1(self):
        assert default_windows(1) == (0,)

    @pytest.mark.parametrize("T", [4.5, True, 0, -3, "8", np.int64(8)])
    def test_default_windows_needs_a_positive_int(self, T):
        with pytest.raises(ValueError, match="positive integer"):
            default_windows(T)

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

    def test_report_windows_validated_before_conversion(self):
        m = dense(np.random.default_rng(28).standard_normal((8, 8)))
        for bad in ((2.7,), (True,), (0.5,), (-1,), (np.bool_(True),), (2.0,), ("3",)):
            with pytest.raises(ValueError):
                build_mixer_report(m, "x", windows=bad)
        rep = build_mixer_report(m, "x", windows=(0, np.int64(3), np.int32(9)))
        assert rep.windows == (0, 3, 9)
        assert all(type(w) is int for w in rep.windows)
        assert rep.locality == tuple(locality_mass(m, w) for w in (0, 3, 9))

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
