"""Tests for softmax attention, random-feature attention, and rotary embeddings."""

import tracemalloc
import warnings

import numpy as np
import pytest

from mixerlab import (
    AttentionMixerConfig,
    FeatureSequence,
    MhaWeights,
    MultiHeadConfig,
    NumericRangeError,
    OrthogonalFeatureMatrix,
    QkvTriple,
    RopeConfig,
    ShapeError,
    apply_mixer,
    apply_rope,
    approximation_error_curve,
    draw_orthogonal_features,
    favor_attention,
    favor_mixer,
    multi_head_attention,
    numerical_rank,
    positive_feature_map,
    softmax_attention,
    softmax_mixer,
)
from mixerlab.attention import _SOFTMAX_CHUNK, _rope_tables, _unshifted_is_safe
from mixerlab.rng import make_rng


def _softmax_rows_reference(logits):
    """Row softmax on a fresh copy: the reference the in-place form must
    match bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def _softmax_attention_reference(q, k, v, shift, chunk=_SOFTMAX_CHUNK):
    """softmax_attention with fresh logits and weights per block of
    ``chunk`` rows: the same GEMM shapes and row partition, no reused
    buffer, the row max subtracted when ``shift``, and each block's output
    rows divided by their weight sums."""
    kt = np.ascontiguousarray(k.T)
    out = np.empty_like(v)
    for lo in range(0, q.shape[0], chunk):
        hi = min(lo + chunk, q.shape[0])
        logits = q[lo:hi] @ kt
        e = np.exp(logits - logits.max(axis=1, keepdims=True) if shift else logits)
        out[lo:hi] = (e @ v) / e.sum(axis=1, keepdims=True)
    return out


def _rope_reference(x):
    """apply_rope computing its cos/sin tables on each call."""
    T, d = x.shape
    inv_freq = 10000.0 ** (-2.0 * np.arange(d // 2) / d)
    angles = np.arange(T)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = cos * even - sin * odd
    out[:, 1::2] = sin * even + cos * odd
    return out


def _orthogonal_features_reference(d_head, r, seed):
    """draw_orthogonal_features with one (d, d) draw, QR and sign fix per
    block, the blocks' transposed Q factors stacked with np.vstack."""
    rng = make_rng(seed)
    rows = []
    for start in range(0, r, d_head):
        q_f, r_f = np.linalg.qr(rng.standard_normal((d_head, d_head)))
        signs = np.where(np.diag(r_f) >= 0.0, 1.0, -1.0)
        rows.append((q_f * signs).T[: min(d_head, r - start)])
    norms = np.sqrt(rng.chisquare(d_head, size=r))
    return np.vstack(rows) * norms[:, None]


def _positive_feature_map_reference(x, omega, stabilize):
    """positive_feature_map in expression form, a fresh array per step."""
    pre = x @ omega.omega.T - 0.5 * np.sum(x * x, axis=1, keepdims=True)
    if stabilize:
        pre = pre - pre.max()
    return np.exp(pre) / np.sqrt(omega.r)


def _orthogonality_message_reference(omega):
    """The error the per-block orthogonality check raises, or None."""
    r, d = omega.shape
    unit = omega / np.linalg.norm(omega, axis=1)[:, None]
    for start in range(0, r, d):
        block = unit[start : start + d]
        off = block @ block.T - np.eye(block.shape[0])
        if np.max(np.abs(off)) >= 1e-10:
            return (
                f"rows {start}..{start + block.shape[0] - 1} are not orthogonal "
                f"(max deviation {np.max(np.abs(off)):.3e})"
            )
    return None


@pytest.mark.parametrize("kind", ["softmax", "favor"])
def test_materialized_map_is_built_once(kind):
    """The mixer holds the map it built, not a copy: at T=1024 the traced
    peak stays under 1.25 maps (a copy would make it 2)."""
    rng = np.random.default_rng(35)
    T, d = 1024, 8
    q, k = rng.standard_normal((T, d)) / 2, rng.standard_normal((T, d)) / 2
    omega = draw_orthogonal_features(d, 16, 0)
    build = {"softmax": lambda: softmax_mixer(q, k), "favor": lambda: favor_mixer(q, k, omega)}
    tracemalloc.start()
    try:
        mixer = build[kind]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not mixer.m.flags.writeable
    assert peak <= 1.25 * mixer.m.nbytes


class TestSoftmaxAttention:
    def test_zero_queries_give_uniform_mixing(self):
        """With Q = 0 every logit ties, so every weight is exactly 1/T."""
        rng = np.random.default_rng(0)
        T, d = 5, 3
        k = rng.standard_normal((T, d))
        v = rng.standard_normal((T, d))
        y = softmax_attention(QkvTriple(np.zeros((T, d)), k, v))
        np.testing.assert_allclose(y.data, np.tile(v.mean(axis=0), (T, 1)), atol=1e-14)
        m = softmax_mixer(np.zeros((T, d)), k)
        np.testing.assert_allclose(m.m, np.full((T, T), 1.0 / T), atol=1e-15)

    def test_matches_materialized_mixer(self):
        rng = np.random.default_rng(11)
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        direct = softmax_attention(QkvTriple(q, k, v))
        via = apply_mixer(softmax_mixer(q, k), FeatureSequence(v))
        np.testing.assert_allclose(direct.data, via.data, atol=1e-13)

    @pytest.mark.parametrize("T", [63, 64, 65, 2048, 2049])
    def test_deferred_division_matches_materialized_mixer(self, T):
        """Dividing each tile's output rows, not its weights, by the row
        sums moves only rounding, with the row-max shift skipped or kept:
        within 1e-13 of the normalized map times v, on both sides of a
        tile edge and with a one-row tail."""
        rng = np.random.default_rng(T)
        q, k, v = (rng.standard_normal((T, 64)) for _ in range(3))
        for q_scale in (1.0, 40.0):  # shift skipped, then kept
            y = softmax_attention(QkvTriple(q * q_scale, k, v))
            np.testing.assert_allclose(y.data, softmax_mixer(q * q_scale, k).m @ v, rtol=0, atol=1e-13)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        sums = softmax_mixer(q, k).m.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(5), atol=1e-12)

    def test_mixer_tagged_dense(self):
        rng = np.random.default_rng(4)
        m = softmax_mixer(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        assert m.class_tag.kind == "dense"

    def test_large_logits_stay_finite(self):
        """Row-max stabilization keeps exp from overflowing."""
        q = np.array([[300.0, 0.0], [0.0, 300.0]])
        k = np.array([[300.0, 0.0], [0.0, 300.0]])
        v = np.eye(2)
        y = softmax_attention(QkvTriple(q, k, v))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, np.eye(2), atol=1e-12)

    def test_chunked_path_matches_small_path(self):
        """T above the streaming chunk size must agree with a direct computation."""
        rng = np.random.default_rng(8)
        T, d = 600, 4
        q = rng.standard_normal((T, d)) * 0.5
        k = rng.standard_normal((T, d)) * 0.5
        v = rng.standard_normal((T, d))
        y = softmax_attention(QkvTriple(q, k, v))
        logits = q @ k.T
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(y.data, w @ v, atol=1e-12)

    @pytest.mark.parametrize("T", [1, 3, 63, 64, 65, 512, 513, 1100, 2049])
    def test_bit_identical_to_fresh_buffer_form(self, T):
        """The reused buffer changes where results are written, not what is
        computed, with the row-max shift skipped (small logits) and kept
        (q scaled past the bound). T=65, 513 and 2049 leave a one-row tail
        tile."""
        rng = np.random.default_rng(T)
        q, k, v = (rng.standard_normal((T, 64)) * 0.3 for _ in range(3))
        for q_scale, shift in ((1.0, False), (200.0, True)):
            assert _unshifted_is_safe(q * q_scale, k, v) is not shift
            y = softmax_attention(QkvTriple(q * q_scale, k, v))
            assert np.array_equal(y.data, _softmax_attention_reference(q * q_scale, k, v, shift))
        assert np.array_equal(softmax_mixer(q, k).m, _softmax_rows_reference(q @ k.T))

    def test_values_that_would_overflow_unshifted_keep_the_shift(self):
        """Logits bounded by 250 fit exp, but 600 weights up to exp(250)
        times values of 1e200 would overflow; the shift is kept, so the
        output is finite and matches the normalized map times v."""
        rng = np.random.default_rng(5)
        q, k = (rng.standard_normal((600, 4)) for _ in range(2))
        q *= np.sqrt(250.0) / np.linalg.norm(q, axis=1, keepdims=True)
        k *= np.sqrt(250.0) / np.linalg.norm(k, axis=1, keepdims=True)
        v = rng.standard_normal((600, 4)) * 1e200
        assert not _unshifted_is_safe(q, k, v)
        assert _unshifted_is_safe(q, k, v * 1e-100)
        y = softmax_attention(QkvTriple(q, k, v))
        assert np.max(np.abs(y.data - softmax_mixer(q, k).m @ v)) <= 1e-13 * 1e200

    def test_overflowing_logits_raise(self):
        """Finite inputs whose logits overflow give non-finite weights,
        which raise rather than being clamped."""
        q = np.full((600, 2), 1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericRangeError):
                softmax_attention(QkvTriple(q, q, np.ones((600, 2))))
            with pytest.raises(NumericRangeError):
                softmax_mixer(q[:3], q[:3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QkvTriple(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((4, 2)))

    def test_T1_passes_value_through(self):
        v = np.array([[2.0, -3.0]])
        y = softmax_attention(QkvTriple(np.ones((1, 2)), np.ones((1, 2)), v))
        np.testing.assert_allclose(y.data, v, atol=0)


class TestOrthogonalFeatures:
    def test_deterministic_in_seed(self):
        a = draw_orthogonal_features(4, 8, 123)
        b = draw_orthogonal_features(4, 8, 123)
        assert np.array_equal(a.omega, b.omega)
        c = draw_orthogonal_features(4, 8, 124)
        assert not np.array_equal(a.omega, c.omega)

    def test_blockwise_orthogonality(self):
        """Rows within each d-sized block are mutually orthogonal after
        normalizing away the per-row norms."""
        d, r = 6, 15
        om = draw_orthogonal_features(d, r, 5).omega
        assert om.shape == (r, d)
        for start in range(0, r, d):
            block = om[start : start + d]
            unit = block / np.linalg.norm(block, axis=1, keepdims=True)
            gram = unit @ unit.T
            np.testing.assert_allclose(gram, np.eye(len(block)), atol=1e-10)

    def test_row_norms_positive(self):
        om = draw_orthogonal_features(3, 10, 2).omega
        assert np.all(np.linalg.norm(om, axis=1) > 0)

    def test_row_norm_distribution_matches_gaussian_rows(self):
        """Norms are resampled to the chi(d) law of iid Gaussian rows, so the
        mean squared norm should concentrate near d."""
        d, r = 8, 4000
        om = draw_orthogonal_features(d, r, 7).omega
        mean_sq = float(np.mean(np.sum(om * om, axis=1)))
        assert abs(mean_sq - d) < 0.4

    def test_container_rejects_non_orthogonal_rows(self):
        bad = np.array([[1.0, 0.0], [1.0, 1e-3]])
        with pytest.raises(ValueError):
            OrthogonalFeatureMatrix(bad, seed=0)

    @pytest.mark.parametrize("seed", ["abc", -1, True, 1.0, np.int64(1)])
    def test_container_seed_is_a_nonnegative_python_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            OrthogonalFeatureMatrix(np.eye(2), seed=seed)

    @pytest.mark.parametrize("d, r", [(1, 1), (1, 5), (3, 7), (16, 16), (16, 1024), (64, 100)])
    def test_batched_draw_matches_per_block_draws_bit_for_bit(self, d, r):
        """Same values and the same column-major layout: a product with
        omega rounds by its layout (at d=64, r=100 a row-major omega moves
        phi in the last bits)."""
        for seed in range(3):
            om = draw_orthogonal_features(d, r, seed).omega
            ref = _orthogonal_features_reference(d, r, seed)
            assert np.array_equal(om, ref)
            assert om.strides == ref.strides

    @pytest.mark.parametrize("bad_rows", [(5, 6), (12, 13), (1, 9)])
    def test_first_bad_block_is_named(self, bad_rows):
        """A bad middle block (rows 4..7), a bad partial last block (rows
        12..13) and two bad blocks at once: the message names the first
        bad block's rows, as the per-block check does."""
        omega = draw_orthogonal_features(4, 14, 3).omega.copy()
        for i in bad_rows:
            omega[i] += 0.01 * omega[i - 1]
        expected = _orthogonality_message_reference(omega)
        assert expected is not None
        with pytest.raises(ValueError) as info:
            OrthogonalFeatureMatrix(omega, seed=3)
        assert str(info.value) == expected


class TestPositiveFeatureMap:
    def test_output_shape_and_positivity(self):
        rng = np.random.default_rng(1)
        om = draw_orthogonal_features(3, 7, 1)
        phi = positive_feature_map(rng.standard_normal((5, 3)), om)
        assert phi.shape == (5, 7)
        assert np.all(phi > 0)

    def test_monte_carlo_kernel_estimate(self):
        """mean over 32 seeds of phi(q).phi(k) at r=1024, d=2 lands within
        5% of the closed-form softmax kernel exp(q.k) for |q|,|k| <= 1.

        The norm corrections live inside phi, so the product's
        expectation is exp(q.k) itself; stabilization is off so the raw
        estimator is unbiased. Cross-checked against an iid-Gaussian
        feature oracle below.
        """
        rng = np.random.default_rng(99)
        d, r = 2, 1024
        for _ in range(4):
            q = rng.standard_normal(d)
            q *= rng.uniform(0.2, 1.0) / np.linalg.norm(q)
            k = rng.standard_normal(d)
            k *= rng.uniform(0.2, 1.0) / np.linalg.norm(k)
            exact = np.exp(q @ k)
            estimates = []
            for seed in range(32):
                om = draw_orthogonal_features(d, r, seed)
                pq = positive_feature_map(q[None, :], om, stabilize=False)
                pk = positive_feature_map(k[None, :], om, stabilize=False)
                estimates.append((pq @ pk.T)[0, 0])
            mean_est = float(np.mean(estimates))
            assert abs(mean_est - exact) / exact < 0.05

    def test_matches_iid_gaussian_feature_oracle(self):
        """A plain iid-Gaussian feature draw with the same phi formula must
        estimate the same kernel value the orthogonal draw does."""
        rng = np.random.default_rng(55)
        q = np.array([0.3, -0.5])
        k = np.array([-0.2, 0.6])
        om_raw = rng.standard_normal((200000, 2))
        phi_q = np.exp(om_raw @ q - q @ q / 2.0) / np.sqrt(len(om_raw))
        phi_k = np.exp(om_raw @ k - k @ k / 2.0) / np.sqrt(len(om_raw))
        oracle = float(phi_q @ phi_k)
        np.testing.assert_allclose(oracle, np.exp(q @ k), rtol=0.02)
        om = draw_orthogonal_features(2, 4096, 17)
        pq = positive_feature_map(q[None, :], om, stabilize=False)
        pk = positive_feature_map(k[None, :], om, stabilize=False)
        np.testing.assert_allclose((pq @ pk.T)[0, 0], oracle, rtol=0.05)

    def test_stabilize_shifts_cancel_in_attention(self):
        """The global max shift rescales phi but cancels after row
        normalization, so favor outputs agree for both settings."""
        rng = np.random.default_rng(6)
        q = rng.standard_normal((5, 3)) * 2.0
        k = rng.standard_normal((5, 3)) * 2.0
        v = rng.standard_normal((5, 3))
        om = draw_orthogonal_features(3, 8, 4)
        y_stab = favor_attention(QkvTriple(q, k, v), om)
        num_q = positive_feature_map(q, om, stabilize=False)
        num_k = positive_feature_map(k, om, stabilize=False)
        weights = num_q @ num_k.T
        weights /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(y_stab.data, weights @ v, atol=1e-10)

    def test_unstabilized_overflow_raises(self):
        om = OrthogonalFeatureMatrix(np.array([[100.0, 0.0], [0.0, 100.0]]), seed=0)
        x = np.array([[100.0, 0.0]])
        with pytest.raises(NumericRangeError):
            positive_feature_map(x, om, stabilize=False)

    @pytest.mark.parametrize("x", [
        # |x|^2 overflows in every row, so every pre-exponent is -inf
        [[1e155, 0.0], [-2e155, 0.0]],
        # x . omega and |x|^2 overflow: inf - inf = NaN in the row whose
        # sign meets a feature's (x . omega cannot overflow alone, since
        # |x . omega| <= |x| |omega| and omega's row norms are finite)
        [[1.79e308, 0.0], [-1.79e308, 0.0], [0.1, 0.2]],
    ])
    def test_stabilized_overflow_raises(self, x):
        """Finite inputs whose pre-exponents overflow raise through the
        stabilized map, the favor mixer and the error curve's own
        feature draws. k keeps the softmax map finite."""
        x = np.array(x)
        k = np.zeros_like(x)
        k[:, 1] = 1.0
        om = OrthogonalFeatureMatrix(np.diag([2.0, 2.0]), seed=0)
        with pytest.raises(NumericRangeError, match="feature map overflowed"):
            positive_feature_map(x, om)
        with pytest.raises(NumericRangeError, match="feature map overflowed"):
            favor_mixer(x, k, om)
        with pytest.raises(NumericRangeError, match="feature map overflowed"):
            approximation_error_curve(x, k, (4, 16), (0, 1))

    @pytest.mark.parametrize("build", ["favor-mixer", "favor-attention", "error-curve"])
    def test_key_whose_features_all_underflow_raises(self, build):
        """A key of huge norm has every feature exp(...) = 0 after the
        shift, so favor would give it no weight where softmax gives it all
        of it; each favor path raises instead of dropping the key."""
        q = np.abs(np.random.default_rng(0).standard_normal((4, 2)))
        k = np.random.default_rng(1).standard_normal((4, 2))
        k[0] = [1e100, 0.0]
        assert np.array_equal(softmax_mixer(q, k).m[:, 0], np.ones(4))
        om = draw_orthogonal_features(2, 8, 1)
        run = {
            "favor-mixer": lambda: favor_mixer(q, k, om),
            "favor-attention": lambda: favor_attention(QkvTriple(q, k, np.ones((4, 2))), om),
            "error-curve": lambda: approximation_error_curve(q, k, (8,), (1,)),
        }[build]
        with pytest.raises(NumericRangeError, match="key's features all underflowed"):
            run()

    @pytest.mark.parametrize("build", ["favor-mixer", "favor-attention", "error-curve"])
    def test_query_whose_features_all_underflow_raises(self, build):
        """A query of norm 60 has every feature exp(...) = 0 after the
        shared shift, so its row of the map would have no normalizer;
        each favor path raises, with no numpy warning printed first."""
        q = np.abs(np.random.default_rng(0).standard_normal((4, 4)))
        k = np.random.default_rng(1).standard_normal((4, 4))
        q[0] = [60.0, 0.0, 0.0, 0.0]
        om = draw_orthogonal_features(4, 8, 1)
        run = {
            "favor-mixer": lambda: favor_mixer(q, k, om),
            "favor-attention": lambda: favor_attention(QkvTriple(q, k, np.ones((4, 4))), om),
            "error-curve": lambda: approximation_error_curve(q, k, (8,), (1,)),
        }[build]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="normalizer collapsed to zero"):
                run()

    @pytest.mark.parametrize("stabilize", [True, False])
    def test_matches_expression_form_bit_for_bit(self, stabilize):
        rng = np.random.default_rng(12)
        for d, r in [(1, 5), (3, 7), (16, 1024), (64, 100)]:
            om = draw_orthogonal_features(d, r, d + r)
            x = rng.standard_normal((37, d)) * 0.5
            assert np.array_equal(
                positive_feature_map(x, om, stabilize=stabilize),
                _positive_feature_map_reference(x, om, stabilize),
            )

    def test_feature_dim_mismatch_rejected(self):
        om = draw_orthogonal_features(3, 4, 0)
        with pytest.raises(ValueError):
            positive_feature_map(np.zeros((2, 5)), om)


@pytest.mark.parametrize("case", ["feature-map", "unstabilized", "favor-mixer",
                                  "error-curve", "softmax-mixer", "softmax-attention",
                                  "softmax-attention-values"])
def test_overflow_raises_without_a_warning(case):
    """Each overflow reaches the caller as a NumericRangeError alone:
    no numpy RuntimeWarning is printed first. With q = 0 every weight is
    1 before the division, so 600 values of 1e306 sum past the float64
    limit although their mean does not, as in favor_attention."""
    huge = np.full((600, 2), 1e200)
    k = np.zeros_like(huge)
    k[:, 1] = 1.0
    om = OrthogonalFeatureMatrix(np.diag([2.0, 2.0]), seed=0)
    run = {
        "feature-map": lambda: positive_feature_map(huge, om),
        "unstabilized": lambda: positive_feature_map(
            [[100.0, 0.0]], OrthogonalFeatureMatrix(np.diag([100.0, 100.0]), seed=0),
            stabilize=False),
        "favor-mixer": lambda: favor_mixer(huge, k, om),
        "error-curve": lambda: approximation_error_curve(huge, k, (4,), (0,)),
        "softmax-mixer": lambda: softmax_mixer(huge[:3], huge[:3]),
        "softmax-attention": lambda: softmax_attention(QkvTriple(huge, huge, np.ones((600, 2)))),
        "softmax-attention-values": lambda: softmax_attention(
            QkvTriple(np.zeros((600, 2)), k, np.full((600, 2), 1e306))),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError):
            run()


@pytest.mark.parametrize("build", ["softmax-mixer", "favor-mixer", "error-curve"])
@pytest.mark.parametrize("q, k", [(np.ones(4), np.ones(4)), (np.ones((4, 2)), np.ones((5, 2)))],
                         ids=["1-d", "lengths-differ"])
def test_q_and_k_are_checked_alike(build, q, k):
    """The three maps of q and k share one check, so each bad pair raises
    the same ShapeError with the same message from all three."""
    om = draw_orthogonal_features(2, 4, 0)
    run = {
        "softmax-mixer": lambda: softmax_mixer(q, k),
        "favor-mixer": lambda: favor_mixer(q, k, om),
        "error-curve": lambda: approximation_error_curve(q, k, (4,), (0,)),
    }[build]
    with pytest.raises(ShapeError) as got:
        run()
    with pytest.raises(ShapeError) as want:
        softmax_mixer(q, k)
    assert str(got.value) == str(want.value)


class TestFavorAttention:
    def test_matches_materialized_mixer(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((4, 2))
        k = rng.standard_normal((4, 2))
        v = rng.standard_normal((4, 2))
        om = draw_orthogonal_features(2, 8, 5)
        direct = favor_attention(QkvTriple(q, k, v), om)
        via = apply_mixer(favor_mixer(q, k, om), FeatureSequence(v))
        np.testing.assert_allclose(direct.data, via.data, atol=1e-10)

    def test_rank_bounded_by_feature_count(self):
        """The factored mixer has rank at most r while the softmax mixer of
        the same inputs is full rank."""
        rng = np.random.default_rng(17)
        T, d, r = 64, 8, 16
        q = rng.standard_normal((T, d)) / np.sqrt(d)
        k = rng.standard_normal((T, d)) / np.sqrt(d)
        om = draw_orthogonal_features(d, r, 3)
        assert numerical_rank(favor_mixer(q, k, om)) <= r
        assert numerical_rank(softmax_mixer(q, k)) == T

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((8, 3))
        k = rng.standard_normal((8, 3))
        om = draw_orthogonal_features(3, 4, 9)
        sums = favor_mixer(q, k, om).m.sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(8), atol=1e-10)

    def test_mixer_tagged_low_rank(self):
        rng = np.random.default_rng(2)
        om = draw_orthogonal_features(2, 6, 0)
        m = favor_mixer(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)), om)
        assert m.class_tag.kind == "low_rank"
        assert m.class_tag.order == 6

    def test_T1_returns_value_row(self):
        rng = np.random.default_rng(14)
        v = rng.standard_normal((1, 3))
        om = draw_orthogonal_features(3, 5, 2)
        y = favor_attention(QkvTriple(rng.standard_normal((1, 3)), rng.standard_normal((1, 3)), v), om)
        np.testing.assert_allclose(y.data, v, rtol=1e-13, atol=1e-13)


class TestRope:
    def test_first_pair_rotates_by_position(self):
        """Pair 0 uses angle = position exactly."""
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        out = apply_rope(x, RopeConfig(d_head=2))
        np.testing.assert_allclose(out[0], [1.0, 2.0], atol=0)
        c, s = np.cos(1.0), np.sin(1.0)
        np.testing.assert_allclose(out[1], [c * 1.0 - s * 2.0, s * 1.0 + c * 2.0], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((7, 6))
        out = apply_rope(x, RopeConfig(d_head=6))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-12
        )

    def test_inner_products_depend_on_relative_position_only(self):
        """q at i against k at j must match q at i+s against k at j+s."""
        rng = np.random.default_rng(22)
        cfg = RopeConfig(d_head=4)
        q_vec = rng.standard_normal(4)
        k_vec = rng.standard_normal(4)
        T = 10
        q_rep = apply_rope(np.tile(q_vec, (T, 1)), cfg)
        k_rep = apply_rope(np.tile(k_vec, (T, 1)), cfg)
        base = q_rep[2] @ k_rep[5]
        for shift in (1, 3, 4):
            np.testing.assert_allclose(q_rep[2 + shift] @ k_rep[5 + shift], base, atol=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            RopeConfig(d_head=3)

    @pytest.mark.parametrize("T", [7, 2048])
    def test_bit_identical_to_uncached_tables(self, T):
        x = np.random.default_rng(24).standard_normal((T, 64))
        for _ in range(2):
            assert np.array_equal(apply_rope(x, RopeConfig(64)), _rope_reference(x))

    def test_cached_tables_are_read_only(self):
        cos, sin = _rope_tables(9, 4)
        for table in (cos, sin):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_output_is_a_private_writeable_array(self):
        """Mutating one output must not reach the tables or the next call."""
        x = np.random.default_rng(25).standard_normal((9, 4))
        cfg = RopeConfig(4)
        out = apply_rope(x, cfg)
        first = out.copy()
        assert out.flags.writeable
        assert not any(np.shares_memory(out, t) for t in _rope_tables(9, 4))
        out[:] = 7.0
        assert np.array_equal(apply_rope(x, cfg), first)

    def test_table_cache_is_bounded(self):
        """One entry holds 8 * T * d_head bytes, ~33 MB at T=65536, d_head=64."""
        maxsize = _rope_tables.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for T in range(1, maxsize + 4):
            apply_rope(np.ones((T, 4)), RopeConfig(4))
        assert _rope_tables.cache_info().currsize <= maxsize


@pytest.mark.parametrize("call, error, match", [
    (lambda: OrthogonalFeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), seed=0),
     NumericRangeError, "feature rows must have positive norm"),
    (lambda: MhaWeights(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))),
     ShapeError, "wq must be square, got shape \\(2, 3\\)"),
    (lambda: MhaWeights(np.eye(2), np.eye(2), np.eye(3), np.eye(2)), ShapeError,
     "wv has shape \\(3, 3\\), expected \\(2, 2\\)"),
    (lambda: apply_rope(np.ones((3, 4)), RopeConfig(2)), ShapeError,
     "x has width 4, config expects 2"),
    (lambda: multi_head_attention(FeatureSequence(np.ones((3, 2))),
                                  MhaWeights(*(np.eye(4) for _ in range(4))),
                                  MultiHeadConfig(d_model=4, num_heads=2)),
     ShapeError, "sequence width 2 != d_model 4"),
], ids=["feature-row-norm", "mha-square", "mha-shapes", "rope-width", "mha-width"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _attention_parts(**overrides):
    """Valid parts of a favor attention mixer (d_model 4, two heads of 2),
    with any of them replaced."""
    rng = np.random.default_rng(34)
    parts = dict(
        weights=MhaWeights(*(rng.standard_normal((4, 4)) for _ in range(4))),
        config=MultiHeadConfig(d_model=4, num_heads=2),
        rope=RopeConfig(d_head=2),
        omegas=[draw_orthogonal_features(2, 4, s) for s in range(2)],
    )
    parts.update(overrides)
    return parts


class TestAttentionArguments:
    @pytest.mark.parametrize(
        "overrides, error",
        [
            ({"weights": MhaWeights(*(np.eye(6) for _ in range(4)))}, ShapeError),
            ({"rope": RopeConfig(d_head=4)}, ShapeError),
            ({"omegas": [draw_orthogonal_features(2, 4, 0)]}, ValueError),
            ({"omegas": [draw_orthogonal_features(4, 4, s) for s in range(2)]}, ShapeError),
        ],
        ids=["d_model", "rope", "omega-count", "omega-width"],
    )
    def test_config_and_call_reject_alike(self, overrides, error):
        """AttentionMixerConfig and multi_head_attention share one check,
        so each bad part raises the same exception type from both."""
        p = _attention_parts(**overrides)
        with pytest.raises(error) as from_config:
            AttentionMixerConfig(p["weights"], p["config"], rope=p["rope"], omegas=p["omegas"])
        x = FeatureSequence(np.ones((3, 4)))
        with pytest.raises(error) as from_call:
            multi_head_attention(x, p["weights"], p["config"], rope=p["rope"], omegas=p["omegas"])
        assert type(from_config.value) is type(from_call.value) is error

    def test_valid_parts_accepted(self):
        p = _attention_parts(omegas=iter(_attention_parts()["omegas"]))
        mc = AttentionMixerConfig(p["weights"], p["config"], rope=p["rope"], omegas=p["omegas"])
        assert isinstance(mc.omegas, tuple) and len(mc.omegas) == 2
        y = multi_head_attention(FeatureSequence(np.ones((3, 4))), mc.weights, mc.head_config,
                                 rope=mc.rope, omegas=mc.omegas)
        assert y.data.shape == (3, 4)
        assert AttentionMixerConfig(p["weights"], p["config"]).omegas is None

    @pytest.mark.parametrize("with_omegas", [False, True])
    def test_kind_is_favor_exactly_when_omegas_are_given(self, with_omegas):
        """The kind is read from the parts: favor with feature matrices,
        softmax without. It is a property, so it cannot be set to disagree."""
        p = _attention_parts(omegas=_attention_parts()["omegas"] if with_omegas else None)
        mc = AttentionMixerConfig(p["weights"], p["config"], rope=p["rope"], omegas=p["omegas"])
        assert mc.kind == ("favor" if with_omegas else "softmax")
        with pytest.raises(AttributeError):
            mc.kind = "softmax"
        with pytest.raises(TypeError):
            AttentionMixerConfig(p["weights"], p["config"], p["rope"], p["omegas"])


class TestMultiHeadAttention:
    def test_single_head_identity_projections_reduce_to_softmax(self):
        rng = np.random.default_rng(30)
        d = 4
        x = rng.standard_normal((6, d))
        eye = np.eye(d)
        y = multi_head_attention(
            FeatureSequence(x),
            MhaWeights(eye, eye, eye, eye),
            MultiHeadConfig(d_model=d, num_heads=1),
        )
        ref = softmax_attention(QkvTriple(x, x, x))
        np.testing.assert_allclose(y.data, ref.data, atol=1e-13)

    def test_zero_output_projection_gives_zero(self):
        rng = np.random.default_rng(31)
        d = 4
        x = rng.standard_normal((5, d))
        w = rng.standard_normal((d, d))
        y = multi_head_attention(
            FeatureSequence(x),
            MhaWeights(w, w, w, np.zeros((d, d))),
            MultiHeadConfig(d_model=d, num_heads=2),
        )
        assert np.array_equal(y.data, np.zeros((5, d)))

    def test_two_heads_match_manual_slices(self):
        """Hand-assembled per-head computation with explicit slicing."""
        rng = np.random.default_rng(9)
        d, heads = 6, 2
        dh = d // heads
        x = rng.standard_normal((5, d))
        wq, wk, wv, wo = (rng.standard_normal((d, d)) for _ in range(4))
        y = multi_head_attention(
            FeatureSequence(x),
            MhaWeights(wq, wk, wv, wo),
            MultiHeadConfig(d_model=d, num_heads=heads),
        )
        q, k, v = x @ wq, x @ wk, x @ wv
        concat = np.zeros((5, d))
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            concat[:, sl] = softmax_attention(QkvTriple(q[:, sl], k[:, sl], v[:, sl])).data
        np.testing.assert_allclose(y.data, concat @ wo, atol=1e-12)

    def test_favor_kind_requires_omegas(self):
        """Attention is FAVOR+ exactly when it is given feature matrices
        (test_bit_identical_to_concatenated_heads pins both paths); no
        argument names a kind."""
        rng = np.random.default_rng(32)
        d = 4
        x = FeatureSequence(rng.standard_normal((3, d)))
        w = MhaWeights(*(rng.standard_normal((d, d)) for _ in range(4)))
        cfg = MultiHeadConfig(d_model=d, num_heads=2)
        oms = [draw_orthogonal_features(2, 4, s) for s in range(2)]
        softmax = multi_head_attention(x, w, cfg)
        favor = multi_head_attention(x, w, cfg, omegas=oms)
        assert favor.data.shape == softmax.data.shape == (3, d)
        assert not np.allclose(favor.data, softmax.data)
        with pytest.raises(TypeError):
            multi_head_attention(x, w, cfg, "favor", omegas=oms)

    def test_rope_changes_output_but_keeps_shape(self):
        rng = np.random.default_rng(33)
        d = 4
        x = FeatureSequence(rng.standard_normal((6, d)))
        w = MhaWeights(*(rng.standard_normal((d, d)) for _ in range(4)))
        cfg = MultiHeadConfig(d_model=d, num_heads=2)
        plain = multi_head_attention(x, w, cfg)
        roped = multi_head_attention(x, w, cfg, rope=RopeConfig(d_head=2))
        assert roped.data.shape == (6, d)
        assert not np.allclose(plain.data, roped.data)

    @pytest.mark.parametrize("kind, with_rope, d, num_heads", [
        pytest.param(kind, with_rope, d, num_heads,
                     id=(kind if with_rope else f"{kind}-no-rope") + suffix)
        for d, num_heads, suffix in ((16, 2, ""), (16, 4, "-d_head4"), (256, 4, "-d256"))
        for with_rope in (True, False) for kind in ("softmax", "favor")
    ])
    def test_bit_identical_to_concatenated_heads(self, kind, with_rope, d, num_heads):
        """At T=600, over ten 64-row softmax tiles, the heads written into
        one array equal the per-head list joined by np.concatenate, each
        head projected through its own columns of the weights. At
        d_head=4 such a projection rounds unlike a slice of the full
        (T, d) one; at d=256, the benchmark's width, the two agree, so
        there the full-projection form is pinned bit for bit as well."""
        rng = np.random.default_rng(34)
        T = 600
        x = rng.standard_normal((T, d))
        w = MhaWeights(*(rng.standard_normal((d, d)) / (d ** 0.5) for _ in range(4)))
        cfg = MultiHeadConfig(d_model=d, num_heads=num_heads)
        rope = RopeConfig(d_head=cfg.d_head) if with_rope else None
        omegas = [draw_orthogonal_features(cfg.d_head, 8, s) for s in range(num_heads)]

        def joined_heads(project):
            heads = []
            for h in range(num_heads):
                sl = slice(h * cfg.d_head, (h + 1) * cfg.d_head)
                q, k, v = (project(m, sl) for m in (w.wq, w.wk, w.wv))
                if with_rope:
                    q, k = apply_rope(q, rope), apply_rope(k, rope)
                qkv = QkvTriple(q, k, v)
                if kind == "softmax":
                    heads.append(softmax_attention(qkv).data)
                else:
                    heads.append(favor_attention(qkv, omegas[h]).data)
            return np.concatenate(heads, axis=1) @ w.wo

        got = multi_head_attention(
            FeatureSequence(x), w, cfg, rope=rope,
            omegas=omegas if kind == "favor" else None,
        )
        assert np.array_equal(got.data, joined_heads(lambda m, sl: x @ m[:, sl]))
        if d == 256:
            assert np.array_equal(got.data, joined_heads(lambda m, sl: (x @ m)[:, sl]))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadConfig(d_model=6, num_heads=4)
