"""Tests for selective scans, their materializations, and the two
bidirectional couplings."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from mixerlab import (
    BiMambaParams,
    BlockStackConfig,
    FeatureSequence,
    HydraParams,
    MixerClass,
    NumericRangeError,
    ScanParams,
    SelectiveWeights,
    ShapeError,
    apply_mixer,
    bimamba_apply,
    bimamba_channelwise,
    bimamba_mixer,
    check_structure,
    hydra_apply,
    hydra_channelwise,
    hydra_mixer,
    init_stack,
    mixer_apply,
    segment_product,
    selective_parameterize,
    ssm_mixer,
    ssm_scan,
)


def random_params(rng, T, N, a_lo=0.05):
    return ScanParams(
        a=rng.uniform(a_lo, 1.0, T),
        b=rng.standard_normal((T, N)),
        c=rng.standard_normal((T, N)),
    )


# The scan-against-matrix checks run at decays near 0, in the middle and
# near 1, and at lengths on both sides of a power of two and past 2048
DECAYS = {
    "near0": lambda rng, T: 10.0 ** rng.uniform(-300, -3, T),
    "mid": lambda rng, T: rng.uniform(0.05, 1.0, T),
    "near1": lambda rng, T: 1.0 - rng.uniform(0.0, 1e-9, T),
}
oracle_lengths = pytest.mark.parametrize("T", [15, 16, 17, 2049])
oracle_decays = pytest.mark.parametrize("decays", list(DECAYS))


def decay_params(rng, T, N, decays):
    return ScanParams(
        a=DECAYS[decays](rng, T),
        b=rng.standard_normal((T, N)),
        c=rng.standard_normal((T, N)),
    )


def hand_loop_scan(p, X):
    """The recurrence step by step and channel by channel over (T, d)
    input, written out independently of the package's scan."""
    T, d = X.shape
    Y = np.zeros((T, d))
    for ch in range(d):
        h = np.zeros(p.N)
        for t in range(T):
            h = p.a[t] * h + p.b[t] * X[t, ch]
            Y[t, ch] = p.c[t] @ h
    return Y


def mixer_by_probing(apply_fn, T):
    """Materialize any linear sequence operator column by column by
    feeding it basis vectors. Independent of the mixer construction."""
    m = np.zeros((T, T))
    for j in range(T):
        e = np.zeros(T)
        e[j] = 1.0
        m[:, j] = apply_fn(e)
    return m


class TestScanParams:
    def test_decay_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ScanParams(a=np.array([0.5, 1.5]), b=np.ones((2, 1)), c=np.ones((2, 1)))
        with pytest.raises(ValueError):
            ScanParams(a=np.array([0.5, 0.0]), b=np.ones((2, 1)), c=np.ones((2, 1)))

    def test_delta_defaults_to_ones(self):
        p = ScanParams(a=np.ones(3), b=np.ones((3, 2)), c=np.ones((3, 2)))
        assert np.array_equal(p.delta, np.ones(3))

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            ScanParams(
                a=np.ones(2),
                b=np.ones((2, 1)),
                c=np.ones((2, 1)),
                delta=np.array([1.0, 0.0]),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScanParams(a=np.ones(3), b=np.ones((2, 1)), c=np.ones((3, 1)))


def _scan(T, N):
    return ScanParams(a=np.full(T, 0.5), b=np.ones((T, N)), c=np.ones((T, N)))


def _weights(d, N, width=None):
    """Width-d, state-size-N weights whose w_b and w_c are ``width`` wide if given."""
    w = np.ones((N, d if width is None else width))
    return SelectiveWeights(np.ones(d), 0.0, w, w, 0.0)


@pytest.mark.parametrize("call, error, match", [
    (lambda: ScanParams(a=np.ones(3), b=np.ones((3, 2)), c=np.ones((3, 1))), ShapeError,
     "b and c must share one shape"),
    (lambda: ScanParams(a=np.ones(3), b=np.ones((3, 1)), c=np.ones((3, 1)), delta=np.ones(2)),
     ShapeError, "delta has length 2, expected 3"),
    (lambda: SelectiveWeights(np.ones(2), 0.0, np.ones((1, 2)), np.ones((2, 2)), 0.0),
     ShapeError, "w_b and w_c must share one shape"),
    (lambda: _weights(2, 1, width=3), ShapeError, "w_b expects width 3 but w_delta has 2"),
    (lambda: BiMambaParams(_scan(3, 1), _scan(4, 1)), ShapeError, "must agree on \\(T, N\\)"),
    (lambda: HydraParams(_scan(3, 1), _scan(3, 2), np.ones(3)), ShapeError,
     "must agree on \\(T, N\\)"),
    (lambda: bimamba_channelwise(FeatureSequence(np.ones((3, 2))), _weights(2, 1), _weights(2, 2)),
     ShapeError, "must agree on \\(T, N\\)"),
    (lambda: HydraParams(_scan(3, 1), _scan(3, 1), np.ones(2)), ShapeError,
     "diag_delta has length 2, expected 3"),
    (lambda: ssm_scan(_scan(3, 1), np.ones(2)), ShapeError, "x has length 2, params expect 3"),
    (lambda: bimamba_apply(BiMambaParams(_scan(3, 1), _scan(3, 1)), np.ones(4)), ShapeError,
     "x has length 4, params expect 3"),
    (lambda: hydra_apply(HydraParams(_scan(3, 1), _scan(3, 1), np.ones(3)), np.ones(2)),
     ShapeError, "x has length 2, params expect 3"),
    (lambda: segment_product(np.ones(3), 1.0, 0), TypeError, "i must be an int, got float"),
    (lambda: selective_parameterize(FeatureSequence(np.ones((3, 2))), _weights(3, 1)),
     ShapeError, "sequence width 2 != weight width 3"),
    (lambda: hydra_channelwise(FeatureSequence(np.ones((3, 2))), _weights(2, 1), _weights(2, 1),
                               np.ones(3)), ShapeError, "diag_gain has length 3, expected 2"),
], ids=["scan-b-c", "scan-delta", "weights-b-c", "weights-width", "bimamba-pair", "hydra-pair",
        "bimamba-channelwise-N", "hydra-diag", "ssm_scan-x", "bimamba_apply-x", "hydra_apply-x",
        "segment-index", "parameterize-width", "hydra-channelwise-gain"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestSsmScan:
    def test_recurrence_against_hand_loop(self):
        """y_t = c_t . h_t with h_t = a_t h_{t-1} + b_t x_t, h_0 = 0."""
        rng = np.random.default_rng(2)
        T, N = 5, 3
        p = random_params(rng, T, N)
        x = rng.standard_normal(T)
        h = np.zeros(N)
        expected = np.zeros(T)
        for t in range(T):
            h = p.a[t] * h + p.b[t] * x[t]
            expected[t] = p.c[t] @ h
        np.testing.assert_allclose(ssm_scan(p, x), expected, atol=1e-14)

    @oracle_lengths
    @oracle_decays
    def test_matches_materialized_mixer(self, T, decays):
        rng = np.random.default_rng(2)
        p = decay_params(rng, T, 3, decays)
        x = rng.standard_normal(T)
        via = apply_mixer(ssm_mixer(p), FeatureSequence(x[:, None])).data[:, 0]
        np.testing.assert_allclose(ssm_scan(p, x), via, atol=1e-10)

    def test_linear_in_input(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 6, 2)
        x1 = rng.standard_normal(6)
        x2 = rng.standard_normal(6)
        lhs = ssm_scan(p, 2.0 * x1 - 3.0 * x2)
        rhs = 2.0 * ssm_scan(p, x1) - 3.0 * ssm_scan(p, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_T1(self):
        p = ScanParams(a=np.array([0.7]), b=np.array([[2.0]]), c=np.array([[3.0]]))
        np.testing.assert_allclose(ssm_scan(p, np.array([5.0])), [30.0], atol=0)

    def test_state_stays_bounded_for_contractive_decay(self):
        """With a in (0,1] the hidden state norm never exceeds the coarse
        bound T * max_s |b_s x_s|, so bounded inputs cannot overflow."""
        rng = np.random.default_rng(60)
        for _ in range(20):
            T = int(rng.integers(2, 40))
            N = int(rng.integers(1, 5))
            p = random_params(rng, T, N)
            x = rng.uniform(-1.0, 1.0, T)
            y = ssm_scan(p, x)
            drive = max(
                float(np.linalg.norm(p.b[t] * x[t])) for t in range(T)
            )
            bound = T * drive * max(
                float(np.linalg.norm(p.c[t])) for t in range(T)
            )
            assert np.all(np.isfinite(y))
            assert np.max(np.abs(y)) <= bound + 1e-12


class TestSegmentProduct:
    def test_equal_indices_give_one(self):
        a = np.array([0.9, 0.5, 0.3])
        for i in range(3):
            assert segment_product(a, i, i) == 1.0

    def test_forward_segment(self):
        """Row below column: product over positions j+1 .. i."""
        a = np.array([5.0, 2.0, 3.0, 4.0])
        assert segment_product(a, 2, 0) == 6.0

    def test_backward_segment(self):
        """Row above column: product over positions i .. j-1."""
        a = np.array([5.0, 2.0, 3.0, 4.0])
        assert segment_product(a, 0, 2) == 10.0

    def test_out_of_range_rejected(self):
        a = np.array([1.0, 1.0])
        with pytest.raises(IndexError):
            segment_product(a, 2, 0)
        with pytest.raises(IndexError):
            segment_product(a, 0, -1)


class TestSsmMixer:
    def test_T1_single_entry(self):
        p = ScanParams(a=np.array([0.5]), b=np.array([[2.0, 1.0]]), c=np.array([[3.0, -1.0]]))
        m = ssm_mixer(p)
        assert m.m.shape == (1, 1)
        np.testing.assert_allclose(m.m[0, 0], 5.0, atol=0)

    def test_unit_parameters_give_cumulative_sum(self):
        """N=1, a=b=c=1 makes the scan a running sum, so the mixer is the
        lower-triangular all-ones matrix."""
        T = 6
        p = ScanParams(a=np.ones(T), b=np.ones((T, 1)), c=np.ones((T, 1)))
        np.testing.assert_allclose(ssm_mixer(p).m, np.tril(np.ones((T, T))), atol=0)

    def test_strictly_upper_zero_and_semiseparable(self):
        rng = np.random.default_rng(31)
        p = random_params(rng, 6, 2)
        m = ssm_mixer(p)
        assert np.array_equal(np.triu(m.m, 1), np.zeros((6, 6)))
        assert m.class_tag.kind == "semiseparable"
        assert m.class_tag.order == 2
        assert check_structure(m).ok

    def test_matches_segment_product_triple_loop(self):
        """Entry (i, j) for i >= j is (c_i . b_j) * prod of a over j+1..i,
        built here with explicit loops and the scalar segment helper."""
        rng = np.random.default_rng(7)
        T, N = 7, 3
        p = random_params(rng, T, N)
        m = ssm_mixer(p).m
        for i in range(T):
            for j in range(T):
                if i >= j:
                    expected = (p.c[i] @ p.b[j]) * segment_product(p.a, i, j)
                else:
                    expected = 0.0
                np.testing.assert_allclose(m[i, j], expected, atol=1e-12)

    def test_tiny_decay_does_not_overflow(self):
        """Long products of small a values underflow toward zero but must
        never produce inf or nan anywhere in the matrix."""
        T = 50
        p = ScanParams(
            a=np.full(T, 0.05), b=np.ones((T, 1)), c=np.ones((T, 1))
        )
        m = ssm_mixer(p).m
        assert np.all(np.isfinite(m))
        assert m[T - 1, 0] >= 0.0


class TestSelectiveParameterize:
    def make_weights(self, rng, d, N):
        return SelectiveWeights(
            w_delta=rng.standard_normal(d),
            bias=0.3,
            w_b=rng.standard_normal((N, d)),
            w_c=rng.standard_normal((N, d)),
            a_log=0.1,
        )

    def test_decay_in_unit_interval(self):
        rng = np.random.default_rng(13)
        x = FeatureSequence(rng.standard_normal((9, 4)))
        p = selective_parameterize(x, self.make_weights(rng, 4, 3))
        assert np.all(p.a > 0.0)
        assert np.all(p.a <= 1.0)

    def test_rate_positive(self):
        rng = np.random.default_rng(14)
        x = FeatureSequence(rng.standard_normal((5, 4)))
        p = selective_parameterize(x, self.make_weights(rng, 4, 2))
        assert np.all(p.delta > 0.0)

    def test_projections_match_direct_multiplication(self):
        rng = np.random.default_rng(15)
        w = self.make_weights(rng, 3, 2)
        x = FeatureSequence(rng.standard_normal((4, 3)))
        p = selective_parameterize(x, w)
        delta = np.logaddexp(0.0, x.data @ w.w_delta + w.bias)
        np.testing.assert_allclose(p.b, delta[:, None] * (x.data @ w.w_b.T), atol=1e-13)
        np.testing.assert_allclose(p.c, x.data @ w.w_c.T, atol=1e-13)

    def test_rate_underflow_rejected_not_clamped(self):
        """A wildly negative pre-activation drives softplus to exact zero;
        the contract is to reject the degenerate step."""
        w = SelectiveWeights(
            w_delta=np.array([1.0]),
            bias=-800.0,
            w_b=np.ones((1, 1)),
            w_c=np.ones((1, 1)),
            a_log=0.0,
        )
        x = FeatureSequence(np.zeros((2, 1)))
        with pytest.raises(NumericRangeError):
            selective_parameterize(x, w)

    def test_scalar_fields_refuse_bools_and_accept_numpy_scalars(self):
        """bias and a_log follow the tolerance rule: any finite real scalar,
        Python or numpy, but never a bool."""
        def weights(bias, a_log):
            return SelectiveWeights(np.ones(2), bias, np.ones((1, 2)), np.ones((1, 2)), a_log)

        for bias, a_log in ((True, 0.0), (0.0, False), (np.True_, 0.0), (0.0, np.False_)):
            with pytest.raises(NumericRangeError):
                weights(bias, a_log)
        for bad in (np.float32(np.inf), np.float64(np.nan), 10**400, "0.5", None):
            with pytest.raises(NumericRangeError):
                weights(bad, 0.0)
        w = weights(np.float32(0.5), np.int64(-1))
        assert (w.bias, w.a_log) == (0.5, -1.0)
        assert type(w.bias) is float and type(w.a_log) is float

    def test_decay_underflow_rejected(self):
        """Huge rates push a_t = exp(-delta * exp(a_log)) to exact zero."""
        w = SelectiveWeights(
            w_delta=np.array([1.0]),
            bias=800.0,
            w_b=np.ones((1, 1)),
            w_c=np.ones((1, 1)),
            a_log=0.0,
        )
        x = FeatureSequence(np.zeros((2, 1)))
        with pytest.raises(NumericRangeError):
            selective_parameterize(x, w)


    @pytest.mark.parametrize("a_log, scale", [(800.0, 1.0), (0.0, 1e200)],
                             ids=["decay-exponent", "projections"])
    def test_overflow_raises_without_a_warning(self, a_log, scale):
        """exp(a_log) overflowing, or x @ w_b.T and x @ w_c.T overflowing,
        raises NumericRangeError with no numpy RuntimeWarning first."""
        w = SelectiveWeights(np.array([1e-300]), 0.0, np.full((1, 1), scale),
                             np.full((1, 1), scale), a_log)
        x = FeatureSequence(np.full((2, 1), scale))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="overflowed"):
                selective_parameterize(x, w)


class TestBiMamba:
    def test_zero_backward_reduces_to_forward_scan(self):
        rng = np.random.default_rng(10)
        T, N = 6, 2
        fwd = random_params(rng, T, N)
        bwd = ScanParams(
            a=rng.uniform(0.1, 1.0, T),
            b=np.zeros((T, N)),
            c=rng.standard_normal((T, N)),
        )
        x = rng.standard_normal(T)
        np.testing.assert_allclose(
            bimamba_apply(BiMambaParams(fwd, bwd), x), ssm_scan(fwd, x), atol=1e-14
        )

    @oracle_lengths
    @oracle_decays
    def test_matches_materialized_mixer(self, T, decays):
        rng = np.random.default_rng(4)
        N = 2
        p = BiMambaParams(decay_params(rng, T, N, decays), decay_params(rng, T, N, decays))
        x = rng.standard_normal(T)
        via = apply_mixer(bimamba_mixer(p), FeatureSequence(x[:, None])).data[:, 0]
        np.testing.assert_allclose(bimamba_apply(p, x), via, atol=1e-10)

    def test_mixer_matches_basis_probing(self):
        """Column j of the mixer must equal the operator applied to e_j."""
        rng = np.random.default_rng(40)
        T, N = 6, 2
        p = BiMambaParams(random_params(rng, T, N), random_params(rng, T, N))
        probed = mixer_by_probing(lambda e: bimamba_apply(p, e), T)
        np.testing.assert_allclose(bimamba_mixer(p).m, probed, atol=1e-12)

    def test_zero_backward_mixer_has_zero_upper_triangle(self):
        rng = np.random.default_rng(41)
        T, N = 6, 2
        bwd = ScanParams(
            a=rng.uniform(0.1, 1.0, T),
            b=np.zeros((T, N)),
            c=rng.standard_normal((T, N)),
        )
        m = bimamba_mixer(BiMambaParams(random_params(rng, T, N), bwd)).m
        assert np.array_equal(np.triu(m, 1), np.zeros((T, T)))

    def test_diagonal_couples_both_directions(self):
        """Diagonal entry i is c_i.b_i from the forward params plus the
        matching reversed-frame backward term."""
        rng = np.random.default_rng(42)
        T, N = 5, 3
        fwd = random_params(rng, T, N)
        bwd = random_params(rng, T, N)
        m = bimamba_mixer(BiMambaParams(fwd, bwd)).m
        for i in range(T):
            rev_i = T - 1 - i
            expected = fwd.c[i] @ fwd.b[i] + bwd.c[rev_i] @ bwd.b[rev_i]
            np.testing.assert_allclose(m[i, i], expected, atol=1e-12)

    def test_quasiseparable_tag_and_structure(self):
        rng = np.random.default_rng(43)
        p = BiMambaParams(random_params(rng, 7, 2), random_params(rng, 7, 2))
        m = bimamba_mixer(p)
        assert m.class_tag.kind == "quasiseparable"
        assert check_structure(m).ok


class TestHydra:
    def test_T1_is_pure_diagonal_gain(self):
        p = HydraParams(
            ScanParams(a=np.array([0.5]), b=np.array([[1.0]]), c=np.array([[1.0]])),
            ScanParams(a=np.array([0.5]), b=np.array([[1.0]]), c=np.array([[1.0]])),
            diag_delta=np.array([2.5]),
        )
        np.testing.assert_allclose(hydra_apply(p, np.array([4.0])), [10.0], atol=0)

    def test_zero_everything_gives_zero_output(self):
        rng = np.random.default_rng(20)
        T, N = 5, 2
        zero_b = ScanParams(
            a=rng.uniform(0.1, 1.0, T),
            b=np.zeros((T, N)),
            c=rng.standard_normal((T, N)),
        )
        zero_b2 = ScanParams(
            a=rng.uniform(0.1, 1.0, T),
            b=np.zeros((T, N)),
            c=rng.standard_normal((T, N)),
        )
        p = HydraParams(zero_b, zero_b2, diag_delta=np.zeros(T))
        assert np.array_equal(hydra_apply(p, rng.standard_normal(T)), np.zeros(T))

    @oracle_lengths
    @oracle_decays
    def test_matches_materialized_mixer(self, T, decays):
        rng = np.random.default_rng(6)
        N = 3
        p = HydraParams(
            decay_params(rng, T, N, decays), decay_params(rng, T, N, decays), rng.standard_normal(T)
        )
        x = rng.standard_normal(T)
        via = apply_mixer(hydra_mixer(p), FeatureSequence(x[:, None])).data[:, 0]
        np.testing.assert_allclose(hydra_apply(p, x), via, atol=1e-10)

    def test_mixer_matches_basis_probing(self):
        rng = np.random.default_rng(44)
        T, N = 6, 2
        p = HydraParams(
            random_params(rng, T, N), random_params(rng, T, N), rng.standard_normal(T)
        )
        probed = mixer_by_probing(lambda e: hydra_apply(p, e), T)
        np.testing.assert_allclose(hydra_mixer(p).m, probed, atol=1e-12)

    def test_diagonal_is_exactly_diag_delta(self):
        """The diagonal must be the separate diagonal parameter bit for
        bit, untouched by either scan."""
        rng = np.random.default_rng(45)
        for _ in range(10):
            T = int(rng.integers(1, 9))
            N = int(rng.integers(1, 4))
            delta = rng.standard_normal(T)
            p = HydraParams(random_params(rng, T, N), random_params(rng, T, N), delta)
            assert np.array_equal(np.diag(hydra_mixer(p).m), delta)

    def test_first_subdiagonal_entry(self):
        """Entry (j+1, j) reduces to the forward c_j . b_j because the
        shifted segment product collapses to 1."""
        rng = np.random.default_rng(46)
        T, N = 6, 2
        fwd = random_params(rng, T, N)
        p = HydraParams(fwd, random_params(rng, T, N), rng.standard_normal(T))
        m = hydra_mixer(p).m
        for j in range(T - 1):
            np.testing.assert_allclose(m[j + 1, j], fwd.c[j] @ fwd.b[j], atol=1e-13)

    def test_forward_decay_probe_leaves_diagonal_unchanged(self):
        """Perturbing fwd.a moves at least one strictly-lower entry and no
        diagonal entry."""
        rng = np.random.default_rng(47)
        T, N = 6, 2
        fwd = random_params(rng, T, N)
        bwd = random_params(rng, T, N)
        delta = rng.standard_normal(T)
        base = hydra_mixer(HydraParams(fwd, bwd, delta)).m
        bumped_a = np.clip(fwd.a * 0.9, 1e-3, 1.0)
        bumped = hydra_mixer(
            HydraParams(ScanParams(a=bumped_a, b=fwd.b, c=fwd.c), bwd, delta)
        ).m
        assert np.array_equal(np.diag(base), np.diag(bumped))
        assert not np.array_equal(np.tril(base, -1), np.tril(bumped, -1))

    def test_quasiseparable_passes_semiseparable_fails(self):
        rng = np.random.default_rng(48)
        T, N = 7, 2
        p = HydraParams(
            random_params(rng, T, N), random_params(rng, T, N), rng.standard_normal(T)
        )
        m = hydra_mixer(p)
        assert check_structure(m).ok
        assert not check_structure(m, class_tag=MixerClass.semiseparable(N)).ok


class TestChannelwise:
    def make_weights(self, rng, d, N):
        return SelectiveWeights(
            w_delta=rng.standard_normal(d) * 0.3,
            bias=0.2,
            w_b=rng.standard_normal((N, d)),
            w_c=rng.standard_normal((N, d)),
            a_log=0.0,
        )

    def test_hydra_single_channel_equals_scalar_apply(self):
        rng = np.random.default_rng(50)
        fwd = self.make_weights(rng, 1, 2)
        bwd = self.make_weights(rng, 1, 2)
        gain = rng.standard_normal(1)
        x = FeatureSequence(rng.standard_normal((6, 1)))
        y = hydra_channelwise(x, fwd, bwd, gain)
        p_f = selective_parameterize(x, fwd)
        p_b = selective_parameterize(FeatureSequence(x.data[::-1]), bwd)
        params = HydraParams(p_f, p_b, np.full(x.T, gain[0]))
        np.testing.assert_allclose(
            y.data[:, 0], hydra_apply(params, x.data[:, 0]), atol=1e-13
        )

    def test_hydra_columns_match_isolated_runs(self):
        """Each output column equals hydra_apply on that column alone with
        the scan params derived once from the full multichannel input and
        that channel's scalar diagonal gain."""
        rng = np.random.default_rng(8)
        d, N, T = 3, 2, 7
        fwd = self.make_weights(rng, d, N)
        bwd = self.make_weights(rng, d, N)
        gain = rng.standard_normal(d)
        x = FeatureSequence(rng.standard_normal((T, d)))
        y = hydra_channelwise(x, fwd, bwd, gain)
        p_f = selective_parameterize(x, fwd)
        p_b = selective_parameterize(FeatureSequence(x.data[::-1]), bwd)
        for col in range(d):
            params = HydraParams(p_f, p_b, np.full(T, gain[col]))
            np.testing.assert_allclose(
                y.data[:, col], hydra_apply(params, x.data[:, col]), atol=1e-13
            )

    def test_duplicated_channel_duplicates_output(self):
        """Channel independence: feeding two identical columns must give
        two identical output columns."""
        rng = np.random.default_rng(52)
        d, N, T = 3, 2, 6
        fwd = self.make_weights(rng, d, N)
        bwd = self.make_weights(rng, d, N)
        gain = np.array([0.5, 0.5, -1.0])
        base = rng.standard_normal((T, d))
        base[:, 1] = base[:, 0]
        y = hydra_channelwise(FeatureSequence(base), fwd, bwd, gain)
        assert np.array_equal(y.data[:, 0], y.data[:, 1])

    def test_bimamba_columns_match_isolated_runs(self):
        rng = np.random.default_rng(51)
        d, N, T = 3, 2, 6
        fwd = self.make_weights(rng, d, N)
        bwd = self.make_weights(rng, d, N)
        x = FeatureSequence(rng.standard_normal((T, d)))
        y = bimamba_channelwise(x, fwd, bwd)
        p_f = selective_parameterize(x, fwd)
        p_b = selective_parameterize(FeatureSequence(x.data[::-1]), bwd)
        params = BiMambaParams(p_f, p_b)
        for col in range(d):
            np.testing.assert_allclose(
                y.data[:, col], bimamba_apply(params, x.data[:, col]), atol=1e-13
            )


class TestChannelwiseOracles:
    """Multichannel mixing at block width against references that share
    no code with the scan: the materialized T x T matrices, and a
    per-step, per-channel hand loop."""

    d, N = 256, 16

    def setup_inputs(self, T, kind="hydra"):
        (block,) = init_stack(
            BlockStackConfig(d_model=self.d, num_blocks=1, mixer_kind=kind, state_size=self.N),
            seed=T,
        )
        rng = np.random.default_rng(T)
        x = FeatureSequence(rng.standard_normal((T, self.d)))
        cfg = block.mixer_config
        p_f = selective_parameterize(x, cfg.fwd)
        p_b = selective_parameterize(FeatureSequence(x.data[::-1]), cfg.bwd)
        return x, cfg, p_f, p_b, rng.standard_normal(self.d)

    @pytest.mark.parametrize("kind", ["hydra", "bimamba"])
    @pytest.mark.parametrize("T", [1, 2, 256])
    def test_matches_materialized_mixer(self, T, kind):
        x, cfg, p_f, p_b, gain = self.setup_inputs(T, kind)
        if kind == "hydra":
            m = hydra_mixer(HydraParams(p_f, p_b, np.zeros(T))).m
            mixed = m @ x.data + x.data * gain
            got = hydra_channelwise(x, cfg.fwd, cfg.bwd, gain).data
            cfg = dataclasses.replace(cfg, diag_gain=gain)
        else:
            mixed = bimamba_mixer(BiMambaParams(p_f, p_b)).m @ x.data
            got = bimamba_channelwise(x, cfg.fwd, cfg.bwd).data
        assert np.max(np.abs(got - mixed)) <= 1e-9
        got = mixer_apply(x, cfg).data
        assert np.max(np.abs(got - mixed @ cfg.out_proj)) <= 1e-9

    @pytest.mark.parametrize("T", [1, 2, 33])
    def test_hand_loop_over_every_channel(self, T):
        rng = np.random.default_rng(70 + T)
        d = 9
        w = [
            SelectiveWeights(
                w_delta=rng.standard_normal(d) / 3,
                bias=0.1,
                w_b=rng.standard_normal((3, d)),
                w_c=rng.standard_normal((3, d)),
                a_log=0.0,
            )
            for _ in range(2)
        ]
        x = FeatureSequence(rng.standard_normal((T, d)))
        gain = rng.standard_normal(d)
        p_f = selective_parameterize(x, w[0])
        p_b = selective_parameterize(FeatureSequence(x.data[::-1]), w[1])
        yf = hand_loop_scan(p_f, x.data)
        yb = hand_loop_scan(p_b, x.data[::-1])[::-1]
        np.testing.assert_allclose(
            bimamba_channelwise(x, *w).data, yf + yb, rtol=0, atol=1e-12
        )
        expected = x.data * gain
        expected[1:] += yf[:-1]
        expected[:-1] += yb[1:]
        np.testing.assert_allclose(
            hydra_channelwise(x, *w, gain).data, expected, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kind", ["hydra", "bimamba"])
    def test_traced_peak_under_two_activations(self, kind):
        """The scan stage adds both scans of every channel straight into its
        one (T, d) output and adopts its scan parameters, so at T=128 it
        allocates less than two (T, d) arrays beyond its input."""
        x, cfg, *_ = self.setup_inputs(128, kind)
        args = (cfg.diag_gain,) if kind == "hydra" else ()
        run = hydra_channelwise if kind == "hydra" else bimamba_channelwise
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run(x, cfg.fwd, cfg.bwd, *args)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes
