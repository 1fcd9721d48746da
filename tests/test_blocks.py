"""Tests for block stages, the four-stage residual block, stacks, and the
weight container."""

import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mixerlab import (
    LAYER_NORM_EPS,
    MIXER_KINDS,
    TENSOR_MAGIC,
    BlockStackConfig,
    DilatedConvWeights,
    FeatureSequence,
    FfwWeights,
    NumericRangeError,
    QkvTriple,
    RopeConfig,
    ScanMixerConfig,
    SelectiveWeights,
    ShapeError,
    block_forward,
    derive_seed,
    dilated_dw_conv,
    dilation_for_block,
    draw_orthogonal_features,
    ffw_apply,
    init_stack,
    layer_norm_apply,
    load_tensors,
    make_rng,
    mixer_apply,
    save_tensors,
    silu,
    softmax_attention,
    stack_forward,
    stack_from_tensors,
    stack_to_tensors,
    validate_stack,
    with_zeroed_projections,
)
from mixerlab.cli import main


def _silu_reference(x):
    """silu as one expression, one temporary per operation."""
    x = np.asarray(x, dtype=np.float64)
    return x * (0.5 * (1.0 + np.tanh(0.5 * x)))


def _init_stack_reference(cfg, seed):
    """init_stack's weights drawn part by part, keyed in container order.

    Block i draws stream (i, 0) in the order ffw_in, mixer, conv kernel,
    ffw_out; favor feature matrices come from the per-head children of
    derive_seed(seed, i, 1). FFW, conv and out_proj weights divide by
    sqrt(fan-in); attention and selective weights multiply by 1/sqrt(d).
    """
    d, k = cfg.d_model, cfg.kernel_size
    num_heads, feature_count, state_size = cfg.num_heads, cfg.feature_count, cfg.state_size
    scale = 1.0 / np.sqrt(d)
    out = {}
    for i in range(cfg.num_blocks):
        rng = make_rng(seed, i, 0)

        def ffw():
            w1 = rng.standard_normal((d, 4 * d)) / np.sqrt(d)
            w2 = rng.standard_normal((4 * d, d)) / np.sqrt(4 * d)
            return {"w1": w1, "b1": np.zeros(4 * d), "w2": w2, "b2": np.zeros(d)}

        ffw_in = ffw()
        mixer = {}
        if cfg.mixer_kind in ("softmax", "favor"):
            for name in ("wq", "wk", "wv", "wo"):
                mixer[name] = rng.standard_normal((d, d)) * scale
            if cfg.mixer_kind == "favor":
                omega_seed = derive_seed(seed, i, 1)
                for h in range(num_heads):
                    om = draw_orthogonal_features(
                        d // num_heads, feature_count, derive_seed(omega_seed, h)
                    )
                    mixer[f"head{h:02d}.omega"] = om.omega
        else:
            for side in ("fwd", "bwd"):
                mixer[f"{side}.w_delta"] = rng.standard_normal(d) * scale
                mixer[f"{side}.bias"] = np.zeros(1)
                mixer[f"{side}.w_b"] = rng.standard_normal((state_size, d)) * scale
                mixer[f"{side}.w_c"] = rng.standard_normal((state_size, d)) * scale
                mixer[f"{side}.a_log"] = np.zeros(1)
            if cfg.mixer_kind == "hydra":
                mixer["diag_gain"] = np.ones(d)
            mixer["out_proj"] = rng.standard_normal((d, d)) / np.sqrt(d)
        kernel = rng.standard_normal((d, k)) / np.sqrt(k)
        ffw_out = ffw()
        p = f"block{i:02d}"
        for part, tensors in (("ffw_in", ffw_in), ("ffw_out", ffw_out), ("mixer", mixer)):
            for name, value in tensors.items():
                out[f"{p}.{part}.{name}"] = value
        out[f"{p}.conv.kernel"] = kernel
        out[f"{p}.conv.bias"] = np.zeros(d)
        out[f"{p}.norm.scale"] = np.ones(d)
        out[f"{p}.norm.shift"] = np.zeros(d)
    return out


class TestSilu:
    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(5).standard_normal((64, 1024)) * 5.0,
            np.linspace(-40.0, 40.0, 33).reshape(3, 11)[:, ::2],
            np.array(-1.5),
            0.75,
            -3,
        ],
        ids=["2-d", "strided", "0-d", "float", "int"],
    )
    def test_bit_identical_to_expression_form(self, x):
        """In-place updates on one fresh array: same operations, same
        order, same bits and return type; the input is left alone."""
        before = np.array(x, copy=True)
        got, want = silu(x), _silu_reference(x)
        assert type(got) is type(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.asarray(x), before)

    def test_read_only_input_accepted(self):
        x = np.linspace(-2.0, 2.0, 5)
        x.flags.writeable = False
        assert np.array_equal(silu(x), _silu_reference(x))

    def test_fixed_points(self):
        assert silu(np.array(0.0)) == 0.0
        np.testing.assert_allclose(silu(np.array(30.0)), 30.0, atol=1e-10)
        np.testing.assert_allclose(silu(np.array(-30.0)), 0.0, atol=1e-10)

    def test_matches_x_times_sigmoid(self):
        x = np.linspace(-5, 5, 101)
        expected = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(silu(x), expected, atol=1e-12)


class TestFfwApply:
    def test_zero_weights_give_zero(self):
        d = 4
        w = FfwWeights(
            w1=np.zeros((d, 2 * d)),
            b1=np.zeros(2 * d),
            w2=np.zeros((2 * d, d)),
            b2=np.zeros(d),
        )
        x = FeatureSequence(np.ones((3, d)))
        assert np.array_equal(ffw_apply(x, w).data, np.zeros((3, d)))

    def test_zero_second_layer_gives_constant_bias_rows(self):
        rng = np.random.default_rng(0)
        d, h = 3, 5
        bias = np.array([1.0, -2.0, 0.5])
        w = FfwWeights(
            w1=rng.standard_normal((d, h)),
            b1=rng.standard_normal(h),
            w2=np.zeros((h, d)),
            b2=bias,
        )
        y = ffw_apply(FeatureSequence(rng.standard_normal((4, d))), w)
        np.testing.assert_allclose(y.data, np.tile(bias, (4, 1)), atol=0)

    def test_matches_per_frame_scalar_oracle(self):
        """Frame-by-frame, unit-by-unit evaluation with explicit loops."""
        rng = np.random.default_rng(1)
        d, h, T = 4, 6, 3
        w = FfwWeights(
            w1=rng.standard_normal((d, h)),
            b1=rng.standard_normal(h),
            w2=rng.standard_normal((h, d)),
            b2=rng.standard_normal(d),
        )
        x = rng.standard_normal((T, d))
        y = ffw_apply(FeatureSequence(x), w)
        for t in range(T):
            hidden = np.zeros(h)
            for u in range(h):
                acc = w.b1[u]
                for i in range(d):
                    acc += x[t, i] * w.w1[i, u]
                hidden[u] = acc / (1.0 + np.exp(-acc)) * 1.0
            out = np.zeros(d)
            for o in range(d):
                acc = w.b2[o]
                for u in range(h):
                    acc += hidden[u] * w.w2[u, o]
                out[o] = acc
            np.testing.assert_allclose(y.data[t], out, atol=1e-11)

    def test_bit_identical_to_expression_form(self):
        rng = np.random.default_rng(6)
        d, h, T = 32, 128, 100
        w = FfwWeights(
            w1=rng.standard_normal((d, h)) * 0.2,
            b1=rng.standard_normal(h),
            w2=rng.standard_normal((h, d)) * 0.1,
            b2=rng.standard_normal(d),
        )
        x = rng.standard_normal((T, d))
        want = _silu_reference(x @ w.w1 + w.b1) @ w.w2 + w.b2
        assert np.array_equal(ffw_apply(FeatureSequence(x), w).data, want)

    @pytest.mark.parametrize("d", [16, 256])
    @pytest.mark.parametrize("T", [1, 255, 256, 257, 511, 512, 513, 769, 2049])
    def test_bit_identical_to_public_silu_across_row_blocks(self, T, d):
        """The row blocks of 256 rows, the last taking the remainder, give
        the unblocked expression's bits at every partition edge; a 1-row
        tail block (T=513 split plainly) takes another BLAS path."""
        rng = np.random.default_rng(7)
        h = 4 * d
        w = FfwWeights(
            w1=rng.standard_normal((d, h)) * 0.3,
            b1=rng.standard_normal(h),
            w2=rng.standard_normal((h, d)) * 0.2,
            b2=rng.standard_normal(d),
        )
        x = rng.standard_normal((T, d))
        want = silu(x @ w.w1 + w.b1) @ w.w2 + w.b2
        assert np.array_equal(ffw_apply(FeatureSequence(x), w).data, want)

    def test_width_mismatch_rejected(self):
        w = FfwWeights(
            w1=np.zeros((4, 8)), b1=np.zeros(8), w2=np.zeros((8, 4)), b2=np.zeros(4)
        )
        with pytest.raises(ValueError):
            ffw_apply(FeatureSequence(np.zeros((2, 5))), w)


class TestDilatedConv:
    def test_centered_delta_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        d, k, T = 3, 5, 8
        kernel = np.zeros((d, k))
        kernel[:, (k - 1) // 2] = 1.0
        w = DilatedConvWeights(kernel=kernel, dilation=2, bias=np.zeros(d))
        x = rng.standard_normal((T, d))
        assert np.array_equal(dilated_dw_conv(FeatureSequence(x), w).data, x)

    def test_zero_kernel_gives_zero(self):
        w = DilatedConvWeights(kernel=np.zeros((2, 3)), dilation=1, bias=np.zeros(2))
        y = dilated_dw_conv(FeatureSequence(np.ones((5, 2))), w)
        assert np.array_equal(y.data, np.zeros((5, 2)))

    def test_impulse_spreads_to_dilated_taps(self):
        """k=3, dilation=2: an impulse at t=4 reaches exactly t in {2,4,6}."""
        T = 9
        x = np.zeros((T, 1))
        x[4, 0] = 1.0
        w = DilatedConvWeights(
            kernel=np.ones((1, 3)), dilation=2, bias=np.zeros(1)
        )
        y = dilated_dw_conv(FeatureSequence(x), w).data[:, 0]
        nonzero = set(np.nonzero(y)[0].tolist())
        assert nonzero == {2, 4, 6}
        np.testing.assert_allclose(y[[2, 4, 6]], [1.0, 1.0, 1.0], atol=0)

    def test_matches_triple_loop_oracle(self):
        """Cross-correlation with zero padding, written as explicit loops
        over frames, channels, and taps."""
        rng = np.random.default_rng(3)
        d, k, T, dil = 2, 3, 7, 2
        kernel = rng.standard_normal((d, k))
        bias = rng.standard_normal(d)
        x = rng.standard_normal((T, d))
        y = dilated_dw_conv(
            FeatureSequence(x), DilatedConvWeights(kernel=kernel, dilation=dil, bias=bias)
        ).data
        center = (k - 1) // 2
        expected = np.zeros((T, d))
        for t in range(T):
            for ch in range(d):
                acc = bias[ch]
                for tap in range(k):
                    src = t + (tap - center) * dil
                    if 0 <= src < T:
                        acc += kernel[ch, tap] * x[src, ch]
                expected[t, ch] = acc
        np.testing.assert_allclose(y, expected, atol=1e-13)

    def test_receptive_field_span(self):
        """The output at the center depends on exactly the frames within
        (k-1)*dilation+1, probed with impulses for several dilations."""
        k, T = 3, 33
        mid = T // 2
        for dil in (1, 2, 4):
            w = DilatedConvWeights(
                kernel=np.ones((1, k)), dilation=dil, bias=np.zeros(1)
            )
            reach = []
            for src in range(T):
                x = np.zeros((T, 1))
                x[src, 0] = 1.0
                if dilated_dw_conv(FeatureSequence(x), w).data[mid, 0] != 0.0:
                    reach.append(src)
            span = max(reach) - min(reach) + 1
            assert span == (k - 1) * dil + 1
            assert reach == [mid - dil, mid, mid + dil]

    def test_dilation_schedule(self):
        assert dilation_for_block(0, 4) == 1
        assert dilation_for_block(3, 4) == 1
        assert dilation_for_block(4, 4) == 2
        assert dilation_for_block(7, 4) == 2
        assert dilation_for_block(8, 4) == 4
        assert dilation_for_block(11, 4) == 4


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        x = FeatureSequence(np.full((2, 4), 3.7))
        y = layer_norm_apply(x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(y.data, np.zeros((2, 4)), atol=0)

    def test_two_point_row(self):
        x = FeatureSequence(np.array([[1.0, -1.0]]))
        y = layer_norm_apply(x, np.ones(2), np.zeros(2))
        np.testing.assert_allclose(y.data, [[1.0, -1.0]], atol=1e-4)

    def test_moments_after_normalization(self):
        rng = np.random.default_rng(3)
        x = FeatureSequence(rng.standard_normal((1, 64)))
        y = layer_norm_apply(x, np.ones(64), np.zeros(64)).data[0]
        assert abs(float(np.mean(y))) <= 1e-12
        assert abs(float(np.mean(y * y)) - 1.0) <= 1e-3

    def test_affine_applied_after_normalization(self):
        rng = np.random.default_rng(4)
        x = FeatureSequence(rng.standard_normal((3, 5)))
        scale = rng.standard_normal(5)
        shift = rng.standard_normal(5)
        plain = layer_norm_apply(x, np.ones(5), np.zeros(5)).data
        affine = layer_norm_apply(x, scale, shift).data
        np.testing.assert_allclose(affine, plain * scale + shift, atol=1e-13)

    def test_bit_identical_to_expression_form(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((600, 16)) * 3.0 + 1.0
        scale, shift = rng.standard_normal(16), rng.standard_normal(16)
        centered = x - x.mean(axis=1, keepdims=True)
        var = np.mean(centered * centered, axis=1, keepdims=True)
        want = centered / np.sqrt(var + LAYER_NORM_EPS) * scale + shift
        got = layer_norm_apply(FeatureSequence(x), scale, shift).data
        assert np.array_equal(got, want)

    def test_epsilon_sits_inside_sqrt(self):
        x = FeatureSequence(np.array([[1e-8, -1e-8]]))
        y = layer_norm_apply(x, np.ones(2), np.zeros(2)).data[0]
        expected = 1e-8 / np.sqrt(1e-16 + LAYER_NORM_EPS)
        np.testing.assert_allclose(y, [expected, -expected], rtol=1e-12)


class TestBlockForward:
    def test_matches_hand_sequenced_composition(self):
        """The block must equal the spelled-out residual chain: ffw, mixer,
        silu(conv), ffw, then one layer norm at the end."""
        rng = np.random.default_rng(12)
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="hydra",
                               state_size=4)
        (block,) = init_stack(cfg, 12)
        x = FeatureSequence(rng.standard_normal((16, 8)))
        y = block_forward(x, block)
        s1 = FeatureSequence(x.data + ffw_apply(x, block.ffw_in).data)
        s2 = FeatureSequence(s1.data + mixer_apply(s1, block.mixer_config).data)
        s3 = FeatureSequence(s2.data + silu(dilated_dw_conv(s2, block.conv).data))
        s4 = FeatureSequence(s3.data + ffw_apply(s3, block.ffw_out).data)
        expected = layer_norm_apply(s4, block.norm_scale, block.norm_shift)
        assert np.array_equal(y.data, expected.data)

    @pytest.mark.parametrize("kind", ["hydra", "bimamba", "favor", "softmax"])
    def test_shape_preserved_for_every_mixer_kind(self, kind):
        rng = np.random.default_rng(13)
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        (block,) = init_stack(cfg, 5)
        x = FeatureSequence(rng.standard_normal((12, 8)))
        y = block_forward(x, block)
        assert y.data.shape == (12, 8)
        assert np.all(np.isfinite(y.data))

    @pytest.mark.parametrize("kind", ["hydra", "bimamba", "favor", "softmax"])
    def test_zeroed_projections_reduce_to_layer_norm(self, kind):
        """With every stage projection zeroed the residuals pass x through
        untouched and the block is exactly its final layer norm."""
        rng = np.random.default_rng(14)
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        (block,) = init_stack(cfg, 9)
        zeroed = with_zeroed_projections(block)
        x = FeatureSequence(rng.standard_normal((10, 8)))
        y = block_forward(x, zeroed)
        expected = layer_norm_apply(x, zeroed.norm_scale, zeroed.norm_shift)
        assert np.array_equal(y.data, expected.data)


class TestStageScratch:
    """Stages adopt the arrays they build instead of copying them."""

    @pytest.mark.parametrize("kind", MIXER_KINDS)
    def test_outputs_are_read_only_and_private(self, kind):
        rng = np.random.default_rng(15)
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        (block,) = init_stack(cfg, 3)
        x = FeatureSequence(rng.standard_normal((12, 8)))
        outputs = {
            "ffw_apply": ffw_apply(x, block.ffw_in),
            "mixer_apply": mixer_apply(x, block.mixer_config),
            "dilated_dw_conv": dilated_dw_conv(x, block.conv),
            "layer_norm_apply": layer_norm_apply(x, block.norm_scale, block.norm_shift),
            "block_forward": block_forward(x, block),
        }
        for name, y in outputs.items():
            assert not y.data.flags.writeable, name
            assert not np.shares_memory(y.data, x.data), name

    @pytest.mark.parametrize(
        "stage, limit_mb",
        [("ffw_apply", 10.0), ("layer_norm_apply", 10.5),
         ("mixer_apply", 13.0), ("mixer_apply-favor", 13.0),
         ("block_forward", 17.0), ("softmax_attention", 4.0)],
    )
    def test_traced_peak_at_benchmark_size(self, stage, limit_mb):
        """At T=2048, d=256 (4.2 MB per activation) the FFW keeps its output
        and two 256-row blocks of hidden scratch (2.1 MB each), and the
        layer norm one array besides its product temporary. The attention
        stage, softmax or FAVOR+, holds one (T, d) heads array next to one
        head's (T, 64) Q, K and V, which it projects through that head's
        weight columns and frees before the next head, then the output
        product; one head's softmax attention holds its output, a
        transposed K and one (64, T) logits tile. The block adds its input
        residual and the stage outputs around that. Holding the full
        (T, d) Q, K or V projections, copying an output or a whole hidden
        array, or a 512-row tile, breaks the limit."""
        rng = np.random.default_rng(16)
        T, d = 2048, 256
        x = FeatureSequence(rng.standard_normal((T, d)))
        w = FfwWeights(
            rng.standard_normal((d, 4 * d)) / 16, np.zeros(4 * d),
            rng.standard_normal((4 * d, d)) / 32, np.zeros(d),
        )
        scale, shift = np.ones(d), np.zeros(d)
        qkv = QkvTriple(*(rng.standard_normal((T, 64)) * 0.1 for _ in range(3)))
        kind = "favor" if stage.endswith("-favor") else "softmax"
        (block,) = init_stack(BlockStackConfig(d_model=d, num_blocks=1, mixer_kind=kind), 16)
        run = {
            "ffw_apply": lambda: ffw_apply(x, w),
            "layer_norm_apply": lambda: layer_norm_apply(x, scale, shift),
            "mixer_apply": lambda: mixer_apply(x, block.mixer_config),
            "block_forward": lambda: block_forward(x, block),
            "softmax_attention": lambda: softmax_attention(qkv),
        }[stage.removesuffix("-favor")]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


def _selective(d, N):
    rng = np.random.default_rng(d + N)
    return SelectiveWeights(rng.standard_normal(d), 0.0, rng.standard_normal((N, d)),
                            rng.standard_normal((N, d)), 0.0)


def _block(d=8):
    """A width-d hydra block."""
    (block,) = init_stack(BlockStackConfig(d_model=d, num_blocks=1, kernel_size=3, state_size=4), 3)
    return block


def _conv(d, bias_length=None):
    return DilatedConvWeights(np.ones((d, 3)), 1, np.zeros(d if bias_length is None else bias_length))


@pytest.mark.parametrize("call, error, match", [
    (lambda: FfwWeights(np.zeros((4, 8)), np.zeros(7), np.zeros((8, 4)), np.zeros(4)), ShapeError,
     "inconsistent ffw shapes"),
    (lambda: _conv(4, bias_length=3), ShapeError, "bias has length 3, kernel has 4 channels"),
    (lambda: dilated_dw_conv(FeatureSequence(np.ones((5, 3))), _conv(4)), ShapeError,
     "sequence width 3 != conv width 4"),
    (lambda: layer_norm_apply(FeatureSequence(np.ones((2, 4))), np.ones(4), np.ones(3)),
     ShapeError, "scale/shift lengths 4/3 != width 4"),
    (lambda: mixer_apply(FeatureSequence(np.ones((2, 8))), "hydra"), TypeError,
     "not a mixer config: str"),
    (lambda: replace(_block(), conv=_conv(5)), ShapeError, "block widths disagree"),
    (lambda: block_forward(FeatureSequence(np.ones((3, 5))), _block()), ShapeError,
     "sequence width 5 != block width 8"),
], ids=["ffw-shapes", "conv-bias", "conv-width", "norm-lengths", "mixer-config", "block-widths",
        "block-width"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestScanMixerConfig:
    def test_kind_follows_diag_gain(self):
        sel = _selective(3, 2)
        hydra = ScanMixerConfig(sel, sel, np.eye(3), np.ones(3))
        bimamba = ScanMixerConfig(sel, sel, np.eye(3))
        assert (hydra.kind, bimamba.kind) == ("hydra", "bimamba")
        assert replace(hydra, diag_gain=None).kind == "bimamba"
        assert replace(bimamba, diag_gain=np.zeros(3)).kind == "hydra"
        with pytest.raises(AttributeError):
            hydra.kind = "bimamba"

    @pytest.mark.parametrize("fwd, bwd, out_shape, gain, message", [
        ((3, 2), (3, 2), (3, 4), None, "out_proj must be square, got (3, 4)"),
        ((4, 2), (3, 2), (3, 3), None, "selective weights expect width 4/3, out_proj is 3x3"),
        ((3, 2), (3, 5), (3, 3), None, "forward/backward state sizes differ: 2 vs 5"),
        ((3, 2), (3, 2), (3, 3), 4, "diag_gain has length 4, expected 3"),
    ], ids=["out-proj", "width", "state-size", "gain-length"])
    def test_shape_errors(self, fwd, bwd, out_shape, gain, message):
        """Each check raises its own ShapeError; the pair checks hold for
        both kinds."""
        gains = [np.ones(gain)] if gain else [None, np.ones(out_shape[0])]
        for diag_gain in gains:
            with pytest.raises(ShapeError, match=re.escape(message)):
                ScanMixerConfig(_selective(*fwd), _selective(*bwd), np.ones(out_shape), diag_gain)

    @pytest.mark.parametrize("mixer", ["hydra", None, np.eye(8)], ids=["str", "none", "array"])
    def test_block_refuses_a_mixer_that_is_no_config(self, mixer):
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, state_size=4)
        (block,) = init_stack(cfg, 3)
        with pytest.raises(TypeError, match=f"not a mixer config: {type(mixer).__name__}"):
            replace(block, mixer_config=mixer)


class TestStack:
    def test_single_block_stack_equals_block_forward(self):
        rng = np.random.default_rng(15)
        cfg = BlockStackConfig(d_model=6, num_blocks=1, kernel_size=3, state_size=4)
        blocks = init_stack(cfg, 3)
        x = FeatureSequence(rng.standard_normal((9, 6)))
        a = stack_forward(x, cfg, blocks)
        b = block_forward(x, blocks[0])
        assert np.array_equal(a.data, b.data)

    def test_preset_denoiser_shape(self):
        cfg = BlockStackConfig.preset("latent-denoiser")
        assert cfg.d_model == 256
        assert cfg.num_blocks == 8
        assert list(cfg.dilations()) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_preset_generator_shape(self):
        cfg = BlockStackConfig.preset("token-generator")
        assert cfg.d_model == 512
        assert cfg.num_blocks == 12
        assert list(cfg.dilations()) == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            BlockStackConfig.preset("nonexistent")

    def test_preset_takes_the_dataclass_defaults(self):
        assert BlockStackConfig.preset("latent-denoiser") == BlockStackConfig(256, 8)
        cfg = BlockStackConfig.preset("token-generator", mixer_kind="favor", kernel_size=3)
        assert cfg == BlockStackConfig(512, 12, kernel_size=3, mixer_kind="favor")

    @pytest.mark.parametrize("field", ["num_heads", "feature_count", "state_size"])
    @pytest.mark.parametrize("value", [0, True, 2.0], ids=["zero", "bool", "float"])
    def test_mixer_sizes_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            BlockStackConfig(d_model=8, num_blocks=1, **{field: value})

    def test_validate_stack_rejects_wrong_count(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=2, kernel_size=3, state_size=4)
        blocks = init_stack(cfg, 3)
        with pytest.raises(ValueError):
            validate_stack(cfg, blocks[:1])

    def test_validate_stack_rejects_wrong_dilation(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=5, kernel_size=3, dilation_period=4,
                               state_size=4)
        blocks = init_stack(cfg, 3)
        shuffled = (blocks[4],) + blocks[1:5]
        with pytest.raises(ValueError):
            validate_stack(cfg, shuffled)

    def test_validate_stack_rejects_mixed_kind(self):
        cfg = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind="hydra",
                               state_size=4)
        blocks = init_stack(cfg, 3)
        other = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind="softmax",
                                 num_heads=2)
        oblocks = init_stack(other, 3)
        with pytest.raises(ValueError):
            validate_stack(cfg, (blocks[0], oblocks[1]))

    @pytest.mark.parametrize(
        "kind, field",
        [("softmax", "num_heads"), ("favor", "num_heads"), ("favor", "feature_count"),
         ("hydra", "state_size"), ("bimamba", "state_size")],
    )
    def test_validate_stack_rejects_other_mixer_size(self, kind, field):
        cfg = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        other = replace(cfg, **{field: 2 * getattr(cfg, field)})
        blocks = init_stack(other, 3)
        want = f"block 0 {field} {getattr(other, field)} != config {getattr(cfg, field)}"
        with pytest.raises(ValueError, match=want):
            validate_stack(cfg, blocks)
        with pytest.raises(ValueError, match=want):
            stack_forward(FeatureSequence(np.ones((4, 8))), cfg, blocks)

    @pytest.mark.parametrize("kind", ["softmax", "favor"])
    def test_rope_follows_head_width(self, kind):
        """Heads rotate by RopeConfig(d_head) exactly when d_head is even;
        an odd d_head builds and runs without RoPE."""
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8)
        (block,) = init_stack(cfg, 3)
        assert block.mixer_config.rope == RopeConfig(4)
        odd = replace(cfg, d_model=6)
        (block,) = init_stack(odd, 3)
        assert block.mixer_config.rope is None
        y = stack_forward(FeatureSequence(np.ones((5, 6))), odd, (block,))
        assert np.all(np.isfinite(y.data))

    def test_init_draws_each_feature_matrix_once(self, monkeypatch):
        """The favor latent-denoiser holds 8 blocks x 4 heads = 32 feature
        matrices; init_stack draws each one once."""
        calls = []

        def counting(*args):
            calls.append(args)
            return draw_orthogonal_features(*args)

        monkeypatch.setattr("mixerlab.blocks.draw_orthogonal_features", counting)
        init_stack(BlockStackConfig.preset("latent-denoiser", mixer_kind="favor"), 1)
        assert len(calls) == 32

    def test_init_is_deterministic_in_seed(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=2, kernel_size=3, state_size=4)
        t1 = stack_to_tensors(init_stack(cfg, 11))
        t2 = stack_to_tensors(init_stack(cfg, 11))
        assert t1.keys() == t2.keys()
        for name in t1:
            assert np.array_equal(t1[name], t2[name])
        t3 = stack_to_tensors(init_stack(cfg, 12))
        assert any(not np.array_equal(t1[n], t3[n]) for n in t1)

    @pytest.mark.parametrize("kind", MIXER_KINDS)
    @pytest.mark.parametrize(
        "sizes",
        [{}, {"num_heads": 2, "feature_count": 8, "state_size": 4}],
        ids=["default-sizes", "small-sizes"],
    )
    def test_init_matches_per_part_draw(self, kind, sizes):
        """Same draws, same arithmetic, same container order as drawing
        each part on its own."""
        cfg = BlockStackConfig(d_model=8, num_blocks=5, kernel_size=3, mixer_kind=kind)
        cfg = replace(cfg, **sizes)
        got = stack_to_tensors(init_stack(cfg, 7))
        want = _init_stack_reference(cfg, 7)
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name


class TestTensorContainer:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(16)
        tensors = {
            "alpha": rng.standard_normal((3, 4)),
            "beta.gamma": rng.standard_normal(7),
            "scalar": np.array([0.25]),
        }
        path = tmp_path / "t.bin"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], np.asarray(arr, dtype=np.float64))

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_refused_by_name(self, tmp_path):
        """A container read through a pipe (say /dev/stdin under `cat f |`)
        is refused as not seekable before any byte is read, not failed
        with an I/O error halfway."""
        path = tmp_path / "t.bin"
        save_tensors(path, {"x": np.zeros(2)})
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            with pytest.raises(ValueError, match="must be a seekable file"):
                load_tensors(f"/dev/fd/{r}")
            assert os.read(r, 4096) == path.read_bytes()
        finally:
            os.close(r)

    def test_magic_line_present(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"x": np.zeros(2)})
        head = path.read_bytes()[: len(TENSOR_MAGIC)]
        assert head.decode("utf-8") == TENSOR_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"WRONG 9\nx 2 0\n\n" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"x": np.zeros(4)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_tensors(path)

    @pytest.mark.parametrize(
        "manifest, payload_bytes",
        [
            (("a 2 0", "b 2 0"), 16),  # alias: both names on the same bytes
            (("a 2 0", "b 2 24"), 40),  # gap: 8 unread bytes between tensors
            (("a 2 0", "b 2 16"), 40),  # trailing junk after the last tensor
            (("a 2 16", "b 2 0"), 32),  # reorder: offsets out of manifest order
        ],
        ids=["alias", "gap", "trailing", "reorder"],
    )
    def test_offsets_must_tile_payload(self, tmp_path, manifest, payload_bytes):
        path = tmp_path / "t.bin"
        head = "\n".join((TENSOR_MAGIC,) + manifest).encode("utf-8")
        path.write_bytes(head + b"\n\n" + bytes(range(payload_bytes)))
        with pytest.raises(ValueError):
            load_tensors(path)

    @pytest.mark.parametrize("value", [
        np.array([1 + 2j, 3]), np.array(["1.5"]), np.array([1.0, 1j], dtype=object),
    ], ids=["complex", "str", "object-complex"])
    def test_non_real_tensors_refused_and_nothing_written(self, tmp_path, value):
        path = tmp_path / "t.bin"
        with pytest.raises(NumericRangeError, match="tensor 'w' must be real"):
            save_tensors(path, {"ok": np.zeros(2), "w": value})
        assert not path.exists()

    @pytest.mark.parametrize("manifest, match", [
        ("q 4x2 0\nk 4x2 64\n", "missing manifest terminator"),
        ("q 4x2 0\nq 4x2 64\n\n", "duplicate tensor name 'q'"),
    ], ids=["no-terminator", "duplicate-name"])
    def test_bad_manifest_rejected(self, tmp_path, manifest, match):
        path = tmp_path / "t.bin"
        path.write_bytes(f"{TENSOR_MAGIC}\n{manifest}".encode() + bytes(128))
        with pytest.raises(ValueError, match=match):
            load_tensors(path)

    def test_zero_dimensional_tensor_refused(self, tmp_path):
        with pytest.raises(ValueError, match="must be at least 1-dimensional"):
            save_tensors(tmp_path / "t.bin", {"s": np.float64(0.25)})
        assert not (tmp_path / "t.bin").exists()

    def test_non_finite_values_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        values = np.array([np.inf, -np.inf, np.nan, 1.5])
        save_tensors(path, {"w": values})
        assert np.array_equal(load_tensors(path)["w"], values, equal_nan=True)

    def test_whitespace_in_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "t.bin", {"bad name": np.zeros(2)})

    @pytest.mark.parametrize("shape", [(0, 3), (0,), (4, 0)])
    def test_writer_refuses_empty_tensors_the_reader_refuses(self, tmp_path, shape):
        """A manifest line with a zero dimension does not load, so the
        writer refuses it before writing anything."""
        path = tmp_path / "t.bin"
        path.write_bytes(f"{TENSOR_MAGIC}\ne {'x'.join(map(str, shape))} 0\n\n".encode())
        with pytest.raises(ValueError, match="malformed manifest line"):
            load_tensors(path)
        path.unlink()
        with pytest.raises(ValueError, match="must be non-empty"):
            save_tensors(path, {"ok": np.zeros(2), "e": np.zeros(shape)})
        assert not path.exists()

    @pytest.mark.parametrize("line", [" 2 0", "a\tb 2 0", "a\u00a0b 2 0", "a 02 0", "a +2 0",
                                      "a 2 +0", "a 1_0 0", "a 2x 0", "a 2 0 "])
    def test_reader_refuses_lines_the_writer_never_writes(self, tmp_path, line):
        path = tmp_path / "t.bin"
        path.write_bytes(f"{TENSOR_MAGIC}\n{line}\n\n".encode() + bytes(80))
        with pytest.raises(ValueError, match="malformed manifest line"):
            load_tensors(path)

    @pytest.mark.parametrize("name", ["", "a\tb", "a\u00a0b", 5])
    def test_writer_refuses_names_the_reader_refuses(self, tmp_path, name):
        with pytest.raises(ValueError, match="invalid tensor name"):
            save_tensors(tmp_path / "t.bin", {name: np.zeros(2)})
        assert not (tmp_path / "t.bin").exists()

    def test_load_holds_only_the_tensors(self, tmp_path):
        """The reader reads each tensor into its own array: its traced peak
        is the payload plus at most 1 MB, not the file plus the tensors."""
        rng = np.random.default_rng(18)
        tensors = {f"w{i}": rng.standard_normal((256, 512)) for i in range(8)}
        path = tmp_path / "t.bin"
        save_tensors(path, tensors)
        payload = sum(a.nbytes for a in tensors.values())
        tracemalloc.start()
        try:
            loaded = load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload + 1e6
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].flags.writeable and loaded[name].dtype == np.float64

    def test_save_writes_straight_from_the_arrays(self, tmp_path):
        """C-contiguous float64 tensors are written without a copy: the
        traced peak stays under 1 MB for an 8 MB payload."""
        rng = np.random.default_rng(19)
        tensors = {f"w{i}": rng.standard_normal((256, 512)) for i in range(8)}
        path = tmp_path / "t.bin"
        tracemalloc.start()
        try:
            save_tensors(path, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6
        loaded = load_tensors(path)
        assert all(np.array_equal(loaded[n], a) for n, a in tensors.items())

    @pytest.mark.parametrize("shape", ["1099511627776", "1048576x1048576"])
    def test_hostile_shape_raises_before_allocating(self, tmp_path, shape):
        """A manifest that claims 2**40 elements over a 16-byte payload is
        refused as truncated, not with a MemoryError, and allocates nothing
        of the claimed size."""
        path = tmp_path / "t.bin"
        path.write_bytes(f"{TENSOR_MAGIC}\nw {shape} 0\n\n".encode() + bytes(16))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload truncated for tensor 'w'"):
                load_tensors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_non_contiguous_and_integer_tensors_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        base = np.arange(24.0).reshape(4, 6)
        tensors = {"t": base.T, "s": base[:, ::2], "i": np.arange(5), "b": np.array([True, False]),
                   "be": np.arange(3.0).astype(">f8")}
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], np.asarray(arr, dtype=np.float64))

    @pytest.mark.parametrize("kind", MIXER_KINDS)
    def test_stack_roundtrip_through_container(self, tmp_path, kind):
        cfg = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        blocks = init_stack(cfg, 21)
        path = tmp_path / "w.bin"
        save_tensors(path, stack_to_tensors(blocks))
        restored = stack_from_tensors(cfg, load_tensors(path), 21)
        x = FeatureSequence(make_rng(21, 0).standard_normal((6, 8)))
        a = stack_forward(x, cfg, blocks)
        b = stack_forward(x, cfg, restored)
        assert np.array_equal(a.data, b.data)

    def test_restore_rejects_missing_tensor(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=1, kernel_size=3, state_size=4)
        tensors = stack_to_tensors(init_stack(cfg, 4))
        del tensors["block00.conv.bias"]
        with pytest.raises(ValueError):
            stack_from_tensors(cfg, tensors, 4)

    def test_restore_rejects_unread_scan_tensors_and_blocks(self):
        """A 3-block hydra container is not a 2-block bimamba stack: its
        diagonal gains and third block would be dropped."""
        hydra = BlockStackConfig(d_model=6, num_blocks=3, kernel_size=3, mixer_kind="hydra",
                                 state_size=4)
        tensors = stack_to_tensors(init_stack(hydra, 4))
        bimamba = replace(hydra, num_blocks=2, mixer_kind="bimamba")
        with pytest.raises(ValueError, match="'block00.mixer.diag_gain'"):
            stack_from_tensors(bimamba, tensors, 4)
        del tensors["block00.mixer.diag_gain"], tensors["block01.mixer.diag_gain"]
        with pytest.raises(ValueError, match="'block02.ffw_in.w1'"):
            stack_from_tensors(bimamba, tensors, 4)

    def test_restore_rejects_unread_feature_matrices(self):
        """A favor container is not a softmax stack: its feature matrices
        would be dropped."""
        favor = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="favor",
                                 num_heads=2, feature_count=8)
        tensors = stack_to_tensors(init_stack(favor, 31))
        softmax = replace(favor, mixer_kind="softmax")
        with pytest.raises(ValueError, match="'block00.mixer.head00.omega'"):
            stack_from_tensors(softmax, tensors, 31)

    def test_restore_rejects_stack_that_does_not_match_config(self):
        """Width and kernel size come from the tensors, so they must agree
        with cfg at load time, not only when the stack first runs."""
        small = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, state_size=4)
        tensors = stack_to_tensors(init_stack(small, 5))
        for cfg in (
            BlockStackConfig(d_model=16, num_blocks=2, kernel_size=7, state_size=4),
            BlockStackConfig(d_model=8, num_blocks=2, kernel_size=7, state_size=4),
        ):
            with pytest.raises(ValueError):
                stack_from_tensors(cfg, tensors, 5)

    @pytest.mark.parametrize(
        "kind, field, want",
        [("hydra", "state_size", "block 0 state_size 4 != config 8"),
         ("favor", "feature_count", "head00.omega does not match its seed and feature_count")],
    )
    def test_restore_rejects_other_mixer_size(self, kind, field, want):
        """State size and feature count come from the tensors, so they must
        agree with cfg."""
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=4, state_size=4)
        tensors = stack_to_tensors(init_stack(cfg, 4))
        with pytest.raises(ValueError, match=want):
            stack_from_tensors(replace(cfg, **{field: 8}), tensors, 4)

    def test_restore_rejects_tampered_feature_matrix(self):
        """Random-feature matrices are re-derived from the seed; a stored
        matrix that disagrees must be refused, not silently replaced."""
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="favor",
                               num_heads=2, feature_count=8)
        tensors = stack_to_tensors(init_stack(cfg, 31))
        name = "block00.mixer.head00.omega"
        tampered = dict(tensors)
        tampered[name] = tensors[name] + 1.0
        with pytest.raises(ValueError):
            stack_from_tensors(cfg, tampered, 31)

    def test_stack_container_mutants_load_or_raise(self, tmp_path):
        """Every seeded mutant of a favor stack's container either loads
        through stack_from_tensors or raises ValueError. A mutant that
        loads kept the original manifest: only a payload bit flip gets
        through, since the format holds no payload checksum."""
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="favor",
                               num_heads=2, feature_count=4)
        path = tmp_path / "stack.bin"
        save_tensors(path, stack_to_tensors(init_stack(cfg, 5)))
        data = path.read_bytes()
        header = data[: data.index(b"\n\n") + 2]
        outcomes = {"loaded": 0, "refused": 0}
        for kind, mutant in _container_mutants(data, seed=13, per_kind=50):
            path.write_bytes(mutant)
            try:
                stack_from_tensors(cfg, load_tensors(path), 5)
            except ValueError:
                outcomes["refused"] += 1
                continue
            outcomes["loaded"] += 1
            assert kind == "flip" and mutant.startswith(header) and len(mutant) == len(data)
        assert outcomes["refused"] > 0 and outcomes["loaded"] > 0, outcomes

    def test_qk_dump_mutants_load_or_exit_2(self, tmp_path, capsys):
        """Every seeded mutant of a q/k dump either loads or raises
        ValueError, and ``diagnose --qk_dump`` exits 2 on the refused ones
        and 0 or 2 on the rest (a flipped value can overflow the feature
        map). A mutant that loads kept the original manifest."""
        rng = np.random.default_rng(6)
        path = tmp_path / "qk.bin"
        save_tensors(path, {"q": rng.standard_normal((8, 4)), "k": rng.standard_normal((8, 4))})
        data = path.read_bytes()
        header = data[: data.index(b"\n\n") + 2]
        args = ["diagnose", "--qk_dump", str(path), "--r", "4", "--approx_seeds", "1",
                "--r_values", "2", "--out", str(tmp_path / "out")]
        codes = {0: 0, 2: 0}
        for kind, mutant in _container_mutants(data, seed=14, per_kind=50):
            path.write_bytes(mutant)
            try:
                load_tensors(path)
                loaded = True
            except ValueError:
                loaded = False
            code = main(args)
            assert code == 2 or (code == 0 and loaded), (kind, code)
            codes[code] += 1
            if loaded:
                assert kind == "flip" and mutant.startswith(header) and len(mutant) == len(data)
        capsys.readouterr()
        assert codes[0] > 0 and codes[2] > 0, codes


def _container_mutants(data, seed, per_kind):
    """Seeded mutants of a container's bytes, ``per_kind`` of each kind,
    as (kind, bytes): a bit flip anywhere, a truncation, a manifest line
    duplicated, two manifest lines swapped, random bytes appended, and
    one to four bytes deleted from the header."""
    rng = np.random.default_rng(seed)
    end = data.index(b"\n\n") + 1
    lines, payload = data[:end].split(b"\n")[:-1], data[end + 1:]

    def with_lines(new_lines):
        return b"\n".join(new_lines) + b"\n\n" + payload

    for _ in range(per_kind):
        bit = int(rng.integers(8 * len(data)))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield "flip", bytes(flipped)
        yield "truncate", data[: int(rng.integers(len(data)))]
        i, j = (int(v) for v in rng.choice(len(lines), 2, replace=False))
        yield "duplicate", with_lines(lines[:j] + [lines[i]] + lines[j:])
        swapped = list(lines)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "swap", with_lines(swapped)
        yield "append", data + rng.bytes(int(rng.integers(1, 17)))
        lo = int(rng.integers(end + 1))
        yield "delete-header", data[:lo] + data[lo + int(rng.integers(1, 5)):]
