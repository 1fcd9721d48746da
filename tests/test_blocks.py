"""Tests for block stages, the four-stage residual block, stacks, and the
weight container."""

import numpy as np
import pytest

from mixerlab import (
    LAYER_NORM_EPS,
    TENSOR_MAGIC,
    BlockStackConfig,
    DilatedConvWeights,
    FeatureSequence,
    FfwWeights,
    block_forward,
    dilated_dw_conv,
    dilation_for_block,
    ffw_apply,
    init_stack,
    layer_norm_apply,
    load_tensors,
    make_rng,
    mixer_apply,
    save_tensors,
    silu,
    stack_forward,
    stack_from_tensors,
    stack_to_tensors,
    validate_stack,
    with_zeroed_projections,
)


class TestSilu:
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
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="hydra")
        (block,) = init_stack(cfg, 12, state_size=4)
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
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind)
        (block,) = init_stack(cfg, 5, num_heads=2, feature_count=8, state_size=4)
        x = FeatureSequence(rng.standard_normal((12, 8)))
        y = block_forward(x, block)
        assert y.data.shape == (12, 8)
        assert np.all(np.isfinite(y.data))

    @pytest.mark.parametrize("kind", ["hydra", "bimamba", "favor", "softmax"])
    def test_zeroed_projections_reduce_to_layer_norm(self, kind):
        """With every stage projection zeroed the residuals pass x through
        untouched and the block is exactly its final layer norm."""
        rng = np.random.default_rng(14)
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind=kind)
        (block,) = init_stack(cfg, 9, num_heads=2, feature_count=8, state_size=4)
        zeroed = with_zeroed_projections(block)
        x = FeatureSequence(rng.standard_normal((10, 8)))
        y = block_forward(x, zeroed)
        expected = layer_norm_apply(x, zeroed.norm_scale, zeroed.norm_shift)
        assert np.array_equal(y.data, expected.data)


class TestStack:
    def test_single_block_stack_equals_block_forward(self):
        rng = np.random.default_rng(15)
        cfg = BlockStackConfig(d_model=6, num_blocks=1, kernel_size=3)
        blocks = init_stack(cfg, 3, state_size=4)
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

    def test_validate_stack_rejects_wrong_count(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=2, kernel_size=3)
        blocks = init_stack(cfg, 3, state_size=4)
        with pytest.raises(ValueError):
            validate_stack(cfg, blocks[:1])

    def test_validate_stack_rejects_wrong_dilation(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=5, kernel_size=3, dilation_period=4)
        blocks = init_stack(cfg, 3, state_size=4)
        shuffled = (blocks[4],) + blocks[1:5]
        with pytest.raises(ValueError):
            validate_stack(cfg, shuffled)

    def test_validate_stack_rejects_mixed_kind(self):
        cfg = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind="hydra")
        blocks = init_stack(cfg, 3, state_size=4)
        other = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind="softmax")
        oblocks = init_stack(other, 3, num_heads=2)
        with pytest.raises(ValueError):
            validate_stack(cfg, (blocks[0], oblocks[1]))

    def test_init_is_deterministic_in_seed(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=2, kernel_size=3)
        t1 = stack_to_tensors(init_stack(cfg, 11, state_size=4))
        t2 = stack_to_tensors(init_stack(cfg, 11, state_size=4))
        assert t1.keys() == t2.keys()
        for name in t1:
            assert np.array_equal(t1[name], t2[name])
        t3 = stack_to_tensors(init_stack(cfg, 12, state_size=4))
        assert any(not np.array_equal(t1[n], t3[n]) for n in t1)


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

    def test_whitespace_in_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_tensors(tmp_path / "t.bin", {"bad name": np.zeros(2)})

    def test_stack_roundtrip_through_container(self, tmp_path):
        cfg = BlockStackConfig(d_model=8, num_blocks=2, kernel_size=3, mixer_kind="favor")
        blocks = init_stack(cfg, 21, num_heads=2, feature_count=8)
        path = tmp_path / "w.bin"
        save_tensors(path, stack_to_tensors(blocks))
        restored = stack_from_tensors(
            cfg, load_tensors(path), 21, num_heads=2, feature_count=8
        )
        x = FeatureSequence(make_rng(21, 0).standard_normal((6, 8)))
        a = stack_forward(x, cfg, blocks)
        b = stack_forward(x, cfg, restored)
        assert np.array_equal(a.data, b.data)

    def test_restore_rejects_missing_tensor(self):
        cfg = BlockStackConfig(d_model=6, num_blocks=1, kernel_size=3)
        tensors = stack_to_tensors(init_stack(cfg, 4, state_size=4))
        del tensors["block00.conv.bias"]
        with pytest.raises(ValueError):
            stack_from_tensors(cfg, tensors, 4)

    def test_restore_rejects_tampered_feature_matrix(self):
        """Random-feature matrices are re-derived from the seed; a stored
        matrix that disagrees must be refused, not silently replaced."""
        cfg = BlockStackConfig(d_model=8, num_blocks=1, kernel_size=3, mixer_kind="favor")
        tensors = stack_to_tensors(init_stack(cfg, 31, num_heads=2, feature_count=8))
        name = "block00.mixer.head00.omega"
        tampered = dict(tensors)
        tampered[name] = tensors[name] + 1.0
        with pytest.raises(ValueError):
            stack_from_tensors(cfg, tampered, 31, num_heads=2, feature_count=8)
