"""Backbone block: FFW, pluggable mixer, dilated depthwise conv, FFW.

One block applies, with a full residual around every stage and a single
LayerNorm on the output:

    y1 = x  + ffw_in(x)
    y2 = y1 + mixer(y1)
    y3 = y2 + silu(conv(y2))
    y4 = y3 + ffw_out(y3)
    out = layer_norm(y4)

The mixer stage is a tagged union over four kinds (hydra, bimamba,
favor, softmax) so the same surrounding weights can host any of them.
Every mixer kind ends in a d x d output projection; zeroing all the
stage output projections turns the block into layer_norm exactly, which
is the contract the tests pin down.

The activation (sigmoid-weighted linear unit) lives inside the FFW
between its two linear maps and is applied to the conv output inside
the block; the conv operation itself is plain cross-correlation so a
centered delta kernel is an exact identity.

Stacks double the conv dilation every ``dilation_period`` blocks. Two
named stack shapes are built in: ``latent-denoiser`` (8 blocks, 256
channels) and ``token-generator`` (12 blocks, 512 channels), both with
period 4 and kernel size 7 by default.

Weight persistence uses a flat binary container of named
double-precision tensors: a UTF-8 text manifest (one line per tensor
with name, shape, and byte offset), a blank line, then the concatenated
little-endian float64 payload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .attention import (
    MhaWeights,
    MultiHeadConfig,
    OrthogonalFeatureMatrix,
    RopeConfig,
    _check_attention_args,
    draw_orthogonal_features,
    multi_head_attention,
)
from .mixer_core import FeatureSequence, ShapeError, _as_float_array, _is_int, _reduce_through_init
from .rng import derive_seed, make_rng
from .ssm import SelectiveWeights, bimamba_channelwise, hydra_channelwise

__all__ = [
    "LAYER_NORM_EPS",
    "TENSOR_MAGIC",
    "MIXER_KINDS",
    "FfwWeights",
    "DilatedConvWeights",
    "AttentionMixerConfig",
    "BiMambaMixerConfig",
    "HydraMixerConfig",
    "MixerConfig",
    "DcHydraBlock",
    "BlockStackConfig",
    "silu",
    "ffw_apply",
    "dilated_dw_conv",
    "dilation_for_block",
    "layer_norm_apply",
    "mixer_kind_of",
    "mixer_apply",
    "block_forward",
    "validate_stack",
    "stack_forward",
    "with_zeroed_projections",
    "init_ffw",
    "init_conv",
    "init_selective",
    "init_mixer_config",
    "init_stack",
    "stack_to_tensors",
    "stack_from_tensors",
    "save_tensors",
    "load_tensors",
]

LAYER_NORM_EPS = 1e-5
TENSOR_MAGIC = "MIXERLAB-TENSORS 1"
MIXER_KINDS = ("hydra", "bimamba", "favor", "softmax")


def silu(x):
    """Sigmoid-weighted linear unit, x * sigmoid(x), overflow-free."""
    x = np.asarray(x, dtype=np.float64)
    # one fresh array, updated in place; an explicit ``out`` keeps a 0-d
    # input an array, where ``0.5 * x`` would give a numpy scalar
    t = np.multiply(0.5, x, out=np.empty_like(x))
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    t *= x
    return t if t.ndim else t[()]


@dataclass(frozen=True)
class FfwWeights:
    """Position-wise feed-forward weights: d -> hidden -> d.

    The conventional hidden width is 4d (what :func:`init_ffw` builds);
    any consistent hidden width is accepted.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        w1 = _as_float_array(self.w1, "w1", 2)
        b1 = _as_float_array(self.b1, "b1", 1)
        w2 = _as_float_array(self.w2, "w2", 2)
        b2 = _as_float_array(self.b2, "b2", 1)
        d, h = w1.shape
        if b1.shape != (h,) or w2.shape != (h, d) or b2.shape != (d,):
            raise ShapeError(
                f"inconsistent ffw shapes: w1 {w1.shape}, b1 {b1.shape}, "
                f"w2 {w2.shape}, b2 {b2.shape}"
            )
        for name, val in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            object.__setattr__(self, name, val)

    @property
    def d(self) -> int:
        return self.w1.shape[0]


def ffw_apply(x: FeatureSequence, w: FfwWeights) -> FeatureSequence:
    """Per-frame map ``silu(x @ w1 + b1) @ w2 + b2``."""
    if x.d != w.d:
        raise ShapeError(f"sequence width {x.d} != ffw width {w.d}")
    h = x.data @ w.w1
    h += w.b1
    out = silu(h) @ w.w2
    out += w.b2
    return FeatureSequence(out)


@dataclass(frozen=True)
class DilatedConvWeights:
    """Depthwise conv weights: one k-tap filter per channel, plus bias.

    ``kernel`` has shape (d, k); taps are spaced ``dilation`` frames
    apart around the center tap at index (k - 1) // 2.
    """

    kernel: np.ndarray
    dilation: int
    bias: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        kernel = _as_float_array(self.kernel, "kernel", 2)
        bias = _as_float_array(self.bias, "bias", 1)
        if bias.shape[0] != kernel.shape[0]:
            raise ShapeError(
                f"bias has length {bias.shape[0]}, kernel has {kernel.shape[0]} channels"
            )
        if not _is_int(self.dilation) or self.dilation < 1:
            raise ValueError(f"dilation must be a positive integer, got {self.dilation!r}")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "bias", bias)

    @property
    def d(self) -> int:
        return self.kernel.shape[0]

    @property
    def k(self) -> int:
        return self.kernel.shape[1]


def dilated_dw_conv(x: FeatureSequence, w: DilatedConvWeights) -> FeatureSequence:
    """Per-channel dilated convolution, zero-padded to the same length.

    Output frame t sums kernel[:, tap] * x[t + (tap - center) * dilation]
    over taps whose source frame exists; the receptive field spans
    (k - 1) * dilation + 1 frames. A centered delta kernel with zero
    bias is an exact identity.
    """
    if x.d != w.d:
        raise ShapeError(f"sequence width {x.d} != conv width {w.d}")
    data = x.data
    T = x.T
    center = (w.k - 1) // 2
    out = np.zeros_like(data)
    for tap in range(w.k):
        offset = (tap - center) * w.dilation
        t0 = max(0, -offset)
        t1 = min(T, T - offset)
        if t0 < t1:
            out[t0:t1] += data[t0 + offset : t1 + offset] * w.kernel[:, tap]
    out += w.bias
    return FeatureSequence(out)


def dilation_for_block(block_index: int, period: int) -> int:
    """Dilation schedule: doubles every ``period`` blocks, 2**(i // period)."""
    for name, v, lo in (("block_index", block_index, 0), ("period", period, 1)):
        if not _is_int(v) or v < lo:
            raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")
    return 2 ** (block_index // period)


def layer_norm_apply(x: FeatureSequence, scale, shift) -> FeatureSequence:
    """Per-frame normalization over the d channels, then affine scale+shift.

    Variance is the population variance; the epsilon sits inside the
    square root, so constant rows normalize to zero rather than failing.
    """
    scale = _as_float_array(scale, "scale", 1)
    shift = _as_float_array(shift, "shift", 1)
    if scale.shape[0] != x.d or shift.shape[0] != x.d:
        raise ShapeError(
            f"scale/shift lengths {scale.shape[0]}/{shift.shape[0]} != width {x.d}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    normed = centered / np.sqrt(var + LAYER_NORM_EPS)
    return FeatureSequence(normed * scale + shift)


@dataclass(frozen=True)
class AttentionMixerConfig:
    """Attention mixer stage: multi-head softmax or random-feature kind.

    ``omegas`` (one feature matrix per head) is required exactly for
    kind "favor". ``rope`` optionally rotates per-head queries and keys.
    """

    kind: str
    weights: MhaWeights
    head_config: MultiHeadConfig
    rope: Optional[RopeConfig] = None
    omegas: Optional[Tuple[OrthogonalFeatureMatrix, ...]] = None

    def __post_init__(self) -> None:
        omegas = _check_attention_args(
            self.kind, self.weights, self.head_config, self.rope, self.omegas
        )
        object.__setattr__(self, "omegas", omegas)

    @property
    def d(self) -> int:
        return self.head_config.d_model


def _check_selective_pair(fwd: SelectiveWeights, bwd: SelectiveWeights, out_proj):
    out = _as_float_array(out_proj, "out_proj", 2)
    if out.shape[0] != out.shape[1]:
        raise ShapeError(f"out_proj must be square, got {out.shape}")
    d = out.shape[0]
    if fwd.d != d or bwd.d != d:
        raise ShapeError(
            f"selective weights expect width {fwd.d}/{bwd.d}, out_proj is {d}x{d}"
        )
    if fwd.N != bwd.N:
        raise ShapeError(f"forward/backward state sizes differ: {fwd.N} vs {bwd.N}")
    return out


@dataclass(frozen=True)
class BiMambaMixerConfig:
    """Addition-combined bidirectional scan stage with output projection."""

    fwd: SelectiveWeights
    bwd: SelectiveWeights
    out_proj: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        out = _check_selective_pair(self.fwd, self.bwd, self.out_proj)
        object.__setattr__(self, "out_proj", out)

    @property
    def d(self) -> int:
        return self.out_proj.shape[0]


@dataclass(frozen=True)
class HydraMixerConfig:
    """Shift-combined bidirectional scan stage with a per-channel diagonal
    gain and output projection."""

    fwd: SelectiveWeights
    bwd: SelectiveWeights
    diag_gain: np.ndarray
    out_proj: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        out = _check_selective_pair(self.fwd, self.bwd, self.out_proj)
        gain = _as_float_array(self.diag_gain, "diag_gain", 1)
        if gain.shape[0] != out.shape[0]:
            raise ShapeError(
                f"diag_gain has length {gain.shape[0]}, expected {out.shape[0]}"
            )
        object.__setattr__(self, "out_proj", out)
        object.__setattr__(self, "diag_gain", gain)

    @property
    def d(self) -> int:
        return self.out_proj.shape[0]


MixerConfig = Union[AttentionMixerConfig, BiMambaMixerConfig, HydraMixerConfig]


def mixer_kind_of(config: MixerConfig) -> str:
    if isinstance(config, AttentionMixerConfig):
        return config.kind
    if isinstance(config, HydraMixerConfig):
        return "hydra"
    if isinstance(config, BiMambaMixerConfig):
        return "bimamba"
    raise TypeError(f"not a mixer config: {type(config).__name__}")


def mixer_apply(x: FeatureSequence, config: MixerConfig) -> FeatureSequence:
    """Run the configured mixer stage on a sequence, width preserved."""
    if isinstance(config, AttentionMixerConfig):
        return multi_head_attention(
            x,
            config.weights,
            config.head_config,
            config.kind,
            rope=config.rope,
            omegas=config.omegas,
        )
    if isinstance(config, HydraMixerConfig):
        mixed = hydra_channelwise(x, config.fwd, config.bwd, config.diag_gain)
        return FeatureSequence(mixed.data @ config.out_proj)
    if isinstance(config, BiMambaMixerConfig):
        mixed = bimamba_channelwise(x, config.fwd, config.bwd)
        return FeatureSequence(mixed.data @ config.out_proj)
    raise TypeError(f"not a mixer config: {type(config).__name__}")


@dataclass(frozen=True)
class DcHydraBlock:
    """One backbone block; all component widths must agree."""

    ffw_in: FfwWeights
    mixer_config: MixerConfig
    conv: DilatedConvWeights
    ffw_out: FfwWeights
    norm_scale: np.ndarray
    norm_shift: np.ndarray

    __reduce__ = _reduce_through_init

    def __post_init__(self) -> None:
        scale = _as_float_array(self.norm_scale, "norm_scale", 1)
        shift = _as_float_array(self.norm_shift, "norm_shift", 1)
        d = self.ffw_in.d
        mixer_d = self.mixer_config.d
        widths = {
            "ffw_in": self.ffw_in.d,
            "mixer": mixer_d,
            "conv": self.conv.d,
            "ffw_out": self.ffw_out.d,
            "norm_scale": scale.shape[0],
            "norm_shift": shift.shape[0],
        }
        if len(set(widths.values())) != 1:
            raise ShapeError(f"block widths disagree: {widths}")
        object.__setattr__(self, "norm_scale", scale)
        object.__setattr__(self, "norm_shift", shift)

    @property
    def d(self) -> int:
        return self.ffw_in.d


def block_forward(x: FeatureSequence, block: DcHydraBlock) -> FeatureSequence:
    """Apply one block: see the module docstring for the stage order."""
    if x.d != block.d:
        raise ShapeError(f"sequence width {x.d} != block width {block.d}")
    y = x.data + ffw_apply(x, block.ffw_in).data
    y = y + mixer_apply(FeatureSequence(y), block.mixer_config).data
    y = y + silu(dilated_dw_conv(FeatureSequence(y), block.conv).data)
    y = y + ffw_apply(FeatureSequence(y), block.ffw_out).data
    return layer_norm_apply(FeatureSequence(y), block.norm_scale, block.norm_shift)


@dataclass(frozen=True)
class BlockStackConfig:
    """Stack shape: width, depth, dilation schedule, kernel, mixer kind."""

    d_model: int
    num_blocks: int
    dilation_period: int = 4
    kernel_size: int = 7
    mixer_kind: str = "hydra"

    _PRESETS = {
        "latent-denoiser": (256, 8),
        "token-generator": (512, 12),
    }

    def __post_init__(self) -> None:
        for name in ("d_model", "num_blocks", "dilation_period", "kernel_size"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.mixer_kind not in MIXER_KINDS:
            raise ValueError(
                f"mixer_kind must be one of {MIXER_KINDS}, got {self.mixer_kind!r}"
            )

    @classmethod
    def preset(
        cls,
        name: str,
        mixer_kind: str = "hydra",
        dilation_period: int = 4,
        kernel_size: int = 7,
    ) -> "BlockStackConfig":
        """Named stack shapes: 'latent-denoiser' (8 blocks at width 256)
        and 'token-generator' (12 blocks at width 512)."""
        if name not in cls._PRESETS:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(cls._PRESETS)}"
            )
        d_model, num_blocks = cls._PRESETS[name]
        return cls(
            d_model=d_model,
            num_blocks=num_blocks,
            dilation_period=dilation_period,
            kernel_size=kernel_size,
            mixer_kind=mixer_kind,
        )

    def dilations(self) -> Tuple[int, ...]:
        return tuple(
            dilation_for_block(i, self.dilation_period) for i in range(self.num_blocks)
        )


def validate_stack(cfg: BlockStackConfig, blocks: Sequence[DcHydraBlock]) -> None:
    """Check a block list against a stack config.

    Verifies block count, widths, mixer kinds, kernel sizes, and that
    block i's conv dilation equals the schedule value 2**(i // period).
    """
    if len(blocks) != cfg.num_blocks:
        raise ValueError(f"config says {cfg.num_blocks} blocks, got {len(blocks)}")
    for i, block in enumerate(blocks):
        if block.d != cfg.d_model:
            raise ShapeError(f"block {i} width {block.d} != d_model {cfg.d_model}")
        if mixer_kind_of(block.mixer_config) != cfg.mixer_kind:
            raise ValueError(
                f"block {i} mixer kind {mixer_kind_of(block.mixer_config)!r} "
                f"!= config {cfg.mixer_kind!r}"
            )
        if block.conv.k != cfg.kernel_size:
            raise ValueError(
                f"block {i} kernel size {block.conv.k} != config {cfg.kernel_size}"
            )
        want = dilation_for_block(i, cfg.dilation_period)
        if block.conv.dilation != want:
            raise ValueError(
                f"block {i} dilation {block.conv.dilation} != schedule value {want}"
            )


def stack_forward(
    x: FeatureSequence, cfg: BlockStackConfig, blocks: Sequence[DcHydraBlock]
) -> FeatureSequence:
    """Apply the whole stack in order after validating it against cfg."""
    validate_stack(cfg, blocks)
    y = x
    for block in blocks:
        y = block_forward(y, block)
    return y


def _zeroed_ffw(w: FfwWeights) -> FfwWeights:
    return FfwWeights(w.w1, w.b1, np.zeros_like(w.w2), np.zeros_like(w.b2))


def with_zeroed_projections(block: DcHydraBlock) -> DcHydraBlock:
    """Zero every stage's final projection (and the conv entirely).

    The resulting block computes layer_norm(x) exactly; used to pin the
    residual wiring down in tests and the demo.
    """
    mc = block.mixer_config
    if isinstance(mc, AttentionMixerConfig):
        weights = MhaWeights(mc.weights.wq, mc.weights.wk, mc.weights.wv, np.zeros_like(mc.weights.wo))
        mc = replace(mc, weights=weights)
    elif isinstance(mc, (HydraMixerConfig, BiMambaMixerConfig)):
        mc = replace(mc, out_proj=np.zeros_like(mc.out_proj))
    conv = DilatedConvWeights(
        np.zeros_like(block.conv.kernel), block.conv.dilation, np.zeros_like(block.conv.bias)
    )
    return DcHydraBlock(
        ffw_in=_zeroed_ffw(block.ffw_in),
        mixer_config=mc,
        conv=conv,
        ffw_out=_zeroed_ffw(block.ffw_out),
        norm_scale=block.norm_scale,
        norm_shift=block.norm_shift,
    )


def init_ffw(d: int, rng: np.random.Generator) -> FfwWeights:
    """Random FFW weights with 4d hidden width, zero biases."""
    h = 4 * d
    w1 = rng.standard_normal((d, h)) / np.sqrt(d)
    w2 = rng.standard_normal((h, d)) / np.sqrt(h)
    return FfwWeights(w1, np.zeros(h), w2, np.zeros(d))


def init_conv(d: int, kernel_size: int, dilation: int, rng: np.random.Generator) -> DilatedConvWeights:
    kernel = rng.standard_normal((d, kernel_size)) / np.sqrt(kernel_size)
    return DilatedConvWeights(kernel, dilation, np.zeros(d))


def init_selective(d: int, state_size: int, rng: np.random.Generator) -> SelectiveWeights:
    scale = 1.0 / np.sqrt(d)
    return SelectiveWeights(
        w_delta=rng.standard_normal(d) * scale,
        bias=0.0,
        w_b=rng.standard_normal((state_size, d)) * scale,
        w_c=rng.standard_normal((state_size, d)) * scale,
        a_log=0.0,
    )


def init_mixer_config(
    kind: str,
    d: int,
    rng: np.random.Generator,
    *,
    num_heads: int = 4,
    feature_count: int = 64,
    state_size: int = 16,
    use_rope: bool = True,
    rope_base: float = 10000.0,
    omega_seed: int = 0,
) -> MixerConfig:
    """Random weights for one mixer stage of the given kind.

    Feature matrices for "favor" are drawn from per-head children of
    ``omega_seed`` so the draw is reproducible independent of ``rng``
    consumption order.
    """
    if kind not in MIXER_KINDS:
        raise ValueError(f"kind must be one of {MIXER_KINDS}, got {kind!r}")
    if kind in ("softmax", "favor"):
        scale = 1.0 / np.sqrt(d)
        weights = MhaWeights(
            wq=rng.standard_normal((d, d)) * scale,
            wk=rng.standard_normal((d, d)) * scale,
            wv=rng.standard_normal((d, d)) * scale,
            wo=rng.standard_normal((d, d)) * scale,
        )
        head_cfg = MultiHeadConfig(d_model=d, num_heads=num_heads)
        rope = RopeConfig(head_cfg.d_head, rope_base) if use_rope else None
        omegas = None
        if kind == "favor":
            omegas = tuple(
                draw_orthogonal_features(head_cfg.d_head, feature_count, derive_seed(omega_seed, h))
                for h in range(num_heads)
            )
        return AttentionMixerConfig(kind, weights, head_cfg, rope, omegas)
    fwd = init_selective(d, state_size, rng)
    bwd = init_selective(d, state_size, rng)
    out_proj = rng.standard_normal((d, d)) / np.sqrt(d)
    if kind == "hydra":
        return HydraMixerConfig(fwd, bwd, np.ones(d), out_proj)
    return BiMambaMixerConfig(fwd, bwd, out_proj)


def init_stack(
    cfg: BlockStackConfig,
    seed: int,
    *,
    num_heads: int = 4,
    feature_count: int = 64,
    state_size: int = 16,
    use_rope: bool = True,
    rope_base: float = 10000.0,
) -> Tuple[DcHydraBlock, ...]:
    """Randomly initialize a whole stack, reproducibly from one seed.

    Block i draws from stream (i, 0) of the seed; favor feature
    matrices use child seeds on stream (i, 1). LayerNorm starts at
    scale 1, shift 0.
    """
    blocks = []
    for i in range(cfg.num_blocks):
        rng = make_rng(seed, i, 0)
        ffw_in = init_ffw(cfg.d_model, rng)
        mixer = init_mixer_config(
            cfg.mixer_kind,
            cfg.d_model,
            rng,
            num_heads=num_heads,
            feature_count=feature_count,
            state_size=state_size,
            use_rope=use_rope,
            rope_base=rope_base,
            omega_seed=derive_seed(seed, i, 1),
        )
        conv = init_conv(
            cfg.d_model, cfg.kernel_size, dilation_for_block(i, cfg.dilation_period), rng
        )
        ffw_out = init_ffw(cfg.d_model, rng)
        blocks.append(
            DcHydraBlock(
                ffw_in=ffw_in,
                mixer_config=mixer,
                conv=conv,
                ffw_out=ffw_out,
                norm_scale=np.ones(cfg.d_model),
                norm_shift=np.zeros(cfg.d_model),
            )
        )
    return tuple(blocks)


def _selective_tensors(prefix: str, w: SelectiveWeights) -> dict:
    return {
        f"{prefix}.w_delta": w.w_delta,
        f"{prefix}.bias": np.array([w.bias]),
        f"{prefix}.w_b": w.w_b,
        f"{prefix}.w_c": w.w_c,
        f"{prefix}.a_log": np.array([w.a_log]),
    }


def stack_to_tensors(blocks: Sequence[DcHydraBlock]) -> dict:
    """Flatten a stack's weights to an ordered name -> tensor mapping."""
    out = {}
    for i, block in enumerate(blocks):
        p = f"block{i:02d}"
        for part, w in (("ffw_in", block.ffw_in), ("ffw_out", block.ffw_out)):
            out[f"{p}.{part}.w1"] = w.w1
            out[f"{p}.{part}.b1"] = w.b1
            out[f"{p}.{part}.w2"] = w.w2
            out[f"{p}.{part}.b2"] = w.b2
        mc = block.mixer_config
        if isinstance(mc, AttentionMixerConfig):
            out[f"{p}.mixer.wq"] = mc.weights.wq
            out[f"{p}.mixer.wk"] = mc.weights.wk
            out[f"{p}.mixer.wv"] = mc.weights.wv
            out[f"{p}.mixer.wo"] = mc.weights.wo
            if mc.omegas is not None:
                for h, om in enumerate(mc.omegas):
                    out[f"{p}.mixer.head{h:02d}.omega"] = om.omega
        else:
            out.update(_selective_tensors(f"{p}.mixer.fwd", mc.fwd))
            out.update(_selective_tensors(f"{p}.mixer.bwd", mc.bwd))
            if isinstance(mc, HydraMixerConfig):
                out[f"{p}.mixer.diag_gain"] = mc.diag_gain
            out[f"{p}.mixer.out_proj"] = mc.out_proj
        out[f"{p}.conv.kernel"] = block.conv.kernel
        out[f"{p}.conv.bias"] = block.conv.bias
        out[f"{p}.norm.scale"] = block.norm_scale
        out[f"{p}.norm.shift"] = block.norm_shift
    return out


def _take(tensors: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return tensors[name]
    except KeyError:
        raise ValueError(f"container is missing tensor {name!r}") from None


def _selective_from(tensors, prefix: str) -> SelectiveWeights:
    return SelectiveWeights(
        w_delta=_take(tensors, f"{prefix}.w_delta"),
        bias=float(_take(tensors, f"{prefix}.bias")[0]),
        w_b=_take(tensors, f"{prefix}.w_b"),
        w_c=_take(tensors, f"{prefix}.w_c"),
        a_log=float(_take(tensors, f"{prefix}.a_log")[0]),
    )


def stack_from_tensors(
    cfg: BlockStackConfig,
    tensors: Mapping[str, np.ndarray],
    seed: int,
    *,
    num_heads: int = 4,
    feature_count: int = 64,
    use_rope: bool = True,
    rope_base: float = 10000.0,
) -> Tuple[DcHydraBlock, ...]:
    """Rebuild a stack from a tensor container written by this package.

    Structural facts (kinds, dilations, rope) come from ``cfg`` and the
    keyword arguments; numeric weights come from ``tensors``. Favor
    feature matrices are re-drawn from the same child seeds
    :func:`init_stack` used and verified bit-identical against the
    stored copies, so ``seed`` must be the stack's original seed.
    """
    blocks = []
    for i in range(cfg.num_blocks):
        p = f"block{i:02d}"
        ffws = {}
        for part in ("ffw_in", "ffw_out"):
            ffws[part] = FfwWeights(
                w1=_take(tensors, f"{p}.{part}.w1"),
                b1=_take(tensors, f"{p}.{part}.b1"),
                w2=_take(tensors, f"{p}.{part}.w2"),
                b2=_take(tensors, f"{p}.{part}.b2"),
            )
        if cfg.mixer_kind in ("softmax", "favor"):
            weights = MhaWeights(
                wq=_take(tensors, f"{p}.mixer.wq"),
                wk=_take(tensors, f"{p}.mixer.wk"),
                wv=_take(tensors, f"{p}.mixer.wv"),
                wo=_take(tensors, f"{p}.mixer.wo"),
            )
            head_cfg = MultiHeadConfig(d_model=cfg.d_model, num_heads=num_heads)
            rope = RopeConfig(head_cfg.d_head, rope_base) if use_rope else None
            omegas = None
            if cfg.mixer_kind == "favor":
                omega_seed = derive_seed(seed, i, 1)
                drawn = []
                for h in range(num_heads):
                    om = draw_orthogonal_features(
                        head_cfg.d_head, feature_count, derive_seed(omega_seed, h)
                    )
                    stored = _take(tensors, f"{p}.mixer.head{h:02d}.omega")
                    if not np.array_equal(om.omega, stored):
                        raise ValueError(
                            f"stored feature matrix {p}.mixer.head{h:02d}.omega does "
                            f"not match its seed; wrong seed for this container?"
                        )
                    drawn.append(om)
                omegas = tuple(drawn)
            mixer: MixerConfig = AttentionMixerConfig(
                cfg.mixer_kind, weights, head_cfg, rope, omegas
            )
        else:
            fwd = _selective_from(tensors, f"{p}.mixer.fwd")
            bwd = _selective_from(tensors, f"{p}.mixer.bwd")
            out_proj = _take(tensors, f"{p}.mixer.out_proj")
            if cfg.mixer_kind == "hydra":
                mixer = HydraMixerConfig(fwd, bwd, _take(tensors, f"{p}.mixer.diag_gain"), out_proj)
            else:
                mixer = BiMambaMixerConfig(fwd, bwd, out_proj)
        conv = DilatedConvWeights(
            kernel=_take(tensors, f"{p}.conv.kernel"),
            dilation=dilation_for_block(i, cfg.dilation_period),
            bias=_take(tensors, f"{p}.conv.bias"),
        )
        blocks.append(
            DcHydraBlock(
                ffw_in=ffws["ffw_in"],
                mixer_config=mixer,
                conv=conv,
                ffw_out=ffws["ffw_out"],
                norm_scale=_take(tensors, f"{p}.norm.scale"),
                norm_shift=_take(tensors, f"{p}.norm.shift"),
            )
        )
    return tuple(blocks)


def save_tensors(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named float64 tensors to the flat binary container format.

    UTF-8 manifest: a magic line, then ``name d0xd1x... offset`` per
    tensor (offsets into the payload, insertion order), a blank line,
    then the little-endian float64 payload. Names must be non-empty and
    contain no whitespace; tensors must be at least 1-dimensional
    (store scalars as shape-(1,) arrays).
    """
    lines = [TENSOR_MAGIC]
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"invalid tensor name {name!r}")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim < 1:
            raise ValueError(f"tensor {name!r} must be at least 1-dimensional")
        blob = np.ascontiguousarray(a).astype("<f8", copy=False).tobytes()
        shape = "x".join(str(s) for s in a.shape)
        lines.append(f"{name} {shape} {offset}")
        blobs.append(blob)
        offset += len(blob)
    payload = b"".join(blobs)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes("\n".join(lines).encode("utf-8") + b"\n\n" + payload)


def load_tensors(path) -> dict:
    """Read a container written by :func:`save_tensors`; name -> tensor.

    The manifest's offsets must tile the payload exactly, in manifest
    order: each tensor starts where the previous one ends, the first at
    0, and the last ends at the end of the file. Aliased, overlapping,
    reordered or gapped offsets and trailing bytes raise ValueError.
    """
    data = Path(path).read_bytes()
    sep = data.find(b"\n\n")
    if sep < 0:
        raise ValueError(f"{path}: missing manifest terminator")
    lines = data[:sep].decode("utf-8").split("\n")
    if lines[0] != TENSOR_MAGIC:
        raise ValueError(f"{path}: bad magic line {lines[0]!r}")
    payload = data[sep + 2 :]
    out = {}
    expected_offset = 0
    for line in lines[1:]:
        parts = line.split(" ")
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed manifest line {line!r}")
        name, shape_s, off_s = parts
        if name in out:
            raise ValueError(f"{path}: duplicate tensor name {name!r}")
        try:
            shape = tuple(int(s) for s in shape_s.split("x"))
            offset = int(off_s)
        except ValueError:
            raise ValueError(f"{path}: malformed manifest line {line!r}") from None
        if any(s < 1 for s in shape) or offset < 0:
            raise ValueError(f"{path}: malformed manifest line {line!r}")
        if offset != expected_offset:
            raise ValueError(
                f"{path}: tensor {name!r} starts at payload offset {offset}, "
                f"expected {expected_offset}"
            )
        count = int(np.prod(shape))
        if offset + 8 * count > len(payload):
            raise ValueError(f"{path}: payload truncated for tensor {name!r}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        out[name] = arr.reshape(shape).astype(np.float64, copy=True)
        expected_offset = offset + 8 * count
    if expected_offset != len(payload):
        raise ValueError(
            f"{path}: {len(payload) - expected_offset} bytes after the last tensor"
        )
    return out
